// Package switchcore implements the NetCache switch data-plane program
// (SOSP'17 §4.4, Fig. 8) on top of the dataplane ASIC model: the P4 program
// of the paper's prototype, expressed as tables and register arrays and
// subject to the same compilation and resource constraints.
//
// Pipeline layout (mirroring Fig. 8):
//
//	ingress: cache_lookup → prep_route → route
//	egress:  sample • cache_status • vlen → cache_ctr, cms0..3 →
//	         hh_check → bloom0..2 → hh_report, value0..7 → mirror
//
// The cache lookup table lives at ingress; value register arrays, the cache
// status (validity) array, per-key counters, the Count-Min sketch, and the
// Bloom filter live at egress. Cache-hit read replies are bounced to the
// client-facing port with packet mirroring. Write queries invalidate the
// status bit in flight and are rewritten to PutCached/DeleteCached so the
// server knows to refresh the cache; OpCacheUpdate packets write new values
// into the value arrays entirely in the data plane and are acknowledged to
// the server (§4.3).
package switchcore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"netcache/internal/cachemem"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/rng"
	"netcache/internal/sketch"
)

// Config sizes the NetCache program. The zero value is not usable; start
// from PaperConfig.
type Config struct {
	// Chip is the target ASIC model.
	Chip dataplane.ChipConfig
	// CacheSize is the maximum number of cached items (lookup-table
	// entries, counter slots, validity bits). 64K in the prototype.
	CacheSize int
	// ValueArrays and ValueSlots shape the value store: ValueArrays
	// register arrays (stages), each with ValueSlots 16-byte slots.
	// 8 × 64K in the prototype (8 MB).
	ValueArrays int
	ValueSlots  int
	// CMSWidth is the slots per Count-Min row (4 rows, 16-bit). 64K in
	// the prototype.
	CMSWidth int
	// BloomWidth is the bits per Bloom partition (3 partitions). 256K in
	// the prototype.
	BloomWidth int
	// SampleRate is the initial statistics sampling probability.
	SampleRate float64
	// HotThreshold is the Count-Min frequency above which a key is
	// reported hot.
	HotThreshold uint64
	// SampleSeed seeds the data-plane sampling RNG.
	SampleSeed uint64
	// AllowForeignUpdates disables the ownership check on data-plane
	// cache updates (normally an OpCacheUpdate is honored only when it
	// arrives on the owning server's port). Benchmarks that replay
	// updates through every port — the snake test — need it; production
	// configurations should not.
	AllowForeignUpdates bool
}

// PaperConfig returns the prototype configuration of §6: 64K-entry lookup
// table, 8 value stages of 64K 16-byte slots, 4×64K 16-bit Count-Min sketch,
// 3×256K-bit Bloom filter.
func PaperConfig() Config {
	return Config{
		Chip:         dataplane.TofinoLike(),
		CacheSize:    65536,
		ValueArrays:  8,
		ValueSlots:   65536,
		CMSWidth:     65536,
		BloomWidth:   262144,
		SampleRate:   0.25,
		HotThreshold: 64,
		SampleSeed:   1,
	}
}

// TestConfig returns a small configuration for fast tests and examples.
func TestConfig() Config {
	c := PaperConfig()
	c.CacheSize = 1024
	c.ValueSlots = 1024
	c.CMSWidth = 4096
	c.BloomWidth = 16384
	c.SampleRate = 1.0
	c.HotThreshold = 8
	return c
}

// HotReport is a heavy-hitter digest delivered to the controller: an
// uncached key whose sampled frequency crossed the threshold (§4.4.3).
type HotReport struct {
	Key  netproto.Key
	Freq uint64
}

// OverflowReport tells the controller that a data-plane cache update was
// refused because the new value needs more slots than the item's placement
// provides — the case §4.3 defers to the control plane. The entry is left
// invalid; the controller should reinstall the item with a larger placement.
type OverflowReport struct {
	Key     netproto.Key
	NewSize int
}

// digest kinds on the data-plane→controller queue.
const (
	digestHot      = 1
	digestOverflow = 2
)

// value position of the netproto packet inside a frame.
const (
	frameOpOff    = netproto.FrameHeaderSize + 2
	frameSeqOff   = netproto.FrameHeaderSize + 3
	frameKeyOff   = netproto.FrameHeaderSize + 11
	frameVlenOff  = netproto.FrameHeaderSize + 27
	frameValueOff = netproto.FrameHeaderSize + 28
)

// Switch is the compiled NetCache switch: the data-plane entry point plus
// the switch-driver surface the controller manages it through.
type Switch struct {
	cfg  Config
	prog *dataplane.Program
	pl   *dataplane.Pipeline
	rep  dataplane.ResourceReport

	// driver handles
	lookup *dataplane.Table
	route  *dataplane.Table
	valid  *dataplane.Register
	ver    *dataplane.Register
	vlen   *dataplane.Register
	ctr    *dataplane.Register
	cms    [4]*dataplane.Register
	bloom  [3]*dataplane.Register
	values []*dataplane.Register

	sampler *sketch.Sampler

	// trace, when set, receives per-query hop records (hit/miss/write
	// classification). Disabled cost: one atomic load and a nil branch per
	// processed frame.
	trace atomic.Pointer[qtrace.Tap]

	// Every cached Get writes a keyMu stripe, and every frame reads the
	// fields above: the pad keeps the first stripes off their cache line.
	_ [64]byte

	// keyMu stripes a readers-writer lock across cache key indexes. It is
	// the per-key serialization of §4.3 made explicit: a cached GET holds
	// the key's read lock for its whole traversal, while writes, cache
	// updates, and driver install/evict/rebind hold the write lock — so the
	// multi-register invariant (valid bit ⇒ consistent vlen and value
	// slots) holds even though each register access is only individually
	// atomic, and a reader can never observe a torn value. Packets
	// acquire at most one stripe (in the cache_lookup hit action) and
	// release it when they exit the pipeline; the driver acquires the
	// control mutex before any stripe, never the reverse.
	keyMu [keyStripes]sync.RWMutex
}

// keyStripes is the size of the per-key lock stripe array (power of two).
const keyStripes = 256

// keyLock returns the stripe guarding cache index kidx.
func (sw *Switch) keyLock(kidx int) *sync.RWMutex {
	return &sw.keyMu[kidx&(keyStripes-1)]
}

// fields of the program PHV, grouped for readability.
type phv struct {
	l2Dst, l2Src dataplane.FieldID
	isNC         dataplane.FieldID
	op           dataplane.FieldID
	seq          dataplane.FieldID
	keyHi, keyLo dataplane.FieldID
	reqVlen      dataplane.FieldID // VLEN carried by the packet

	hit      dataplane.FieldID
	bitmap   dataplane.FieldID
	vidx     dataplane.FieldID
	kidx     dataplane.FieldID
	srvPort  dataplane.FieldID
	routeKey dataplane.FieldID
	clntPort dataplane.FieldID

	sampled dataplane.FieldID
	isValid dataplane.FieldID
	valLen  dataplane.FieldID // authoritative cached value length
	cmMin   dataplane.FieldID
	hot     dataplane.FieldID
	bloomNu dataplane.FieldID
	reply   dataplane.FieldID
	rewrite dataplane.FieldID // rewritten op byte, 0 = none
	ovfl    dataplane.FieldID // cache update larger than allocated slots
}

// New builds and compiles the NetCache program. It returns the switch and
// the resource report the compiler produced.
func New(cfg Config) (*Switch, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	sw := &Switch{
		cfg:     cfg,
		sampler: sketch.NewSampler(cfg.SampleRate, cfg.SampleSeed),
	}
	p := dataplane.NewProgram("netcache")
	sw.prog = p

	var f phv
	f.l2Dst = p.Field("l2_dst", 16)
	f.l2Src = p.Field("l2_src", 16)
	f.isNC = p.Field("is_netcache", 1)
	f.op = p.Field("nc_op", 8)
	f.seq = p.Field("nc_seq", 64)
	f.keyHi = p.Field("nc_key_hi", 64)
	f.keyLo = p.Field("nc_key_lo", 64)
	f.reqVlen = p.Field("nc_req_vlen", 8)
	f.hit = p.Field("cache_hit", 1)
	f.bitmap = p.Field("cache_bitmap", 16)
	f.vidx = p.Field("cache_vidx", 16)
	f.kidx = p.Field("cache_kidx", 16)
	f.srvPort = p.Field("server_port", 16)
	f.routeKey = p.Field("route_key", 16)
	f.clntPort = p.Field("client_port", 16)
	f.sampled = p.Field("stats_sampled", 1)
	f.isValid = p.Field("cache_is_valid", 1)
	f.valLen = p.Field("cache_val_len", 8)
	f.cmMin = p.Field("cms_min", 16)
	f.hot = p.Field("hh_hot", 1)
	f.bloomNu = p.Field("bloom_new", 1)
	f.reply = p.Field("do_reply", 1)
	f.rewrite = p.Field("op_rewrite", 8)
	f.ovfl = p.Field("update_overflow", 1)

	sw.buildParser(f)
	sw.buildIngress(f)
	sw.buildEgress(f)
	sw.buildDeparser(f)

	pl, rep, err := dataplane.Compile(p, cfg.Chip)
	if err != nil {
		return nil, fmt.Errorf("switchcore: %w", err)
	}
	sw.pl = pl
	sw.rep = rep
	return sw, nil
}

func validate(cfg Config) error {
	switch {
	case cfg.CacheSize <= 0 || cfg.CacheSize > 1<<16:
		return fmt.Errorf("switchcore: cache size %d out of (0, 64K]", cfg.CacheSize)
	case cfg.ValueArrays < 1 || cfg.ValueArrays > 16:
		return fmt.Errorf("switchcore: value arrays %d out of [1,16]", cfg.ValueArrays)
	case cfg.ValueSlots <= 0 || cfg.ValueSlots > 1<<16:
		return fmt.Errorf("switchcore: value slots %d out of (0, 64K]", cfg.ValueSlots)
	case cfg.ValueSlots < cfg.CacheSize:
		// With a bin per key index, some bin is wholly free while a key
		// index is, so an insertion never fails for value memory.
		return fmt.Errorf("switchcore: value slots %d < cache size %d", cfg.ValueSlots, cfg.CacheSize)
	case cfg.CMSWidth <= 0 || cfg.CMSWidth&(cfg.CMSWidth-1) != 0:
		return fmt.Errorf("switchcore: CMS width %d must be a positive power of two", cfg.CMSWidth)
	case cfg.BloomWidth <= 0 || cfg.BloomWidth&(cfg.BloomWidth-1) != 0:
		return fmt.Errorf("switchcore: bloom width %d must be a positive power of two", cfg.BloomWidth)
	case cfg.SampleRate < 0 || cfg.SampleRate > 1:
		return fmt.Errorf("switchcore: sample rate %g out of [0,1]", cfg.SampleRate)
	}
	return nil
}

// packHitData packs the cache_lookup action data into one 64-bit word —
// the resource-efficiency point of Fig. 6b (one index + one bitmap, not one
// index per array).
func packHitData(bitmap uint16, vidx, kidx, srvPort int) uint64 {
	return uint64(bitmap)<<48 | uint64(vidx)<<32 | uint64(kidx)<<16 | uint64(uint16(srvPort))
}

func (sw *Switch) buildParser(f phv) {
	sw.prog.SetParser(func(raw []byte, ctx *dataplane.Ctx) error {
		fr, err := netproto.DecodeFrame(raw)
		if err != nil {
			if errors.Is(err, netproto.ErrBadFrameChecksum) {
				// Frame failed its integrity check: classify as corrupt
				// so the pipeline's Corrupted counter proves bit-flipped
				// frames die here, never half-parsed into the tables.
				return fmt.Errorf("%w: %v", dataplane.ErrCorruptPacket, err)
			}
			return err
		}
		ctx.Set(f.l2Dst, uint64(fr.Dst))
		ctx.Set(f.l2Src, uint64(fr.Src))
		var pkt netproto.Packet
		if netproto.Decode(fr.Payload, &pkt) == nil {
			ctx.Set(f.isNC, 1)
			ctx.Set(f.op, uint64(pkt.Op))
			ctx.Set(f.seq, pkt.Seq)
			ctx.Set(f.keyHi, binary.BigEndian.Uint64(pkt.Key[0:8]))
			ctx.Set(f.keyLo, binary.BigEndian.Uint64(pkt.Key[8:16]))
			ctx.Set(f.reqVlen, uint64(len(pkt.Value)))
		}
		return nil
	})
}

func (sw *Switch) buildIngress(f phv) {
	p := sw.prog

	// cache_lookup: exact match on the 128-bit key (two 64-bit PHV
	// containers). One entry per cached item; action data packs bitmap,
	// value index, key index and server port into a single word.
	lookup := p.TableBuild(dataplane.TableSpec{
		Name:        "cache_lookup",
		Gress:       dataplane.Ingress,
		MatchFields: []dataplane.FieldID{f.keyHi, f.keyLo},
		Kind:        dataplane.MatchExact,
		Size:        sw.cfg.CacheSize,
		// NetCache packets that carry a key: Get/Put/Delete/CacheUpdate.
		When: []dataplane.Cond{is(f.op, netproto.OpGet, netproto.OpPut, netproto.OpPutCached,
			netproto.OpDelete, netproto.OpDeleteCached, netproto.OpCacheUpdate), is(f.isNC, 1)},
		ActionDataWords: 1,
	})
	lookup.Action("hit", func(ctx *dataplane.Ctx, data []uint64) {
		// Per-key serialization (§4.3): a cached GET shares the key with
		// other readers; writes and cache updates get exclusive access.
		// Held until the packet leaves the pipeline, spanning the egress
		// status/vlen/counter/value stages as one atomic step. The entry
		// matched before the lock, so the controller may since have
		// evicted the key and reused its key index or value slots: the
		// lookup is re-probed under the lock, following a reinstalled
		// entry to its stripe, and a key gone meanwhile is a lookup miss.
		d := data[0]
		read := netproto.Op(ctx.Get(f.op)) == netproto.OpGet
		var mu *sync.RWMutex
		for {
			mu = sw.keyLock(int((d >> 16) & 0xFFFF))
			if read {
				mu.RLock()
			} else {
				mu.Lock()
			}
			e := sw.lookup.ProbeExact(ctx.Get(f.keyHi), ctx.Get(f.keyLo))
			if e != nil && e.Data[0] == d {
				break
			}
			if read {
				mu.RUnlock()
			} else {
				mu.Unlock()
			}
			if e == nil {
				return
			}
			d = e.Data[0]
		}
		if read {
			ctx.OnCompleteRUnlock(mu)
		} else {
			ctx.OnCompleteUnlock(mu)
		}
		ctx.Set(f.hit, 1)
		ctx.Set(f.bitmap, d>>48)
		ctx.Set(f.vidx, (d>>32)&0xFFFF)
		ctx.Set(f.kidx, (d>>16)&0xFFFF)
		ctx.Set(f.srvPort, d&0xFFFF)
	})
	sw.lookup = lookup

	// prep_route: choose which address the routing table matches on. For
	// cache-hit reads the switch replies directly, so it routes on the
	// source address; everything else routes on the destination (§4.4.4).
	prep := p.TableBuild(dataplane.TableSpec{
		Name:        "prep_route",
		Gress:       dataplane.Ingress,
		MatchFields: []dataplane.FieldID{f.hit, f.op},
		Kind:        dataplane.MatchExact,
		Size:        4,
		After:       []*dataplane.Table{lookup},
	})
	prep.Action("route_on_src", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.Set(f.routeKey, ctx.Get(f.l2Src))
	})
	prep.Action("route_on_dst", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.Set(f.routeKey, ctx.Get(f.l2Dst))
	})
	mustDefault(prep, "route_on_dst")
	mustAdd(prep, []uint64{1, uint64(netproto.OpGet)}, "route_on_src", nil)

	// route: standard L3-style forwarding on the selected address. For a
	// cache-hit read the result is the client-facing port, remembered for
	// the egress mirror; the packet itself goes to the egress pipe that
	// owns the cached value (the server's port, from the lookup data).
	route := p.TableBuild(dataplane.TableSpec{
		Name:            "route",
		Gress:           dataplane.Ingress,
		MatchFields:     []dataplane.FieldID{f.routeKey},
		Kind:            dataplane.MatchExact,
		Size:            1024,
		ActionDataWords: 1,
		After:           []*dataplane.Table{prep},
	})
	route.Action("set_port", func(ctx *dataplane.Ctx, data []uint64) {
		port := int(data[0])
		if ctx.Get(f.hit) == 1 && netproto.Op(ctx.Get(f.op)) == netproto.OpGet {
			ctx.Set(f.clntPort, data[0])
			ctx.EgressPort = int(ctx.Get(f.srvPort))
			return
		}
		ctx.EgressPort = port
	})
	route.Action("drop", func(ctx *dataplane.Ctx, data []uint64) { ctx.Drop() })
	mustDefault(route, "drop")
	sw.route = route
}

func (sw *Switch) buildEgress(f phv) {
	p := sw.prog

	// sample: the statistics front-end high-pass filter (§4.4.3). Gated
	// to NetCache reads; models the ASIC RNG extern.
	sample := p.TableBuild(dataplane.TableSpec{
		Name:        "sample",
		Gress:       dataplane.Egress,
		MatchFields: []dataplane.FieldID{f.op},
		Kind:        dataplane.MatchExact,
		Size:        1,
		When:        []dataplane.Cond{is(f.op, netproto.OpGet), is(f.isNC, 1)},
	})
	sample.Action("roll", func(ctx *dataplane.Ctx, data []uint64) {
		if sw.sampler.Sample() {
			ctx.Set(f.sampled, 1)
		}
	})
	mustDefault(sample, "roll")

	// cache_status: the validity bit per cached key. Reads check it,
	// writes clear it (invalidation), cache updates set it (§4.4.4).
	sw.valid = p.Register(dataplane.RegisterSpec{
		Name: "cache_status", Gress: dataplane.Egress,
		Slots: sw.cfg.CacheSize, SlotBits: 1,
	})
	// cache_ver: truncated sequence number of the last applied update per
	// key. The paper carries writes over reliable transport; here the rack
	// network may duplicate or reorder frames, so a replayed stale
	// OpCacheUpdate could regress a value after a newer one landed. Serial
	// arithmetic over the low 32 bits of SEQ rejects such updates.
	sw.ver = p.Register(dataplane.RegisterSpec{
		Name: "cache_ver", Gress: dataplane.Egress,
		Slots: sw.cfg.CacheSize, SlotBits: 32,
	})
	status := p.TableBuild(dataplane.TableSpec{
		Name:        "cache_status",
		Gress:       dataplane.Egress,
		MatchFields: []dataplane.FieldID{f.op},
		Kind:        dataplane.MatchExact,
		Size:        8,
		Registers:   []*dataplane.Register{sw.valid, sw.ver},
		When:        []dataplane.Cond{is(f.hit, 1), is(f.isNC, 1)},
	})
	status.Action("check", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.Set(f.isValid, ctx.RegGet(sw.valid, int(ctx.Get(f.kidx))))
	})
	status.Action("invalidate", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.RegSet(sw.valid, int(ctx.Get(f.kidx)), 0)
		// Tell the server the key is cached by rewriting the op (§4.3).
		if netproto.Op(ctx.Get(f.op)) == netproto.OpPut {
			ctx.Set(f.rewrite, uint64(netproto.OpPutCached))
		} else {
			ctx.Set(f.rewrite, uint64(netproto.OpDeleteCached))
		}
	})
	status.Action("validate", func(ctx *dataplane.Ctx, data []uint64) {
		// Only the key's owning server may refresh its entry: a
		// CacheUpdate arriving on any other port is ignored (the
		// entry stays as it was), closing the cache-poisoning hole a
		// spoofed update would otherwise open. The ingress port is
		// hardware metadata; the owner port comes from the lookup.
		if !sw.cfg.AllowForeignUpdates && ctx.InPort != int(ctx.Get(f.srvPort)) {
			ctx.Set(f.ovfl, 1) // suppress the vlen/value writes too
			return
		}
		// Version guard: a duplicated or reordered OpCacheUpdate carrying
		// a sequence number at or below the last applied one must not
		// regress the cached value. Serial-number comparison over the low
		// 32 bits; the slot advances only for strictly newer updates.
		seq32 := uint32(ctx.Get(f.seq))
		stale := false
		ctx.RegReadModify(sw.ver, int(ctx.Get(f.kidx)), func(old uint64) uint64 {
			if int32(seq32-uint32(old)) <= 0 {
				stale = true
				return old
			}
			return uint64(seq32)
		})
		if stale {
			ctx.Set(f.ovfl, 1) // suppress the vlen/value writes too
			return
		}
		// An empty update invalidates: the server deleted a key whose
		// stale value a cache insertion may have validated.
		if ctx.Get(f.reqVlen) == 0 {
			ctx.Set(f.ovfl, 1)
			ctx.RegSet(sw.valid, int(ctx.Get(f.kidx)), 0)
			return
		}
		// §4.3: only updates no larger than the allocated slots may be
		// applied in the data plane. Oversized updates leave the entry
		// invalid (reads keep falling through to the server) and are
		// reported to the controller for a control-plane reinstall.
		need := (int(ctx.Get(f.reqVlen)) + 15) / 16
		have := bits.OnesCount64(ctx.Get(f.bitmap))
		if need > have {
			ctx.Set(f.ovfl, 1)
			ctx.RegSet(sw.valid, int(ctx.Get(f.kidx)), 0)
			d := digest(digestOverflow, ctx.Get(f.keyHi), ctx.Get(f.keyLo), ctx.Get(f.reqVlen))
			ctx.Digest(d[:])
			return
		}
		ctx.RegSet(sw.valid, int(ctx.Get(f.kidx)), 1)
		ctx.Set(f.isValid, 1) // opens the value stages' gateway
	})
	// invalidate_pass handles writes an upstream NetCache switch already
	// rewrote (multi-switch deployments, §4.3: writes "invalidate any
	// copies stored in the switches on the routes to storage servers"):
	// this switch's copy is invalidated too, the op stays as it is.
	status.Action("invalidate_pass", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.RegSet(sw.valid, int(ctx.Get(f.kidx)), 0)
	})
	mustAdd(status, []uint64{uint64(netproto.OpGet)}, "check", nil)
	mustAdd(status, []uint64{uint64(netproto.OpPut)}, "invalidate", nil)
	mustAdd(status, []uint64{uint64(netproto.OpDelete)}, "invalidate", nil)
	mustAdd(status, []uint64{uint64(netproto.OpPutCached)}, "invalidate_pass", nil)
	mustAdd(status, []uint64{uint64(netproto.OpDeleteCached)}, "invalidate_pass", nil)
	mustAdd(status, []uint64{uint64(netproto.OpCacheUpdate)}, "validate", nil)

	// vlen: authoritative value length per cached key, so data-plane
	// cache updates may shrink a value without a control-plane touch.
	sw.vlen = p.Register(dataplane.RegisterSpec{
		Name: "cache_vlen", Gress: dataplane.Egress,
		Slots: sw.cfg.CacheSize, SlotBits: 8,
	})
	vlenT := p.TableBuild(dataplane.TableSpec{
		Name:        "cache_vlen",
		Gress:       dataplane.Egress,
		MatchFields: []dataplane.FieldID{f.op},
		Kind:        dataplane.MatchExact,
		Size:        8,
		Registers:   []*dataplane.Register{sw.vlen},
		After:       []*dataplane.Table{status}, // consumes the overflow verdict
		When:        []dataplane.Cond{is(f.hit, 1), is(f.isNC, 1)},
	})
	vlenT.Action("read", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.Set(f.valLen, ctx.RegGet(sw.vlen, int(ctx.Get(f.kidx))))
	})
	vlenT.Action("write", func(ctx *dataplane.Ctx, data []uint64) {
		if ctx.Get(f.ovfl) == 1 {
			return // refused update: keep the old length
		}
		ctx.RegSet(sw.vlen, int(ctx.Get(f.kidx)), ctx.Get(f.reqVlen))
	})
	mustAdd(vlenT, []uint64{uint64(netproto.OpGet)}, "read", nil)
	mustAdd(vlenT, []uint64{uint64(netproto.OpCacheUpdate)}, "write", nil)

	// cache_ctr: per-key hit counter, sampled (§4.4.3, Fig. 7).
	sw.ctr = p.Register(dataplane.RegisterSpec{
		Name: "cache_ctr", Gress: dataplane.Egress,
		Slots: sw.cfg.CacheSize, SlotBits: 16,
	})
	ctrT := p.TableBuild(dataplane.TableSpec{
		Name:        "cache_ctr",
		Gress:       dataplane.Egress,
		MatchFields: []dataplane.FieldID{f.op},
		Kind:        dataplane.MatchExact,
		Size:        1,
		Registers:   []*dataplane.Register{sw.ctr},
		After:       []*dataplane.Table{status, sample},
		When:        []dataplane.Cond{is(f.sampled, 1), is(f.hit, 1), is(f.isValid, 1), is(f.op, netproto.OpGet)},
	})
	ctrT.Action("bump", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.RegAdd(sw.ctr, int(ctx.Get(f.kidx)), 1)
	})
	mustDefault(ctrT, "bump")

	// Count-Min sketch: 4 rows across 4 stages, tracking sampled reads
	// for *uncached* keys only — the design point that saves switch
	// memory and controller work (§4.2).
	sampledMiss := []dataplane.Cond{is(f.sampled, 1), is(f.hit, 0), is(f.op, netproto.OpGet), is(f.isNC, 1)}
	var prevCMS *dataplane.Table = sample
	for row := 0; row < 4; row++ {
		reg := p.Register(dataplane.RegisterSpec{
			Name: fmt.Sprintf("cms_%d", row), Gress: dataplane.Egress,
			Slots: sw.cfg.CMSWidth, SlotBits: 16,
		})
		sw.cms[row] = reg
		tab := p.TableBuild(dataplane.TableSpec{
			Name:        fmt.Sprintf("cms_%d", row),
			Gress:       dataplane.Egress,
			MatchFields: []dataplane.FieldID{f.op},
			Kind:        dataplane.MatchExact,
			Size:        1,
			Registers:   []*dataplane.Register{reg},
			After:       []*dataplane.Table{prevCMS},
			When:        sampledMiss,
		})
		tab.Action("count", func(ctx *dataplane.Ctx, data []uint64) {
			idx := sw.cmsIndex(ctx.Get(f.keyHi), ctx.Get(f.keyLo), row)
			v := ctx.RegAdd(reg, idx, 1)
			if row == 0 || v < ctx.Get(f.cmMin) {
				ctx.Set(f.cmMin, v)
			}
		})
		mustDefault(tab, "count")
		prevCMS = tab
	}

	// hh_check: compare the sketch minimum against the controller-set
	// threshold.
	hhCheck := p.TableBuild(dataplane.TableSpec{
		Name:        "hh_check",
		Gress:       dataplane.Egress,
		MatchFields: []dataplane.FieldID{f.op},
		Kind:        dataplane.MatchExact,
		Size:        1,
		After:       []*dataplane.Table{prevCMS},
		When:        sampledMiss,
	})
	hhCheck.Action("compare", func(ctx *dataplane.Ctx, data []uint64) {
		if ctx.Get(f.cmMin) >= sw.cfg.HotThreshold {
			ctx.Set(f.hot, 1)
		}
	})
	mustDefault(hhCheck, "compare")

	// Bloom filter: 3 partitions across 3 stages; a hot key is reported
	// only if at least one of its bits was clear (first report this
	// cycle).
	var prevBloom = hhCheck
	for part := 0; part < 3; part++ {
		reg := p.Register(dataplane.RegisterSpec{
			Name: fmt.Sprintf("bloom_%d", part), Gress: dataplane.Egress,
			Slots: sw.cfg.BloomWidth, SlotBits: 1,
		})
		sw.bloom[part] = reg
		tab := p.TableBuild(dataplane.TableSpec{
			Name:        fmt.Sprintf("bloom_%d", part),
			Gress:       dataplane.Egress,
			MatchFields: []dataplane.FieldID{f.op},
			Kind:        dataplane.MatchExact,
			Size:        1,
			Registers:   []*dataplane.Register{reg},
			After:       []*dataplane.Table{prevBloom},
			When:        []dataplane.Cond{is(f.hot, 1)},
		})
		tab.Action("test_set", func(ctx *dataplane.Ctx, data []uint64) {
			idx := sw.bloomIndex(ctx.Get(f.keyHi), ctx.Get(f.keyLo), part)
			old, _ := ctx.RegReadModify(reg, idx, func(uint64) uint64 { return 1 })
			if old == 0 {
				ctx.Set(f.bloomNu, 1)
			}
		})
		mustDefault(tab, "test_set")
		prevBloom = tab
	}

	// hh_report: digest new hot keys to the controller.
	report := p.TableBuild(dataplane.TableSpec{
		Name:        "hh_report",
		Gress:       dataplane.Egress,
		MatchFields: []dataplane.FieldID{f.op},
		Kind:        dataplane.MatchExact,
		Size:        1,
		After:       []*dataplane.Table{prevBloom},
		When:        []dataplane.Cond{is(f.hot, 1), is(f.bloomNu, 1)},
	})
	report.Action("digest", func(ctx *dataplane.Ctx, data []uint64) {
		d := digest(digestHot, ctx.Get(f.keyHi), ctx.Get(f.keyLo), ctx.Get(f.cmMin))
		ctx.Digest(d[:])
	})
	mustDefault(report, "digest")

	// value_0..N: the variable-length value store of Fig. 6b. Each table
	// is gated on its bitmap bit; Get appends the slot to the value
	// buffer, CacheUpdate overwrites the slot from the packet.
	sw.values = make([]*dataplane.Register, sw.cfg.ValueArrays)
	var prevVal = status
	for i := 0; i < sw.cfg.ValueArrays; i++ {
		reg := p.Register(dataplane.RegisterSpec{
			Name: fmt.Sprintf("value_%d", i), Gress: dataplane.Egress,
			Slots: sw.cfg.ValueSlots, SlotBits: 128,
		})
		sw.values[i] = reg
		tab := p.TableBuild(dataplane.TableSpec{
			Name:        fmt.Sprintf("value_%d", i),
			Gress:       dataplane.Egress,
			MatchFields: []dataplane.FieldID{f.bitmap},
			Kind:        dataplane.MatchTernary,
			Size:        2,
			Registers:   []*dataplane.Register{reg},
			After:       []*dataplane.Table{prevVal, vlenT},
			// A valid cached Get or an accepted CacheUpdate: only those
			// set cache_is_valid (status check / validate).
			When: []dataplane.Cond{is(f.hit, 1), is(f.isValid, 1)},
		})
		tab.Action("process", func(ctx *dataplane.Ctx, data []uint64) {
			idx := int(ctx.Get(f.vidx))
			if netproto.Op(ctx.Get(f.op)) == netproto.OpGet {
				remaining := int(ctx.Get(f.valLen)) - len(ctx.ValueBuf)
				if remaining > 0 {
					n := remaining
					if n > 16 {
						n = 16
					}
					ctx.RegAppendBytes(reg, idx, n)
				}
				return
			}
			// CacheUpdate: this array holds chunk c of the new value,
			// where c is the number of set bitmap bits below this one.
			c := bits.OnesCount64(ctx.Get(f.bitmap) & (uint64(1)<<i - 1))
			newLen := int(ctx.Get(f.reqVlen))
			off := 16 * c
			if off >= newLen {
				return // shrunk value: slot unused
			}
			end := off + 16
			if end > newLen {
				end = newLen
			}
			ctx.RegSetBytes(reg, idx, ctx.Raw[frameValueOff+off:frameValueOff+end])
		})
		// One ternary entry: bitmap bit i set.
		if err := tab.AddTernary(
			[]uint64{uint64(1) << i}, []uint64{uint64(1) << i}, 1, "process", nil,
		); err != nil {
			panic(err)
		}
		prevVal = tab
	}

	// mirror: bounce completed cache-hit read replies to the client port.
	mirror := p.TableBuild(dataplane.TableSpec{
		Name:        "mirror",
		Gress:       dataplane.Egress,
		MatchFields: []dataplane.FieldID{f.op},
		Kind:        dataplane.MatchExact,
		Size:        1,
		After:       []*dataplane.Table{prevVal},
		When:        []dataplane.Cond{is(f.hit, 1), is(f.isValid, 1), is(f.op, netproto.OpGet)},
	})
	mirror.Action("to_client", func(ctx *dataplane.Ctx, data []uint64) {
		ctx.Set(f.reply, 1)
		ctx.Mirror(int(ctx.Get(f.clntPort)))
	})
	mustDefault(mirror, "to_client")
}

func (sw *Switch) buildDeparser(f phv) {
	sw.prog.SetDeparser(func(ctx *dataplane.Ctx, out []byte) []byte {
		if ctx.Get(f.isNC) == 0 {
			return append(out, ctx.Raw...)
		}
		start := len(out)
		op := netproto.Op(ctx.Get(f.op))
		switch {
		case ctx.Get(f.reply) == 1:
			// Cache-hit read served by the switch: swap addresses,
			// flip the op, attach the value (§4.2).
			var key netproto.Key
			binary.BigEndian.PutUint64(key[0:8], ctx.Get(f.keyHi))
			binary.BigEndian.PutUint64(key[8:16], ctx.Get(f.keyLo))
			pkt := netproto.Packet{
				Op: netproto.OpGetReply, Seq: ctx.Get(f.seq), Key: key,
				Value: ctx.ValueBuf,
			}
			out = binary.BigEndian.AppendUint16(out, uint16(ctx.Get(f.l2Src)))
			out = binary.BigEndian.AppendUint16(out, uint16(ctx.Get(f.l2Dst)))
			out = append(out, 0, 0, 0, 0) // checksum placeholder
			out, _ = pkt.Encode(out)
			netproto.FinalizeFrame(out[start:])
			return out
		case ctx.Get(f.rewrite) != 0:
			// Write to a cached key: same frame, rewritten op. The frame
			// checksum is recomputed on egress, as hardware recomputes
			// the FCS after header rewrites.
			out = append(out, ctx.Raw...)
			out[start+frameOpOff] = byte(ctx.Get(f.rewrite))
			netproto.FinalizeFrame(out[start:])
			return out
		case op == netproto.OpCacheUpdate:
			// Acknowledge the data-plane update to the server: strip
			// the value, flip the op, send it out the server port it
			// was routed to.
			out = append(out, ctx.Raw[:frameValueOff]...)
			out[start+frameOpOff] = byte(netproto.OpCacheUpdateAck)
			out[start+frameVlenOff] = 0
			netproto.FinalizeFrame(out[start:])
			return out
		default:
			return append(out, ctx.Raw...)
		}
	})
}

// digest encodes a data-plane report: its kind, the key, and the reported
// number (a hot key's frequency, an overflowing update's size).
func digest(kind byte, hi, lo, n uint64) [25]byte {
	var d [25]byte
	d[0] = kind
	binary.BigEndian.PutUint64(d[1:9], hi)
	binary.BigEndian.PutUint64(d[9:17], lo)
	binary.BigEndian.PutUint64(d[17:25], n)
	return d
}

func (sw *Switch) cmsIndex(hi, lo uint64, row int) int {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], hi)
	binary.BigEndian.PutUint64(b[8:16], lo)
	return int(sketch.Hash64(b[:], rng.Seeds[row]) & uint64(sw.cfg.CMSWidth-1))
}

// cmsIndexes is cmsIndex of every row, from one interleaved hash pass.
func (sw *Switch) cmsIndexes(hi, lo uint64) [4]int {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], hi)
	binary.BigEndian.PutUint64(b[8:16], lo)
	h := sketch.Hash64x4(b[:], rng.Seeds)
	mask := uint64(sw.cfg.CMSWidth - 1)
	return [4]int{int(h[0] & mask), int(h[1] & mask), int(h[2] & mask), int(h[3] & mask)}
}

func (sw *Switch) bloomIndex(hi, lo uint64, part int) int {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], hi)
	binary.BigEndian.PutUint64(b[8:16], lo)
	return int(sketch.Hash64(b[:], bloomSeeds[part]) & uint64(sw.cfg.BloomWidth-1))
}

var bloomSeeds = [3]uint64{
	0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B,
}

// is is the gateway condition "field f holds one of values"; values are
// flag constants or NetCache ops.
func is[V int | netproto.Op](f dataplane.FieldID, values ...V) dataplane.Cond {
	c := dataplane.Cond{Field: f}
	for _, v := range values {
		c.Values = append(c.Values, uint64(v))
	}
	return c
}

func mustAdd(t *dataplane.Table, match []uint64, action string, data []uint64) {
	if err := t.AddEntry(match, action, data); err != nil {
		panic(err)
	}
}

func mustDefault(t *dataplane.Table, action string) {
	if err := t.SetDefault(action, nil); err != nil {
		panic(err)
	}
}

// keyFields splits a wire key into the two 64-bit match values.
func keyFields(key netproto.Key) []uint64 {
	return []uint64{
		binary.BigEndian.Uint64(key[0:8]),
		binary.BigEndian.Uint64(key[8:16]),
	}
}

// ProcessAppend runs one frame through the switch data plane, appending
// its emissions to out so the caller reuses one slice across packets.
// Emitted frames may be pool-backed; see dataplane.ReleaseFrame.
//
// The compiled traversal (fastpath.go) serves valid cached Gets and
// forwards uncached Gets, uncached writes, replies and replication; the
// table interpreter runs the rest (CacheUpdate, writes to cached keys,
// invalid entries, odd frames). Both count into the same statistics.
func (sw *Switch) ProcessAppend(frame []byte, inPort int, out []dataplane.Emitted) ([]dataplane.Emitted, error) {
	nOld := len(out)
	var err error
	if em, ok := sw.compiled(frame, inPort); ok {
		out = append(out, em)
	} else {
		out, err = sw.pl.ProcessAppend(frame, inPort, out)
	}
	if tap := sw.trace.Load(); tap != nil {
		sw.traceFrame(tap, frame, out[nOld:])
	}
	return out, err
}

// SetTrace installs (or, with nil, removes) the query-trace tap. Safe to
// call concurrently with traffic.
func (sw *Switch) SetTrace(t *qtrace.Tap) { sw.trace.Store(t) }

// traceFrame classifies one processed request for the query trace. A GET
// whose emissions include a reply opcode was answered from the cache
// (SwitchHit); one forwarded onward as a GET missed (SwitchMiss). Writes
// record SwitchWrite regardless of whether they invalidated a cached key.
func (sw *Switch) traceFrame(tap *qtrace.Tap, frame []byte, emitted []dataplane.Emitted) {
	if len(frame) < frameValueOff ||
		binary.BigEndian.Uint16(frame[netproto.FrameHeaderSize:]) != netproto.Magic {
		return
	}
	op := netproto.Op(frame[frameOpOff])
	var stage qtrace.Stage
	switch op {
	case netproto.OpGet:
		stage = qtrace.SwitchMiss
		for _, e := range emitted {
			if len(e.Frame) > frameOpOff &&
				netproto.Op(e.Frame[frameOpOff]) == netproto.OpGetReply {
				stage = qtrace.SwitchHit
				break
			}
		}
	case netproto.OpPut, netproto.OpDelete:
		stage = qtrace.SwitchWrite
	default:
		return // replies, control, replication: not query hops at the switch
	}
	seq := binary.BigEndian.Uint64(frame[frameSeqOff : frameSeqOff+8])
	var key netproto.Key
	copy(key[:], frame[frameKeyOff:frameKeyOff+netproto.KeySize])
	tap.Record(stage, op, seq, key, false)
}

// Pipeline exposes the underlying pipeline (counters, config).
func (sw *Switch) Pipeline() *dataplane.Pipeline { return sw.pl }

// Close does nothing: a switch holds no goroutine or handle. It stays only
// for the end-to-end benchmark's callers.
func (sw *Switch) Close() {}

// Config returns the switch configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// ResourceReport returns the compile-time resource usage (§6's "<50% of
// on-chip memory" artifact).
func (sw *Switch) ResourceReport() dataplane.ResourceReport { return sw.rep }

// cachemem dimensions this switch's value store corresponds to.
func (sw *Switch) AllocatorConfig() cachemem.Config {
	return cachemem.Config{
		Arrays:    sw.cfg.ValueArrays,
		Indexes:   sw.cfg.ValueSlots,
		UnitBytes: 16,
	}
}
