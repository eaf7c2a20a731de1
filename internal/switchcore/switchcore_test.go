package switchcore

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"netcache/internal/cachemem"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
)

const (
	clientAddr = netproto.Addr(100)
	serverAddr = netproto.Addr(200)
	clientPort = 0
	serverPort = 1
)

// rig is a switch with one client and one server route plus a slot
// allocator matching the switch dimensions.
type rig struct {
	sw    *Switch
	alloc *cachemem.Allocator
	kidx  *cachemem.IndexPool
}

// isValid reads the validity bit of a key index.
func isValid(sw *Switch, keyIndex int) bool {
	var v uint64
	sw.pl.Control(func() { v = sw.valid.Get(keyIndex) })
	return v == 1
}

// readValue gathers the cached bytes of a placement from the value
// registers, in ascending array order, under its key lock.
func readValue(sw *Switch, p cachemem.Placement, keyIndex int) []byte {
	mu := sw.keyLock(keyIndex)
	mu.RLock()
	defer mu.RUnlock()
	n := int(sw.vlen.Get(keyIndex))
	out := make([]byte, 0, n)
	var tmp [16]byte
	for a := 0; a < sw.cfg.ValueArrays && len(out) < n; a++ {
		if p.Bitmap&(1<<a) != 0 {
			sw.values[a].GetBytes(p.Index, tmp[:])
			out = append(out, tmp[:min(n-len(out), 16)]...)
		}
	}
	return out
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigConfig(t, TestConfig())
}

func newRigConfig(t *testing.T, cfg Config) *rig {
	t.Helper()
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallRoute(clientAddr, clientPort); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallRoute(serverAddr, serverPort); err != nil {
		t.Fatal(err)
	}
	alloc, err := cachemem.New(sw.AllocatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sw: sw, alloc: alloc, kidx: cachemem.NewIndexPool(sw.Config().CacheSize)}
}

// install caches key with the given value through the driver, like the
// controller would.
func (r *rig) install(t *testing.T, key netproto.Key, value []byte) (cachemem.Placement, int) {
	t.Helper()
	p, err := r.alloc.Insert(key, len(value))
	if err != nil {
		t.Fatal(err)
	}
	idx := r.kidx.Alloc()
	if idx < 0 {
		t.Fatal("key index pool exhausted")
	}
	err = r.sw.InstallCacheEntry(CacheEntry{
		Key: key, Placement: p, KeyIndex: idx, ServerPort: serverPort, Value: value,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, idx
}

func mkFrame(t *testing.T, dst, src netproto.Addr, pkt netproto.Packet) []byte {
	t.Helper()
	payload, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return netproto.MarshalFrame(dst, src, payload)
}

// one sends a frame and expects exactly one emitted packet.
func one(t *testing.T, sw *Switch, frame []byte, inPort int) dataplane.Emitted {
	t.Helper()
	out, err := sw.ProcessAppend(frame, inPort, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("expected 1 emitted packet, got %d", len(out))
	}
	return out[0]
}

func decode(t *testing.T, frame []byte) (netproto.Frame, netproto.Packet) {
	t.Helper()
	fr, err := netproto.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var pkt netproto.Packet
	if err := netproto.Decode(fr.Payload, &pkt); err != nil {
		t.Fatal(err)
	}
	return fr, pkt
}

func TestCompilePaperConfigFitsChip(t *testing.T) {
	sw, err := New(PaperConfig())
	if err != nil {
		t.Fatalf("paper-scale program must compile: %v", err)
	}
	rep := sw.ResourceReport()
	if frac := rep.SRAMFraction(); frac >= 0.5 {
		t.Errorf("SRAM usage %.1f%% — paper reports <50%% (§6)", 100*frac)
	}
	if frac := rep.SRAMFraction(); frac < 0.05 {
		t.Errorf("SRAM usage %.1f%% suspiciously low; value store alone is 8 MB", 100*frac)
	}
}

func TestConfigValidation(t *testing.T) {
	mut := func(f func(*Config)) Config {
		c := TestConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.CacheSize = 0 }),
		mut(func(c *Config) { c.CacheSize = 1 << 17 }),
		mut(func(c *Config) { c.ValueArrays = 0 }),
		mut(func(c *Config) { c.ValueArrays = 17 }),
		mut(func(c *Config) { c.ValueSlots = 0 }),
		mut(func(c *Config) { c.ValueSlots = c.CacheSize / 2 }),
		mut(func(c *Config) { c.CMSWidth = 1000 }),
		mut(func(c *Config) { c.BloomWidth = 1000 }),
		mut(func(c *Config) { c.SampleRate = 1.5 }),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestGetMissForwardedToServer(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("missing")
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 5, Key: key})
	em := one(t, r.sw, f, clientPort)
	if em.Port != serverPort {
		t.Errorf("miss should forward to server port, got %d", em.Port)
	}
	if !bytes.Equal(em.Frame, f) {
		t.Error("miss should forward the frame unchanged")
	}
}

func TestGetHitServedBySwitch(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("hot-item")
	value := []byte("0123456789abcdefTAIL") // 20 bytes: 2 slots, partial second
	r.install(t, key, value)

	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 7, Key: key})
	em := one(t, r.sw, f, clientPort)
	if em.Port != clientPort {
		t.Fatalf("hit reply should be mirrored to client port, got %d", em.Port)
	}
	fr, pkt := decode(t, em.Frame)
	if fr.Dst != clientAddr || fr.Src != serverAddr {
		t.Errorf("reply addresses not swapped: %+v", fr)
	}
	if pkt.Op != netproto.OpGetReply || pkt.Seq != 7 || pkt.Key != key {
		t.Errorf("reply header: %+v", pkt)
	}
	if !bytes.Equal(pkt.Value, value) {
		t.Errorf("reply value = %q, want %q", pkt.Value, value)
	}
}

func TestGetHitFullWidthValue(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("big")
	value := bytes.Repeat([]byte{0xA5}, 128) // all 8 arrays
	r.install(t, key, value)
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	_, pkt := decode(t, one(t, r.sw, f, clientPort).Frame)
	if !bytes.Equal(pkt.Value, value) {
		t.Errorf("128-byte value mismatch: got %d bytes", len(pkt.Value))
	}
}

func TestHitCounterIncrements(t *testing.T) {
	r := newRig(t) // TestConfig samples at rate 1.0
	key := netproto.KeyFromString("counted")
	_, idx := r.install(t, key, []byte("v"))
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	for i := 0; i < 5; i++ {
		one(t, r.sw, f, clientPort)
	}
	snaps := r.sw.ReadCounters([]int{idx})
	if len(snaps) != 1 || snaps[0].Hits != 5 {
		t.Errorf("counter = %+v, want 5", snaps)
	}
	// Out-of-range indexes are skipped.
	if got := r.sw.ReadCounters([]int{-1, 1 << 20}); len(got) != 0 {
		t.Errorf("bogus indexes returned %+v", got)
	}
}

func TestSampleRateZeroStopsCounting(t *testing.T) {
	cfg := TestConfig()
	cfg.SampleRate = 0
	r := newRigConfig(t, cfg)
	key := netproto.KeyFromString("quiet")
	_, idx := r.install(t, key, []byte("v"))
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	for i := 0; i < 100; i++ {
		one(t, r.sw, f, clientPort)
	}
	snaps := r.sw.ReadCounters([]int{idx})
	// The sampler admits r==0 with probability 2^-32; allow 0 or 1.
	if snaps[0].Hits > 1 {
		t.Errorf("counter = %d with sampling off", snaps[0].Hits)
	}
}

func TestWriteInvalidatesAndRewritesOp(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("written")
	_, idx := r.install(t, key, []byte("old-value"))
	if !isValid(r.sw, idx) {
		t.Fatal("fresh entry should be valid")
	}

	put := mkFrame(t, serverAddr, clientAddr,
		netproto.Packet{Op: netproto.OpPut, Seq: 9, Key: key, Value: []byte("new-value")})
	em := one(t, r.sw, put, clientPort)
	if em.Port != serverPort {
		t.Fatalf("write must reach the server, got port %d", em.Port)
	}
	_, pkt := decode(t, em.Frame)
	if pkt.Op != netproto.OpPutCached {
		t.Errorf("op = %v, want PutCached (switch informs server key is cached)", pkt.Op)
	}
	if string(pkt.Value) != "new-value" || pkt.Seq != 9 {
		t.Errorf("write payload altered: %+v", pkt)
	}
	if isValid(r.sw, idx) {
		t.Error("write must invalidate the cached copy")
	}

	// While invalid, reads fall through to the server.
	get := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	em = one(t, r.sw, get, clientPort)
	if em.Port != serverPort {
		t.Errorf("read of invalidated key should reach server, got port %d", em.Port)
	}
	_, pkt = decode(t, em.Frame)
	if pkt.Op != netproto.OpGet {
		t.Errorf("forwarded read op = %v", pkt.Op)
	}
}

func TestDeleteInvalidates(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("doomed")
	_, idx := r.install(t, key, []byte("v"))
	del := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpDelete, Seq: 2, Key: key})
	em := one(t, r.sw, del, clientPort)
	_, pkt := decode(t, em.Frame)
	if pkt.Op != netproto.OpDeleteCached {
		t.Errorf("op = %v, want DeleteCached", pkt.Op)
	}
	if isValid(r.sw, idx) {
		t.Error("delete must invalidate")
	}
}

func TestCacheUpdateRestoresValidityAndValue(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("refresh")
	_, idx := r.install(t, key, []byte("old-value-16byte"))

	// Invalidate via a Put.
	put := mkFrame(t, serverAddr, clientAddr,
		netproto.Packet{Op: netproto.OpPut, Seq: 1, Key: key, Value: []byte("brand-new-val")})
	one(t, r.sw, put, clientPort)

	// Server refreshes the switch; note the new value is *shorter*.
	upd := mkFrame(t, serverAddr, serverAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 2, Key: key, Value: []byte("brand-new-val")})
	em := one(t, r.sw, upd, serverPort)
	if em.Port != serverPort {
		t.Fatalf("update ack should return to server, got port %d", em.Port)
	}
	_, ack := decode(t, em.Frame)
	if ack.Op != netproto.OpCacheUpdateAck || ack.Seq != 2 || ack.Key != key {
		t.Errorf("ack = %+v", ack)
	}
	if !isValid(r.sw, idx) {
		t.Error("update must re-validate")
	}

	// Reads are served from the cache again, with the new (shorter) value.
	get := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 3, Key: key})
	em = one(t, r.sw, get, clientPort)
	if em.Port != clientPort {
		t.Fatalf("post-update read should hit, got port %d", em.Port)
	}
	_, pkt := decode(t, em.Frame)
	if string(pkt.Value) != "brand-new-val" {
		t.Errorf("post-update value = %q", pkt.Value)
	}
}

func TestCacheUpdateForUncachedKeyStillAcked(t *testing.T) {
	r := newRig(t)
	// Key was evicted between the write and the refresh: the ack must
	// still come back so the server unblocks.
	upd := mkFrame(t, serverAddr, serverAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 4,
			Key: netproto.KeyFromString("gone"), Value: []byte("x")})
	em := one(t, r.sw, upd, serverPort)
	_, ack := decode(t, em.Frame)
	if ack.Op != netproto.OpCacheUpdateAck || ack.Seq != 4 {
		t.Errorf("ack = %+v", ack)
	}
}

func TestHotReportOncePerCycle(t *testing.T) {
	r := newRig(t)
	var reports []HotReport
	drain := func() { r.sw.DrainEvents(func(h HotReport) { reports = append(reports, h) }, nil) }

	key := netproto.KeyFromString("uncached-hot")
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	th := int(TestConfig().HotThreshold)
	for i := 0; i < th*3; i++ {
		one(t, r.sw, f, clientPort)
	}
	drain()
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want exactly 1 (Bloom dedup)", len(reports))
	}
	if reports[0].Key != key || reports[0].Freq < uint64(th) {
		t.Errorf("report = %+v", reports[0])
	}

	// After a statistics reset the key can be reported again.
	r.sw.ResetStats(false)
	for i := 0; i < th*2; i++ {
		one(t, r.sw, f, clientPort)
	}
	drain()
	if len(reports) != 2 {
		t.Errorf("after reset got %d reports, want 2", len(reports))
	}
}

func TestColdKeysNotReported(t *testing.T) {
	r := newRig(t)
	// Many distinct keys, each touched once: none crosses the threshold.
	for i := 0; i < 500; i++ {
		key := netproto.KeyFromString(string(rune('a'+i%26)) + string(rune('0'+i%10)) + "cold")
		key[10] = byte(i >> 8)
		key[11] = byte(i)
		f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
		one(t, r.sw, f, clientPort)
	}
	var reports []HotReport
	r.sw.DrainEvents(func(h HotReport) { reports = append(reports, h) }, nil)
	if len(reports) != 0 {
		t.Errorf("cold keys produced %d hot reports", len(reports))
	}
}

func TestSetHotThreshold(t *testing.T) {
	cfg := TestConfig()
	cfg.HotThreshold = 3
	r := newRigConfig(t, cfg)
	key := netproto.KeyFromString("quick-hot")
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	for i := 0; i < 3; i++ {
		one(t, r.sw, f, clientPort)
	}
	var reports int
	r.sw.DrainEvents(func(HotReport) { reports++ }, nil)
	if reports != 1 {
		t.Errorf("threshold 3: %d reports after 3 queries", reports)
	}
}

func TestRemoveCacheEntry(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("evictee")
	_, idx := r.install(t, key, []byte("v"))
	ok, err := r.sw.RemoveCacheEntry(key, idx)
	if err != nil || !ok {
		t.Fatalf("remove: %v %v", ok, err)
	}
	ok, err = r.sw.RemoveCacheEntry(key, idx)
	if err != nil || ok {
		t.Fatalf("double remove: %v %v", ok, err)
	}
	// Reads now miss.
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	if em := one(t, r.sw, f, clientPort); em.Port != serverPort {
		t.Errorf("evicted key should miss, got port %d", em.Port)
	}
}

func TestInstallValidation(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("k")
	if err := r.sw.InstallCacheEntry(CacheEntry{Key: key, KeyIndex: -1, Value: []byte("v")}); err == nil {
		t.Error("negative key index should fail")
	}
	if err := r.sw.InstallCacheEntry(CacheEntry{Key: key, KeyIndex: 0}); err == nil {
		t.Error("empty value should fail")
	}
	if err := r.sw.InstallCacheEntry(CacheEntry{
		Key: key, KeyIndex: 0, Value: make([]byte, 129),
	}); err == nil {
		t.Error("oversize value should fail")
	}
	if err := r.sw.InstallCacheEntry(CacheEntry{
		Key: key, KeyIndex: 0, Value: make([]byte, 64),
		Placement: cachemem.Placement{Index: 0, Bitmap: 0b1}, // 1 slot for 4
	}); err == nil {
		t.Error("undersized placement should fail")
	}
	if err := r.sw.InstallRoute(netproto.Addr(5), -1); err == nil {
		t.Error("bad route port should fail")
	}
}

func TestNonNetCacheTrafficRouted(t *testing.T) {
	r := newRig(t)
	f := netproto.MarshalFrame(serverAddr, clientAddr, []byte("just some bytes"))
	em := one(t, r.sw, f, clientPort)
	if em.Port != serverPort || !bytes.Equal(em.Frame, f) {
		t.Errorf("non-NetCache frame mishandled: port=%d", em.Port)
	}
}

func TestUnroutableDropped(t *testing.T) {
	r := newRig(t)
	f := netproto.MarshalFrame(netproto.Addr(999), clientAddr, []byte("x"))
	out, err := r.sw.ProcessAppend(f, clientPort, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("unroutable frame should drop: %v %v", out, err)
	}
}

func TestCacheLen(t *testing.T) {
	r := newRig(t)
	if r.sw.CacheLen() != 0 {
		t.Fatal("fresh switch should be empty")
	}
	r.install(t, netproto.KeyFromString("a"), []byte("1"))
	r.install(t, netproto.KeyFromString("b"), []byte("2"))
	if r.sw.CacheLen() != 2 {
		t.Errorf("CacheLen = %d", r.sw.CacheLen())
	}
}

// TestCMSIndexesMatchRows: the compiled path's one-pass row indexes equal
// the interpreter's per-row cmsIndex over random keys.
func TestCMSIndexesMatchRows(t *testing.T) {
	sw, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(hi, lo uint64) bool {
		idx := sw.cmsIndexes(hi, lo)
		for row := range idx {
			if idx[row] != sw.cmsIndex(hi, lo, row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestResetStatsClearsCounters(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("c")
	_, idx := r.install(t, key, []byte("v"))
	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	one(t, r.sw, f, clientPort)
	r.sw.ResetStats(true)
	if snaps := r.sw.ReadCounters([]int{idx}); snaps[0].Hits != 0 {
		t.Errorf("counter = %d after reset", snaps[0].Hits)
	}
}

// benchSwitch is the switch of the ProcessAppend microbenchmarks: the test
// configuration at the paper's 0.25 sample rate, with client and server
// routes installed.
func benchSwitch(b *testing.B) *Switch {
	b.Helper()
	cfg := TestConfig()
	cfg.SampleRate = 0.25
	sw, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sw.InstallRoute(clientAddr, clientPort)
	sw.InstallRoute(serverAddr, serverPort)
	return sw
}

// benchProcess runs frames[i%len(frames)] through process — sw's entry
// point, or its pipeline's to run the interpreter alone — in the
// steady-state calling convention — one reused emission slice, every
// emitted frame released — clearing the sketch and Bloom filter every
// resetEvery frames (0: never), as the controller does between ticks.
func benchProcess(b *testing.B, sw *Switch, process func([]byte, int, []dataplane.Emitted) ([]dataplane.Emitted, error),
	frames [][]byte, inPort, resetEvery int) {
	b.Helper()
	out := make([]dataplane.Emitted, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resetEvery > 0 && i%resetEvery == resetEvery-1 {
			sw.ResetStats(false)
		}
		var err error
		out, err = process(frames[i%len(frames)], inPort, out[:0])
		if err != nil || len(out) != 1 {
			b.Fatalf("ProcessAppend = %v, %v", out, err)
		}
		dataplane.ReleaseFrame(out[0])
	}
}

func BenchmarkGetHit(b *testing.B) {
	sw := benchSwitch(b)
	alloc, _ := cachemem.New(sw.AllocatorConfig())
	key := netproto.KeyFromString("bench")
	value := make([]byte, 128)
	p, _ := alloc.Insert(key, len(value))
	sw.InstallCacheEntry(CacheEntry{Key: key, Placement: p, KeyIndex: 0, ServerPort: serverPort, Value: value})
	pkt, _ := (&netproto.Packet{Op: netproto.OpGet, Key: key}).Marshal()
	benchProcess(b, sw, sw.ProcessAppend, [][]byte{netproto.MarshalFrame(serverAddr, clientAddr, pkt)}, clientPort, 0)
}

func TestTraceQueryShowsPipelinePath(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("traced")
	r.install(t, key, []byte("value"))

	f := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	out, tr, err := r.sw.TraceQuery(f, clientPort)
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	s := tr.String()
	// The Fig. 8 path of a cache-hit read, in order.
	for _, want := range []string{
		"cache_lookup: hit -> hit",
		"route: hit -> set_port",
		"cache_status: hit -> check",
		"cache_ctr: miss -> default bump",
		"value_0: hit -> process",
		"mirror: miss -> default to_client",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %q:\n%s", want, s)
		}
	}
	// A hit-read must not touch the miss-path statistics.
	if !strings.Contains(s, "cms_0: skipped") {
		t.Errorf("CMS should be gated off on a hit:\n%s", s)
	}
	// Value stages beyond the item's bitmap fall through their ternary
	// match (Fig. 6b: the table matches on the bitmap bit).
	if !strings.Contains(s, "value_1: miss (no default)") {
		t.Errorf("unused value stages should miss their bitmap match:\n%s", s)
	}
}

func TestTraceQueryMissPath(t *testing.T) {
	r := newRig(t)
	f := mkFrame(t, serverAddr, clientAddr,
		netproto.Packet{Op: netproto.OpGet, Key: netproto.KeyFromString("absent")})
	_, tr, err := r.sw.TraceQuery(f, clientPort)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.String()
	if !strings.Contains(s, "cms_0: miss -> default count") {
		t.Errorf("miss path should exercise the sketch:\n%s", s)
	}
	if !strings.Contains(s, "cache_status: skipped") {
		t.Errorf("status is gated to cache hits:\n%s", s)
	}
}

func TestMultiPipeValuePlacement(t *testing.T) {
	// Keys owned by servers on different pipes consume different egress
	// pipes (§4.4.4: "each cached item is bound to an egress pipe"); the
	// pipe counters must reflect it, since extreme skew is bounded by a
	// single pipe's throughput.
	sw, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ppp := sw.Config().Chip.PortsPerPipe
	srvA, srvB := 1, ppp+1 // pipe 0 and pipe 1
	addrA, addrB := netproto.Addr(201), netproto.Addr(202)
	if err := sw.InstallRoute(clientAddr, clientPort); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallRoute(addrA, srvA); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallRoute(addrB, srvB); err != nil {
		t.Fatal(err)
	}
	alloc, _ := cachemem.New(sw.AllocatorConfig())
	install := func(key netproto.Key, kidx, port int) {
		p, err := alloc.Insert(key, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.InstallCacheEntry(CacheEntry{
			Key: key, Placement: p, KeyIndex: kidx, ServerPort: port, Value: []byte("12345678"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	keyA, keyB := netproto.KeyFromString("pipe0"), netproto.KeyFromString("pipe1")
	install(keyA, 0, srvA)
	install(keyB, 1, srvB)

	for i := 0; i < 4; i++ {
		one(t, sw, mkFrame(t, addrA, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: keyA}), clientPort)
	}
	for i := 0; i < 6; i++ {
		one(t, sw, mkFrame(t, addrB, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: keyB}), clientPort)
	}
	st := sw.Pipeline().Stats()
	if st.ByEgressPipe[0] != 4 || st.ByEgressPipe[1] != 6 {
		t.Errorf("per-pipe consumption = %v, want [4 6 ...]", st.ByEgressPipe)
	}
	if st.Mirrored != 10 {
		t.Errorf("Mirrored = %d, want 10 (all hits bounced to the client)", st.Mirrored)
	}
}

func TestSpoofedCacheUpdateIgnored(t *testing.T) {
	// A CacheUpdate arriving from a non-owner port (here: the client's)
	// must not alter the cached value or validity — the data plane only
	// trusts the owning server's refreshes.
	r := newRig(t)
	key := netproto.KeyFromString("target")
	_, idx := r.install(t, key, []byte("genuine"))

	spoof := mkFrame(t, serverAddr, clientAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 99, Key: key, Value: []byte("evil!!!")})
	one(t, r.sw, spoof, clientPort) // injected at the CLIENT port

	if !isValid(r.sw, idx) {
		t.Error("spoof must not invalidate the entry")
	}
	get := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	_, pkt := decode(t, one(t, r.sw, get, clientPort).Frame)
	if string(pkt.Value) != "genuine" {
		t.Errorf("cache poisoned: %q", pkt.Value)
	}

	// The owner's port is still honored.
	legit := mkFrame(t, serverAddr, serverAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 100, Key: key, Value: []byte("fresh")})
	one(t, r.sw, legit, serverPort)
	_, pkt = decode(t, one(t, r.sw, get, clientPort).Frame)
	if string(pkt.Value) != "fresh" {
		t.Errorf("legitimate update lost: %q", pkt.Value)
	}
}
