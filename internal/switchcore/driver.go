package switchcore

import (
	"encoding/binary"
	"fmt"

	"netcache/internal/cachemem"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
)

// This file is the switch-driver surface: the runtime operations the
// NetCache controller performs through the switch OS (§4.3, Fig. 4). Driver
// operations serialize against each other via the pipeline's control mutex
// and against in-flight packets via the per-key stripe locks — traffic keeps
// flowing during a driver update, and a multi-register install/evict/rebind is
// still observed atomically per key, modeling the ASIC's atomic driver
// updates without pausing the chip.

// InstallRoute maps a rack address to a front-panel port in the L3-style
// routing table.
func (sw *Switch) InstallRoute(addr netproto.Addr, port int) error {
	if port < 0 || port >= sw.cfg.Chip.NumPorts() {
		return fmt.Errorf("switchcore: route port %d out of range", port)
	}
	var err error
	sw.pl.Control(func() {
		err = sw.route.AddEntry([]uint64{uint64(addr)}, "set_port", []uint64{uint64(port)})
	})
	return err
}

// CacheEntry describes one cached item for installation.
type CacheEntry struct {
	Key netproto.Key
	// Placement is the slot assignment from the cachemem allocator.
	Placement cachemem.Placement
	// KeyIndex addresses the item's counter, validity and vlen slots.
	KeyIndex int
	// ServerPort is the egress port of the storage server owning the key.
	ServerPort int
	// Value is the initial value (fetched from the server).
	Value []byte
	// Version is the store version of Value; it seeds the cache_ver slot
	// so in-flight data-plane updates older than the installed value are
	// refused as stale.
	Version uint64
}

// InstallCacheEntry populates the value slots, validity, vlen and counter
// for the item and then installs the lookup entry — in that order, so the
// data plane never serves a half-written item.
func (sw *Switch) InstallCacheEntry(e CacheEntry) error {
	if e.KeyIndex < 0 || e.KeyIndex >= sw.cfg.CacheSize {
		return fmt.Errorf("switchcore: key index %d out of range", e.KeyIndex)
	}
	if len(e.Value) == 0 || len(e.Value) > netproto.MaxValueSize {
		return fmt.Errorf("switchcore: value size %d out of (0,%d]", len(e.Value), netproto.MaxValueSize)
	}
	if e.Placement.Slots() < (len(e.Value)+15)/16 {
		return fmt.Errorf("switchcore: placement has %d slots for %d bytes", e.Placement.Slots(), len(e.Value))
	}
	var err error
	sw.pl.Control(func() {
		mu := sw.keyLock(e.KeyIndex)
		mu.Lock()
		defer mu.Unlock()
		sw.writeValueLocked(e.Placement, e.Value)
		sw.vlen.Set(e.KeyIndex, uint64(len(e.Value)))
		sw.ver.Set(e.KeyIndex, uint64(uint32(e.Version)))
		sw.ctr.Set(e.KeyIndex, 0)
		sw.valid.Set(e.KeyIndex, 1)
		err = sw.lookup.AddEntry(keyFields(e.Key), "hit",
			[]uint64{packHitData(e.Placement.Bitmap, e.Placement.Index, e.KeyIndex, e.ServerPort)})
	})
	return err
}

// RemoveCacheEntry deletes the lookup entry and clears the validity bit; it
// reports whether the key was installed. The value slots are left to the
// allocator to recycle.
func (sw *Switch) RemoveCacheEntry(key netproto.Key, keyIndex int) (bool, error) {
	var ok bool
	var err error
	sw.pl.Control(func() {
		if keyIndex >= 0 && keyIndex < sw.cfg.CacheSize {
			mu := sw.keyLock(keyIndex)
			mu.Lock()
			defer mu.Unlock()
		}
		ok, err = sw.lookup.DeleteEntry(keyFields(key))
		if ok && keyIndex >= 0 && keyIndex < sw.cfg.CacheSize {
			sw.valid.Set(keyIndex, 0)
		}
	})
	return ok, err
}

// RebindCacheEntry rewrites an installed item's lookup entry with a new
// server port — the failover path, where a partition's cached keys must
// start attributing ownership (PutCached forwarding and the CacheUpdate
// acceptance check) to the promoted backup. Value, validity, version and
// counter slots are untouched, so a valid hot key keeps serving at line
// rate through the entire switchover.
func (sw *Switch) RebindCacheEntry(key netproto.Key, keyIndex int, p cachemem.Placement, serverPort int) error {
	if serverPort < 0 || serverPort >= sw.cfg.Chip.NumPorts() {
		return fmt.Errorf("switchcore: rebind port %d out of range", serverPort)
	}
	if keyIndex < 0 || keyIndex >= sw.cfg.CacheSize {
		return fmt.Errorf("switchcore: key index %d out of range", keyIndex)
	}
	var err error
	sw.pl.Control(func() {
		mu := sw.keyLock(keyIndex)
		mu.Lock()
		defer mu.Unlock()
		err = sw.lookup.AddEntry(keyFields(key), "hit",
			[]uint64{packHitData(p.Bitmap, p.Index, keyIndex, serverPort)})
	})
	return err
}

// writeValueLocked scatters value bytes into the placement's slots in
// ascending array order. Caller holds the key's stripe write lock.
func (sw *Switch) writeValueLocked(p cachemem.Placement, value []byte) {
	off := 0
	for a := 0; a < sw.cfg.ValueArrays && off < len(value); a++ {
		if p.Bitmap&(1<<a) == 0 {
			continue
		}
		end := off + 16
		if end > len(value) {
			end = len(value)
		}
		sw.values[a].SetBytes(p.Index, value[off:end])
		off = end
	}
}

// CounterSnapshot holds one cached key's sampled hit count.
type CounterSnapshot struct {
	KeyIndex int
	Hits     uint64
}

// ReadCounters fetches the sampled hit counters for the given key indexes.
func (sw *Switch) ReadCounters(keyIndexes []int) []CounterSnapshot {
	out := make([]CounterSnapshot, 0, len(keyIndexes))
	sw.pl.Control(func() {
		for _, idx := range keyIndexes {
			if idx >= 0 && idx < sw.cfg.CacheSize {
				out = append(out, CounterSnapshot{KeyIndex: idx, Hits: sw.ctr.Get(idx)})
			}
		}
	})
	return out
}

// EstimateFreq reads the Count-Min sketch estimate for a key through the
// driver — the controller uses it at cycle time to rank reported heavy
// hitters, since the report itself only records the frequency at the moment
// the key crossed the threshold.
func (sw *Switch) EstimateFreq(key netproto.Key) uint64 {
	kf := keyFields(key)
	est := ^uint64(0)
	sw.pl.Control(func() {
		idx := sw.cmsIndexes(kf[0], kf[1])
		for row := range sw.cms {
			v := sw.cms[row].Get(idx[row])
			if v < est {
				est = v
			}
		}
	})
	return est
}

// ResetStats clears the Count-Min sketch and the Bloom filter — the periodic
// refresh that bounds staleness (§4.4.3; every second in the paper's
// experiments). When clearCounters is true the per-key hit counters are
// cleared too, starting a fresh comparison window.
func (sw *Switch) ResetStats(clearCounters bool) {
	sw.pl.Control(func() {
		for _, r := range sw.cms {
			r.Reset()
		}
		for _, r := range sw.bloom {
			r.Reset()
		}
		if clearCounters {
			sw.ctr.Reset()
		}
	})
}

// DrainEvents decodes the digests the data plane queued since the last drain
// into heavy-hitter and refused-update overflow reports, oldest first, and
// hands each to its callback; either may be nil. It does not wait for
// traffic. The callbacks run on the caller's goroutine and may call back into
// the switch.
func (sw *Switch) DrainEvents(onHot func(HotReport), onOverflow func(OverflowReport)) {
	sw.pl.DrainDigests(func(payload []byte) {
		if len(payload) != 25 {
			return
		}
		var key netproto.Key
		copy(key[:], payload[1:17])
		n := binary.BigEndian.Uint64(payload[17:25])
		switch payload[0] {
		case digestHot:
			if onHot != nil {
				onHot(HotReport{Key: key, Freq: n})
			}
		case digestOverflow:
			if onOverflow != nil {
				onOverflow(OverflowReport{Key: key, NewSize: int(n)})
			}
		}
	})
}

// TraceQuery runs one frame through the pipeline with per-table tracing —
// the debugging facility for inspecting how a query traverses the NetCache
// program (which tables hit, which gateways skipped).
func (sw *Switch) TraceQuery(frame []byte, inPort int) ([]dataplane.Emitted, dataplane.Trace, error) {
	return sw.pl.ProcessTraced(frame, inPort)
}

// CacheLen returns the number of installed lookup entries.
func (sw *Switch) CacheLen() int {
	var n int
	sw.pl.Control(func() { n = sw.lookup.Len() })
	return n
}

// Reboot models a switch power cycle: every match table and register array
// comes back zeroed, exactly as volatile ASIC state does. Routes, cached
// entries, validity bits, sketch and Bloom state are all gone; the cumulative
// pipeline counters (a driver/OS artifact, not chip SRAM) survive so tests
// can still account for traffic across the reboot. In-flight packets are
// excluded by taking every key stripe inside the control section, so no
// packet holds a pre-reboot lookup result across the wipe.
func (sw *Switch) Reboot() {
	sw.pl.Control(func() {
		for i := range sw.keyMu {
			sw.keyMu[i].Lock()
		}
		defer func() {
			for i := range sw.keyMu {
				sw.keyMu[i].Unlock()
			}
		}()
		sw.lookup.Reset()
		sw.route.Reset()
		sw.valid.Reset()
		sw.ver.Reset()
		sw.vlen.Reset()
		sw.ctr.Reset()
		for _, r := range sw.cms {
			r.Reset()
		}
		for _, r := range sw.bloom {
			r.Reset()
		}
		for _, r := range sw.values {
			r.Reset()
		}
	})
}

// InstalledEntry is one cached item as read back from the switch by
// DumpCache: the installed lookup state plus the live validity bit and
// version. Size is the current value length from the vlen register.
type InstalledEntry struct {
	Key        netproto.Key
	Placement  cachemem.Placement
	KeyIndex   int
	ServerPort int
	Valid      bool
	Version    uint64
}

// DumpCache reads back every installed cache entry from the data plane — the
// switch-state recovery path a restarted controller uses to rebuild its view
// without wiping a warm cache.
func (sw *Switch) DumpCache() []InstalledEntry {
	var out []InstalledEntry
	sw.pl.Control(func() {
		sw.lookup.ForEach(func(match []uint64, action string, data []uint64) {
			if len(match) != 2 || len(data) != 1 {
				return
			}
			d := data[0]
			kidx := int((d >> 16) & 0xFFFF)
			var key netproto.Key
			binary.BigEndian.PutUint64(key[0:8], match[0])
			binary.BigEndian.PutUint64(key[8:16], match[1])
			out = append(out, InstalledEntry{
				Key: key,
				Placement: cachemem.Placement{
					Bitmap: uint16(d >> 48),
					Index:  int((d >> 32) & 0xFFFF),
					Size:   int(sw.vlen.Get(kidx)),
				},
				KeyIndex:   kidx,
				ServerPort: int(d & 0xFFFF),
				Valid:      sw.valid.Get(kidx) == 1,
				Version:    sw.ver.Get(kidx),
			})
		})
	})
	return out
}
