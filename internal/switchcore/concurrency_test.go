package switchcore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"netcache/internal/cachemem"
	"netcache/internal/netproto"
)

// decodeErr is decode without t.Fatal, usable from worker goroutines.
func decodeErr(frame []byte) (netproto.Frame, netproto.Packet, error) {
	fr, err := netproto.DecodeFrame(frame)
	if err != nil {
		return fr, netproto.Packet{}, err
	}
	var pkt netproto.Packet
	if err := netproto.Decode(fr.Payload, &pkt); err != nil {
		return fr, pkt, err
	}
	return fr, pkt, nil
}

// uniform reports whether v is len(n) bytes all equal to b.
func uniform(v []byte, b byte, n int) bool {
	if len(v) != n {
		return false
	}
	for _, c := range v {
		if c != b {
			return false
		}
	}
	return true
}

// The §4.3 per-key atomicity requirement, adversarially: readers hammer a
// cached key whose 48-byte value (3 register arrays) is rewritten in flight
// by data-plane cache updates, while the driver concurrently installs and
// evicts a second key. Every cache-hit reply must be entirely the old or
// entirely the new value — a single mixed byte is a torn read. Run with
// -race to also catch unsynchronized access.
func TestNoTornValueReads(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("torn-key")
	const vlen = 48
	valA := bytes.Repeat([]byte{0xAA}, vlen)
	valB := bytes.Repeat([]byte{0xBB}, vlen)
	r.install(t, key, valA)

	getF := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	updA := mkFrame(t, serverAddr, serverAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 1, Key: key, Value: valA})
	updB := mkFrame(t, serverAddr, serverAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 2, Key: key, Value: valB})

	churnKey := netproto.KeyFromString("churn-key")
	churnVal := bytes.Repeat([]byte{0xCC}, 32)
	churnGet := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: churnKey})
	churnPlace, err := r.alloc.Insert(churnKey, len(churnVal))
	if err != nil {
		t.Fatal(err)
	}
	churnIdx := r.kidx.Alloc()

	stop := make(chan struct{})
	var writers sync.WaitGroup

	// Data-plane updater: flips the cached value A↔B through OpCacheUpdate.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := updA
			if i&1 == 1 {
				f = updB
			}
			if _, err := r.sw.ProcessAppend(f, serverPort, nil); err != nil {
				t.Errorf("updater: %v", err)
				return
			}
		}
	}()

	// Driver churn: insert/evict a second key through the control plane
	// while traffic flows.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := r.sw.InstallCacheEntry(CacheEntry{
				Key: churnKey, Placement: churnPlace, KeyIndex: churnIdx,
				ServerPort: serverPort, Value: churnVal,
			})
			if err != nil {
				t.Errorf("install: %v", err)
				return
			}
			if _, err := r.sw.RemoveCacheEntry(churnKey, churnIdx); err != nil {
				t.Errorf("remove: %v", err)
				return
			}
		}
	}()

	check := func(frame []byte, iters int, ok func(pkt netproto.Packet) error) {
		for i := 0; i < iters; i++ {
			out, err := r.sw.ProcessAppend(frame, clientPort, nil)
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if len(out) != 1 {
				t.Errorf("reader: %d emissions", len(out))
				return
			}
			_, pkt, err := decodeErr(out[0].Frame)
			if err != nil {
				t.Errorf("reader decode: %v", err)
				return
			}
			if pkt.Op == netproto.OpGet {
				continue // invalid/missing at that instant: forwarded to the server
			}
			if err := ok(pkt); err != nil {
				t.Error(err)
				return
			}
		}
	}

	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			check(getF, 2000, func(pkt netproto.Packet) error {
				if pkt.Op != netproto.OpGetReply {
					return fmt.Errorf("reader: op %v", pkt.Op)
				}
				if !uniform(pkt.Value, 0xAA, vlen) && !uniform(pkt.Value, 0xBB, vlen) {
					return fmt.Errorf("TORN VALUE read: % x", pkt.Value)
				}
				return nil
			})
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		check(churnGet, 2000, func(pkt netproto.Packet) error {
			if pkt.Op != netproto.OpGetReply {
				return fmt.Errorf("churn reader: op %v", pkt.Op)
			}
			if !uniform(pkt.Value, 0xCC, len(churnVal)) {
				return fmt.Errorf("churn key torn read: % x", pkt.Value)
			}
			return nil
		})
	}()

	readers.Wait()
	close(stop)
	writers.Wait()
}

// The controller's periodic stats cycle (§4.4.3) clears the CMS sketch,
// Bloom filter, and per-key hit counters while the data plane is updating
// them from concurrent Process calls. The clear must be tear-free: no
// panic, no torn register state, no -race report, and the per-key hit
// counter visible afterwards must stay consistent (bounded by the traffic
// issued since the last clear). Run under -race (make race / make chaos).
func TestResetStatsRaceWithProcess(t *testing.T) {
	r := newRig(t)

	// One cached key (exercises the hit counter path) and a spread of
	// uncached keys (exercise CMS + Bloom updates on the miss path).
	cached := netproto.KeyFromString("reset-race-cached")
	_, kidx := r.install(t, cached, bytes.Repeat([]byte{0xEE}, 16))

	const workers = 4
	frames := make([][][]byte, workers)
	for w := range frames {
		frames[w] = append(frames[w],
			mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: cached}))
		for i := 0; i < 7; i++ {
			k := netproto.KeyFromString(fmt.Sprintf("reset-race-%d-%d", w, i))
			frames[w] = append(frames[w],
				mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 2, Key: k}))
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var processed [workers]uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, f := range frames[w] {
					if _, err := r.sw.ProcessAppend(f, clientPort, nil); err != nil {
						t.Errorf("Process: %v", err)
						return
					}
					processed[w]++
				}
			}
		}(w)
	}

	for i := 0; i < 300; i++ {
		r.sw.ResetStats(i%2 == 0) // alternate counter-clearing cycles
	}
	close(stop)
	wg.Wait()

	// Post-quiesce consistency: one more clear then a burst of known size —
	// the hit counter for the cached key must count exactly that burst.
	r.sw.ResetStats(true)
	const burst = 5
	hitF := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 9, Key: cached})
	for i := 0; i < burst; i++ {
		if _, err := r.sw.ProcessAppend(hitF, clientPort, nil); err != nil {
			t.Fatal(err)
		}
	}
	cs := r.sw.ReadCounters([]int{kidx})
	if len(cs) != 1 || cs[0].Hits != burst {
		t.Errorf("hit counter after clear+burst = %+v, want Hits=%d", cs, burst)
	}
}

// The controller recycles a cache index and value slots as soon as it
// evicts a key, and a reinstalled key may land on other slots. A cached GET
// for A that matched A's lookup entry must never reply with the bytes of B,
// installed at A's key index and value slots after A's eviction but before
// the GET reached the value stages. One goroutine cycles evict A, install B
// in A's place, evict B, reinstall A at spare slots, evict A, reinstall A in
// its first place, while Gets for A run; a reply carrying anything but A's
// value fails, through the switch entry point (fast path first) and through
// the table interpreter alone.
func TestCacheIndexReuse(t *testing.T) {
	for _, interpreter := range []bool{false, true} {
		name := "fastpath"
		if interpreter {
			name = "interpreter"
		}
		t.Run(name, func(t *testing.T) {
			r := newRigConfig(t, TestConfig())
			process := r.sw.ProcessAppend
			if interpreter {
				process = r.sw.Pipeline().ProcessAppend
			}
			keyA := netproto.KeyFromString("reuse-a")
			keyB := netproto.KeyFromString("reuse-b")
			valA := bytes.Repeat([]byte{0xAA}, 32)
			valB := bytes.Repeat([]byte{0xBB}, 32)
			place, kidx := r.install(t, keyA, valA)
			spare, err := r.alloc.Insert(netproto.KeyFromString("reuse-spare"), len(valA))
			if err != nil {
				t.Fatal(err)
			}
			install := func(k netproto.Key, p cachemem.Placement, v []byte) func() error {
				return func() error {
					return r.sw.InstallCacheEntry(CacheEntry{Key: k, Placement: p, KeyIndex: kidx, ServerPort: serverPort, Value: v})
				}
			}
			remove := func(k netproto.Key) func() error {
				return func() error {
					_, err := r.sw.RemoveCacheEntry(k, kidx)
					return err
				}
			}
			churn := []func() error{
				remove(keyA),
				install(keyB, place, valB),
				remove(keyB),
				install(keyA, spare, valA),
				remove(keyA),
				install(keyA, place, valA),
			}

			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, step := range churn {
						if err := step(); err != nil {
							t.Errorf("churn: %v", err)
							return
						}
					}
				}
			}()
			defer func() { close(stop); <-done }()

			getA := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: keyA})
			hits, wrong := 0, 0
			for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
				out, err := process(getA, clientPort, nil)
				if err != nil || len(out) != 1 {
					t.Fatalf("Process: %d emissions, %v", len(out), err)
				}
				_, pkt, err := decodeErr(out[0].Frame)
				if err != nil {
					t.Fatal(err)
				}
				if pkt.Op != netproto.OpGetReply {
					continue // uncached or invalid at that instant: forwarded
				}
				hits++
				if !bytes.Equal(pkt.Value, valA) {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d cache hits for A replied with another key's value", wrong, hits)
			}
		})
	}
}
