package rack

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/simnet"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

func newTestRack(t *testing.T, servers, capacity int) *Rack {
	t.Helper()
	r, err := New(Config{Servers: servers, Clients: 2, CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Servers: 0, Clients: 1}); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := New(Config{Servers: 1, Clients: 0}); err == nil {
		t.Error("zero clients should fail")
	}
	if _, err := New(Config{Servers: 60, Clients: 60}); err == nil {
		t.Error("exceeding switch ports should fail")
	}
}

func TestEndToEndCRUD(t *testing.T) {
	r := newTestRack(t, 4, 16)
	cli := r.Client(0)
	key := netproto.KeyFromString("user:1")

	if _, err := cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("fresh rack Get: %v", err)
	}
	if err := cli.Put(key, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Get(key)
	if err != nil || string(v) != "alice" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := cli.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
}

func TestDatasetSpreadAcrossServers(t *testing.T) {
	r := newTestRack(t, 4, 16)
	r.LoadDataset(1000, 64)
	total := 0
	for i, srv := range r.Servers {
		n := srv.Store().Len()
		total += n
		if n < 100 {
			t.Errorf("server %d holds only %d/1000 items; partitioning skewed", i, n)
		}
	}
	if total != 1000 {
		t.Errorf("dataset total = %d", total)
	}
	// Values readable through the client API.
	v, err := r.Client(0).Get(workload.KeyName(123))
	if err != nil || !workload.CheckValue(123, v) {
		t.Fatalf("dataset value: %q %v", v, err)
	}
}

func TestHotKeyGetsCachedAutomatically(t *testing.T) {
	r := newTestRack(t, 4, 16)
	r.LoadDataset(100, 32)
	cli := r.Client(0)
	hot := workload.KeyName(7)

	srv := r.Servers[r.Partition(hot)-1]
	before := srv.Metrics.Gets.Value()
	// Drive reads past the heavy-hitter threshold (TestConfig: 8,
	// sample rate 1.0).
	for i := 0; i < 20; i++ {
		if _, err := cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	if r.Controller.Cached(hot) {
		t.Fatal("key cached before controller cycle")
	}
	r.Tick()
	if !r.Controller.Cached(hot) {
		t.Fatal("hot key not cached after controller cycle")
	}
	during := srv.Metrics.Gets.Value()

	// Subsequent reads are served by the switch: the server sees none.
	for i := 0; i < 20; i++ {
		v, err := cli.Get(hot)
		if err != nil || !workload.CheckValue(7, v) {
			t.Fatalf("cached Get = %q, %v", v, err)
		}
	}
	if after := srv.Metrics.Gets.Value(); after != during {
		t.Errorf("server saw %d reads for a cached key", after-during)
	}
	if before == during {
		t.Error("sanity: server should have served the warm-up reads")
	}
}

func TestCoherenceWriteToCachedKey(t *testing.T) {
	r := newTestRack(t, 4, 16)
	r.LoadDataset(10, 32)
	cli := r.Client(0)
	key := workload.KeyName(3)

	// Cache it.
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}
	// Overwrite through the normal client path.
	if err := cli.Put(key, []byte("fresh-value")); err != nil {
		t.Fatal(err)
	}
	// The read must return the new value — and from the switch, since
	// the server refreshed the cache.
	srv := r.Servers[r.Partition(key)-1]
	gets := srv.Metrics.Gets.Value()
	v, err := cli.Get(key)
	if err != nil || string(v) != "fresh-value" {
		t.Fatalf("post-write Get = %q, %v", v, err)
	}
	if srv.Metrics.Gets.Value() != gets {
		t.Error("read after refresh should be served by the switch")
	}
	if srv.Metrics.CacheUpdatesSent.Value() == 0 {
		t.Error("server never refreshed the switch")
	}
}

func TestCoherenceDeleteCachedKey(t *testing.T) {
	r := newTestRack(t, 4, 16)
	r.LoadDataset(10, 32)
	cli := r.Client(0)
	key := workload.KeyName(5)
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("deleted cached key Get = %v, want ErrNotFound", err)
	}
}

func TestShrinkingValueUpdate(t *testing.T) {
	r := newTestRack(t, 4, 16)
	cli := r.Client(0)
	key := workload.KeyName(1)
	long := bytes.Repeat([]byte("x"), 100)
	if err := cli.Put(key, long); err != nil {
		t.Fatal(err)
	}
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}
	// Shrink: still updatable in the data plane.
	if err := cli.Put(key, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Get(key)
	if err != nil || string(v) != "tiny" {
		t.Fatalf("shrunk Get = %q, %v", v, err)
	}
}

func TestGrowingValueKeepsCoherence(t *testing.T) {
	// A value growing beyond its slot allocation cannot be updated in
	// the data plane (§4.3); the entry must stay invalid (reads fall
	// through to the server) rather than serve stale bytes.
	r := newTestRack(t, 4, 16)
	cli := r.Client(0)
	key := workload.KeyName(2)
	if err := cli.Put(key, []byte("tiny")); err != nil { // 1 slot
		t.Fatal(err)
	}
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}
	grown := bytes.Repeat([]byte("G"), 120) // 8 slots
	if err := cli.Put(key, grown); err != nil {
		t.Fatal(err)
	}
	// The switch refused the oversized data-plane update, so the read
	// falls through to the server and returns the new value.
	srv := r.Servers[r.Partition(key)-1]
	gets := srv.Metrics.Gets.Value()
	v, err := cli.Get(key)
	if err != nil || !bytes.Equal(v, grown) {
		t.Fatalf("grown Get = %d bytes, %v; want 120", len(v), err)
	}
	if srv.Metrics.Gets.Value() != gets+1 {
		t.Error("read of an invalid entry must reach the server")
	}
	// The controller's next cycle reinstalls the item with a larger
	// placement; reads are then served by the switch again.
	r.Tick()
	if r.Controller.Metrics.Regrown.Value() != 1 {
		t.Errorf("Regrown = %d, want 1", r.Controller.Metrics.Regrown.Value())
	}
	gets = srv.Metrics.Gets.Value()
	v, err = cli.Get(key)
	if err != nil || !bytes.Equal(v, grown) {
		t.Fatalf("post-reinstall Get = %d bytes, %v", len(v), err)
	}
	if srv.Metrics.Gets.Value() != gets {
		t.Error("post-reinstall read should be served by the switch")
	}
}

func TestEvictionPrefersColderKeys(t *testing.T) {
	r, err := New(Config{Servers: 4, Clients: 2, CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.LoadDataset(100, 16)
	cli := r.Client(0)

	// Fill the cache with four lukewarm keys.
	cold := []netproto.Key{workload.KeyName(10), workload.KeyName(11), workload.KeyName(12), workload.KeyName(13)}
	if err := r.PrePopulate(cold); err != nil {
		t.Fatal(err)
	}
	// A few hits each so counters are low but nonzero.
	for _, k := range cold {
		for i := 0; i < 2; i++ {
			cli.Get(k)
		}
	}
	// Hammer a new key far beyond the threshold.
	hot := workload.KeyName(50)
	for i := 0; i < 100; i++ {
		cli.Get(hot)
	}
	r.Tick()
	if !r.Controller.Cached(hot) {
		t.Fatal("hot key should displace a cold one")
	}
	if r.Controller.Len() != 4 {
		t.Errorf("cache size = %d, want 4", r.Controller.Len())
	}
}

func TestColdReportDoesNotEvictHotter(t *testing.T) {
	r, err := New(Config{Servers: 4, Clients: 2, CacheCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.LoadDataset(100, 16)
	cli := r.Client(0)
	hotA, hotB := workload.KeyName(1), workload.KeyName(2)
	r.PrePopulate([]netproto.Key{hotA, hotB})
	// Both cached keys are very hot this cycle.
	for i := 0; i < 100; i++ {
		cli.Get(hotA)
		cli.Get(hotB)
	}
	// A mildly-hot uncached key crosses the report threshold but is
	// colder than the cached pair.
	mild := workload.KeyName(60)
	for i := 0; i < 10; i++ {
		cli.Get(mild)
	}
	r.Tick()
	if r.Controller.Cached(mild) {
		t.Error("milder key must not displace hotter cached keys")
	}
	if !r.Controller.Cached(hotA) || !r.Controller.Cached(hotB) {
		t.Error("hot cached keys were evicted")
	}
}

func TestCacheUpdateSurvivesLoss(t *testing.T) {
	r := newTestRack(t, 2, 8)
	r.LoadDataset(10, 32)
	cli := r.Client(0)
	key := workload.KeyName(4)
	r.PrePopulate([]netproto.Key{key})

	// Drop 70% of frames toward the owning server's port: cache-update
	// acks get lost and the reliable-update retry must recover.
	srvIdx := int(r.Partition(key)) - 1
	r.Net.SetFault(srvIdx, simnet.FromSwitch, simnet.FaultRule{Loss: 0.7})
	err := cli.Put(key, []byte("survives"))
	r.Net.SetFault(srvIdx, simnet.FromSwitch, simnet.FaultRule{})
	if err != nil {
		t.Fatalf("put under loss: %v", err)
	}

	// Eventually the value must be consistent through the cache.
	srv := r.Servers[r.Partition(key)-1]
	deadline := 200
	for i := 0; ; i++ {
		v, err := cli.Get(key)
		if err == nil && string(v) == "survives" {
			break
		}
		if i >= deadline {
			t.Fatalf("value never converged: %q %v", v, err)
		}
	}
	_ = srv
}

func TestConcurrentMixedWorkload(t *testing.T) {
	r := newTestRack(t, 4, 32)
	r.LoadDataset(200, 64)
	r.PrePopulate([]netproto.Key{workload.KeyName(0), workload.KeyName(1)})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for c := 0; c < 2; c++ {
		cli := r.Client(c)
		wg.Add(1)
		go func(cli *client.Client, seed int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := (seed*7 + i) % 200
				key := workload.KeyName(id)
				switch i % 5 {
				case 0:
					val := []byte(fmt.Sprintf("v-%d-%d", seed, i))
					if err := cli.Put(key, val); err != nil {
						errs <- fmt.Errorf("put: %w", err)
						return
					}
				default:
					if _, err := cli.Get(key); err != nil && err != client.ErrNotFound {
						errs <- fmt.Errorf("get: %w", err)
						return
					}
				}
				if i%100 == 0 {
					r.Tick()
				}
			}
		}(cli, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Monotonic-read coherence: after a write completes, no later read may
// return the older value (switch cache and store must agree).
func TestReadNeverStale(t *testing.T) {
	r := newTestRack(t, 2, 8)
	cli := r.Client(0)
	key := workload.KeyName(9)
	cli.Put(key, []byte("v-0"))
	r.PrePopulate([]netproto.Key{key})

	for round := 1; round <= 50; round++ {
		want := fmt.Sprintf("v-%d", round)
		if err := cli.Put(key, []byte(want)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			v, err := cli.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != want {
				t.Fatalf("round %d read %d: got %q, want %q (stale read)", round, i, v, want)
			}
		}
	}
}

func TestAddrHelpers(t *testing.T) {
	if ServerAddr(0) == ClientAddr(0) {
		t.Error("address spaces overlap")
	}
	r := newTestRack(t, 3, 8)
	if r.ServerPort(2) != 2 {
		t.Errorf("ServerPort(2) = %d", r.ServerPort(2))
	}
}

func BenchmarkEndToEndCachedGet(b *testing.B) {
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 16})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(100, 128)
	key := workload.KeyName(1)
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		b.Fatal(err)
	}
	cli := r.Client(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndUncachedGet(b *testing.B) {
	sw := switchcore.TestConfig()
	sw.SampleRate = 0 // keep statistics out of the picture
	r, err := New(Config{Switch: sw, Servers: 4, Clients: 1, CacheCapacity: 16})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(100, 128)
	key := workload.KeyName(2)
	cli := r.Client(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadDataset times the set-up every experiment starts from: the
// dataset of the end-to-end benchmark (100 000 keys of 128 B) loaded into a
// four-server rack, per key, with and without backup mirroring.
func BenchmarkLoadDataset(b *testing.B) {
	const keys, valueSize = 100_000, 128
	for _, replicate := range []bool{false, true} {
		b.Run(fmt.Sprintf("replicate=%v", replicate), func(b *testing.B) {
			var ms runtime.MemStats
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, err := New(Config{Servers: 4, Clients: 1, Replicate: replicate})
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				r.LoadDataset(keys, valueSize)
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				b.StartTimer()
			}
			n := float64(b.N) * keys
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/key")
			b.ReportMetric(float64(mallocs)/n, "allocs/key")
		})
	}
}

// Torture test: concurrent writers to the same cached key. The coherence
// protocol serializes writes through the server; the final state of cache
// and store must agree, and no read may observe a value that was never
// written.
func TestConcurrentWritersToCachedKey(t *testing.T) {
	r := newTestRack(t, 2, 8)
	cli0, cli1 := r.Client(0), r.Client(1)
	key := workload.KeyName(1)
	if err := cli0.Put(key, []byte("v-init")); err != nil {
		t.Fatal(err)
	}
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}

	valid := sync.Map{}
	valid.Store("v-init", true)
	var wg sync.WaitGroup
	writer := func(cli *client.Client, tag string) {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			v := fmt.Sprintf("v-%s-%d", tag, i)
			valid.Store(v, true)
			if err := cli.Put(key, []byte(v)); err != nil {
				t.Errorf("writer %s: %v", tag, err)
				return
			}
		}
	}
	reader := func(cli *client.Client) {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			v, err := cli.Get(key)
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if _, ok := valid.Load(string(v)); !ok {
				t.Errorf("reader observed a value never written: %q", v)
				return
			}
		}
	}
	wg.Add(4)
	go writer(cli0, "a")
	go writer(cli1, "b")
	go reader(cli0)
	go reader(cli1)
	wg.Wait()

	// Converged: cache serves exactly what the store holds.
	srv := r.Servers[r.Partition(key)-1]
	stored, _, ok := srv.Store().Get(key)
	if !ok {
		t.Fatal("key vanished")
	}
	got, err := r.Client(0).Get(key)
	if err != nil || !bytes.Equal(got, stored) {
		t.Fatalf("cache %q vs store %q (err %v)", got, stored, err)
	}
}

// Model-based test: a random single-threaded op sequence against the rack
// must behave exactly like a map, across cache installs, evictions,
// invalidations, refreshes and controller cycles. This is the sequential
// consistency oracle for the whole stack.
func TestModelBasedSequentialOps(t *testing.T) {
	r, err := New(Config{Servers: 3, Clients: 1, CacheCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	cli := r.Client(0)
	ref := make(map[int]string)
	rng := rand.New(rand.NewSource(2026))

	for i := 0; i < 4000; i++ {
		id := rng.Intn(40)
		key := workload.KeyName(id)
		switch rng.Intn(10) {
		case 0, 1, 2: // put
			val := fmt.Sprintf("v%d-%d", id, i)
			if err := cli.Put(key, []byte(val)); err != nil {
				t.Fatalf("op %d put: %v", i, err)
			}
			ref[id] = val
		case 3: // delete
			if err := cli.Delete(key); err != nil {
				t.Fatalf("op %d delete: %v", i, err)
			}
			delete(ref, id)
		default: // get
			v, err := cli.Get(key)
			want, ok := ref[id]
			if !ok {
				if err != client.ErrNotFound {
					t.Fatalf("op %d get absent key %d: %q %v", i, id, v, err)
				}
			} else if err != nil || string(v) != want {
				t.Fatalf("op %d get key %d: got %q (%v), want %q (cached=%v)",
					i, id, v, err, want, r.Controller.Cached(key))
			}
		}
		if i%200 == 199 {
			r.Tick() // churn the cache mid-sequence
		}
	}
	if r.Controller.Metrics.Inserts.Value() == 0 {
		t.Error("the sequence should have driven cache installs")
	}
}

// The Client template reaches every client: with each client's first
// request dropped once, its Get succeeds on one retransmission, sent no
// sooner than the template's RTO floor.
func TestClientPolicyPlumbing(t *testing.T) {
	const floor = 3 * time.Millisecond
	const servers = 2
	r, err := New(Config{
		Servers: servers, Clients: 2, CacheCapacity: 8,
		Client: client.Config{Policy: client.Policy{RTOFloor: floor, Seed: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.LoadDataset(32, 16)
	for i := 0; i < 2; i++ {
		cli, port := r.Client(i), servers+i
		var dropped atomic.Bool
		cli.SetSend(func(frame []byte) {
			if dropped.CompareAndSwap(false, true) {
				return
			}
			_ = r.Net.Inject(frame, port)
		})
		start := time.Now()
		if _, err := cli.Get(workload.KeyName(i)); err != nil {
			t.Fatalf("client %d get: %v", i, err)
		}
		elapsed := time.Since(start)
		if got := cli.Metrics.Retransmit.Value(); got != 1 {
			t.Errorf("client %d: Retransmit = %d, want 1", i, got)
		}
		if elapsed < floor {
			t.Errorf("client %d recovered in %v, below the template's %v floor", i, elapsed, floor)
		}
	}
}

// TestTickDecisionsFollowTraffic: racks built alike and given the same
// traffic cache the same keys. Thirty-two keys reach the same estimate, four
// fit, and the controller ranks ties by the order their reports arrived.
func TestTickDecisionsFollowTraffic(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		r, err := New(Config{Servers: 2, Clients: 1, CacheCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		r.LoadDataset(32, 16)
		cli := r.Client(0)
		for k := 0; k < 32; k++ {
			for g := 0; g < 10; g++ {
				if _, err := cli.Get(workload.KeyName(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.Tick()
		keys := r.Controller.CachedKeys()
		if len(keys) != 4 {
			t.Fatalf("rack %d cached %d keys, want 4", i, len(keys))
		}
		slices.SortFunc(keys, func(a, b netproto.Key) int { return bytes.Compare(a[:], b[:]) })
		got := fmt.Sprintf("%x", keys)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("rack %d cached %s, rack 0 cached %s", i, got, first)
		}
	}
}
