package controller_test

import (
	"bytes"
	"math/rand"
	"sync"

	"testing"

	"netcache/internal/controller"
	"netcache/internal/netproto"
	"netcache/internal/rack"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// The controller is exercised against a real rack: switch, servers and
// fabric, with the test driving traffic and Tick cycles.

func newRack(t *testing.T, capacity int) *rack.Rack {
	t.Helper()
	r, err := rack.New(rack.Config{
		Servers: 4, Clients: 1, CacheCapacity: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.LoadDataset(500, 32)
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := controller.New(controller.Config{}); err == nil {
		t.Error("missing switch should fail")
	}
	sw, err := switchcore.New(switchcore.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := controller.New(controller.Config{Switch: sw}); err == nil {
		t.Error("missing mappings should fail")
	}
}

func TestInsertAndEvictKey(t *testing.T) {
	r := newRack(t, 4)
	key := workload.KeyName(1)
	if err := r.Controller.InsertKey(key); err != nil {
		t.Fatal(err)
	}
	if !r.Controller.Cached(key) || r.Controller.Len() != 1 {
		t.Fatal("InsertKey did not cache")
	}
	// Idempotent.
	if err := r.Controller.InsertKey(key); err != nil {
		t.Fatal(err)
	}
	if r.Controller.Len() != 1 {
		t.Error("duplicate insert changed length")
	}
	if !r.Controller.EvictKey(key) {
		t.Error("EvictKey should succeed")
	}
	if r.Controller.EvictKey(key) {
		t.Error("double evict should fail")
	}
	if r.Controller.Cached(key) {
		t.Error("key still cached after evict")
	}
}

func TestInsertAtCapacityFails(t *testing.T) {
	r := newRack(t, 2)
	r.Controller.InsertKey(workload.KeyName(1))
	r.Controller.InsertKey(workload.KeyName(2))
	if err := r.Controller.InsertKey(workload.KeyName(3)); err == nil {
		t.Error("insert past capacity should fail")
	}
}

func TestInsertMissingKeySkipped(t *testing.T) {
	r := newRack(t, 4)
	ghost := netproto.KeyFromString("not-in-any-store")
	if err := r.Controller.InsertKey(ghost); err == nil {
		t.Error("inserting a nonexistent key should fail")
	}
	if r.Controller.Metrics.FetchMisses.Value() != 1 {
		t.Error("fetch miss not counted")
	}
}

func TestTickCachesHottestFirst(t *testing.T) {
	r := newRack(t, 2)
	cli := r.Client(0)
	// Three keys cross the threshold with different intensities; only
	// two fit.
	for i, n := range map[int]int{10: 40, 11: 25, 12: 60} {
		for j := 0; j < n; j++ {
			cli.Get(workload.KeyName(i))
		}
	}
	r.Tick()
	if !r.Controller.Cached(workload.KeyName(12)) {
		t.Error("hottest key (12) must be cached")
	}
	if r.Controller.Len() != 2 {
		t.Errorf("cache len = %d, want 2", r.Controller.Len())
	}
	if r.Controller.Cached(workload.KeyName(11)) {
		t.Error("coldest reported key (11) should have lost the race")
	}
}

func TestCachedKeysSnapshot(t *testing.T) {
	r := newRack(t, 4)
	r.Controller.InsertKey(workload.KeyName(1))
	r.Controller.InsertKey(workload.KeyName(2))
	keys := r.Controller.CachedKeys()
	if len(keys) != 2 {
		t.Fatalf("CachedKeys = %v", keys)
	}
	seen := map[netproto.Key]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if !seen[workload.KeyName(1)] || !seen[workload.KeyName(2)] {
		t.Errorf("snapshot missing keys: %v", keys)
	}
}

func TestStatisticsResetEachCycle(t *testing.T) {
	r := newRack(t, 8)
	cli := r.Client(0)
	key := workload.KeyName(30)
	// Below threshold this cycle.
	for i := 0; i < 5; i++ {
		cli.Get(key)
	}
	r.Tick()
	if r.Controller.Cached(key) {
		t.Fatal("key below threshold should not be cached")
	}
	// Below threshold again next cycle: the CMS was reset, so the counts
	// do not accumulate across cycles.
	for i := 0; i < 5; i++ {
		cli.Get(key)
	}
	r.Tick()
	if r.Controller.Cached(key) {
		t.Error("stats must not accumulate across cycles (CMS reset)")
	}
}

func TestChurnManyCycles(t *testing.T) {
	// Sustained operation: rotating hot sets over many cycles must keep
	// the controller's bookkeeping (allocator, index pool, switch table)
	// consistent.
	r := newRack(t, 8)
	cli := r.Client(0)
	for cycle := 0; cycle < 20; cycle++ {
		base := (cycle * 13) % 300
		for i := 0; i < 10; i++ {
			for j := 0; j < 12; j++ {
				cli.Get(workload.KeyName(base + i))
			}
		}
		r.Tick()
		if r.Controller.Len() > 8 {
			t.Fatalf("cycle %d: cache overflow %d", cycle, r.Controller.Len())
		}
		if got := r.Switch.CacheLen(); got != r.Controller.Len() {
			t.Fatalf("cycle %d: switch table %d != controller %d", cycle, got, r.Controller.Len())
		}
	}
	if r.Controller.Metrics.Inserts.Value() == 0 || r.Controller.Metrics.Evictions.Value() == 0 {
		t.Error("churn should have driven inserts and evictions")
	}
	// Every cached key must still serve correct values from the switch.
	for _, k := range r.Controller.CachedKeys() {
		id := workload.KeyID(k)
		v, err := cli.Get(k)
		if err != nil || !workload.CheckValue(id, v) {
			t.Fatalf("cached key %d: %q %v", id, v, err)
		}
	}
}

func TestMixedValueSizesPackAndServe(t *testing.T) {
	// Items of every slot count (1..8) cached simultaneously exercise the
	// allocator's bitmap packing end to end.
	r, err := rack.New(rack.Config{Servers: 4, Clients: 1, CacheCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	cli := r.Client(0)
	sizes := []int{5, 16, 17, 40, 64, 77, 100, 128}
	for i, sz := range sizes {
		key := workload.KeyName(i)
		if err := cli.Put(key, workload.ValueFor(i, sz)); err != nil {
			t.Fatal(err)
		}
		if err := r.Controller.InsertKey(key); err != nil {
			t.Fatalf("insert size %d: %v", sz, err)
		}
	}
	for i, sz := range sizes {
		v, err := cli.Get(workload.KeyName(i))
		if err != nil || len(v) != sz || !workload.CheckValue(i, v) {
			t.Fatalf("size %d: got %d bytes, err %v", sz, len(v), err)
		}
	}
}

// The value memory never blocks an insertion: with one value bin per key
// index (CacheSize = ValueSlots), a seeded InsertKey/EvictKey churn over
// values of 1–128 bytes, each written straight into its owner's store before
// it is inserted, succeeds at every insert made below capacity, and every
// cached key then serves its value from the switch.
func TestInsertBelowCapacityNeverFailsForSpace(t *testing.T) {
	const capacity, keys, ops = 16, 48, 20_000
	sw := switchcore.TestConfig()
	sw.CacheSize, sw.ValueSlots = capacity, capacity
	r, err := rack.New(rack.Config{Switch: sw, Servers: 4, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	values := make(map[netproto.Key][]byte, keys)
	var cached []netproto.Key
	for op := 0; op < ops; op++ {
		if n := len(cached); n == capacity || n > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(n)
			if !r.Controller.EvictKey(cached[j]) {
				t.Fatalf("op %d: evict of a cached key failed", op)
			}
			cached[j] = cached[n-1]
			cached = cached[:n-1]
			continue
		}
		id := rng.Intn(keys)
		key := workload.KeyName(id)
		if r.Controller.Cached(key) {
			continue
		}
		values[key] = workload.ValueFor(id, 1+rng.Intn(128))
		r.PrimaryOf(key).Store().Put(key, values[key])
		if err := r.Controller.InsertKey(key); err != nil {
			t.Fatalf("op %d: insert with %d of %d cached: %v", op, len(cached), capacity, err)
		}
		cached = append(cached, key)
	}
	if got := r.Switch.CacheLen(); got != len(cached) || r.Controller.Len() != len(cached) {
		t.Fatalf("switch holds %d entries, controller %d, want %d", got, r.Controller.Len(), len(cached))
	}
	serverGets := func() (n uint64) {
		for _, s := range r.Servers {
			n += s.Metrics.Gets.Value()
		}
		return n
	}
	before := serverGets()
	for _, key := range cached {
		if v, err := r.Client(0).Get(key); err != nil || !bytes.Equal(v, values[key]) {
			t.Fatalf("cached key %v: %q, %v; want %q", key, v, err, values[key])
		}
	}
	if n := serverGets() - before; n != 0 {
		t.Errorf("%d of %d Gets of cached keys reached a server", n, len(cached))
	}
}

func TestInsertFailsWithoutPortMapping(t *testing.T) {
	// A node whose address has no switch port cannot be cached.
	sw, err := switchcore.New(switchcore.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(controller.Config{
		Switch:    sw,
		Nodes:     map[netproto.Addr]controller.StorageNode{},
		Partition: func(netproto.Key) netproto.Addr { return 1 },
		PortOf:    func(netproto.Addr) (int, bool) { return 0, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.InsertKey(workload.KeyName(1)); err == nil {
		t.Error("insert without a known node should fail")
	}
	if ctl.Len() != 0 {
		t.Error("nothing should be cached")
	}
}

func TestTickWithNoTrafficIsHarmless(t *testing.T) {
	r := newRack(t, 4)
	for i := 0; i < 5; i++ {
		r.Tick()
	}
	if r.Controller.Len() != 0 || r.Controller.Metrics.Cycles.Value() != 5 {
		t.Errorf("idle ticks misbehaved: len=%d cycles=%d",
			r.Controller.Len(), r.Controller.Metrics.Cycles.Value())
	}
}

// Manual cache management (InsertKey/EvictKey — "network operators can also
// specify rules", §4.2) may race the periodic Tick cycle. Under -race this
// shakes out lock-ordering bugs between the manual path, eviction sampling,
// resync and the hot-key machinery; functionally, the controller and switch
// must agree on the cache contents afterwards.
func TestInsertEvictRacingTick(t *testing.T) {
	r := newRack(t, 16)
	cli := r.Client(0)

	// Background read traffic so ticks have digests to chew on.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cli.Get(workload.KeyName(i % 50))
		}
	}()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; round < 40; round++ {
			key := workload.KeyName(100 + round%8)
			// Errors (cache at capacity because Tick just filled it,
			// insertion racing an eviction) are legitimate under churn;
			// the test cares about data races and the converged state.
			_ = r.Controller.InsertKey(key)
			r.Controller.EvictKey(key)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			r.Tick()
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	// Converged bookkeeping: every controller entry is installed in the
	// switch, and counts line up.
	if got, want := r.Switch.CacheLen(), r.Controller.Len(); got != want {
		t.Errorf("switch holds %d entries, controller tracks %d", got, want)
	}
	for _, k := range r.Controller.CachedKeys() {
		if !r.Controller.Cached(k) {
			t.Errorf("snapshot key %v not cached", k)
		}
	}
}
