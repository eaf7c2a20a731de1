package netcache

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

func newRack(t *testing.T) *Rack {
	t.Helper()
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFacadeCRUD(t *testing.T) {
	r := newRack(t)
	cli := r.Client(0)
	key := KeyFromString("user:1")
	if _, err := cli.Get(key); err != ErrNotFound {
		t.Fatalf("Get absent: %v", err)
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
	if _, err := cli.Get(key); err != ErrNotFound {
		t.Fatalf("Get after delete: %v", err)
	}
}

func TestFacadeHotKeyCaching(t *testing.T) {
	r := newRack(t)
	r.LoadDataset(100, 64)
	cli := r.Client(0)
	hot := KeyName(3)
	for i := 0; i < 20; i++ {
		if _, err := cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	r.Tick()
	if !r.Cached(hot) {
		t.Fatal("hot key not cached")
	}
	st := r.Stats()
	if st.CachedItems != 1 || st.CacheInserts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.SwitchRx == 0 || st.ServerGets == 0 {
		t.Errorf("counters empty: %+v", st)
	}
}

func TestFacadeStartController(t *testing.T) {
	r := newRack(t)
	r.LoadDataset(50, 32)
	stop := r.StartController(2 * time.Millisecond)
	defer stop()
	cli := r.Client(0)
	hot := KeyName(7)
	deadline := time.Now().Add(2 * time.Second)
	for !r.Cached(hot) {
		if time.Now().After(deadline) {
			t.Fatal("controller goroutine never cached the hot key")
		}
		if _, err := cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadePrePopulate(t *testing.T) {
	r := newRack(t)
	r.LoadDataset(50, 32)
	if err := r.PrePopulateTopK(10); err != nil {
		t.Fatal(err)
	}
	if r.CacheLen() != 10 {
		t.Errorf("CacheLen = %d", r.CacheLen())
	}
	v, err := r.Client(0).Get(KeyName(0))
	if err != nil || len(v) != 32 {
		t.Fatalf("cached read: %d bytes, %v", len(v), err)
	}
}

func TestFacadeKeys(t *testing.T) {
	if KeyID(KeyName(12345)) != 12345 {
		t.Error("KeyName/KeyID round trip broken")
	}
	if HashKey([]byte("abc")) == HashKey([]byte("abd")) {
		t.Error("HashKey collision on near keys")
	}
	k := KeyFromString("xy")
	if !bytes.HasPrefix(k[:], []byte("xy")) {
		t.Error("KeyFromString prefix")
	}
}

func TestFacadeNumServers(t *testing.T) {
	if got := newRack(t).NumServers(); got != 4 {
		t.Errorf("NumServers = %d", got)
	}
}

func TestFacadeResourceReport(t *testing.T) {
	if s := newRack(t).ResourceReport(); s == "" {
		t.Error("empty resource report")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Errorf("registry size = %d", len(Experiments()))
	}
	tb, err := RunExperiment("fig10a", true)
	if err != nil || len(tb.Rows) == 0 {
		t.Fatalf("fig10a: %v", err)
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Error("unknown experiment should error")
	}
	if _, err := RunExperiment("fig10f", true); err != nil {
		t.Errorf("fig10f: %v", err)
	}
}

func TestFacadeDynamic(t *testing.T) {
	cfg := DefaultDynamicConfig(ChurnHotOut)
	cfg.Ticks = 5
	cfg.InitialRate = 4000
	cfg.PartitionCapacity = 200
	res, err := RunDynamic(cfg)
	if err != nil || len(res.Ticks) != 5 {
		t.Fatalf("dynamic: %d ticks, %v", len(res.Ticks), err)
	}
}

func TestPaperSwitchConfigCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale switch in -short mode")
	}
	r, err := New(Config{Servers: 2, Clients: 1, Switch: PaperSwitchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	cli := r.Client(0)
	key := KeyFromString("k")
	if err := cli.Put(key, bytes.Repeat([]byte("v"), 128)); err != nil {
		t.Fatal(err)
	}
	if v, err := cli.Get(key); err != nil || len(v) != 128 {
		t.Fatalf("full-scale rack Get: %d bytes, %v", len(v), err)
	}
}

func TestFacadeLeafSpine(t *testing.T) {
	fb, err := NewLeafSpine(LeafSpineConfig{
		Racks: 2, ServersPerRack: 3, Clients: 1, SpineCache: 8, TorCache: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	fb.LoadDataset(60, 32)
	cli := fb.Client(0)
	hot := KeyName(4)
	for i := 0; i < 20; i++ {
		if _, err := cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	fb.Tick()
	if fb.TorCacheLen(fb.RackOf(hot)) == 0 {
		t.Error("owning rack's ToR should have cached the hot key")
	}
	if err := cli.Put(hot, []byte("coherent")); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Get(hot)
	if err != nil || string(v) != "coherent" {
		t.Fatalf("fabric write: %q %v", v, err)
	}
	if fb.SpineCacheLen() != 0 {
		// Not an error — just exercise the accessor.
		t.Logf("spine cached %d items", fb.SpineCacheLen())
	}
}

// TestNoGoroutineOutlivesDeployment: a rack or a leaf-spine that has served
// traffic and been dropped leaves no goroutine behind. The controller pulls
// the switch's hot-key reports inside Tick, so no switch runs a goroutine
// of its own.
func TestNoGoroutineOutlivesDeployment(t *testing.T) {
	start := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		r, err := New(Config{Servers: 2, Clients: 1, CacheCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		r.LoadDataset(8, 16)
		if _, err := r.Client(0).Get(KeyName(1)); err != nil {
			t.Fatal(err)
		}
		r.Tick()
	}
	fb, err := NewLeafSpine(LeafSpineConfig{Racks: 2, ServersPerRack: 2, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	fb.LoadDataset(8, 16)
	if _, err := fb.Client(0).Get(KeyName(1)); err != nil {
		t.Fatal(err)
	}
	fb.Tick()
	// A goroutine that is on its way out may still be counted: wait for
	// the count to settle rather than sample it once.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left running, %d at the start:\n%s", n, start, buf[:runtime.Stack(buf, true)])
	}
}
