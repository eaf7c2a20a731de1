package rack

import (
	"fmt"
	"sync"
	"testing"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/simnet"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// After a switch power-cycle the rack must keep answering (reads fall
// through to the servers) and the controller's next cycle must notice the
// empty cache and reinstall the entries it tracks.
func TestRebootSwitchControllerRepopulates(t *testing.T) {
	r := newTestRack(t, 4, 16)
	r.LoadDataset(50, 32)
	cli := r.Client(0)
	keys := []netproto.Key{workload.KeyName(1), workload.KeyName(2), workload.KeyName(3)}
	if err := r.PrePopulate(keys); err != nil {
		t.Fatal(err)
	}

	if err := r.RebootSwitch(); err != nil {
		t.Fatal(err)
	}
	if n := r.Switch.CacheLen(); n != 0 {
		t.Fatalf("switch still holds %d entries after reboot", n)
	}

	// The rack stays available: reads fall through to the servers.
	srv := r.ServerOf(keys[0])
	gets := srv.Metrics.Gets.Value()
	v, err := cli.Get(keys[0])
	if err != nil || !workload.CheckValue(1, v) {
		t.Fatalf("post-reboot Get = %q, %v", v, err)
	}
	if srv.Metrics.Gets.Value() != gets+1 {
		t.Error("post-reboot read should reach the server")
	}

	// The controller detects the loss and repopulates from its own state.
	r.Tick()
	if r.Controller.Metrics.Resyncs.Value() == 0 {
		t.Error("controller never noticed the wiped cache")
	}
	if n := r.Switch.CacheLen(); n != len(keys) {
		t.Errorf("switch holds %d entries after resync, want %d", n, len(keys))
	}
	for i, k := range keys {
		gets := r.ServerOf(k).Metrics.Gets.Value()
		v, err := cli.Get(k)
		if err != nil || !workload.CheckValue(i+1, v) {
			t.Fatalf("post-resync Get(%d) = %q, %v", i+1, v, err)
		}
		if r.ServerOf(k).Metrics.Gets.Value() != gets {
			t.Errorf("post-resync read of key %d should be served by the switch", i+1)
		}
	}
}

// The acceptance bar for reboots: a reboot in the middle of a write-heavy
// workload must never surface a stale value. Reads after an acked write
// return that write, whether served by the switch, the server, or the
// freshly repopulated cache.
func TestRebootSwitchMidWorkloadNeverStale(t *testing.T) {
	r := newTestRack(t, 2, 8)
	cli := r.Client(0)
	key := workload.KeyName(7)
	if err := cli.Put(key, []byte("v-0")); err != nil {
		t.Fatal(err)
	}
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 60; round++ {
		want := fmt.Sprintf("v-%d", round)
		if err := cli.Put(key, []byte(want)); err != nil {
			t.Fatalf("round %d put: %v", round, err)
		}
		switch round % 10 {
		case 3:
			if err := r.RebootSwitch(); err != nil {
				t.Fatal(err)
			}
		case 6:
			r.Tick() // repopulate mid-sequence
		}
		for i := 0; i < 2; i++ {
			v, err := cli.Get(key)
			if err != nil {
				t.Fatalf("round %d get: %v", round, err)
			}
			if string(v) != want {
				t.Fatalf("round %d: stale read %q, want %q", round, v, want)
			}
		}
	}
}

// A crashed server's cached keys keep being served by the switch — the
// paper's availability story — while its uncached partition times out until
// the server returns.
func TestCrashedServerCachedKeysStillServed(t *testing.T) {
	r := newTestRack(t, 3, 8)
	r.LoadDataset(60, 32)
	cli := r.Client(0)

	cached := workload.KeyName(4)
	if err := r.PrePopulate([]netproto.Key{cached}); err != nil {
		t.Fatal(err)
	}
	owner := int(r.Partition(cached)) - 1

	// Find an uncached key on the same server.
	var uncached netproto.Key
	for id := 0; id < 60; id++ {
		k := workload.KeyName(id)
		if k != cached && int(r.Partition(k))-1 == owner {
			uncached = k
			break
		}
	}

	r.CrashServer(owner)

	v, err := cli.Get(cached)
	if err != nil || !workload.CheckValue(4, v) {
		t.Fatalf("cached key during crash: %q, %v", v, err)
	}
	if _, err := cli.Get(uncached); err != client.ErrTimeout {
		t.Fatalf("uncached key during crash: %v, want ErrTimeout", err)
	}

	r.RestartServer(owner, false)
	v, err = cli.Get(uncached)
	if err != nil || len(v) == 0 {
		t.Fatalf("uncached key after restart: %q, %v", v, err)
	}
}

// Restart semantics: a process restart preserves the store; a replacement
// node (wipeStore) comes back empty and is writable again.
func TestRestartServerPreservesOrWipesStore(t *testing.T) {
	r := newTestRack(t, 2, 8)
	cli := r.Client(0)
	key := workload.KeyName(11)
	if err := cli.Put(key, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	owner := int(r.Partition(key)) - 1

	r.CrashServer(owner)
	r.RestartServer(owner, false)
	if v, err := cli.Get(key); err != nil || string(v) != "durable" {
		t.Fatalf("preserved restart lost data: %q, %v", v, err)
	}

	r.CrashServer(owner)
	r.RestartServer(owner, true)
	if _, err := cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("wiped restart still holds data: %v", err)
	}
	if err := cli.Put(key, []byte("rewritten")); err != nil {
		t.Fatalf("put after wiped restart: %v", err)
	}
	if v, err := cli.Get(key); err != nil || string(v) != "rewritten" {
		t.Fatalf("read-back after wiped restart: %q, %v", v, err)
	}
}

// Controller restart without rebuild: the switch cache is wiped so the new
// (empty) controller and data plane agree; reads fall through and the
// hot-key machinery refills the cache organically.
func TestRestartControllerFromScratch(t *testing.T) {
	r := newTestRack(t, 3, 8)
	r.LoadDataset(40, 32)
	cli := r.Client(0)
	key := workload.KeyName(6)
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}

	if err := r.RestartController(false); err != nil {
		t.Fatal(err)
	}
	if r.Controller.Len() != 0 || r.Switch.CacheLen() != 0 {
		t.Fatalf("fresh controller: len=%d switch=%d", r.Controller.Len(), r.Switch.CacheLen())
	}
	v, err := cli.Get(key)
	if err != nil || !workload.CheckValue(6, v) {
		t.Fatalf("read after controller restart: %q, %v", v, err)
	}

	// The hot-key path still works under the new controller.
	for i := 0; i < 20; i++ {
		cli.Get(key)
	}
	r.Tick()
	if !r.Controller.Cached(key) {
		t.Error("hot key not re-cached by the fresh controller")
	}
}

// A cold controller restart removes the switch's entries and tells their
// owners the keys are uncached, so a write to a formerly cached key no
// longer sends the switch a refresh for an entry it does not hold.
func TestRestartControllerFromScratchUncachesKeys(t *testing.T) {
	r := newTestRack(t, 2, 8)
	r.LoadDataset(20, 32)
	key := workload.KeyName(3)
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		t.Fatal(err)
	}
	if err := r.RestartController(false); err != nil {
		t.Fatal(err)
	}
	srv := r.ServerOf(key)
	sent := srv.Metrics.CacheUpdatesSent.Value()
	for i := 0; i < 5; i++ {
		if err := r.Client(0).Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.Metrics.CacheUpdatesSent.Value() - sent; n != 0 {
		t.Errorf("%d writes after the restart refreshed an entry the switch no longer holds", n)
	}
}

// Controller restart with rebuild: the new controller adopts the warm
// switch cache — placements, key indexes and versions — and coherence keeps
// holding for both reads and writes.
func TestRestartControllerAdoptsWarmSwitch(t *testing.T) {
	r := newTestRack(t, 3, 8)
	r.LoadDataset(40, 32)
	cli := r.Client(0)
	keys := []netproto.Key{workload.KeyName(8), workload.KeyName(9)}
	if err := r.PrePopulate(keys); err != nil {
		t.Fatal(err)
	}

	if err := r.RestartController(true); err != nil {
		t.Fatal(err)
	}
	if got := r.Controller.Metrics.Adopted.Value(); got != uint64(len(keys)) {
		t.Errorf("Adopted = %d, want %d", got, len(keys))
	}
	for _, k := range keys {
		if !r.Controller.Cached(k) {
			t.Fatalf("adopted controller lost key %v", k)
		}
	}

	// Reads are still switch hits.
	srv := r.ServerOf(keys[0])
	gets := srv.Metrics.Gets.Value()
	v, err := cli.Get(keys[0])
	if err != nil || !workload.CheckValue(8, v) {
		t.Fatalf("adopted read = %q, %v", v, err)
	}
	if srv.Metrics.Gets.Value() != gets {
		t.Error("read of adopted entry should be a switch hit")
	}

	// Writes to adopted entries stay coherent.
	if err := cli.Put(keys[1], []byte("post-adopt")); err != nil {
		t.Fatal(err)
	}
	if v, err := cli.Get(keys[1]); err != nil || string(v) != "post-adopt" {
		t.Fatalf("write to adopted entry: %q, %v", v, err)
	}

	// And the adopted state is usable for future control-plane work: a
	// controller cycle runs without desync.
	r.Tick()
	if r.Controller.Len() != len(keys) {
		t.Errorf("post-adopt tick changed cache to %d entries", r.Controller.Len())
	}
}

// TestReconcileConflictingEntry: one Reconcile call both ways. The switch
// lost a tracked entry and holds, in its old slots, an entry the controller
// does not track. The stranger cannot be adopted (its placement and key
// index are still the lost entry's), so it is removed; the lost entry is
// reinstalled and served by the switch again.
func TestReconcileConflictingEntry(t *testing.T) {
	r := newTestRack(t, 2, 8)
	r.LoadDataset(20, 32)
	kept, lost, stranger := workload.KeyName(1), workload.KeyName(2), workload.KeyName(3)
	for _, k := range []netproto.Key{kept, lost} {
		if err := r.Controller.InsertKey(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, ie := range r.Switch.DumpCache() {
		if ie.Key != lost {
			continue
		}
		if _, err := r.Switch.RemoveCacheEntry(lost, ie.KeyIndex); err != nil {
			t.Fatal(err)
		}
		if err := r.Switch.InstallCacheEntry(switchcore.CacheEntry{
			Key: stranger, Placement: ie.Placement, KeyIndex: ie.KeyIndex,
			ServerPort: ie.ServerPort, Value: []byte("stranger"),
		}); err != nil {
			t.Fatal(err)
		}
	}

	r.Controller.Reconcile(true)
	if n := r.Controller.Metrics.Adopted.Value(); n != 0 {
		t.Errorf("adopted %d entries in slots the controller holds", n)
	}
	installed := map[netproto.Key]bool{}
	for _, ie := range r.Switch.DumpCache() {
		installed[ie.Key] = true
	}
	if !installed[kept] || !installed[lost] || installed[stranger] || len(installed) != 2 {
		t.Errorf("switch holds %v, want the kept and the lost key", installed)
	}
	srv := r.ServerOf(lost)
	gets := srv.Metrics.Gets.Value()
	if v, err := r.Client(0).Get(lost); err != nil || !workload.CheckValue(2, v) {
		t.Fatalf("Get of the reinstalled key = %q, %v", v, err)
	}
	if srv.Metrics.Gets.Value() != gets {
		t.Error("the reinstalled key was not served by the switch")
	}
}

// End-to-end corruption: with every client->switch frame bit-flipped, queries
// die at the switch parser (counted as Corrupted) and the client times out;
// clearing the fault restores service.
func TestCorruptedTrafficRejectedEndToEnd(t *testing.T) {
	r := newTestRack(t, 2, 8)
	r.LoadDataset(10, 32)
	cli := r.Client(0)
	clientPort := len(r.Servers) // first client port

	r.Net.SetFault(clientPort, simnet.ToSwitch, simnet.FaultRule{Corrupt: 1.0})
	if _, err := cli.Get(workload.KeyName(1)); err != client.ErrTimeout {
		t.Fatalf("fully corrupted path: %v, want ErrTimeout", err)
	}
	if got := r.Switch.Pipeline().Stats().Corrupted; got == 0 {
		t.Error("switch counted no corrupted frames")
	}
	if r.Net.CorruptInjected.Value() == 0 {
		t.Error("fabric counted no injected corruptions")
	}

	r.Net.ClearFaults()
	v, err := cli.Get(workload.KeyName(1))
	if err != nil || !workload.CheckValue(1, v) {
		t.Fatalf("after clearing faults: %q, %v", v, err)
	}
}

// Writes retried through a lossy fabric may be applied twice without the
// replay guard; the guard dedups them and the acked value survives.
func TestDuplicatedWritesApplyOnce(t *testing.T) {
	r := newTestRack(t, 2, 8)
	cli := r.Client(0)
	key := workload.KeyName(2)
	owner := int(r.Partition(key)) - 1

	// Duplicate every frame toward the owner: each write arrives twice.
	r.Net.SetFault(owner, simnet.FromSwitch, simnet.FaultRule{Dup: 1.0})
	for i := 0; i < 20; i++ {
		if err := cli.Put(key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if v, err := cli.Get(key); err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	r.Net.ClearFaults()
	if r.Servers[owner].Metrics.WritesDeduped.Value() == 0 {
		t.Error("duplicated writes were never deduped")
	}
}

// Crash/restart under concurrent traffic: clients keep issuing queries while
// a server bounces; no goroutine may wedge and post-recovery reads must see
// the last acked write per key.
func TestServerBounceUnderConcurrentLoad(t *testing.T) {
	r := newTestRack(t, 2, 8)
	r.LoadDataset(20, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli := r.Client(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := workload.KeyName(i % 20)
			// Timeouts are expected while the owner is down.
			switch i % 3 {
			case 0:
				cli.Put(key, []byte{byte(i), byte(i >> 8)})
			default:
				cli.Get(key)
			}
		}
	}()
	for bounce := 0; bounce < 3; bounce++ {
		r.CrashServer(0)
		r.RestartServer(0, false)
	}
	close(stop)
	wg.Wait()

	// The rack is healthy afterwards.
	if err := r.Client(1).Put(workload.KeyName(0), []byte("after")); err != nil {
		t.Fatalf("post-bounce put: %v", err)
	}
	if v, err := r.Client(1).Get(workload.KeyName(0)); err != nil || string(v) != "after" {
		t.Fatalf("post-bounce get: %q, %v", v, err)
	}
}
