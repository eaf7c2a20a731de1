package leafspine

import (
	"fmt"
	"testing"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/simnet"
	"netcache/internal/workload"
)

func newFabric(t *testing.T, racks, servers int) *Fabric {
	t.Helper()
	f, err := New(Config{
		Racks: racks, ServersPerRack: servers, Clients: 1,
		SpineCache: 16, TorCache: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Racks: 0, ServersPerRack: 1, Clients: 1}); err == nil {
		t.Error("zero racks should fail")
	}
	if _, err := New(Config{Racks: 1, ServersPerRack: 0, Clients: 1}); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := New(Config{Racks: 100, ServersPerRack: 4, Clients: 1}); err == nil {
		t.Error("too many racks for the spine's ports should fail")
	}
}

func TestCrossRackCRUD(t *testing.T) {
	f := newFabric(t, 3, 4)
	cli := f.Client(0)
	// Touch enough keys to hit every rack.
	for id := 0; id < 30; id++ {
		key := workload.KeyName(id)
		if err := cli.Put(key, workload.ValueFor(id, 32)); err != nil {
			t.Fatalf("put %d (rack %d): %v", id, f.RackOf(key), err)
		}
	}
	for id := 0; id < 30; id++ {
		v, err := cli.Get(workload.KeyName(id))
		if err != nil || !workload.CheckValue(id, v) {
			t.Fatalf("get %d: %q %v", id, v, err)
		}
	}
	if _, err := cli.Get(workload.KeyName(999)); err != client.ErrNotFound {
		t.Fatalf("absent key: %v", err)
	}
	if err := cli.Delete(workload.KeyName(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get(workload.KeyName(5)); err != client.ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
}

func TestTorCachesRackLocalHotKey(t *testing.T) {
	f := newFabric(t, 2, 4)
	f.LoadDataset(100, 32)
	cli := f.Client(0)
	hot := workload.KeyName(7)
	r := f.RackOf(hot)
	_, torCtl := f.Tor(r)

	for i := 0; i < 20; i++ {
		if _, err := cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	// ToR controllers run before the spine's, so the rack-local cache
	// wins the first cycle.
	f.Tick()
	if !torCtl.Cached(hot) {
		t.Fatal("ToR should cache its rack's hot key")
	}
	srv := f.ServerOf(hot)
	gets := srv.Metrics.Gets.Value()
	for i := 0; i < 10; i++ {
		v, err := cli.Get(hot)
		if err != nil || !workload.CheckValue(7, v) {
			t.Fatalf("cached get: %q %v", v, err)
		}
	}
	if srv.Metrics.Gets.Value() != gets {
		t.Error("server saw reads of a ToR-cached key")
	}
}

func TestSpineAbsorbsGlobalHead(t *testing.T) {
	f := newFabric(t, 2, 4)
	f.LoadDataset(100, 32)
	cli := f.Client(0)
	hot := workload.KeyName(3)
	r := f.RackOf(hot)

	// First cycle: the ToR caches it. Keep reading: the spine keeps
	// missing (ToR serves), but its own detector already saw the reads.
	for i := 0; i < 20; i++ {
		cli.Get(hot)
	}
	f.Tick()
	for i := 0; i < 20; i++ {
		cli.Get(hot)
	}
	f.Tick()
	_, spineCtl := f.Spine()
	if !spineCtl.Cached(hot) {
		t.Fatal("spine should cache the globally hot key")
	}

	// Served at the spine now: the ToR's pipeline stops seeing it.
	tor, _ := f.Tor(r)
	before := tor.Pipeline().Stats().RxPackets
	for i := 0; i < 10; i++ {
		v, err := cli.Get(hot)
		if err != nil || !workload.CheckValue(3, v) {
			t.Fatalf("spine-cached get: %q %v", v, err)
		}
	}
	if after := tor.Pipeline().Stats().RxPackets; after != before {
		t.Errorf("ToR saw %d frames for a spine-cached key", after-before)
	}
}

func TestWriteCoherenceAcrossBothLayers(t *testing.T) {
	f := newFabric(t, 2, 4)
	f.LoadDataset(50, 32)
	cli := f.Client(0)
	key := workload.KeyName(9)
	r := f.RackOf(key)
	_, torCtl := f.Tor(r)
	_, spineCtl := f.Spine()

	// Force the adversarial state: cached at BOTH layers.
	if err := torCtl.InsertKey(key); err != nil {
		t.Fatal(err)
	}
	if err := spineCtl.InsertKey(key); err != nil {
		t.Fatal(err)
	}

	// A write must invalidate every copy on the route and stay coherent.
	if err := cli.Put(key, []byte("updated-value")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := cli.Get(key)
		if err != nil || string(v) != "updated-value" {
			t.Fatalf("read %d after write: %q %v (stale cache copy served)", i, v, err)
		}
	}

	// The server refreshed its ToR (data-plane update); the spine copy
	// stays invalid until its controller re-installs — reads above fell
	// through correctly either way.
	srv := f.ServerOf(key)
	if srv.Metrics.CacheUpdatesSent.Value() == 0 {
		t.Error("server never refreshed the ToR")
	}

	// Delete: both copies invalid, spine and ToR miss to the server.
	if err := cli.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
}

func TestSpineReinstallsAfterWrite(t *testing.T) {
	f := newFabric(t, 2, 4)
	f.LoadDataset(50, 32)
	cli := f.Client(0)
	key := workload.KeyName(2)
	_, spineCtl := f.Spine()
	if err := spineCtl.InsertKey(key); err != nil {
		t.Fatal(err)
	}

	// Write: the spine copy goes invalid (no data-plane update reaches
	// the spine).
	if err := cli.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Reads now miss at the spine, feeding its heavy-hitter detector;
	// within a cycle the controller re-installs the fresh value.
	for i := 0; i < 20; i++ {
		v, err := cli.Get(key)
		if err != nil || string(v) != "v2" {
			t.Fatalf("interim read: %q %v", v, err)
		}
	}
	f.Tick()
	// Evict+reinsert shows up as spine controller activity; reads keep
	// returning the new value, now spine-served again.
	srv := f.ServerOf(key)
	gets := srv.Metrics.Gets.Value()
	for i := 0; i < 5; i++ {
		v, err := cli.Get(key)
		if err != nil || string(v) != "v2" {
			t.Fatalf("post-cycle read: %q %v", v, err)
		}
	}
	if srv.Metrics.Gets.Value() != gets {
		t.Error("reads should be switch-served again after the controller cycle")
	}
}

func TestZipfTrafficBalancesFabric(t *testing.T) {
	f := newFabric(t, 2, 4)
	const keys = 2000
	f.LoadDataset(keys, 32)
	cli := f.Client(0)
	zipf, err := workload.NewZipf(keys, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewGenerator(workload.GeneratorConfig{
		Reads: workload.ZipfDist{Z: zipf, Pop: workload.NewPopularity(keys)}, Seed: 1,
	})
	for tick := 0; tick < 4; tick++ {
		for q := 0; q < 3000; q++ {
			id := gen.Next().Key
			v, err := cli.Get(workload.KeyName(id))
			if err != nil || !workload.CheckValue(id, v) {
				t.Fatalf("tick %d query %d (key %d): %v", tick, q, id, err)
			}
		}
		f.Tick()
	}
	_, spineCtl := f.Spine()
	if spineCtl.Len() == 0 {
		t.Error("spine cached nothing under Zipf traffic")
	}
	total := 0
	for r := 0; r < 2; r++ {
		_, ctl := f.Tor(r)
		total += ctl.Len()
	}
	if total == 0 {
		t.Error("no ToR cached anything under Zipf traffic")
	}
}

// --- simnet-backed fabric: uplink faults, lifecycle, batched clients ---

// faultFabric builds a fabric with chaos-friendly client settings: short
// timeouts so fault-induced losses cost milliseconds, seeded jitter so the
// run replays.
func faultFabric(t *testing.T, racks, servers int) *Fabric {
	t.Helper()
	f, err := New(Config{
		Racks: racks, ServersPerRack: servers, Clients: 1,
		SpineCache: 16, TorCache: 16,
		Client: client.Config{
			Timeout: 2 * time.Millisecond, Retries: 2,
			Policy: client.Policy{Seed: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// keyInRack returns a dataset key owned by rack r.
func keyInRack(t *testing.T, f *Fabric, r, nKeys int) netproto.Key {
	t.Helper()
	for id := 0; id < nKeys; id++ {
		if key := workload.KeyName(id); f.RackOf(key) == r {
			return key
		}
	}
	t.Fatalf("no key of %d owned by rack %d", nKeys, r)
	return netproto.Key{}
}

// Uplinks are real simnet links now: a loss rule on the spine's downlink
// trunk kills traffic into that rack, counts LossDropped on the spine net,
// and clearing it restores service — none of which the old hand-wired
// delivery closures could express.
func TestUplinkLossAppliesToTrunk(t *testing.T) {
	f := faultFabric(t, 2, 2)
	const nKeys = 40
	f.LoadDataset(nKeys, 24)
	cli := f.Client(0)
	key := keyInRack(t, f, 1, nKeys)

	f.SpineNode().Net.SetFault(f.SpineDownlinkPort(1), simnet.FromSwitch, simnet.FaultRule{Loss: 1})
	if _, err := cli.Get(key); err != client.ErrTimeout {
		t.Fatalf("get across a fully lossy uplink: %v", err)
	}
	if f.SpineNode().Net.LossDropped.Value() == 0 {
		t.Error("trunk loss not accounted on the spine net")
	}
	f.SpineNode().Net.ClearFaults()
	if v, err := cli.Get(key); err != nil || len(v) == 0 {
		t.Fatalf("get after healing the uplink: %q %v", v, err)
	}
}

// SetUplinkDown cuts one rack off. Keys cached at the spine keep being
// served without touching the rack; everything else toward the rack times
// out; the other rack is untouched; the link coming back restores service.
func TestUplinkPartitionServesSpineCachedKeys(t *testing.T) {
	f := faultFabric(t, 2, 2)
	const nKeys = 40
	f.LoadDataset(nKeys, 24)
	cli := f.Client(0)
	cached := keyInRack(t, f, 1, nKeys)
	_, spineCtl := f.Spine()
	if err := spineCtl.InsertKey(cached); err != nil {
		t.Fatal(err)
	}

	f.SetUplinkDown(1, true)
	srv := f.ServerOf(cached)
	gets := srv.Metrics.Gets.Value()
	for i := 0; i < 5; i++ {
		if _, err := cli.Get(cached); err != nil {
			t.Fatalf("spine-cached key unavailable during uplink cut: %v", err)
		}
	}
	if srv.Metrics.Gets.Value() != gets {
		t.Error("spine-cached reads crossed a downed uplink")
	}
	// An uncached key of the cut rack times out; the other rack serves.
	var uncached netproto.Key
	for id := 0; id < nKeys; id++ {
		k := workload.KeyName(id)
		if f.RackOf(k) == 1 && !spineCtl.Cached(k) {
			uncached = k
			break
		}
	}
	if _, err := cli.Get(uncached); err != client.ErrTimeout {
		t.Fatalf("uncached key of the cut rack: %v", err)
	}
	if err := cli.Put(uncached, []byte("doomed")); err != client.ErrTimeout {
		t.Fatalf("write into the cut rack: %v", err)
	}
	other := keyInRack(t, f, 0, nKeys)
	if _, err := cli.Get(other); err != nil {
		t.Fatalf("healthy rack suffered from the cut: %v", err)
	}
	if f.SpineNode().Net.DownDropped.Value() == 0 {
		t.Error("downed uplink not accounted on the spine net")
	}

	f.SetUplinkDown(1, false)
	if _, err := cli.Get(uncached); err != nil {
		t.Fatalf("get after uplink restore: %v", err)
	}
}

// §4.3 coherence under uplink faults: with a key cached at BOTH layers and
// the trunk losing, duplicating and reordering frames, an acknowledged
// write is never shadowed by a stale cached copy — the single-writer
// freshness invariant of the chaos oracle, cross-rack.
func TestWriteCoherenceUnderUplinkFaults(t *testing.T) {
	f := faultFabric(t, 2, 2)
	const nKeys = 40
	f.LoadDataset(nKeys, 24)
	cli := f.Client(0)
	key := keyInRack(t, f, 1, nKeys)
	_, spineCtl := f.Spine()
	_, torCtl := f.Tor(1)
	if err := torCtl.InsertKey(key); err != nil {
		t.Fatal(err)
	}
	if err := spineCtl.InsertKey(key); err != nil {
		t.Fatal(err)
	}

	rule := simnet.FaultRule{Loss: 0.15, Dup: 0.3, Reorder: 0.3, ReorderDepth: 3}
	f.SpineNode().Net.Reseed(7)
	f.SpineNode().Net.SetFault(f.SpineDownlinkPort(1), simnet.FromSwitch, rule)
	f.SpineNode().Net.SetFault(f.SpineDownlinkPort(1), simnet.ToSwitch, rule)

	version := func(v []byte) int {
		var n int
		fmt.Sscanf(string(v), "v%d", &n)
		return n
	}
	floor := 0 // highest acked write version
	for round := 1; round <= 25; round++ {
		val := []byte(fmt.Sprintf("v%d", round))
		if err := cli.Put(key, val); err == nil {
			floor = round
		}
		v, err := cli.Get(key)
		if err != nil {
			continue // timeout: no observation to judge
		}
		got := version(v)
		if got < floor || got > round {
			t.Fatalf("round %d: read %q violates freshness (acked floor v%d)", round, v, floor)
		}
	}
	spineNet := f.SpineNode().Net
	if spineNet.Duplicated.Value() == 0 || spineNet.Reordered.Value() == 0 || spineNet.LossDropped.Value() == 0 {
		t.Errorf("trunk fault coverage: dup=%d reorder=%d loss=%d",
			spineNet.Duplicated.Value(), spineNet.Reordered.Value(), spineNet.LossDropped.Value())
	}

	// Heal, flush stranded holdbacks, converge: an acked write reads back
	// exactly, and the client view matches the owning server's store.
	spineNet.ClearFaults()
	if err := spineNet.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Tick()
	want := []byte("final")
	for {
		if err := cli.Put(key, want); err == nil {
			break
		}
	}
	v, err := cli.Get(key)
	if err != nil || string(v) != string(want) {
		t.Fatalf("post-heal read: %q %v", v, err)
	}
	stored, _, ok := f.ServerOf(key).Store().Get(key)
	if !ok || string(stored) != string(want) {
		t.Fatalf("store diverged: %q %v", stored, ok)
	}
}

// A spine reboot mid-traffic loses the spine cache but not availability:
// reads fall through to the ToR tier (which keeps its own cached heads),
// and the spine controller repopulates on its next cycle.
func TestSpineRebootFallsThroughToTors(t *testing.T) {
	f := faultFabric(t, 2, 2)
	const nKeys = 60
	f.LoadDataset(nKeys, 24)
	cli := f.Client(0)
	hot := keyInRack(t, f, 0, nKeys)
	for i := 0; i < 25; i++ {
		if _, err := cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	f.Tick() // ToR caches it
	f.Tick() // spine caches it
	_, spineCtl := f.Spine()
	if !spineCtl.Cached(hot) {
		t.Skip("hot key did not reach the spine cache in two cycles")
	}

	if err := f.RebootSpine(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v, err := cli.Get(hot); err != nil || len(v) == 0 {
			t.Fatalf("read %d after spine reboot: %q %v", i, v, err)
		}
	}
	f.Tick()
	if _, err := cli.Get(hot); err != nil {
		t.Fatal(err)
	}
}

// Leaf-spine clients ride the batched path now: GetBatch issues windowed
// bursts through simnet.InjectBatch even when the keys fan out across
// racks, with no retransmissions on a clean fabric.
func TestBatchedGetAcrossRacks(t *testing.T) {
	f, err := New(Config{
		Racks: 3, ServersPerRack: 2, Clients: 1,
		SpineCache: 16, TorCache: 16, Client: client.Config{Window: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 48
	f.LoadDataset(nKeys, 32)
	cli := f.Client(0)
	keys := make([]netproto.Key, nKeys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	results, errs := cli.GetBatch(keys)
	for i := range keys {
		if errs[i] != nil || !workload.CheckValue(i, results[i]) {
			t.Fatalf("batched get %d: %q %v", i, results[i], errs[i])
		}
	}
	if got := cli.Metrics.Sent.Value(); got != nKeys {
		t.Errorf("clean-fabric batch sent %d frames for %d keys", got, nKeys)
	}
	if cli.Metrics.Retransmit.Value() != 0 {
		t.Errorf("clean-fabric batch retransmitted %d", cli.Metrics.Retransmit.Value())
	}
}

// An asymmetric trunk failure downs ONE direction of a rack's uplink. With
// the forward (spine->ToR) direction dark, requests die before the rack and
// the server never sees them. With only the reverse (ToR->spine) direction
// dark, requests still reach the server — the server does the work, its
// replies die on the trunk, and the client times out all the same. Held-back
// replies that finally drain after the op gave up are absorbed as Unmatched,
// one per request the server answered: every frame is accounted for.
func TestAsymmetricTrunkDirectionDown(t *testing.T) {
	f := faultFabric(t, 2, 2)
	const nKeys = 40
	f.LoadDataset(nKeys, 24)
	cli := f.Client(0)
	key := keyInRack(t, f, 1, nKeys)
	srv := f.ServerOf(key)

	// Forward direction down: the request never reaches the rack.
	f.SetUplinkTxDown(1, true)
	gets := srv.Metrics.Gets.Value()
	if _, err := cli.Get(key); err != client.ErrTimeout {
		t.Fatalf("get with spine->rack direction down: %v", err)
	}
	if d := srv.Metrics.Gets.Value() - gets; d != 0 {
		t.Errorf("server saw %d gets through a dark forward direction", d)
	}
	f.SetUplinkTxDown(1, false)
	if _, err := cli.Get(key); err != nil {
		t.Fatalf("get after restoring forward direction: %v", err)
	}

	// Reverse direction down: requests arrive and are served, replies die.
	f.SetUplinkRxDown(1, true)
	gets = srv.Metrics.Gets.Value()
	if _, err := cli.Get(key); err != client.ErrTimeout {
		t.Fatalf("get with rack->spine direction down: %v", err)
	}
	if srv.Metrics.Gets.Value() == gets {
		t.Error("server saw no gets: reverse-direction cut also blocked requests")
	}
	f.SetUplinkRxDown(1, false)
	if _, err := cli.Get(key); err != nil {
		t.Fatalf("get after restoring reverse direction: %v", err)
	}

	// Asymmetric delay: replies are held on the trunk instead of dropped.
	// The client gives up, then the late replies drain — each one lands as
	// Unmatched, matching the number of requests the server answered.
	f.SpineNode().Net.SetFault(f.SpineDownlinkPort(1), simnet.ToSwitch,
		simnet.FaultRule{Reorder: 1, ReorderDepth: 64})
	gets = srv.Metrics.Gets.Value()
	unmatched := cli.Metrics.Unmatched.Value()
	if _, err := cli.Get(key); err != client.ErrTimeout {
		t.Fatalf("get with replies held on the trunk: %v", err)
	}
	answered := srv.Metrics.Gets.Value() - gets
	if answered == 0 {
		t.Fatal("held-reply phase: server answered nothing")
	}
	if d := cli.Metrics.Unmatched.Value() - unmatched; d != 0 {
		t.Fatalf("%d replies leaked through a fully-held trunk", d)
	}
	f.SpineNode().Net.ClearFaults()
	if err := f.SpineNode().Net.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if d := cli.Metrics.Unmatched.Value() - unmatched; d != answered {
		t.Errorf("late replies drained = %d Unmatched, want %d (one per answered request)", d, answered)
	}
	if _, err := cli.Get(key); err != nil {
		t.Fatalf("get after draining the trunk: %v", err)
	}
}
