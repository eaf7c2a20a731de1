package rack

import (
	"fmt"
	"testing"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
)

func newReplicatedRack(t *testing.T, servers int) *Rack {
	t.Helper()
	r, err := New(Config{
		Servers: servers, Clients: 2, CacheCapacity: 8,
		Replicate: true,
		Client:    client.Config{Timeout: 2 * time.Millisecond, Retries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keyHomedAt finds a key whose home partition is server idx.
func keyHomedAt(t *testing.T, r *Rack, idx int) netproto.Key {
	t.Helper()
	for i := 0; i < 4096; i++ {
		k := netproto.KeyFromString(fmt.Sprintf("repl-key-%d", i))
		if r.Partition(k) == ServerAddr(idx) {
			return k
		}
	}
	t.Fatal("no key found for partition")
	return netproto.Key{}
}

// serverIndex returns the slice index of the server owning key's home.
func serverIndex(r *Rack, key netproto.Key) int { return int(r.Partition(key)) - 1 }

func TestReplicationNeedsTwoServers(t *testing.T) {
	if _, err := New(Config{Servers: 1, Clients: 1, Replicate: true}); err == nil {
		t.Fatal("single-server replicated rack should be rejected")
	}
}

// Every acked write is on the backup, at the primary's version, before the
// client sees the ack (replicate-before-ack).
func TestWriteReplicatesBeforeAck(t *testing.T) {
	r := newReplicatedRack(t, 3)
	cli := r.Client(0)
	key := keyHomedAt(t, r, 0)

	if err := cli.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	pv, pver, ok := r.ServerOf(key).Store().Get(key)
	if !ok || string(pv) != "v1" {
		t.Fatalf("primary store: %q, %v", pv, ok)
	}
	bv, bver, ok := r.BackupOf(key).Store().Get(key)
	if !ok || string(bv) != "v1" {
		t.Fatalf("backup store after acked Put: %q, %v", bv, ok)
	}
	if bver != pver {
		t.Fatalf("backup version %d != primary version %d", bver, pver)
	}

	if err := cli.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.BackupOf(key).Store().Get(key); ok {
		t.Fatal("backup still holds key after acked Delete")
	}
	if got := r.ServerOf(key).Metrics.ReplicatesSent.Value(); got < 2 {
		t.Fatalf("ReplicatesSent = %d, want >= 2", got)
	}
	if got := r.BackupOf(key).Metrics.ReplicatesApplied.Value(); got < 2 {
		t.Fatalf("ReplicatesApplied = %d, want >= 2", got)
	}
}

// Crashing a primary fails its partition over to the backup within the
// detection window: cold keys become readable and writable again without a
// restart, and the acked writes survive the permanent failure.
func TestFailoverServesColdKeysFromBackup(t *testing.T) {
	r := newReplicatedRack(t, 3)
	cli := r.Client(0)
	key := keyHomedAt(t, r, 1)

	if err := cli.Put(key, []byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	r.CrashServer(1)
	if _, err := cli.Get(key); err != client.ErrTimeout {
		t.Fatalf("Get against dead primary pre-detection: %v, want timeout", err)
	}
	for i := 0; i < 3; i++ {
		r.Tick()
	}
	if !r.Controller.NodeDead(ServerAddr(1)) {
		t.Fatal("detector did not declare the crashed server dead")
	}
	primary, _, _, ok := r.Controller.ReplicaState(ServerAddr(1))
	if !ok || primary != ServerAddr(2) {
		t.Fatalf("partition not failed over: primary=%v ok=%v", primary, ok)
	}
	v, err := cli.Get(key)
	if err != nil || string(v) != "before-crash" {
		t.Fatalf("post-failover Get = %q, %v", v, err)
	}
	if err := cli.Put(key, []byte("after-failover")); err != nil {
		t.Fatalf("post-failover Put: %v", err)
	}
	v, err = cli.Get(key)
	if err != nil || string(v) != "after-failover" {
		t.Fatalf("post-failover read-back = %q, %v", v, err)
	}
	if got := r.PrimaryOf(key); got != r.Servers[2] {
		t.Fatal("PrimaryOf does not point at the promoted backup")
	}
	if r.Controller.Metrics.Failovers.Value() == 0 {
		t.Fatal("Failovers counter did not move")
	}
}

// A cached hot key keeps serving from the switch through the entire
// switchover — before detection, during, and after — and stays coherent for
// writes once the rebind has re-pointed its ownership at the promoted node.
func TestFailoverHotKeyServedThroughout(t *testing.T) {
	r := newReplicatedRack(t, 3)
	cli := r.Client(0)
	key := keyHomedAt(t, r, 0)

	if err := cli.Put(key, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	if err := r.Controller.InsertKey(key); err != nil {
		t.Fatal(err)
	}
	r.CrashServer(0)
	// Dead primary, no detection yet: the switch cache still answers.
	for i := 0; i < 3; i++ {
		if v, err := cli.Get(key); err != nil || string(v) != "hot" {
			t.Fatalf("hot read %d during detection window = %q, %v", i, v, err)
		}
		r.Tick()
	}
	if v, err := cli.Get(key); err != nil || string(v) != "hot" {
		t.Fatalf("hot read post-failover = %q, %v", v, err)
	}
	// Writing through the cache invalidates, lands on the promoted node
	// (the rebind re-pointed PutCached forwarding and the CacheUpdate
	// ownership check), and revalidates the entry.
	if err := cli.Put(key, []byte("hot2")); err != nil {
		t.Fatalf("post-failover write to cached key: %v", err)
	}
	if v, err := cli.Get(key); err != nil || string(v) != "hot2" {
		t.Fatalf("post-failover cached read-back = %q, %v", v, err)
	}
	if v, _, ok := r.PrimaryOf(key).Store().Get(key); !ok || string(v) != "hot2" {
		t.Fatalf("promoted store = %q, %v", v, ok)
	}
}

// A restarted node rejoins as the backup of its old partition, catches up
// through the versioned resync, and is promotable again: crashing the
// promoted node hands the partition back with every acked write intact.
func TestRejoinResyncAndFailBack(t *testing.T) {
	for _, wipe := range []bool{false, true} {
		t.Run(fmt.Sprintf("wipe=%v", wipe), func(t *testing.T) {
			r := newReplicatedRack(t, 3)
			cli := r.Client(0)
			key := keyHomedAt(t, r, 0)

			if err := cli.Put(key, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			r.CrashServer(0)
			for i := 0; i < 3; i++ {
				r.Tick()
			}
			// Writes land on the promoted backup while the old primary is away.
			if err := cli.Put(key, []byte("v2")); err != nil {
				t.Fatalf("write during outage: %v", err)
			}

			r.RestartServer(0, wipe)
			deadline := time.Now().Add(time.Second)
			for {
				_, backup, ready, ok := r.Controller.ReplicaState(ServerAddr(0))
				if ok && ready && backup == ServerAddr(0) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("rejoined node never became a ready backup (backup=%v ready=%v)", backup, ready)
				}
				r.Tick()
			}
			if r.Controller.Metrics.Rejoins.Value() == 0 {
				t.Fatal("Rejoins counter did not move")
			}

			// Fail the promoted node: the partition must come back to the
			// caught-up original with the outage-era write intact.
			r.CrashServer(1)
			for i := 0; i < 3; i++ {
				r.Tick()
			}
			primary, _, _, _ := r.Controller.ReplicaState(ServerAddr(0))
			if primary != ServerAddr(0) {
				t.Fatalf("partition did not fail back to the rejoined node, primary=%v", primary)
			}
			v, err := cli.Get(key)
			if err != nil || string(v) != "v2" {
				t.Fatalf("post-fail-back Get = %q, %v (acked write lost in catch-up)", v, err)
			}
		})
	}
}

// A primary that crashes and restarts between two heartbeats never misses
// enough probes to be declared dead, yet its replica registrations died with
// the process. The detector must catch the restart through the node's
// incarnation and re-establish the pair — otherwise every write acked after
// the restart exists only on one node and a later real failure loses it.
func TestQuickRestartKeepsWritesDurable(t *testing.T) {
	r := newReplicatedRack(t, 3)
	cli := r.Client(0)
	key := keyHomedAt(t, r, 0)

	if err := cli.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Crash and restart with no heartbeat in between: every probe the
	// detector ever runs succeeds.
	r.CrashServer(0)
	r.RestartServer(0, false)
	r.Tick()
	if got := r.Controller.Metrics.Deaths.Value(); got != 0 {
		t.Fatalf("Deaths = %d, the restart was meant to stay inside the detection window", got)
	}
	if r.Controller.Metrics.Restarts.Value() == 0 {
		t.Fatal("fast restart went undetected: replication is silently off")
	}
	deadline := time.Now().Add(time.Second)
	for {
		if _, _, ready, ok := r.Controller.ReplicaState(ServerAddr(0)); ok && ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partition never re-certified after the fast restart")
		}
		r.Tick()
	}
	// A write acked now must be replicated again: kill the serving node for
	// good and the value has to come back from the promoted backup.
	if err := cli.Put(key, []byte("v2")); err != nil {
		t.Fatalf("post-restart Put: %v", err)
	}
	serving, _, _, _ := r.Controller.ReplicaState(ServerAddr(0))
	r.CrashServer(int(serving) - 1)
	for i := 0; i < 3; i++ {
		r.Tick()
	}
	v, err := cli.Get(key)
	if err != nil || string(v) != "v2" {
		t.Fatalf("post-failover Get = %q, %v (write acked after the quick restart was lost)", v, err)
	}
}

// Keys deleted at the primary while the backup was away are pruned by the
// resync instead of resurrecting on promotion.
func TestResyncPrunesDeletedKeys(t *testing.T) {
	r := newReplicatedRack(t, 3)
	cli := r.Client(0)
	key := keyHomedAt(t, r, 2)

	if err := cli.Put(key, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	r.CrashServer(2)
	for i := 0; i < 3; i++ {
		r.Tick()
	}
	if err := cli.Delete(key); err != nil {
		t.Fatalf("delete during outage: %v", err)
	}
	r.RestartServer(2, false)
	deadline := time.Now().Add(time.Second)
	for {
		_, backup, ready, ok := r.Controller.ReplicaState(ServerAddr(2))
		if ok && ready && backup == ServerAddr(2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rejoined node never became a ready backup")
		}
		r.Tick()
	}
	if _, _, ok := r.Servers[2].Store().Get(key); ok {
		t.Fatal("deleted key survived resync on the rejoined backup")
	}
	// And after failing back, the deletion holds end to end.
	r.CrashServer(0)
	for i := 0; i < 3; i++ {
		r.Tick()
	}
	if _, err := cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("deleted key visible after fail-back: %v", err)
	}
}
