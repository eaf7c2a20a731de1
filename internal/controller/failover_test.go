package controller_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache/internal/controller"
	"netcache/internal/kvstore"
	"netcache/internal/netproto"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// fakeNode is a minimal ReplicatedNode for exercising the failure detector
// and the anti-entropy resync without a fabric. All methods are safe for
// concurrent use; alive flips atomically from the test.
type fakeNode struct {
	addr  netproto.Addr
	alive atomic.Bool
	inc   atomic.Uint64
	store *gateEngine

	mu       sync.Mutex
	replicas map[netproto.Addr]netproto.Addr
	stamps   map[netproto.Key]uint64
}

func newFakeNode(addr netproto.Addr, gate *gateEngine) *fakeNode {
	n := &fakeNode{
		addr: addr, store: gate,
		replicas: make(map[netproto.Addr]netproto.Addr),
		stamps:   make(map[netproto.Key]uint64),
	}
	n.alive.Store(true)
	return n
}

func (n *fakeNode) Addr() netproto.Addr        { return n.addr }
func (n *fakeNode) BlockWrites(netproto.Key)   {}
func (n *fakeNode) UnblockWrites(netproto.Key) {}
func (n *fakeNode) Uncached(netproto.Key)      {}
func (n *fakeNode) Ping() bool                 { return n.alive.Load() }
func (n *fakeNode) Incarnation() uint64        { return n.inc.Load() }
func (n *fakeNode) Store() kvstore.Engine      { return n.store }

// crashRestart models a crash-restart cycle faster than a heartbeat: the
// node stays pingable throughout, but the new process has a fresh
// incarnation and empty replica registrations (as server.Crash leaves them).
func (n *fakeNode) crashRestart() {
	n.mu.Lock()
	n.replicas = make(map[netproto.Addr]netproto.Addr)
	n.mu.Unlock()
	n.inc.Add(1)
}

// replicaOf reports the node's registered backup for home (0 = none).
func (n *fakeNode) replicaOf(home netproto.Addr) netproto.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replicas[home]
}

func (n *fakeNode) FetchValue(key netproto.Key) ([]byte, uint64, bool) {
	if !n.alive.Load() {
		return nil, 0, false
	}
	return n.store.Get(key)
}

func (n *fakeNode) ProbeValue(key netproto.Key) (present, alive bool) {
	if !n.alive.Load() {
		return false, false
	}
	_, _, ok := n.store.Get(key)
	return ok, true
}

func (n *fakeNode) SetReplica(home, backup netproto.Addr) {
	n.mu.Lock()
	n.replicas[home] = backup
	n.mu.Unlock()
}

func (n *fakeNode) DropReplica(home netproto.Addr) {
	n.mu.Lock()
	delete(n.replicas, home)
	n.mu.Unlock()
}

func (n *fakeNode) ReplicaApply(key netproto.Key, value []byte, version uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if version <= n.stamps[key] {
		return false
	}
	n.stamps[key] = version
	n.store.PutAt(key, value, version)
	return true
}

func (n *fakeNode) ReplicaStamp(key netproto.Key) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stamps[key]
}

func (n *fakeNode) ReplicaDrop(key netproto.Key, stamp uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stamps[key] != stamp {
		return false
	}
	_, ok := n.store.Delete(key)
	return ok
}

// gateEngine wraps a store so a Range-based snapshot can be held mid-flight:
// when armed, Range announces itself on entered and parks until release is
// closed — the deterministic "resync in progress" window.
type gateEngine struct {
	kvstore.Engine
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateEngine) Range(fn func(netproto.Key, []byte, uint64) bool) {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	g.Engine.Range(fn)
}

// TestResyncRacingMembershipChange declares the primary dead while its
// partition's anti-entropy catch-up is mid-snapshot. The epoch guard must
// refuse to certify the backup (a copy of a corpse proves nothing), no
// promotion may happen off the stale copy, and once the primary rejoins the
// partition converges to a caught-up, promotable backup. Run under -race:
// the resync, the public Resync entry point and the detector ticks all
// touch the partition table concurrently.
func TestResyncRacingMembershipChange(t *testing.T) {
	sw, err := switchcore.New(switchcore.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		primAddr = netproto.Addr(1)
		backAddr = netproto.Addr(2)
	)
	gate := &gateEngine{
		Engine:  kvstore.New(1),
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	prim := newFakeNode(primAddr, gate)
	back := newFakeNode(backAddr, &gateEngine{Engine: kvstore.New(1)})
	c, err := controller.New(controller.Config{
		Switch:          sw,
		Nodes:           map[netproto.Addr]controller.StorageNode{primAddr: prim, backAddr: back},
		PortOf:          func(a netproto.Addr) (int, bool) { return int(a) - 1, true },
		Partition:       func(netproto.Key) netproto.Addr { return primAddr },
		Backups:         map[netproto.Addr]netproto.Addr{primAddr: backAddr},
		HeartbeatMisses: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := workload.KeyName(7)
	prim.store.Put(key, []byte("survives"))

	// Flap the backup so the partition needs a real catch-up: dead for one
	// tick (detached), then back.
	back.alive.Store(false)
	c.Tick()
	if _, _, _, ok := c.ReplicaState(primAddr); !ok {
		t.Fatal("partition disappeared")
	}
	back.alive.Store(true)

	// Arm the gate and start the rejoin tick: it reassigns the backup and
	// blocks mid-snapshot inside the resync. A concurrent public Resync
	// call dives into the same window.
	gate.armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.Tick() }()
	go func() { defer wg.Done(); c.Resync(backAddr) }()

	// Wait for at least one snapshot to be in flight, then kill the
	// primary: the detector declares it dead mid-resync and the partition's
	// epoch moves on.
	<-gate.entered
	prim.alive.Store(false)
	c.Tick()
	gate.armed.Store(false)
	close(gate.release)
	wg.Wait()

	if got := c.Metrics.ResyncAborts.Value(); got == 0 {
		t.Error("mid-resync membership change did not abort the catch-up")
	}
	if got := c.Metrics.Failovers.Value(); got != 0 {
		t.Errorf("%d failovers: promoted a backup that never finished catching up", got)
	}
	if got := c.Metrics.FailoverStalls.Value(); got == 0 {
		t.Error("primary death without a ready backup should stall, not pass silently")
	}
	if _, _, ready, ok := c.ReplicaState(primAddr); !ok || ready {
		t.Fatalf("partition certified ready off an aborted resync (ok=%v ready=%v)", ok, ready)
	}

	// The primary returns: rejoin, reassign, and this time the catch-up
	// runs gate-free to completion.
	prim.alive.Store(true)
	deadline := time.Now().Add(time.Second)
	for {
		c.Tick()
		if _, b, ready, ok := c.ReplicaState(primAddr); ok && ready && b == backAddr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partition never became promotable after the primary rejoined")
		}
	}
	if v, _, ok := back.store.Get(key); !ok || string(v) != "survives" {
		t.Fatalf("backup missing the primary's data after resync: %q %v", v, ok)
	}
}

// TestRestartWithinDetectionWindow crash-restarts the primary between two
// heartbeats: no probe run ever reaches the miss threshold, so a detector
// keyed on liveness alone would keep backupReady=true while the restarted
// process — its replica registrations gone — replicates nothing, and a
// later real failure would promote a stale backup. The incarnation check
// must surface the fast restart as a membership change: fail the partition
// over to its ready backup, re-register replication on the serving node,
// and re-certify the restarted one before it is promotable again.
func TestRestartWithinDetectionWindow(t *testing.T) {
	sw, err := switchcore.New(switchcore.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		primAddr = netproto.Addr(1)
		backAddr = netproto.Addr(2)
	)
	prim := newFakeNode(primAddr, &gateEngine{Engine: kvstore.New(1)})
	back := newFakeNode(backAddr, &gateEngine{Engine: kvstore.New(1)})
	c, err := controller.New(controller.Config{
		Switch:          sw,
		Nodes:           map[netproto.Addr]controller.StorageNode{primAddr: prim, backAddr: back},
		PortOf:          func(a netproto.Addr) (int, bool) { return int(a) - 1, true },
		Partition:       func(netproto.Key) netproto.Addr { return primAddr },
		Backups:         map[netproto.Addr]netproto.Addr{primAddr: backAddr},
		HeartbeatMisses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := prim.replicaOf(primAddr); got != backAddr {
		t.Fatalf("initial replica registration = %v, want %v", got, backAddr)
	}

	// One missed probe — far from the threshold — then the node is back
	// before the next, with its registrations wiped as a crash leaves them.
	prim.alive.Store(false)
	c.Tick()
	prim.alive.Store(true)
	prim.crashRestart()
	c.Tick()

	if got := c.Metrics.Deaths.Value(); got != 0 {
		t.Fatalf("Deaths = %d: the restart was meant to dodge the miss threshold", got)
	}
	if c.Metrics.Restarts.Value() == 0 {
		t.Fatal("incarnation change on a live node went undetected: replication is silently off")
	}
	if primary, _, _, ok := c.ReplicaState(primAddr); !ok || primary != backAddr {
		t.Fatalf("partition did not fail over to the ready backup: primary=%v ok=%v", primary, ok)
	}

	// Converge: the restarted node rejoins as backup of its old partition
	// and the serving node carries a live replica registration again.
	deadline := time.Now().Add(time.Second)
	for {
		primary, backup, ready, ok := c.ReplicaState(primAddr)
		if ok && ready && primary == backAddr && backup == primAddr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition never re-certified after the fast restart (primary=%v backup=%v ready=%v)",
				primary, backup, ready)
		}
		c.Tick()
	}
	if got := back.replicaOf(primAddr); got != primAddr {
		t.Fatalf("serving node's replica registration = %v, want %v (writes would not replicate)",
			got, primAddr)
	}
}
