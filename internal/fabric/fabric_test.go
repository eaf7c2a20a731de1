package fabric

import (
	"runtime"
	"testing"
	"time"

	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/netproto"
	"netcache/internal/server"
	"netcache/internal/switchcore"
)

// twoTier wires the smallest multi-switch fabric: one server behind node B,
// one client on node A, a trunk between them — the leaf-spine topology at
// its minimum size, assembled only from the fabric layer.
//
// Node A (port 0 = trunk, port 1 = client)
// Node B (port 0 = server, port 1 = trunk)
func twoTier(t *testing.T) (a, b *Node, cl *client.Client, srv *server.Server) {
	t.Helper()
	var err error
	if a, err = NewNode("a", switchcore.Config{}); err != nil {
		t.Fatal(err)
	}
	if b, err = NewNode("b", switchcore.Config{}); err != nil {
		t.Fatal(err)
	}
	srv = server.New(server.Config{Addr: 1, Shards: 1})
	if err := b.AttachServer(0, srv); err != nil {
		t.Fatal(err)
	}
	Link(a, 0, b, 1)
	part := client.HashPartitioner([]netproto.Addr{1})
	cl, err = client.New(client.Config{Addr: 0x8000, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachClient(1, cl); err != nil {
		t.Fatal(err)
	}
	// A reaches the server via the trunk; B reaches the client back the
	// same way.
	if err := a.InstallRoute(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallRoute(0x8000, 1); err != nil {
		t.Fatal(err)
	}
	return a, b, cl, srv
}

func TestTrunkCarriesQueries(t *testing.T) {
	a, b, cl, _ := twoTier(t)
	if err := cl.Put(netproto.Key{'k'}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(netproto.Key{'k'})
	if err != nil || string(v) != "v1" {
		t.Fatalf("get through trunk: %q %v", v, err)
	}
	if a.Net.Delivered.Value() == 0 || b.Net.Delivered.Value() == 0 {
		t.Errorf("both nets should have delivered frames: a=%d b=%d",
			a.Net.Delivered.Value(), b.Net.Delivered.Value())
	}
}

// A trunk peer injecting at an out-of-range port cannot return the switch
// error to anyone; it must surface as the receiving net's ProcessErrors
// counter — the fix for the silent drops of the old hand-wired delivery.
func TestTrunkSurfacesProcessErrors(t *testing.T) {
	a, err := NewNode("a", switchcore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("b", switchcore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Mis-cabled trunk: B's side of the cable plugs into a port its chip
	// does not have. A routes the server's address across it.
	Link(a, 1, b, b.NumPorts()+7)
	if err := a.InstallRoute(1, 1); err != nil {
		t.Fatal(err)
	}

	part := client.HashPartitioner([]netproto.Addr{1})
	cl, err := client.New(client.Config{
		Addr: 0x8000, Partition: part,
		Retries: client.NoRetries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachClient(2, cl); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(netproto.Key{'x'}); err == nil {
		t.Fatal("query crossed a mis-cabled trunk and was answered")
	}
	if b.Net.ProcessErrors.Value() == 0 {
		t.Error("mis-cabled trunk injection should count as ProcessErrors on the receiving net")
	}
}

func TestNodeRebootReprovisionsRoutes(t *testing.T) {
	_, b, cl, _ := twoTier(t)
	if err := cl.Put(netproto.Key{'k'}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Reboot(); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(netproto.Key{'k'})
	if err != nil || string(v) != "v1" {
		t.Fatalf("get after reboot: %q %v", v, err)
	}
}

func TestNodeControllerLifecycle(t *testing.T) {
	_, b, cl, srv := twoTier(t)
	if err := b.SetController(controller.Config{
		Nodes:     map[netproto.Addr]controller.StorageNode{1: srv},
		Partition: func(netproto.Key) netproto.Addr { return 1 },
		PortOf:    func(netproto.Addr) (int, bool) { return 0, true },
	}); err != nil {
		t.Fatal(err)
	}
	key := netproto.Key{'h'}
	if err := cl.Put(key, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	if err := b.Controller.InsertKey(key); err != nil {
		t.Fatal(err)
	}
	// Warm restart adopts the installed entry.
	old := b.Controller
	if err := b.RestartController(true); err != nil {
		t.Fatal(err)
	}
	if b.Controller == old {
		t.Fatal("controller not replaced")
	}
	if !b.Controller.Cached(key) {
		t.Error("warm restart should adopt the switch's entries")
	}
	// Cold restart wipes the cache; reads still work (fall through).
	if err := b.RestartController(false); err != nil {
		t.Fatal(err)
	}
	if b.Controller.Len() != 0 {
		t.Error("cold restart should start empty")
	}
	if v, err := cl.Get(key); err != nil || string(v) != "hot" {
		t.Fatalf("get after cold controller restart: %q %v", v, err)
	}
}

func TestCrashServerAtNode(t *testing.T) {
	_, b, cl, _ := twoTier(t)
	if err := cl.Put(netproto.Key{'k'}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	b.CrashServer(0)
	fast, err := client.New(client.Config{
		Addr: 0x8001, Partition: client.HashPartitioner([]netproto.Addr{1}),
		Retries: client.NoRetries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachClient(2, fast); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.Get(netproto.Key{'k'}); err == nil {
		t.Fatal("crashed server answered")
	}
	b.RestartServer(0, false)
	if v, err := cl.Get(netproto.Key{'k'}); err != nil || string(v) != "v1" {
		t.Fatalf("get after restart: %q %v", v, err)
	}
}

// Racks built by AddRack continue one dense address range, every rack's
// replica ring stays inside the rack, each ToR controller maps only its own
// servers to ports, and a rack of another width is refused.
func TestDeploymentRacksAreDense(t *testing.T) {
	d := NewDeployment(true)
	for r := 0; r < 2; r++ {
		if _, err := d.AddRack("tor", switchcore.Config{}, 3, server.Config{Shards: 1},
			controller.Config{Seed: int64(r + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, srv := range d.Servers {
		if srv.Addr() != netproto.Addr(i+1) {
			t.Fatalf("Servers[%d] has address %d, want %d", i, srv.Addr(), i+1)
		}
	}
	for id := 0; id < 64; id++ {
		key := netproto.Key{byte(id), 'k'}
		home := d.Partition(key)
		backup := d.Servers[d.backupIndex(int(home-1))].Addr()
		if d.Servers[home-1].Addr() != home || (home-1)/3 != (backup-1)/3 || backup == home {
			t.Fatalf("key %d: home %d, backup %d: want a distinct backup in the same rack", id, home, backup)
		}
	}
	portOf := d.TorNode(1).ctlCfg.PortOf
	if p, ok := portOf(5); !ok || p != 1 {
		t.Errorf("tor1 PortOf(5) = %d, %v; want port 1", p, ok)
	}
	if _, ok := portOf(2); ok {
		t.Error("tor1 maps a server of rack 0 to a port")
	}
	if _, err := d.AddRack("narrow", switchcore.Config{}, 2, server.Config{Shards: 1},
		controller.Config{Seed: 3}); err == nil {
		t.Error("a rack of another width should be refused")
	}
}

// parkingNode runs park once, inside the first insertion window, before
// the controller fetches the value to install.
type parkingNode struct {
	*server.Server
	park func()
}

func (n *parkingNode) FetchValue(key netproto.Key) ([]byte, uint64, bool) {
	if park := n.park; park != nil {
		n.park = nil
		park()
	}
	return n.Server.FetchValue(key)
}

// A Put that reaches the switch before a cache insertion and the server
// inside the insertion's write-block window is applied after the fetch, so
// the insertion installs the older value. The Put must not be acked while
// the switch still serves that value.
func TestWriteParkedInInsertionWindow(t *testing.T) {
	_, b, cl, srv := twoTier(t)
	key := netproto.Key{'h'}
	if err := cl.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	put := make(chan error, 1)
	node := &parkingNode{Server: srv, park: func() {
		go func() { put <- cl.Put(key, []byte("new")) }()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Metrics.WritesQueued.Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the Put never queued behind the window")
			}
			runtime.Gosched()
		}
	}}
	if err := b.SetController(controller.Config{
		Nodes:     map[netproto.Addr]controller.StorageNode{1: node},
		Partition: func(netproto.Key) netproto.Addr { return 1 },
		PortOf:    func(netproto.Addr) (int, bool) { return 0, true },
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Controller.InsertKey(key); err != nil {
		t.Fatal(err)
	}
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	hits := b.Switch.Pipeline().Stats().Mirrored
	if v, err := cl.Get(key); err != nil || string(v) != "new" {
		t.Fatalf("get after the acked Put = %q, %v; want %q", v, err, "new")
	}
	if b.Switch.Pipeline().Stats().Mirrored == hits {
		t.Error("the read did not hit the cache")
	}
}
