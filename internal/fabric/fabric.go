// Package fabric is the assembly layer shared by every in-process NetCache
// topology. It holds the one rack recipe: internal/rack is one rack of it
// with the clients on its ToR, internal/leafspine is N racks of it under a
// spine with the clients on the spine.
//
// A Deployment is what both operate on: AddRack builds a ToR Node with its
// servers, replica ring and controller, AttachClients puts clients on a
// node. The real-UDP daemons (internal/udptrans) compose their rack
// separately: their switch learns its servers from the wire.
//
// A Node is one switch running the NetCache program together with
// everything a deployed switch carries: its own simnet.Net (so per-port
// fault rules, partitions and port-down apply to every link the switch
// terminates — including inter-switch trunks), the provisioned routing
// table (remembered so a Reboot can re-provision it, as a switch OS would
// from its startup config), the endpoints attached to its ports, and
// optionally the controller managing its cache (remembered so
// RestartController can build a warm or cold replacement).
//
// Link cables a port of one node to a port of another: frames the first
// switch emits on its trunk port are injected into the second switch at the
// peer port, and vice versa. Both cable segments run through each net's
// fault machinery, so loss, duplication, reordering, corruption, partition
// and port-down rules apply to uplinks exactly as to server and client
// links. Inject errors on a trunk cannot be returned to anyone — the frame
// is in flight — so they surface as the owning net's ProcessErrors counter,
// the same idiom as the other simnet injection counters.
package fabric

import (
	"fmt"

	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/server"
	"netcache/internal/simnet"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
)

// route is one provisioned routing-table entry, remembered for Reboot.
type route struct {
	addr netproto.Addr
	port int
}

// Node is one switch plus its attached world: fabric, endpoints, routes,
// and (optionally) the controller that manages its cache.
type Node struct {
	// Name labels the node in errors ("spine", "tor0", ...).
	Name string
	// Switch is the node's NetCache switch.
	Switch *switchcore.Switch
	// Net is the node's simnet fabric: every port of the switch —
	// server, client, or inter-switch trunk — is a port of this net, so
	// fault injection addresses any link the switch terminates.
	Net *simnet.Net
	// Controller manages the switch cache; nil until SetController.
	// Replaced by RestartController.
	Controller *controller.Controller

	routes  []route
	servers map[int]*server.Server
	ctlCfg  controller.Config
	hasCtl  bool
}

// NewNode builds a switch (zero cfg means switchcore.TestConfig) and wraps
// it in a fresh fabric.
func NewNode(name string, cfg switchcore.Config) (*Node, error) {
	if cfg.CacheSize == 0 {
		cfg = switchcore.TestConfig()
	}
	sw, err := switchcore.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("fabric: %s: %w", name, err)
	}
	return &Node{
		Name:    name,
		Switch:  sw,
		Net:     simnet.New(sw),
		servers: make(map[int]*server.Server),
	}, nil
}

// NumPorts returns the switch's port count.
func (n *Node) NumPorts() int { return n.Switch.Config().Chip.NumPorts() }

// InstallRoute provisions addr → port in the switch routing table and
// records the entry so Reboot can re-provision it.
func (n *Node) InstallRoute(addr netproto.Addr, port int) error {
	if err := n.Switch.InstallRoute(addr, port); err != nil {
		return fmt.Errorf("fabric: %s: %w", n.Name, err)
	}
	n.routes = append(n.routes, route{addr, port})
	return nil
}

// AttachServer cables a storage server to port: its transmit path injects
// into this net, frames emitted toward the port run its Receive, and a
// route for its address is provisioned. Like all attachment, not safe
// concurrently with traffic.
func (n *Node) AttachServer(port int, srv *server.Server) error {
	srv.SetSend(func(frame []byte) { _ = n.Net.Inject(frame, port) })
	n.Net.Attach(port, srv.Receive)
	if err := n.InstallRoute(srv.Addr(), port); err != nil {
		return err
	}
	// The node alias is the server's failover-stable address: the home
	// route above is re-pointed when the partition fails over, the alias
	// never is, so node-to-node replication traffic always reaches this
	// physical server.
	if err := n.InstallRoute(netproto.NodeAlias(srv.Addr()), port); err != nil {
		return err
	}
	n.servers[port] = srv
	return nil
}

// AttachClient cables a client endpoint to port and provisions a route for
// its address. A pipelined GetBatch sends frame by frame through Inject.
func (n *Node) AttachClient(port int, cl *client.Client) error {
	cl.SetSend(func(frame []byte) { _ = n.Net.Inject(frame, port) })
	n.Net.Attach(port, cl.Receive)
	return n.InstallRoute(cl.Addr(), port)
}

// Link cables aPort of node a to bPort of node b: an inter-switch trunk.
// Frames a's switch emits on aPort (after a's FromSwitch fault rules) are
// injected into b at bPort (through b's ToSwitch fault rules), and
// symmetrically. The handlers never retain frames — Inject is synchronous
// with respect to its argument — so pooled buffers flow through trunks
// without copies. Process errors on the far side surface as that net's
// ProcessErrors counter.
func Link(a *Node, aPort int, b *Node, bPort int) {
	a.Net.Attach(aPort, func(frame []byte) { _ = b.Net.Inject(frame, bPort) })
	b.Net.Attach(bPort, func(frame []byte) { _ = a.Net.Inject(frame, aPort) })
}

// SetController builds the node's controller from cfg (cfg.Switch is
// overridden with the node's own switch) and remembers the config so
// RestartController can construct a replacement against the same node.
func (n *Node) SetController(cfg controller.Config) error {
	cfg.Switch = n.Switch
	ctl, err := controller.New(cfg)
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", n.Name, err)
	}
	n.ctlCfg = cfg
	n.hasCtl = true
	n.Controller = ctl
	return nil
}

// RestartController replaces the controller process. The new controller
// reconciles with the switch: with rebuild it adopts the entries installed
// in the warm switch, without it removes them and the cache refills through
// the normal hot-key path.
func (n *Node) RestartController(rebuild bool) error {
	if !n.hasCtl {
		return fmt.Errorf("fabric: %s: no controller installed", n.Name)
	}
	ctl, err := controller.New(n.ctlCfg)
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", n.Name, err)
	}
	ctl.Reconcile(rebuild)
	n.Controller = ctl
	return nil
}

// Reboot power-cycles the switch: all match tables and register arrays are
// wiped. The node immediately re-provisions the routing table (the switch
// OS restoring its startup config), so traffic flows again with every read
// falling through; the cache stays empty until the controller's next Tick.
func (n *Node) Reboot() error {
	n.Switch.Reboot()
	for _, rt := range n.routes {
		if err := n.Switch.InstallRoute(rt.addr, rt.port); err != nil {
			return fmt.Errorf("fabric: %s: reboot re-provision: %w", n.Name, err)
		}
	}
	return nil
}

// Tick runs one controller cycle; a node without a controller does nothing.
func (n *Node) Tick() {
	if n.Controller != nil {
		n.Controller.Tick()
	}
}

// RegisterStats registers the node's metric sources in reg, named under
// prefix ("" for a single-node topology): "<prefix>switch" (cumulative
// pipeline counters), "<prefix>net" (simnet delivery and fault-injection
// counters), "<prefix>server<port>" per attached server, and
// "<prefix>controller" when one is installed. Sources resolve lazily at
// each Snapshot, so a controller replaced by RestartController is followed
// automatically; servers are registered at attach time and survive
// crash/restart because the process object is reused.
func (n *Node) RegisterStats(reg *stats.Registry, prefix string) {
	if prefix != "" {
		prefix += "."
	}
	reg.Register(prefix+"switch", func() any {
		c := n.Switch.Pipeline().Stats()
		return &c
	})
	reg.Register(prefix+"net", func() any { return n.Net })
	for port, srv := range n.servers {
		srv := srv
		reg.Register(fmt.Sprintf("%sserver%d", prefix, port), func() any { return &srv.Metrics })
		reg.Register(fmt.Sprintf("%sserver%d.store", prefix, port), func() any { return srv.StoreStats() })
	}
	reg.Register(prefix+"controller", func() any {
		if n.Controller == nil {
			return nil
		}
		return &n.Controller.Metrics
	})
}

// SetTrace installs query-trace taps on the node's switch and every
// attached server, labeled by node name and server port. A nil ring
// removes them.
func (n *Node) SetTrace(ring *qtrace.Ring) {
	n.Switch.SetTrace(ring.Tap(n.Name))
	for port, srv := range n.servers {
		srv.SetTrace(ring.Tap(fmt.Sprintf("%s/server%d", n.Name, port)))
	}
}

// CrashServer crashes the server attached at port: its process state is
// discarded and its link goes down, so in-flight and future frames toward
// it vanish.
func (n *Node) CrashServer(port int) {
	if srv, ok := n.servers[port]; ok {
		srv.Crash()
		n.Net.SetPortDown(port, true)
	}
}

// RestartServer brings a crashed server back, optionally wiping its store
// (a replacement node instead of a process restart), and restores its link.
func (n *Node) RestartServer(port int, wipeStore bool) {
	if srv, ok := n.servers[port]; ok {
		srv.Restart(wipeStore)
		n.Net.SetPortDown(port, false)
	}
}
