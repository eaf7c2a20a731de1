// Package rack assembles a complete NetCache storage rack (SOSP'17 Fig. 2a):
// one ToR switch running the NetCache program, N storage servers behind its
// ports, M clients on upstream ports, the in-process fabric wiring them, and
// the controller managing the switch cache.
//
// The rack is the functional, packet-level system — every query is a real
// frame through the compiled switch pipeline. It is one rack of the
// internal/fabric recipe with the clients on its ToR; internal/leafspine
// builds N racks of the same recipe under a spine. Servers, clients,
// registry, tracing, dataset loading and Tick come from the embedded
// fabric.Deployment, the component lifecycle from the ToR's fabric.Node.
// Experiments that need paper-scale numbers (128 servers, billions of QPS)
// use the capacity models in internal/harness on top of the same components.
package rack

import (
	"fmt"

	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/fabric"
	"netcache/internal/netproto"
	"netcache/internal/server"
	"netcache/internal/simnet"
	"netcache/internal/switchcore"
)

// Config sizes a rack.
type Config struct {
	// Switch configures the ToR switch program; zero value means
	// switchcore.TestConfig.
	Switch switchcore.Config
	// Servers is the number of storage servers (each takes one switch
	// port). Must be >= 1.
	Servers int
	// Clients is the number of client endpoints. Must be >= 1.
	Clients int
	// CacheCapacity caps cached items; zero means the switch limit.
	CacheCapacity int
	// Client is the template every client is configured from; its Addr
	// and Partition are set per client. The zero value keeps the client
	// defaults. Each client's retransmission jitter stream is derived
	// from Client.Policy.Seed and its own address, so a seeded rack is
	// reproducible.
	Client client.Config
	// Replicate enables the replicated storage tier: server i's partition
	// is backed by server (i+1) mod Servers (primary-backup, synchronous
	// replicate-before-ack), the controller heartbeats the servers and
	// fails a dead primary's partition over to its backup by flipping the
	// switch routes. Requires Servers >= 2.
	Replicate bool
	// HeartbeatMisses overrides the controller's consecutive-miss death
	// threshold (one probe per Tick); zero keeps the controller default.
	HeartbeatMisses int
}

// ServerAddr returns the rack address of server i: servers get addresses
// [1, Servers].
func ServerAddr(i int) netproto.Addr { return netproto.Addr(1 + i) }

// ClientAddr returns the rack address of client i: clients get addresses
// [0x8000, 0x8000+Clients).
func ClientAddr(i int) netproto.Addr { return fabric.ClientAddr(i) }

// Rack is an assembled NetCache storage rack. The embedded deployment
// carries the servers, clients, partition, registry, tracing, dataset
// loading and Tick.
type Rack struct {
	*fabric.Deployment
	node *fabric.Node

	Switch     *switchcore.Switch
	Net        *simnet.Net
	Controller *controller.Controller
}

// New builds and wires a rack: one rack of the fabric recipe, its servers
// on the ToR's ports [0, Servers) (the downlinks), its clients on the next
// ports (the upstream-facing side).
func New(cfg Config) (*Rack, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("rack: need at least one server, got %d", cfg.Servers)
	}
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("rack: need at least one client, got %d", cfg.Clients)
	}
	if cfg.Replicate && cfg.Servers < 2 {
		return nil, fmt.Errorf("rack: replication needs at least two servers, got %d", cfg.Servers)
	}

	d := fabric.NewDeployment(cfg.Replicate)
	node, err := d.AddRack("tor", cfg.Switch, cfg.Servers, server.Config{Shards: 4},
		controller.Config{
			Capacity:        cfg.CacheCapacity,
			HeartbeatMisses: cfg.HeartbeatMisses,
		})
	if err != nil {
		return nil, err
	}
	if cfg.Servers+cfg.Clients > node.NumPorts() {
		return nil, fmt.Errorf("rack: %d servers + %d clients exceed %d switch ports",
			cfg.Servers, cfg.Clients, node.NumPorts())
	}
	if err := d.AttachClients(node, cfg.Servers, cfg.Clients, cfg.Client); err != nil {
		return nil, err
	}
	return &Rack{Deployment: d, node: node, Switch: node.Switch, Net: node.Net, Controller: node.Controller}, nil
}

// ServerPort returns the switch port of server i.
func (r *Rack) ServerPort(i int) int { return i }

// PrePopulate installs the given keys into the switch cache through the
// controller (the experiments start with the top-k hottest items cached,
// §7.4).
func (r *Rack) PrePopulate(keys []netproto.Key) error {
	for _, k := range keys {
		if err := r.Controller.InsertKey(k); err != nil {
			return err
		}
	}
	return nil
}

// CrashServer crashes server i: its process state is discarded and its
// switch port goes down, so in-flight and future frames toward it vanish.
// Cached keys it owns keep being served by the switch; uncached reads and
// writes to its partition time out at the clients until RestartServer.
func (r *Rack) CrashServer(i int) { r.node.CrashServer(i) }

// RestartServer brings a crashed server back, optionally wiping its store
// (a replacement node instead of a process restart), and restores its link.
func (r *Rack) RestartServer(i int, wipeStore bool) { r.node.RestartServer(i, wipeStore) }

// RebootSwitch power-cycles the ToR switch: all match tables and register
// arrays are wiped. The rack immediately re-provisions the routing table
// (the switch OS restoring its startup config), so traffic flows again with
// every read falling through to the servers — "if the switch fails, the
// servers simply absorb all queries" (§6). The cache itself stays empty
// until the controller's next Tick detects the loss and reinstalls the
// entries it tracks.
func (r *Rack) RebootSwitch() error { return r.node.Reboot() }

// RestartController replaces the controller process. With rebuild the new
// controller adopts the entries installed in the warm switch (recovering
// placements and key indexes from the data plane); without it the switch
// cache is wiped first, so the empty controller and the switch agree and the
// cache refills through the normal hot-key path. Either way coherence holds:
// reads served by the switch were installed under write-blocking, and reads
// not in the cache fall through to the servers.
func (r *Rack) RestartController(rebuild bool) error {
	if err := r.node.RestartController(rebuild); err != nil {
		return err
	}
	r.Controller = r.node.Controller
	return nil
}
