// Package leafspine is the packet-level multi-rack NetCache — the §5
// future work ("cache hot items to higher-level switches in a datacenter
// network, e.g., spine switches") behind the Fig. 10f simulation, realized
// with the same compiled switch program at both layers.
//
// Topology: clients attach to one spine switch; below it, each rack has a
// ToR switch in front of its storage servers. Every switch runs the full
// NetCache pipeline. The spine's controller caches the global head (it
// observes all client traffic); each ToR's controller caches its rack's
// head among the queries the spine missed.
//
// Each rack is built by the same internal/fabric recipe internal/rack
// builds its one rack with (fabric.Deployment.AddRack), and the servers,
// clients, registry, tracing, dataset loading and Tick are the embedded
// fabric.Deployment's. What this package adds is the spine: its node, the
// trunks, the routes and the spine controller. Every switch owns its own
// simnet.Net, and the spine↔ToR uplinks are real fabric.Link trunks, so
// the whole simnet fault machinery — loss, duplication, corruption,
// reordering, partitions, port-down — applies to inter-switch links
// exactly as to server and client links, and the component lifecycle
// (server crash/restart, switch reboot at either tier, controller restart
// with warm adoption) is the same machinery a single rack uses. Nothing is
// hand-delivered: a frame that the spine emits on a
// downlink traverses the spine net's egress fault rules, the ToR net's
// ingress fault rules, and only then the ToR pipeline. Process errors on
// any hop surface as the owning net's ProcessErrors counter; unroutable
// emissions as its Unattached counter.
//
// Coherence across the two cache layers composes from the single-switch
// protocol, exactly as §4.3's wording anticipates:
//
//   - A write invalidates the cached copy in *every* switch it traverses:
//     the first cache hit rewrites the op to PutCached/DeleteCached, and
//     downstream switches treat the rewritten ops as invalidations of their
//     own copies too.
//   - Only the last-hop ToR receives the server's data-plane CacheUpdate
//     (the ack must return to the server, which the ToR's topology
//     guarantees). A spine copy therefore stays invalid after a write;
//     reads fall through to the (updated) ToR or server — always
//     consistent — until the spine controller re-installs the key on its
//     next cycle, prompted by the resumed heavy-hitter reports.
package leafspine

import (
	"fmt"
	"strings"

	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/fabric"
	"netcache/internal/netproto"
	"netcache/internal/server"
	"netcache/internal/simnet"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
)

// Config sizes the fabric.
type Config struct {
	// Racks is the number of storage racks (≥1).
	Racks int
	// ServersPerRack is each rack's width (≥1).
	ServersPerRack int
	// Clients attach to the spine (≥1).
	Clients int
	// SpineCache and TorCache cap each layer's cached items; zero means
	// the switch limit.
	SpineCache, TorCache int
	// Client is the template every client is configured from; its Addr
	// and Partition are set per client. The zero value keeps the client
	// defaults. Clients are wired to the vectorized batch path either
	// way, so GetBatch issues windowed bursts even across racks.
	Client client.Config
}

// Fabric is the assembled leaf-spine deployment. The embedded deployment
// carries the servers, clients, partition, registry, tracing, dataset
// loading and Tick.
type Fabric struct {
	*fabric.Deployment
	spine *fabric.Node
}

// Port plan. Spine: ports [0,Racks) are downlinks (one trunk per rack),
// [Racks, Racks+Clients) are clients. ToR: ports [0,ServersPerRack) are
// servers, port ServersPerRack is the uplink trunk.
func (c Config) spineClientPort(i int) int { return c.Racks + i }
func (c Config) torUplinkPort() int        { return c.ServersPerRack }

// SpineDownlinkPort returns the spine port of rack r's trunk — the
// spine-side handle for uplink fault injection.
func (f *Fabric) SpineDownlinkPort(r int) int { return r }

// New assembles and wires the fabric: Racks racks of the fabric recipe,
// each with its uplink trunk cabled to the spine, and the clients on the
// spine. Server addresses are dense across racks: rack r, server s has
// address 1 + r*ServersPerRack + s.
func New(cfg Config) (*Fabric, error) {
	if cfg.Racks < 1 || cfg.ServersPerRack < 1 || cfg.Clients < 1 {
		return nil, fmt.Errorf("leafspine: racks, servers and clients must all be >= 1")
	}
	f := &Fabric{Deployment: fabric.NewDeployment(false)}
	var err error
	if f.spine, err = f.AddSpine(switchcore.Config{}); err != nil {
		return nil, err
	}
	if cfg.Racks+cfg.Clients > f.spine.NumPorts() {
		return nil, fmt.Errorf("leafspine: topology exceeds switch ports")
	}
	for r := 0; r < cfg.Racks; r++ {
		tor, err := f.AddRack(fmt.Sprintf("tor%d", r), switchcore.Config{}, cfg.ServersPerRack,
			server.Config{Shards: 2}, controller.Config{Capacity: cfg.TorCache, Seed: int64(r + 1)})
		if err != nil {
			return nil, err
		}
		fabric.Link(f.spine, r, tor, cfg.torUplinkPort())
	}

	// Routing. Spine: servers via their rack's downlink trunk (client
	// routes are provisioned by AttachClients). ToR r: own servers at their
	// ports (provisioned by AddRack); everything else — clients, other
	// racks' servers — via the uplink trunk.
	rackOf := func(addr netproto.Addr) int { return int(addr-1) / cfg.ServersPerRack }
	for i := range f.Servers {
		addr := netproto.Addr(i + 1)
		if err := f.spine.InstallRoute(addr, rackOf(addr)); err != nil {
			return nil, err
		}
		for r := 0; r < cfg.Racks; r++ {
			if r == rackOf(addr) {
				continue
			}
			if err := f.TorNode(r).InstallRoute(addr, cfg.torUplinkPort()); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < cfg.Racks; r++ {
		for i := 0; i < cfg.Clients; i++ {
			if err := f.TorNode(r).InstallRoute(fabric.ClientAddr(i), cfg.torUplinkPort()); err != nil {
				return nil, err
			}
		}
	}

	// Clients attach to the spine, batch path and pipelining window
	// included — GetBatch issues windowed bursts across the whole fabric.
	if err := f.AttachClients(f.spine, cfg.spineClientPort(0), cfg.Clients, cfg.Client); err != nil {
		return nil, err
	}

	// The spine controller owns every server, with cache entries pointing
	// at the owning rack's downlink trunk.
	nodes := make(map[netproto.Addr]controller.StorageNode, len(f.Servers))
	for _, srv := range f.Servers {
		nodes[srv.Addr()] = srv
	}
	if err := f.spine.SetController(controller.Config{
		Nodes:     nodes,
		Partition: func(key netproto.Key) netproto.Addr { return f.Partition(key) },
		PortOf: func(addr netproto.Addr) (int, bool) {
			return rackOf(addr), addr >= 1 && int(addr) <= len(f.Servers)
		},
		Capacity: cfg.SpineCache,
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// SpineSnapshot returns just the spine tier's slice of the fabric snapshot.
func (f *Fabric) SpineSnapshot() stats.Snapshot { return f.tierSnapshot("spine.") }

// TorSnapshot returns just rack r's ToR-tier slice of the fabric snapshot.
func (f *Fabric) TorSnapshot(r int) stats.Snapshot {
	return f.tierSnapshot(fmt.Sprintf("tor%d.", r))
}

func (f *Fabric) tierSnapshot(prefix string) stats.Snapshot {
	full := f.Snapshot()
	out := stats.Snapshot{
		Counters:   make(map[string]uint64),
		Histograms: make(map[string]stats.HistStat),
	}
	for k, v := range full.Counters {
		if strings.HasPrefix(k, prefix) {
			out.Counters[k[len(prefix):]] = v
		}
	}
	for k, v := range full.Histograms {
		if strings.HasPrefix(k, prefix) {
			out.Histograms[k[len(prefix):]] = v
		}
	}
	return out
}

// Spine returns the spine switch and its controller.
func (f *Fabric) Spine() (*switchcore.Switch, *controller.Controller) {
	return f.spine.Switch, f.spine.Controller
}

// Tor returns rack r's ToR switch and controller.
func (f *Fabric) Tor(r int) (*switchcore.Switch, *controller.Controller) {
	return f.TorNode(r).Switch, f.TorNode(r).Controller
}

// SpineNode returns the spine's fabric node — fault rules installed on its
// net address the downlink trunks (ports [0,Racks)) and client links.
func (f *Fabric) SpineNode() *fabric.Node { return f.spine }

// CrashServer crashes server s of rack r: process state discarded, ToR
// port down.
func (f *Fabric) CrashServer(r, s int) { f.TorNode(r).CrashServer(s) }

// RestartServer restores server s of rack r, optionally wiping its store.
func (f *Fabric) RestartServer(r, s int, wipeStore bool) {
	f.TorNode(r).RestartServer(s, wipeStore)
}

// RebootSpine power-cycles the spine switch: cache and routes wiped,
// routes immediately re-provisioned. Until the spine controller's next
// Tick, every query falls through to the ToR tier — which keeps serving
// its own cached heads.
func (f *Fabric) RebootSpine() error { return f.spine.Reboot() }

// RebootTor power-cycles rack r's ToR switch.
func (f *Fabric) RebootTor(r int) error { return f.TorNode(r).Reboot() }

// RestartSpineController replaces the spine controller process (warm
// adoption with rebuild, cold wipe without).
func (f *Fabric) RestartSpineController(rebuild bool) error {
	return f.spine.RestartController(rebuild)
}

// RestartTorController replaces rack r's ToR controller process.
func (f *Fabric) RestartTorController(r int, rebuild bool) error {
	return f.TorNode(r).RestartController(rebuild)
}

// SetUplinkDown cuts (or restores) rack r's uplink trunk at the spine
// side: frames the spine emits toward the rack and frames arriving from
// the rack's ToR are both discarded, as with an unplugged inter-switch
// cable. Keys cached at the spine keep being served; everything else
// toward the rack times out at the clients until the link comes back.
func (f *Fabric) SetUplinkDown(r int, down bool) {
	f.spine.Net.SetPortDown(r, down)
}

// SetUplinkTxDown cuts (or restores) only the spine→rack direction of rack
// r's trunk: frames the spine emits toward the rack are discarded, but
// frames climbing up from the rack's ToR still get in — an asymmetric cable
// fault. Requests into the rack time out at the clients while late replies
// already inside the rack still drain upward.
func (f *Fabric) SetUplinkTxDown(r int, down bool) {
	f.spine.Net.SetPortDirDown(r, simnet.FromSwitch, down)
}

// SetUplinkRxDown cuts (or restores) only the rack→spine direction of rack
// r's trunk: the spine keeps pushing frames down, but nothing the rack
// sends back gets through.
func (f *Fabric) SetUplinkRxDown(r int, down bool) {
	f.spine.Net.SetPortDirDown(r, simnet.ToSwitch, down)
}
