package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"netcache/internal/balance"
	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/server"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// ClientAddr returns the address of a deployment's client i.
func ClientAddr(i int) netproto.Addr { return netproto.Addr(0x8000 + i) }

// Deployment is what every composition of racks operates on: the servers,
// clients and partition, the metric registry, tracing, dataset loading and
// the controller cycle. A composition embeds it, adds its racks (and
// optionally a spine above them), and attaches its clients last.
type Deployment struct {
	// Servers are dense by address: server address a is Servers[a-1].
	Servers []*server.Server
	// Clients are the attached client handles, client i at ClientAddr(i).
	Clients []*client.Client
	// Partition maps keys to their home server address over every rack.
	Partition client.Partitioner

	replicate bool
	width     int // servers per rack
	tors      []*Node
	spine     *Node
	registry  *stats.Registry
}

// NewDeployment returns an empty deployment. With replicate, every rack's
// server i is backed by server (i+1) mod width of the same rack, writes
// replicate before they are acked, and each ToR controller fails a dead
// primary's partition over to its backup.
func NewDeployment(replicate bool) *Deployment {
	d := &Deployment{replicate: replicate, registry: stats.NewRegistry()}
	// Balance analytics ride as a derived source: every snapshot carries
	// flat balance.* metrics (per-server load shares, imbalance ratios,
	// cache hit ratio, churn counters) computed over the component view.
	balance.RegisterOn(d.registry)
	return d
}

// AddSpine builds the switch above the racks. Add it before the racks:
// with a spine, every node's metrics are prefixed by its name.
func (d *Deployment) AddSpine(sw switchcore.Config) (*Node, error) {
	spine, err := NewNode("spine", sw)
	if err != nil {
		return nil, err
	}
	d.spine = spine
	spine.RegisterStats(d.registry, spine.Name)
	return spine, nil
}

// AddRack builds one rack: a ToR node named name with n storage servers
// configured from srv on ports [0,n), their addresses continuing the
// deployment's dense range, and the ToR controller configured from ctl
// (cache capacity, sampling, write policy, heartbeat threshold) managing
// its cache. AddRack sets the servers' Addr and, when replicated,
// PartitionOf, and the controller's Nodes, Partition, PortOf, Backups and
// InstallRoute. Every rack has the same width, and keeps at least one port
// free for clients or an uplink.
func (d *Deployment) AddRack(name string, sw switchcore.Config, n int, srv server.Config,
	ctl controller.Config) (*Node, error) {
	if d.width != 0 && n != d.width {
		return nil, fmt.Errorf("fabric: %s: %d servers, other racks have %d", name, n, d.width)
	}
	tor, err := NewNode(name, sw)
	if err != nil {
		return nil, err
	}
	if n < 1 || n >= tor.NumPorts() {
		return nil, fmt.Errorf("fabric: %s: %d servers, want 1 to %d", name, n, tor.NumPorts()-1)
	}
	d.width = n
	first := netproto.Addr(len(d.Servers) + 1)
	partition := func(key netproto.Key) netproto.Addr { return d.Partition(key) }
	nodes := make(map[netproto.Addr]controller.StorageNode, n)
	for i := 0; i < n; i++ {
		scfg := srv
		scfg.Addr = first + netproto.Addr(i)
		if d.replicate {
			scfg.PartitionOf = partition
		}
		s := server.New(scfg)
		if err := tor.AttachServer(i, s); err != nil {
			return nil, err
		}
		d.Servers = append(d.Servers, s)
		nodes[scfg.Addr] = s
	}
	addrs := make([]netproto.Addr, len(d.Servers))
	for i := range addrs {
		addrs[i] = netproto.Addr(i + 1)
	}
	d.Partition = client.HashPartitioner(addrs)

	ctl.Nodes, ctl.Partition = nodes, partition
	ctl.PortOf = func(addr netproto.Addr) (int, bool) {
		return int(addr - first), addr >= first && addr < first+netproto.Addr(n)
	}
	if d.replicate {
		// Ring pairing within the rack. The route-flip hook goes through
		// the node so a ToR reboot re-provisions the flipped routes. A
		// spine never learns of a failover: it routes by rack trunk, which
		// still reaches the promoted in-rack backup.
		ctl.Backups = make(map[netproto.Addr]netproto.Addr, n)
		for i := 0; i < n; i++ {
			ctl.Backups[first+netproto.Addr(i)] = first + netproto.Addr((i+1)%n)
		}
		ctl.InstallRoute = tor.InstallRoute
	}
	if err := tor.SetController(ctl); err != nil {
		return nil, err
	}
	d.tors = append(d.tors, tor)
	prefix := ""
	if d.spine != nil {
		prefix = name
	}
	tor.RegisterStats(d.registry, prefix)
	return tor, nil
}

// AttachClients attaches count clients to node on ports [port, port+count),
// client i of the deployment at ClientAddr(i), each configured from tmpl
// with the deployment's partition. Attach them after the last rack.
func (d *Deployment) AttachClients(node *Node, port, count int, tmpl client.Config) error {
	for j := 0; j < count; j++ {
		i := len(d.Clients)
		cfg := tmpl
		cfg.Addr, cfg.Partition = ClientAddr(i), d.Partition
		cl, err := client.New(cfg)
		if err != nil {
			return err
		}
		if err := node.AttachClient(port+j, cl); err != nil {
			return err
		}
		d.Clients = append(d.Clients, cl)
		m := &cl.Metrics
		d.registry.Register(fmt.Sprintf("client%d", i), func() any { return m })
	}
	return nil
}

// TorNode returns rack r's ToR node: fault rules installed on its net
// address the rack's server links and its uplink or client links.
func (d *Deployment) TorNode(r int) *Node { return d.tors[r] }

// Registry exposes the deployment's metric registry — the handle the
// telemetry plane (stats.Monitor, internal/telemetry's HTTP endpoints)
// attaches to.
func (d *Deployment) Registry() *stats.Registry { return d.registry }

// Snapshot collects every component counter and client latency histogram
// into one named view: per node "switch.*" (pipeline counters), "net.*"
// (simnet delivery and fault counters), "server<i>.*" and "controller.*",
// prefixed by the node name ("spine.", "tor<r>.") when there is a spine;
// "client<i>.*" including the per-op latency histograms; and the derived
// "balance.*". Safe to call during traffic.
func (d *Deployment) Snapshot() stats.Snapshot { return d.registry.Snapshot() }

// EnableTrace turns on query tracing into a fresh bounded ring (capacity
// records, oldest overwritten) and taps every switch, server and client.
// Call with traffic quiesced. Returns the ring for inspection.
func (d *Deployment) EnableTrace(capacity int) *qtrace.Ring {
	ring := qtrace.NewRing(capacity)
	d.SetTraceRing(ring)
	return ring
}

// SetTraceRing installs (or, with nil, removes) the query-trace ring on
// every component.
func (d *Deployment) SetTraceRing(ring *qtrace.Ring) {
	if d.spine != nil {
		d.spine.SetTrace(ring)
	}
	for _, tor := range d.tors {
		tor.SetTrace(ring)
	}
	for i, cl := range d.Clients {
		cl.SetTrace(ring.Tap(fmt.Sprintf("client%d", i)))
	}
}

// Client returns client i's handle.
func (d *Deployment) Client(i int) *client.Client { return d.Clients[i] }

// RackOf returns the index of the rack owning key.
func (d *Deployment) RackOf(key netproto.Key) int { return int(d.Partition(key)-1) / d.width }

// backupIndex returns the index in Servers of the ring backup of server i's
// partition: the next server of the same rack.
func (d *Deployment) backupIndex(i int) int { return i - i%d.width + (i+1)%d.width }

// PrimaryOf returns the server currently serving key's partition: its home,
// Servers[Partition(key)-1], unless its rack's controller failed the
// partition over to its backup.
func (d *Deployment) PrimaryOf(key netproto.Key) *server.Server {
	return d.Servers[d.tors[d.RackOf(key)].Controller.CurrentPrimary(key)-1]
}

// LoadDataset installs n items (workload.KeyName(0..n-1) with canonical
// values of valueSize bytes) directly into the owning servers' stores — the
// pre-loaded dataset of the experiments. A replicated deployment mirrors
// each item to its backup at the same version, so the pair starts in sync
// and the backup is promotable immediately.
//
// The servers load in parallel, on at most GOMAXPROCS goroutines. Each
// store is written by one goroutine per phase, in id order, so its contents
// and versions do not depend on the schedule: phase 1 Puts every home
// partition into its own store, presized for everything both phases add to
// it, and phase 2 PutAts each partition into its backup at the versions
// phase 1 returned.
func (d *Deployment) LoadDataset(n, valueSize int) {
	ids := make([][]int, len(d.Servers))
	for id := 0; id < n; id++ {
		i := d.Partition(workload.KeyName(id)) - 1
		ids[i] = append(ids[i], id)
	}
	grow := make([]int, len(d.Servers))
	for i := range ids {
		grow[i] += len(ids[i])
		if b := d.backupIndex(i); d.replicate && b != i { // a one-server rack backs itself up
			grow[b] += len(ids[i])
		}
	}
	versions := make([][]uint64, len(d.Servers))
	forEachServer(len(d.Servers), func(i int) {
		st := d.Servers[i].Store()
		st.Grow(grow[i])
		if d.replicate {
			versions[i] = make([]uint64, len(ids[i]))
		}
		var value []byte
		for j, id := range ids[i] {
			value = workload.AppendValue(value[:0], id, valueSize)
			ver := st.Put(workload.KeyName(id), value)
			if d.replicate {
				versions[i][j] = ver
			}
		}
	})
	if !d.replicate {
		return
	}
	forEachServer(len(d.Servers), func(i int) {
		st := d.Servers[d.backupIndex(i)].Store()
		var value []byte
		for j, id := range ids[i] {
			value = workload.AppendValue(value[:0], id, valueSize)
			st.PutAt(workload.KeyName(id), value, versions[i][j])
		}
	})
}

// forEachServer calls fn(i) once for every i in [0, n), on min(GOMAXPROCS,
// n) goroutines, and returns when every call has.
func forEachServer(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Tick runs one controller cycle at every switch: the ToRs first (rack-local
// heads), then the spine (global head). Each first waits for in-flight
// hot-key digests, so a cycle sees all the traffic that preceded it.
func (d *Deployment) Tick() {
	for _, tor := range d.tors {
		tor.Tick()
	}
	if d.spine != nil {
		d.spine.Tick()
	}
}
