package chaos

import (
	"fmt"
	"time"

	"netcache/internal/client"
	"netcache/internal/rack"
	"netcache/internal/simnet"
)

// Config sizes a chaos run. Zero values pick scaled-down defaults suitable
// for a unit-test budget.
type Config struct {
	// Seed drives every random decision in the scenario.
	Seed uint64
	// Servers and Clients size the rack. Defaults: 3 and 2.
	Servers, Clients int
	// Keys is the working-set size. Default 24.
	Keys int
	// OpsPerPhase is the per-client op count in each scenario phase.
	// Default 30.
	OpsPerPhase int
	// ValueSize is the nominal value size in bytes. Default 24.
	ValueSize int
	// CacheCapacity caps the switch cache. Default 8.
	CacheCapacity int
	// StorageEngine selects the servers' storage engine ("chained" or
	// "cuckoo"); empty means chained.
	StorageEngine string
}

func (c *Config) fill() {
	def(&c.Servers, 3)
	def(&c.Clients, 2)
	def(&c.Keys, 24)
	def(&c.OpsPerPhase, 30)
	def(&c.ValueSize, 24)
	def(&c.CacheCapacity, 8)
}

// Run executes one seeded single-rack chaos scenario and reports what
// happened.
func Run(cfg Config) (*Report, error) {
	rn, sc, err := buildRack(cfg)
	if err != nil {
		return nil, err
	}
	return rn.report, rn.run(sc)
}

// buildRack assembles the rack, the engine over it and the scenario table.
func buildRack(cfg Config) (*runner, scenario, error) {
	cfg.fill()
	r, rn, err := newRackRunner(cfg, 0, &Report{Seed: cfg.Seed})
	if err != nil {
		return nil, scenario{}, err
	}
	return rn, rackScenario(cfg, r, rn), nil
}

// newRackRunner builds the rack a single-rack scenario tortures, replicated
// when heartbeatMisses > 0, and the engine over it reporting into rep.
func newRackRunner(cfg Config, heartbeatMisses int, rep *Report) (*rack.Rack, *runner, error) {
	r, err := rack.New(rack.Config{
		Servers:         cfg.Servers,
		Clients:         cfg.Clients,
		CacheCapacity:   cfg.CacheCapacity,
		StorageEngine:   cfg.StorageEngine,
		Replicate:       heartbeatMisses > 0,
		HeartbeatMisses: heartbeatMisses,
		ClientTimeout:   2 * time.Millisecond,
		ClientRetries:   2,
		// The clients' retransmission jitter draws from the scenario seed
		// (splitmix64, like every other random decision here), keeping the
		// whole run a pure function of the seed.
		ClientPolicy: client.Policy{Seed: cfg.Seed},
	})
	if err != nil {
		return nil, nil, err
	}
	r.Net.Reseed(cfg.Seed)
	return r, newRunner(r, []node{{r.Net, r.Switch}},
		load{cfg.Clients, cfg.Keys, cfg.OpsPerPhase, cfg.ValueSize}, rep), nil
}

// rackScenario derives the single-rack fault/lifecycle timeline from the
// seed: a pure function of (seed, cfg sizes), closed over the rack it will
// act on.
func rackScenario(cfg Config, r *rack.Rack, rn *runner) scenario {
	g := prng(cfg.Seed)
	crashTarget := g.intn(cfg.Servers)
	partitionTarget := g.intn(cfg.Servers)
	ctlRebuild := g.intn(2) == 1
	crashed := fmt.Sprint(crashTarget)

	clientPorts := make([]int, cfg.Clients)
	for i := range clientPorts {
		clientPorts[i] = cfg.Servers + i
	}
	randServer := func() int { return g.intn(cfg.Servers) }
	randClientPort := func() int { return clientPorts[g.intn(len(clientPorts))] }
	tick := func(ph int) step {
		return step{fmt.Sprintf("phase %d: controller tick", ph), act(r.Tick)}
	}

	sc := scenario{
		header: fmt.Sprintf("scenario: crash-target=s%d partition-target=s%d ctl-rebuild=%v",
			crashTarget, partitionTarget, ctlRebuild),
		// A seed-independent slice of the keys starts out cached.
		precache: func() error {
			for kid := 0; kid < cfg.Keys && kid/3 < cfg.CacheCapacity; kid += 3 {
				if err := r.Controller.InsertKey(rn.keys[kid]); err != nil {
					return fmt.Errorf("chaos warmup: pre-cache key %d: %w", kid, err)
				}
			}
			rn.event("warmup: %d keys written, %d pre-cached", cfg.Keys, r.Controller.Len())
			return nil
		},
	}
	sc.phases = []phase{{
		// Loss + duplication around a server and a client port, then the
		// target server crashes.
		name: "loss+dup",
		install: []fault{
			{port: randServer(), dir: simnet.FromSwitch, rule: simnet.FaultRule{Loss: g.rate(0.05, 0.2), Dup: g.rate(0.3, 0.6)}},
			{port: randClientPort(), dir: simnet.ToSwitch, rule: simnet.FaultRule{Dup: g.rate(0.2, 0.5)}},
		},
		after: []step{{"phase 1: crash server " + crashed, rn.crash(crashed,
			func() { r.CrashServer(crashTarget) }, func() { r.RestartServer(crashTarget, false) })}},
	}, {
		// Reordering while the crashed server is down; it then restarts
		// with its store intact.
		name: "reorder+server-down",
		install: []fault{
			{port: randServer(), dir: simnet.FromSwitch, rule: simnet.FaultRule{Reorder: g.rate(0.3, 0.6), ReorderDepth: 2 + g.intn(4)}},
			{port: randClientPort(), dir: simnet.ToSwitch, rule: simnet.FaultRule{Reorder: g.rate(0.2, 0.5), ReorderDepth: 2 + g.intn(3)}},
		},
		after: []step{{"phase 2: restart server " + crashed + " (store preserved)", rn.restart(crashed)}, tick(2)},
	}, {
		// Corruption on the wire; afterwards the switch power-cycles and
		// the controller repopulates the cache.
		name: "corrupt",
		install: []fault{
			{port: randClientPort(), dir: simnet.ToSwitch, rule: simnet.FaultRule{Corrupt: g.rate(0.2, 0.4)}},
			{port: randServer(), dir: simnet.ToSwitch, rule: simnet.FaultRule{Corrupt: g.rate(0.1, 0.3)}},
		},
		after: []step{{"phase 3: switch rebooted", counted(&rn.report.SwitchReboots, r.RebootSwitch)}, tick(3)},
	}, {
		// The clients are partitioned from one server; afterwards the
		// partition heals (the engine's post-workload heal removed it) and
		// the controller process is replaced.
		name:    "partition",
		install: []fault{{port: partitionTarget, cut: clientPorts}},
		after: []step{
			{label: "phase 4: partition healed"},
			{fmt.Sprintf("phase 4: controller restarted (rebuild=%v)", ctlRebuild),
				counted(&rn.report.ControllerRestarts, func() error { return r.RestartController(ctlRebuild) })},
			tick(4),
		},
	}, {
		// Everything at once, at lower rates; then the final verdict.
		name: "mixed",
		install: []fault{
			{port: randServer(), dir: simnet.FromSwitch, rule: simnet.FaultRule{
				Loss: g.rate(0.02, 0.1), Dup: g.rate(0.1, 0.3),
				Corrupt: g.rate(0.05, 0.15), Reorder: g.rate(0.1, 0.3), ReorderDepth: 3,
			}},
			{port: randClientPort(), dir: simnet.ToSwitch, rule: simnet.FaultRule{
				Dup: g.rate(0.1, 0.2), Reorder: g.rate(0.1, 0.2), ReorderDepth: 2,
			}},
		},
		after: []step{
			tick(5),
			{"converge: faults cleared, fabric flushed, two controller ticks", act(rn.settle)},
			{"converge: steady-state and probe checks done", act(rn.converge)},
		},
	}}
	return sc
}
