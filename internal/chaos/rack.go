package chaos

import (
	"fmt"
	"time"

	"netcache/internal/client"
	"netcache/internal/rack"
	"netcache/internal/simnet"
)

// rackServers is the single-rack scenario's server count.
const rackServers = 3

// Run executes one seeded single-rack chaos scenario and reports what
// happened.
func Run(seed uint64) (*Report, error) {
	rn, sc, err := buildRack(seed)
	if err != nil {
		return nil, err
	}
	return rn.report, rn.run(sc)
}

// buildRack assembles the rack, the engine over it and the scenario table.
func buildRack(seed uint64) (*runner, scenario, error) {
	r, rn, err := newRackRunner(seed, rackServers, 0, &Report{Seed: seed})
	if err != nil {
		return nil, scenario{}, err
	}
	return rn, rackScenario(seed, r, rn), nil
}

// newRackRunner builds the rack of servers a single-rack scenario tortures,
// replicated when heartbeatMisses > 0, and the engine over it reporting
// into rep.
func newRackRunner(seed uint64, servers, heartbeatMisses int, rep *Report) (*rack.Rack, *runner, error) {
	r, err := rack.New(rack.Config{
		Servers:         servers,
		Clients:         numClients,
		CacheCapacity:   cacheSize,
		Replicate:       heartbeatMisses > 0,
		HeartbeatMisses: heartbeatMisses,
		Client:          clientTemplate(seed),
	})
	if err != nil {
		return nil, nil, err
	}
	r.Net.Reseed(seed)
	return r, newRunner(r, []node{{r.Net, r.Switch}}, rep), nil
}

// clientTemplate configures every scenario's clients: a short timeout and
// retry budget so timed-out queries don't dominate wall-clock time, and
// retransmission jitter drawn from the scenario seed (splitmix64, like every
// other random decision here), keeping the whole run a pure function of the
// seed.
func clientTemplate(seed uint64) client.Config {
	return client.Config{
		Timeout: 2 * time.Millisecond,
		Retries: 2,
		Policy:  client.Policy{Seed: seed},
	}
}

// rackScenario derives the single-rack fault/lifecycle timeline from the
// seed: a pure function of the seed, closed over the rack it will act on.
func rackScenario(seed uint64, r *rack.Rack, rn *runner) scenario {
	g := prng(seed)
	crashTarget := g.intn(rackServers)
	partitionTarget := g.intn(rackServers)
	ctlRebuild := g.intn(2) == 1
	crashed := fmt.Sprint(crashTarget)

	clientPorts := make([]int, numClients)
	for i := range clientPorts {
		clientPorts[i] = rackServers + i
	}
	randServer := func() int { return g.intn(rackServers) }
	randClientPort := func() int { return clientPorts[g.intn(len(clientPorts))] }
	tick := func(ph int) step {
		return step{fmt.Sprintf("phase %d: controller tick", ph), act(r.Tick)}
	}

	sc := scenario{
		header: fmt.Sprintf("scenario: crash-target=s%d partition-target=s%d ctl-rebuild=%v",
			crashTarget, partitionTarget, ctlRebuild),
		// A seed-independent slice of the keys starts out cached.
		precache: func() error {
			for kid := 0; kid < numKeys && kid/3 < cacheSize; kid += 3 {
				if err := r.Controller.InsertKey(rn.keys[kid]); err != nil {
					return fmt.Errorf("chaos warmup: pre-cache key %d: %w", kid, err)
				}
			}
			rn.event("warmup: %d keys written, %d pre-cached", numKeys, r.Controller.Len())
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
