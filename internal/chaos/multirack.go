// Multi-rack chaos: the leaf-spine fabric under the same invariant-checked
// torture the single rack endures, plus the faults only a multi-tier
// topology has — lossy and reordering inter-switch trunks, an uplink
// partition cutting a whole rack off mid-write, a spine reboot in the
// middle of a workload, and controller churn at either tier. The oracle is
// unchanged: per-key single-writer freshness, durability of acked writes,
// and cache-coherent convergence — which is the point. §4.3's coherence
// story must compose across cache layers with no extra machinery.
package chaos

import (
	"fmt"

	"netcache/internal/leafspine"
	"netcache/internal/simnet"
)

// The leaf-spine scenario's leaf tier: racks of serversPerRack servers.
const (
	numRacks       = 2
	serversPerRack = 2
)

// RunMultiRack executes one seeded multi-rack chaos scenario and reports
// what happened.
func RunMultiRack(seed uint64) (*Report, error) {
	rn, sc, err := buildMultiRack(seed)
	if err != nil {
		return nil, err
	}
	return rn.report, rn.run(sc)
}

// buildMultiRack assembles the fabric, the engine over it and the scenario
// table.
func buildMultiRack(seed uint64) (*runner, scenario, error) {
	fab, err := leafspine.New(leafspine.Config{
		Racks:          numRacks,
		ServersPerRack: serversPerRack,
		Clients:        numClients,
		SpineCache:     cacheSize,
		TorCache:       cacheSize,
		Client:         clientTemplate(seed),
	})
	if err != nil {
		return nil, scenario{}, err
	}
	// The spine's net comes first: it is the one scenario faults address
	// (downlink trunks at ports [0,numRacks), client links above them).
	nodes := []node{{fab.SpineNode().Net, fab.SpineNode().Switch}}
	nodes[0].net.Reseed(seed)
	for r := 0; r < numRacks; r++ {
		tor := fab.TorNode(r)
		tor.Net.Reseed(seed + uint64(r+1))
		nodes = append(nodes, node{tor.Net, tor.Switch})
	}
	rn := newRunner(fab, nodes, &Report{Seed: seed})
	return rn, multiRackScenario(seed, fab, rn), nil
}

// multiRackScenario derives the leaf-spine timeline from the seed: a pure
// function of the seed, closed over the fabric it will act on.
func multiRackScenario(seed uint64, fab *leafspine.Fabric, rn *runner) scenario {
	g := prng(seed ^ 0x5EAF59135EAF5913)
	targetRack := g.intn(numRacks) // the rack whose uplink the scenario abuses
	crashSrv := g.intn(serversPerRack)
	spineCtlReb := g.intn(2) == 1
	torCtlReb := g.intn(2) == 1
	otherRack := (targetRack + 1) % numRacks

	trunk := targetRack // spine downlink port of the target rack
	clientPort := numRacks + g.intn(numClients)
	crashed := fmt.Sprintf("r%d/s%d", targetRack, crashSrv)
	tick := func(ph int) step {
		return step{fmt.Sprintf("phase %d: controller cycle (tors, then spine)", ph), act(fab.Tick)}
	}

	sc := scenario{
		header: fmt.Sprintf("scenario: target-rack=%d crash-server=s%d spine-ctl-rebuild=%v tor-ctl-rebuild=%v",
			targetRack, crashSrv, spineCtlReb, torCtlReb),
		// A seed-independent slice of keys starts out cached at both tiers:
		// thirds go to the spine, offset thirds to the owning ToR — the
		// adversarial both-layers-cached state §4.3 coherence must survive.
		precache: func() error {
			_, spineCtl := fab.Spine()
			spined, tored := 0, 0
			for kid := 0; kid < numKeys && spined < cacheSize; kid += 3 {
				if err := spineCtl.InsertKey(rn.keys[kid]); err != nil {
					return fmt.Errorf("chaos multirack warmup: spine pre-cache key %d: %w", kid, err)
				}
				spined++
			}
			for kid := 1; kid < numKeys && tored < cacheSize; kid += 3 {
				_, torCtl := fab.Tor(fab.RackOf(rn.keys[kid]))
				if err := torCtl.InsertKey(rn.keys[kid]); err != nil {
					return fmt.Errorf("chaos multirack warmup: tor pre-cache key %d: %w", kid, err)
				}
				tored++
			}
			rn.event("warmup: %d keys written, %d spine-cached, %d tor-cached", numKeys, spined, tored)
			return nil
		},
	}
	sc.phases = []phase{{
		// The target rack's trunk loses and duplicates in both directions
		// while a client port duplicates; then a server in the rack crashes.
		name: "uplink-loss+dup",
		install: []fault{
			{port: trunk, dir: simnet.FromSwitch, rule: simnet.FaultRule{Loss: g.rate(0.05, 0.2), Dup: g.rate(0.2, 0.5)}},
			{port: trunk, dir: simnet.ToSwitch, rule: simnet.FaultRule{Loss: g.rate(0.05, 0.15), Dup: g.rate(0.2, 0.4)}},
			{port: clientPort, dir: simnet.ToSwitch, rule: simnet.FaultRule{Dup: g.rate(0.2, 0.5)}},
		},
		after: []step{{"phase 1: crash server " + crashed, rn.crash(crashed,
			func() { fab.CrashServer(targetRack, crashSrv) }, func() { fab.RestartServer(targetRack, crashSrv, false) })}},
	}, {
		// The trunk reorders while the spine power-cycles in the middle of
		// the workload — reads fall through to the ToR tier; the crashed
		// server then returns with its store intact.
		name: "uplink-reorder+spine-reboot",
		install: []fault{
			{port: trunk, dir: simnet.FromSwitch, rule: simnet.FaultRule{Reorder: g.rate(0.2, 0.5), ReorderDepth: 2 + g.intn(4)}},
			{port: trunk, dir: simnet.ToSwitch, rule: simnet.FaultRule{Reorder: g.rate(0.2, 0.4), ReorderDepth: 2 + g.intn(3)}},
		},
		mid:   []step{{"phase 2: spine rebooted mid-workload", counted(&rn.report.SwitchReboots, fab.RebootSpine)}},
		after: []step{{"phase 2: restart server " + crashed + " (store preserved)", rn.restart(crashed)}, tick(2)},
	}, {
		// The target rack's uplink is cut for the whole phase — writes into
		// it time out, spine-cached keys keep serving. Afterwards the link
		// returns (the engine's heal replugged it) and the *other* rack's
		// ToR power-cycles.
		name:    "uplink-partition",
		install: []fault{{port: trunk, down: true}},
		after: []step{
			{label: fmt.Sprintf("phase 3: uplink of rack %d restored", targetRack)},
			{fmt.Sprintf("phase 3: tor %d rebooted", otherRack),
				counted(&rn.report.SwitchReboots, func() error { return fab.RebootTor(otherRack) })},
			tick(3),
		},
	}, {
		// Everything at once at low rates on both trunk directions and a
		// client port, with the spine controller replaced mid-workload and
		// the target ToR's controller replaced after; then the verdict.
		name: "mixed+controller-churn",
		install: []fault{
			{port: trunk, dir: simnet.FromSwitch, rule: simnet.FaultRule{
				Loss: g.rate(0.02, 0.08), Dup: g.rate(0.1, 0.2),
				Corrupt: g.rate(0.05, 0.15), Reorder: g.rate(0.1, 0.25), ReorderDepth: 3,
			}},
			{port: otherRack, dir: simnet.FromSwitch, rule: simnet.FaultRule{Dup: g.rate(0.1, 0.2), Reorder: g.rate(0.05, 0.15), ReorderDepth: 2}},
			{port: clientPort, dir: simnet.ToSwitch, rule: simnet.FaultRule{Corrupt: g.rate(0.1, 0.25)}},
		},
		mid: []step{{fmt.Sprintf("phase 4: spine controller restarted mid-workload (rebuild=%v)", spineCtlReb),
			counted(&rn.report.ControllerRestarts, func() error { return fab.RestartSpineController(spineCtlReb) })}},
		after: []step{
			{fmt.Sprintf("phase 4: tor %d controller restarted (rebuild=%v)", targetRack, torCtlReb),
				counted(&rn.report.ControllerRestarts, func() error { return fab.RestartTorController(targetRack, torCtlReb) })},
			tick(4),
			{"converge: faults cleared, fabrics flushed, two controller cycles", act(rn.settle)},
			{"converge: steady-state and probe checks done", act(rn.converge)},
		},
	}}
	return sc
}
