package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/rng"
	"netcache/internal/server"
	"netcache/internal/simnet"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// target is what the engine needs of a deployment under test; rack.Rack and
// leafspine.Fabric both provide it.
type target interface {
	Client(i int) *client.Client
	Tick()
	PrimaryOf(key netproto.Key) *server.Server
}

// node is one switch and the simnet around it: the unit the engine heals,
// counts and holds the fabric conservation bounds over.
type node struct {
	net *simnet.Net
	sw  *switchcore.Switch
}

// fault is one impairment held for a phase on a port of the first node's
// net (the rack's, or the spine's, whose ports are the trunks and client
// links): a fault rule, an unplugged port (down), or a partition between
// the port and the listed ones (cut).
type fault struct {
	port int
	dir  simnet.Dir
	rule simnet.FaultRule
	down bool
	cut  []int
}

// step is one scenario action, closed over the concrete deployment. The
// label joins the timeline once do succeeds (a nil do only records it); a
// step whose line depends on the outcome logs for itself and has none.
type step struct {
	label string
	do    func() error
}

// act adapts an action that cannot fail to a step body.
func act(f func()) func() error { return func() error { f(); return nil } }

// counted is a step body that bumps a lifecycle counter of the report and
// runs the action.
func counted(n *int, do func() error) func() error {
	return func() error { *n++; return do() }
}

// crash is a step body that crashes a server and remembers how to revive
// it, so settle restarts it if the table never does; restart is the step
// body that does. A crash meant to be permanent uses neither.
func (rn *runner) crash(name string, kill, revive func()) func() error {
	return counted(&rn.report.ServerCrashes, act(func() { kill(); rn.down[name] = revive }))
}

func (rn *runner) restart(name string) func() error {
	return act(func() { rn.down[name](); delete(rn.down, name) })
}

// phase is one scenario stage: install the faults, run the workload and
// fire mid once every client is past its halfway mark, heal the fabric,
// fire after.
type phase struct {
	name       string // "" starts the phase without a timeline line
	salt       uint64 // workload seed = run seed ^ salt; 0 means (index+1)*0xA5A5A5A5A5A5A5A5
	install    []fault
	mid, after []step
	// faultFree declares that no op of this phase may time out.
	faultFree bool
	// readOnly keys are never written during this phase.
	readOnly map[int]bool
}

// scenario is a seed-derived plan: data the engine walks.
type scenario struct {
	header   string       // first timeline line: the seed's choices
	precache func() error // runs after the warmup writes and logs the warmup line
	phases   []phase
}

// runner is the live state of one scenario run.
type runner struct {
	tgt     target
	nodes   []node
	keys    []netproto.Key
	oracles []*keyOracle

	ph phase // the phase in progress; zero during warmup

	// down maps a crashed server's name to its revival. Touched only by
	// steps, which run one at a time.
	down map[string]func()

	mu     sync.Mutex
	report *Report
	// issued counts client query calls per client, the ground truth of the
	// client conservation law: every call goes through get/put/del.
	issued map[*client.Client]uint64
}

func newRunner(tgt target, nodes []node, rep *Report) *runner {
	rn := &runner{
		tgt: tgt, nodes: nodes, report: rep,
		keys:    make([]netproto.Key, numKeys),
		oracles: make([]*keyOracle, numKeys),
		down:    make(map[string]func()),
		issued:  make(map[*client.Client]uint64),
	}
	for i := range rn.keys {
		rn.keys[i] = workload.KeyName(i)
		rn.oracles[i] = newOracle()
	}
	return rn
}

// violate records an invariant breach, placed in the timeline by the last
// event before it.
func (rn *runner) violate(format string, args ...any) {
	rn.mu.Lock()
	last := rn.report.Events[len(rn.report.Events)-1]
	rn.report.Violations = append(rn.report.Violations, fmt.Sprintf(format+" (after %q)", append(args, last)...))
	rn.mu.Unlock()
}

// event appends a timeline line, under the lock violate takes: mid steps
// log while the clients' goroutines report violations.
func (rn *runner) event(format string, args ...any) {
	rn.mu.Lock()
	rn.report.Events = append(rn.report.Events, fmt.Sprintf(format, args...))
	rn.mu.Unlock()
}

// runSteps runs steps in order, logging each label once its action succeeded.
func (rn *runner) runSteps(steps ...step) error {
	for _, s := range steps {
		if s.do != nil {
			if err := s.do(); err != nil {
				return fmt.Errorf("chaos: step %q: %w", s.label, err)
			}
		}
		if s.label != "" {
			rn.event("%s", s.label)
		}
	}
	return nil
}

// run walks the scenario: warmup (an acked baseline write of every key
// through its owner, then the table's pre-caching), the phases, the
// conservation check.
func (rn *runner) run(sc scenario) error {
	rn.event("%s", sc.header)
	rn.eachClient(func(c int, cli *client.Client) {
		for _, kid := range rn.ownedKeys(c) {
			rn.put(cli, kid)
		}
	})
	if err := sc.precache(); err != nil {
		return err
	}
	for i, ph := range sc.phases {
		if ph.salt == 0 {
			ph.salt = uint64(i+1) * 0xA5A5A5A5A5A5A5A5
		}
		rn.ph = ph
		for _, f := range ph.install {
			switch net := rn.nodes[0].net; {
			case f.down:
				net.SetPortDown(f.port, true)
			case f.cut != nil:
				net.SetPartitioned(f.cut, []int{f.port}, true)
			default:
				net.SetFault(f.port, f.dir, f.rule)
			}
		}
		if ph.name != "" {
			rn.event("phase %d (%s): faults installed", i+1, ph.name)
		}
		if err := rn.runWorkload(); err != nil {
			return err
		}
		rn.heal()
		if err := rn.runSteps(ph.after...); err != nil {
			return err
		}
	}
	rn.checkConservation()
	return nil
}

// eachClient runs fn for every client concurrently and waits for all.
func (rn *runner) eachClient(fn func(c int, cli *client.Client)) {
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, rn.tgt.Client(c))
		}(c)
	}
	wg.Wait()
}

// runWorkload drives the current phase's ops from every client at once.
// The op sequence is derived from the seed per client; the interleaving is
// not. Once every client is past its halfway mark the mid steps fire while
// the second half of the traffic is still running.
func (rn *runner) runWorkload() error {
	seed := rn.report.Seed ^ rn.ph.salt
	var half sync.WaitGroup
	half.Add(numClients)
	midErr := make(chan error, 1)
	go func() {
		half.Wait()
		midErr <- rn.runSteps(rn.ph.mid...)
	}()
	rn.eachClient(func(c int, cli *client.Client) {
		r := prng(seed + uint64(c)*rng.Seeds[0])
		owned := rn.ownedKeys(c)
		for i := 0; i < opsPerPhase; i++ {
			if i == opsPerPhase/2 {
				half.Done()
			}
			switch roll := r.intn(100); {
			case roll < 50 || len(owned) == 0:
				rn.get(cli, r.intn(numKeys))
			case roll < 85:
				rn.put(cli, owned[r.intn(len(owned))])
			default:
				rn.del(cli, owned[r.intn(len(owned))])
			}
		}
	})
	return <-midErr
}

// ownedKeys lists the keys client c is the single writer of, minus the
// current phase's read-only set.
func (rn *runner) ownedKeys(c int) []int {
	var owned []int
	for kid := c; kid < numKeys; kid += numClients {
		if !rn.ph.readOnly[kid] {
			owned = append(owned, kid)
		}
	}
	return owned
}

func (rn *runner) countOp(cli *client.Client, err error) {
	rn.mu.Lock()
	rn.issued[cli]++
	rn.report.Ops++
	if errors.Is(err, client.ErrTimeout) {
		rn.report.Timeouts++
		if rn.ph.faultFree {
			rn.report.FaultFreeTimeouts++
		}
	}
	rn.mu.Unlock()
}

func (rn *runner) get(cli *client.Client, kid int) ([]byte, error) {
	o := rn.oracles[kid]
	floor := o.floor()
	val, err := cli.Get(rn.keys[kid])
	rn.countOp(cli, err)
	if msg := o.checkRead(kid, floor, val, err, valueSize); msg != "" {
		rn.violate("%s", msg)
	}
	return val, err
}

func (rn *runner) put(cli *client.Client, kid int) error {
	o := rn.oracles[kid]
	ver := o.issue(opPut)
	err := cli.Put(rn.keys[kid], encodeValue(kid, ver, valueSize))
	rn.countOp(cli, err)
	if err == nil {
		o.ack(ver)
	}
	return err
}

func (rn *runner) del(cli *client.Client, kid int) {
	o := rn.oracles[kid]
	ver := o.issue(opDelete)
	err := cli.Delete(rn.keys[kid])
	rn.countOp(cli, err)
	if err == nil {
		o.ack(ver)
	}
}

// heal removes every fault rule, partition and port-down mark and releases
// the frames still held for reordering, on every net.
func (rn *runner) heal() {
	for _, n := range rn.nodes {
		n.net.ClearFaults()
		// A held frame the switch rejects (it was corrupted first) is the
		// fault working, not an error of the run.
		_ = n.net.Flush()
	}
}

// settle brings the deployment to rest: fabric healed, servers the table
// left down restarted (store preserved), two controller cycles.
func (rn *runner) settle() {
	rn.heal()
	names := make([]string, 0, len(rn.down))
	for name := range rn.down {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rn.down[name]()
		delete(rn.down, name)
		rn.event("converge: restart server %s", name)
	}
	rn.tgt.Tick()
	rn.tgt.Tick()
}

// converge checks the settled deployment is coherent and lost no acked
// write: every key's client view is fresh (the oracle inside get), agrees
// across clients and matches the store of the node now serving it; then
// fresh writes land and read back exactly.
func (rn *runner) converge() {
	cliA, cliB := rn.tgt.Client(0), rn.tgt.Client(numClients-1)
	for kid, key := range rn.keys {
		vA, errA := rn.get(cliA, kid)
		vB, errB := rn.get(cliB, kid)
		if errors.Is(errA, client.ErrTimeout) || errors.Is(errB, client.ErrTimeout) {
			rn.violate("key %d: timeout in steady state (A=%v B=%v)", kid, errA, errB)
			continue
		}
		// Two reads through (possibly) different paths agree.
		if (errA == nil) != (errB == nil) || string(vA) != string(vB) {
			rn.violate("key %d: divergent reads %q/%v vs %q/%v", kid, vA, errA, vB, errB)
		}
		// The client view matches the serving store: the caches are
		// coherent, not merely self-consistent.
		stored, _, inStore := rn.tgt.PrimaryOf(key).Store().Get(key)
		if inStore != (errA == nil) || (inStore && string(stored) != string(vA)) {
			rn.violate("key %d: client view %q/%v disagrees with serving store %q/%v", kid, vA, errA, stored, inStore)
		}
	}
	for c := 0; c < numClients; c++ {
		cli := rn.tgt.Client(c)
		for _, kid := range rn.ownedKeys(c) {
			// The probe write is acked, so the oracle inside get accepts
			// exactly its value.
			if err := rn.put(cli, kid); err != nil {
				rn.violate("key %d: probe write failed: %v", kid, err)
			} else if _, err := rn.get(cli, kid); err != nil {
				rn.violate("key %d: probe read failed: %v", kid, err)
			}
		}
	}
}

// clientCounts and nodeCounts are the inputs of the conservation laws: per
// client, and per node the frames its switch emitted (tx), the net handed
// to an endpoint, trunk or unattached port (arrived), forged (duplicated)
// and discarded by loss, partition or a downed port (dropped).
type clientCounts struct{ sent, retransmit, timeouts, issued uint64 }

type nodeCounts struct{ tx, arrived, duplicated, dropped uint64 }

// conservation evaluates the counter conservation laws on a settled
// deployment (nothing in flight), so a metrics-accounting regression fails
// the chaos suite instead of skewing every report built on the counters.
//
// Client laws (exact): every query call transmits its first attempt exactly
// once — success, retry and timeout paths alike — so Sent - Retransmit
// equals the calls issued on that client; timeouts cannot exceed
// them; and a run that issued nothing tested nothing.
//
// Fabric laws (bounds, per node): every frame an endpoint or trunk peer
// receives was emitted by the node's switch or forged by duplication, so
// arrived <= tx + duplicated; an emitted frame arrives or is dropped (the
// drop counters also absorb pre-switch drops), so arrived + dropped >= tx.
// A trunk frame is delivered by one net and injected into the next, where
// that node's switch emits it afresh, so the laws hold node by node.
func conservation(clients []clientCounts, nodes []nodeCounts) []string {
	var bad []string
	var total uint64
	for c, m := range clients {
		total += m.issued
		if m.sent-m.retransmit != m.issued {
			bad = append(bad, fmt.Sprintf("client %d: first attempts != issued ops: %+v", c, m))
		}
		if m.timeouts > m.issued {
			bad = append(bad, fmt.Sprintf("client %d: more timeouts than issued ops: %+v", c, m))
		}
	}
	if total == 0 {
		bad = append(bad, "no ops issued — the scenario ran nothing")
	}
	for i, n := range nodes {
		if n.arrived > n.tx+n.duplicated {
			bad = append(bad, fmt.Sprintf("node %d: frames appeared: %+v", i, n))
		}
		if n.arrived+n.dropped < n.tx {
			bad = append(bad, fmt.Sprintf("node %d: emitted frames vanished: %+v", i, n))
		}
	}
	return bad
}

// checkConservation totals the fabric counters into the report and holds
// the run to the conservation laws.
func (rn *runner) checkConservation() {
	clients := make([]clientCounts, numClients)
	for c := range clients {
		cli := rn.tgt.Client(c)
		m := &cli.Metrics
		clients[c] = clientCounts{m.Sent.Value(), m.Retransmit.Value(), m.Timeouts.Value(), rn.issued[cli]}
	}
	nodes := make([]nodeCounts, len(rn.nodes))
	rep := rn.report
	for i, nd := range rn.nodes {
		n := nd.net
		dropped := n.LossDropped.Value() + n.PartitionDropped.Value() + n.DownDropped.Value()
		nodes[i] = nodeCounts{nd.sw.Pipeline().Stats().TxPackets,
			n.Delivered.Value() + n.Unattached.Value(), n.Duplicated.Value(), dropped}
		rep.Duplicated += n.Duplicated.Value()
		rep.Reordered += n.Reordered.Value()
		rep.CorruptInjected += n.CorruptInjected.Value()
		rep.PartitionDropped += n.PartitionDropped.Value()
		rep.LossDropped += n.LossDropped.Value()
		rep.DownDropped += n.DownDropped.Value()
		rep.Delivered += n.Delivered.Value()
		rep.Unattached += n.Unattached.Value()
	}
	for _, msg := range conservation(clients, nodes) {
		rn.violate("conservation: %s", msg)
	}
}
