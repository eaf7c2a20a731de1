package chaos

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"netcache/internal/client"
)

// chaosSeed lets a failing run be replayed exactly:
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=<seed>
var chaosSeed = flag.Uint64("chaos.seed", 0, "run the chaos suite with this single seed")

var defaultSeeds = []uint64{1, 20260806, 0xC0FFEE}

func seeds() []uint64 {
	if *chaosSeed != 0 {
		return []uint64{*chaosSeed}
	}
	return defaultSeeds
}

// mustPass fails the test on a run error or any invariant violation,
// printing the violations, the timeline and how to replay the seed. A
// passing run logs one summary line (visible under -v, as in `make chaos`).
func mustPass(t *testing.T, seed uint64, rep *Report, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("chaos run error (rerun with -chaos.seed=%d): %v", seed, err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Failed() {
		t.Logf("timeline (rerun with -chaos.seed=%d):", seed)
		for _, e := range rep.Events {
			t.Logf("  %s", e)
		}
		t.Fatalf("%d invariant violations at seed %d — rerun with -chaos.seed=%d",
			len(rep.Violations), seed, seed)
	}
	if rep.Ops == 0 || rep.Ops == rep.Timeouts {
		t.Errorf("seed %d: workload did not run meaningfully: ops=%d timeouts=%d",
			seed, rep.Ops, rep.Timeouts)
	}
	t.Logf("seed=%d ops=%d timeouts=%d fault_free_timeouts=%d violations=%d"+
		" dup=%d reorder=%d corrupt=%d partition_drop=%d loss_drop=%d down_drop=%d"+
		" server_crashes=%d switch_reboots=%d controller_restarts=%d",
		seed, rep.Ops, rep.Timeouts, rep.FaultFreeTimeouts, len(rep.Violations),
		rep.Duplicated, rep.Reordered, rep.CorruptInjected, rep.PartitionDropped, rep.LossDropped, rep.DownDropped,
		rep.ServerCrashes, rep.SwitchReboots, rep.ControllerRestarts)
}

// TestChaos is the invariant-checked chaos suite: for every seed the rack
// endures duplication, reordering, corruption, partitions, a server crash
// and restart, a switch reboot and a controller restart — while freshness,
// durability and convergence hold.
func TestChaos(t *testing.T) {
	for _, seed := range seeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := Run(seed)
			mustPass(t, seed, rep, err)
			// The scenario must actually have bitten.
			if rep.ServerCrashes == 0 || rep.SwitchReboots == 0 || rep.ControllerRestarts == 0 {
				t.Errorf("seed %d: lifecycle coverage: crashes=%d reboots=%d ctl-restarts=%d",
					seed, rep.ServerCrashes, rep.SwitchReboots, rep.ControllerRestarts)
			}
			if rep.Duplicated == 0 || rep.Reordered == 0 || rep.CorruptInjected == 0 || rep.PartitionDropped == 0 {
				t.Errorf("seed %d: fault coverage: dup=%d reorder=%d corrupt=%d partition=%d",
					seed, rep.Duplicated, rep.Reordered, rep.CorruptInjected, rep.PartitionDropped)
			}
		})
	}
}

// scenarios is the three scenario tables behind one signature, for the
// checks that hold for every table.
var scenarios = []struct {
	name  string
	build func(seed uint64) (scenario, error)
	run   func(seed uint64) (*Report, error)
}{
	{"rack",
		func(seed uint64) (scenario, error) { _, sc, err := buildRack(seed); return sc, err },
		Run},
	{"multirack",
		func(seed uint64) (scenario, error) { _, sc, err := buildMultiRack(seed); return sc, err },
		RunMultiRack},
	{"failover",
		func(seed uint64) (scenario, error) {
			_, sc, _, err := buildFailover(seed)
			return sc, err
		},
		func(seed uint64) (*Report, error) {
			rep, err := RunFailover(seed)
			if err != nil {
				return nil, err
			}
			return &rep.Report, nil
		}},
}

// plan flattens a scenario table to its comparable data: the seed's
// choices, each phase's faults and settings, every step label.
func plan(t *testing.T, build func(uint64) (scenario, error), seed uint64) []string {
	t.Helper()
	sc, err := build(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := []string{sc.header}
	for _, ph := range sc.phases {
		out = append(out, fmt.Sprintf("%q salt=%#x faultFree=%v readOnly=%v install=%+v",
			ph.name, ph.salt, ph.faultFree, ph.readOnly, ph.install))
		for _, s := range ph.mid {
			out = append(out, "mid: "+s.label)
		}
		for _, s := range ph.after {
			out = append(out, "after: "+s.label)
		}
	}
	return out
}

// The scenario — fault rates, targets, lifecycle order — is a pure function
// of the seed, and so is the run's event timeline.
func TestScenarioDeterministicPerSeed(t *testing.T) {
	for _, s := range scenarios {
		s := s
		t.Run(s.name, func(t *testing.T) {
			a := plan(t, s.build, 42)
			if !reflect.DeepEqual(a, plan(t, s.build, 42)) {
				t.Fatal("the scenario table is not deterministic for a fixed seed")
			}
			if reflect.DeepEqual(a, plan(t, s.build, 43)) {
				t.Fatal("different seeds produced identical scenarios")
			}
			repA, err := s.run(7)
			if err != nil {
				t.Fatal(err)
			}
			repB, err := s.run(7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(repA.Events, repB.Events) {
				t.Errorf("event timelines diverge for the same seed:\nA: %v\nB: %v", repA.Events, repB.Events)
			}
		})
	}
}

// The timeline of a fixed seed equals the one the three pre-engine runners
// produced (testdata/*.golden, captured at the commit before the engine
// replaced them). No line is timing-dependent, so none is excluded: the
// failover detection window is exactly HeartbeatMisses ticks on the
// in-process fabric.
func TestGoldenTimeline(t *testing.T) {
	for _, s := range scenarios {
		s := s
		t.Run(s.name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + s.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.run(20260806)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(rep.Events, "\n") + "\n"; got != string(want) {
				t.Errorf("timeline differs from golden:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

// Each conservation law trips on its own violation — exactly one message —
// and a consistent counter set passes; deleting any single law from
// conservation fails this test.
func TestConservationLaws(t *testing.T) {
	okClient := clientCounts{sent: 13, retransmit: 3, timeouts: 2, issued: 10}
	okNode := nodeCounts{tx: 100, arrived: 98, duplicated: 5, dropped: 7}
	// A clean client and node lead every set but the empty one, proving a
	// violation is pinned to its own index, not smeared across the set.
	for _, tc := range []struct {
		name    string
		clients []clientCounts
		nodes   []nodeCounts
		want    string // substring of the single violation; "" = none
	}{
		{"consistent", []clientCounts{okClient, okClient}, []nodeCounts{okNode, okNode}, ""},
		{"first attempts != issued", []clientCounts{okClient, {sent: 14, retransmit: 3, timeouts: 2, issued: 10}},
			[]nodeCounts{okNode}, "client 1: first attempts"},
		{"timeouts > issued", []clientCounts{okClient, {sent: 13, retransmit: 3, timeouts: 11, issued: 10}},
			[]nodeCounts{okNode}, "client 1: more timeouts"},
		{"nothing issued", []clientCounts{{}}, []nodeCounts{okNode}, "no ops issued"},
		{"arrived > tx + duplicated", []clientCounts{okClient},
			[]nodeCounts{okNode, {tx: 100, arrived: 106, duplicated: 5, dropped: 7}}, "node 1: frames appeared"},
		{"arrived + dropped < tx", []clientCounts{okClient},
			[]nodeCounts{okNode, {tx: 100, arrived: 92, duplicated: 5, dropped: 7}}, "node 1: emitted frames vanished"},
	} {
		got := conservation(tc.clients, tc.nodes)
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: unexpected violations %q", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
			t.Errorf("%s: got %q, want exactly one violation containing %q", tc.name, got, tc.want)
		}
	}
}

// Oracle unit checks: the checker must accept every legal observation and
// reject the illegal ones.
func TestOracleCheckRead(t *testing.T) {
	const size = 24
	o := newOracle()
	v1 := o.issue(opPut)
	o.ack(v1)
	v2 := o.issue(opPut) // issued, never acked

	if msg := o.checkRead(3, o.floor(), encodeValue(3, v1, size), nil, size); msg != "" {
		t.Errorf("acked version rejected: %s", msg)
	}
	if msg := o.checkRead(3, o.floor(), encodeValue(3, v2, size), nil, size); msg != "" {
		t.Errorf("issued-unacked version rejected: %s", msg)
	}
	o.ack(v2)
	if msg := o.checkRead(3, o.floor(), encodeValue(3, v1, size), nil, size); msg == "" {
		t.Error("stale read accepted")
	}
	if msg := o.checkRead(3, o.floor(), encodeValue(3, 99, size), nil, size); msg == "" {
		t.Error("never-written version accepted")
	}
	if msg := o.checkRead(4, o.floor(), encodeValue(3, v2, size), nil, size); msg == "" {
		t.Error("cross-key value accepted")
	}

	// No delete issued yet: absence of an acked put is a lost write.
	if msg := o.checkRead(3, o.floor(), nil, client.ErrNotFound, size); msg == "" {
		t.Error("NotFound without any delete accepted")
	}
	// An issued delete may have applied even if its ack was lost, so
	// NotFound becomes legal the moment it is issued.
	d := o.issue(opDelete)
	if msg := o.checkRead(3, o.floor(), nil, client.ErrNotFound, size); msg != "" {
		t.Errorf("NotFound with unacked delete rejected: %s", msg)
	}
	o.ack(d)
	if msg := o.checkRead(3, o.floor(), nil, client.ErrNotFound, size); msg != "" {
		t.Errorf("NotFound after acked delete rejected: %s", msg)
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kid  int
		ver  uint64
		size int
	}{{0, 1, 24}, {23, 999999, 24}, {7, 12, 4}} {
		val := encodeValue(tc.kid, tc.ver, tc.size)
		kid, ver, ok := parseValue(val)
		if !ok || kid != tc.kid || ver != tc.ver {
			t.Errorf("roundtrip(%d,%d): got (%d,%d,%v)", tc.kid, tc.ver, kid, ver, ok)
		}
	}
	if _, _, ok := parseValue([]byte("garbage")); ok {
		t.Error("garbage parsed")
	}
}
