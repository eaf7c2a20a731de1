package harness

import (
	"math"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if _, err := runQueueSim(queueSim{}); err == nil {
		t.Error("zero config should fail")
	}
	if _, err := runQueueSim(queueSim{Partitions: 1, Keys: 1, Queries: 1, OfferedQPS: 1, Theta: 2}); err == nil {
		t.Error("bad theta should fail")
	}
}

func TestUnloadedLatenciesMatchConstants(t *testing.T) {
	// At negligible load, the server path costs ~15 µs and the hit path
	// exactly 7 µs.
	res, err := runQueueSim(paperQueueSim(0.01e9, false))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean-15e-6) > 1e-6 {
		t.Errorf("unloaded NoCache mean = %.1fus, want ~15us", res.Mean*1e6)
	}
	res, err = runQueueSim(paperQueueSim(0.01e9, true))
	if err != nil {
		t.Fatal(err)
	}
	// ~49% of queries take the 7us hit path: the mean lands at the
	// paper's 11-12us blend (the median is just past the hit mass, on
	// the 15us server path).
	if res.Mean < 10e-6 || res.Mean > 12.5e-6 {
		t.Errorf("cached mean = %.1fus, want ~11us", res.Mean*1e6)
	}
	if res.HitRatio < 0.4 || res.HitRatio > 0.6 {
		t.Errorf("hit ratio = %.2f, configured for ~0.49", res.HitRatio)
	}
}

func TestNoCacheSaturatesNearPaperPoint(t *testing.T) {
	// Paper fig10c: NoCache saturates at ~0.2 BQPS.
	below, err := runQueueSim(paperQueueSim(0.1e9, false))
	if err != nil {
		t.Fatal(err)
	}
	if below.Saturated {
		t.Error("NoCache should survive 0.1 BQPS")
	}
	above, err := runQueueSim(paperQueueSim(0.3e9, false))
	if err != nil {
		t.Fatal(err)
	}
	if !above.Saturated {
		t.Error("NoCache should saturate at 0.3 BQPS")
	}
}

func TestNetCacheSteadyTo2BQPS(t *testing.T) {
	res, err := runQueueSim(paperQueueSim(2e9, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("NetCache should not saturate at 2 BQPS")
	}
	if res.Mean < 9e-6 || res.Mean > 14e-6 {
		t.Errorf("NetCache mean at 2 BQPS = %.1fus, paper 11-12us", res.Mean*1e6)
	}
	if res.P99 > 30e-6 {
		t.Errorf("NetCache P99 at 2 BQPS = %.1fus; tail should stay tame", res.P99*1e6)
	}
}

func TestTailInflatesBeforeSaturation(t *testing.T) {
	// §2: overload shows up in the tail first. Near (below) the NoCache
	// saturation point, P99 must be many times the unloaded latency while
	// the median barely moves.
	res, err := runQueueSim(paperQueueSim(0.15e9, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Skip("borderline run saturated at this seed; the 0.2 figure row covers it")
	}
	if res.P99 < 3*15e-6 {
		t.Errorf("P99 = %.1fus; expected a heavy tail near saturation", res.P99*1e6)
	}
	if res.P50 > 2*15e-6 {
		t.Errorf("P50 = %.1fus; the median should stay near unloaded", res.P50*1e6)
	}
}

func TestFig10cSimTable(t *testing.T) {
	tb, err := Fig10cSim(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// NoCache saturates somewhere in the sweep; NetCache never does.
	sawNocSat := false
	for _, row := range tb.Rows {
		if row[1] == -1 {
			sawNocSat = true
		}
		if row[3] == -1 {
			t.Errorf("NetCache saturated at %.2f BQPS", row[0])
		}
	}
	if !sawNocSat {
		t.Error("NoCache never saturated in the sweep")
	}
}

func BenchmarkQueueSim(b *testing.B) {
	cfg := paperQueueSim(1e9, true)
	cfg.Queries = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runQueueSim(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The simulator is reachable as a built-in experiment.
func TestRegisteredInHarness(t *testing.T) {
	if _, ok := Lookup("fig10c-sim"); !ok {
		t.Fatal("fig10c-sim not registered")
	}
}
