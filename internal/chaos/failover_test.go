package chaos

import (
	"fmt"
	"testing"
)

// TestChaosFailover is the replicated-tier chaos suite: for every seed a
// primary crashes permanently (no restart), the partition fails over to its
// backup within the detection window, and the workload keeps completing —
// every acked write readable from the promoted backup. The node then
// rejoins, catches up via resync, and survives losing the promoted node
// too.
func TestChaosFailover(t *testing.T) {
	for _, seed := range seeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := RunFailover(seed)
			if err != nil {
				t.Fatalf("failover run error (rerun with -chaos.seed=%d): %v", seed, err)
			}
			mustPass(t, seed, &rep.Report, nil)
			t.Logf("seed=%d detect_ticks=%d failover_us=%d failback_us=%d hot_reads=%d avail_reads=%d"+
				" cold_timeouts=%d post_failover_timeouts=%d resync_copied=%d",
				seed, rep.DetectTicks, rep.FailoverLatency.Microseconds(), rep.FailbackLatency.Microseconds(),
				rep.HotReads, rep.AvailabilityReads, rep.ColdTimeouts, rep.PostFailoverTimeouts, rep.ResyncCopied)
			// Both injected deaths must have been detected and failed over.
			if rep.Deaths < 2 || rep.Failovers < 2 {
				t.Errorf("seed %d: deaths=%d failovers=%d, want >= 2 each", seed, rep.Deaths, rep.Failovers)
			}
			if rep.Rejoins == 0 {
				t.Errorf("seed %d: the restarted node never rejoined", seed)
			}
			if rep.ResyncCopied == 0 {
				t.Errorf("seed %d: resync copied nothing — catch-up untested", seed)
			}
			// Detection took the configured window, not forever.
			if rep.DetectTicks < 3 || rep.DetectTicks > 30 {
				t.Errorf("seed %d: detection in %d ticks, want within [3,30]", seed, rep.DetectTicks)
			}
			if rep.FailoverLatency <= 0 || rep.FailbackLatency <= 0 {
				t.Errorf("seed %d: unmeasured failover latency (%v, %v)",
					seed, rep.FailoverLatency, rep.FailbackLatency)
			}
			// The switch cache carried the hot key through both switchovers,
			// and healthy partitions kept answering.
			if rep.HotReads == 0 {
				t.Errorf("seed %d: hot key never probed during switchover", seed)
			}
			if rep.AvailabilityReads == 0 {
				t.Errorf("seed %d: no availability reads completed during detection", seed)
			}
			// The detection window was real: cold keys of the dead partition
			// timed out before the flip.
			if rep.ColdTimeouts == 0 {
				t.Errorf("seed %d: no cold-key timeout observed during the detection window", seed)
			}
			// After a completed failover the rack is fully available again.
			if rep.PostFailoverTimeouts != 0 {
				t.Errorf("seed %d: %d timeouts in fault-free post-failover phases",
					seed, rep.PostFailoverTimeouts)
			}
		})
	}
}
