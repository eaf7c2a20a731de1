package chaos

import (
	"fmt"
	"testing"
)

// TestChaosMultiRack is the multi-tier counterpart of TestChaos: for every
// seed the leaf-spine fabric endures lossy/duplicating/reordering uplinks,
// an uplink partition, a mid-workload spine reboot, a ToR reboot, a server
// crash and controller churn at both tiers — while per-key freshness,
// durability and cross-rack convergence hold.
func TestChaosMultiRack(t *testing.T) {
	for _, seed := range seeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := RunMultiRack(MultiRackConfig{Seed: seed})
			mustPass(t, seed, rep, err)
			// Lifecycle coverage: the scenario always crashes a server,
			// reboots the spine AND a ToR, and restarts both tiers'
			// controllers.
			if rep.ServerCrashes == 0 || rep.SwitchReboots < 2 || rep.ControllerRestarts < 2 {
				t.Errorf("seed %d: lifecycle coverage: crashes=%d reboots=%d ctl-restarts=%d",
					seed, rep.ServerCrashes, rep.SwitchReboots, rep.ControllerRestarts)
			}
			// Fault coverage: trunk loss/dup/reorder/corruption and the
			// phase-long uplink cut must all have bitten.
			if rep.Duplicated == 0 || rep.Reordered == 0 || rep.CorruptInjected == 0 ||
				rep.LossDropped == 0 || rep.DownDropped == 0 {
				t.Errorf("seed %d: fault coverage: dup=%d reorder=%d corrupt=%d loss=%d down=%d",
					seed, rep.Duplicated, rep.Reordered, rep.CorruptInjected,
					rep.LossDropped, rep.DownDropped)
			}
		})
	}
}
