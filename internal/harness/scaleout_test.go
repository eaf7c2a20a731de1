package harness

import (
	"math"
	"testing"
)

func TestPaperConfigDefaults(t *testing.T) {
	c := paperScaleOut(8)
	if c.Racks != 8 || c.ServersPerRack != 128 || c.Theta != 0.99 {
		t.Errorf("config = %+v", c)
	}
}

func TestSingleRackMatchesRackModel(t *testing.T) {
	// One rack with leaf caching must agree with the single-rack static
	// model (same pmf, same partitioning hash, same server capacity).
	c := paperScaleOut(1)
	got := c.throughput(leafCache)
	want := PaperRack(0.99).StaticThroughput(true).TotalQPS
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("1-rack LeafCache = %.4g, single-rack model = %.4g", got, want)
	}
	gotNoc := c.throughput(noCache)
	wantNoc := PaperRack(0.99).StaticThroughput(false).TotalQPS
	if math.Abs(gotNoc-wantNoc)/wantNoc > 0.02 {
		t.Errorf("1-rack NoCache = %.4g, single-rack model = %.4g", gotNoc, wantNoc)
	}
}

func TestModeOrdering(t *testing.T) {
	// At every scale: NoCache <= LeafCache <= LeafSpineCache.
	for _, racks := range []int{1, 4, 16, 32} {
		c := paperScaleOut(racks)
		noc := c.throughput(noCache)
		leaf := c.throughput(leafCache)
		spine := c.throughput(leafSpineCache)
		if !(noc <= leaf*1.001 && leaf <= spine*1.001) {
			t.Errorf("racks %d: ordering violated: %.3g %.3g %.3g", racks, noc, leaf, spine)
		}
	}
}

func TestLeafSpineScalesWithServers(t *testing.T) {
	// Per-server throughput under Leaf-Spine should not collapse as the
	// fabric grows (that is what "scales linearly" means).
	per := func(racks int) float64 {
		c := paperScaleOut(racks)
		return c.throughput(leafSpineCache) / float64(racks*c.ServersPerRack)
	}
	if per(32) < 0.8*per(1) {
		t.Errorf("per-server throughput degraded: %.3g -> %.3g", per(1), per(32))
	}
}

func TestTorCapBindsLeafCache(t *testing.T) {
	// Shrinking the ToR capacity must reduce Leaf-Cache throughput at
	// scale (the hottest rack's switch is the bottleneck).
	big := paperScaleOut(32)
	small := paperScaleOut(32)
	small.TorQPS = PipeQPS / 4
	if small.throughput(leafCache) >= big.throughput(leafCache) {
		t.Error("ToR capacity should bind Leaf-Cache at 32 racks")
	}
	// NoCache is indifferent to switch capacity.
	if small.throughput(noCache) != big.throughput(noCache) {
		t.Error("NoCache must not depend on ToR capacity")
	}
}

func TestUniformWorkloadNeedsNoCache(t *testing.T) {
	c := paperScaleOut(4)
	c.Theta = 0
	noc := c.throughput(noCache)
	// With a uniform workload every mode is server-bound at ~N*T.
	want := float64(4*128) * ServerQPS
	if math.Abs(noc-want)/want > 0.15 {
		t.Errorf("uniform NoCache = %.4g, want ~%.4g", noc, want)
	}
}

func TestFig10fShape(t *testing.T) {
	get := func(racks int, mode cacheMode) float64 {
		return paperScaleOut(racks).throughput(mode)
	}
	// NoCache stays flat: 32 racks buy less than 30% over 1 rack.
	if r := get(32, noCache) / get(1, noCache); r > 1.3 {
		t.Errorf("NoCache should not scale: 32-rack gain %.2fx", r)
	}
	// Leaf-Spine scales with servers: 32 racks at least 20x one rack.
	if r := get(32, leafSpineCache) / get(1, leafSpineCache); r < 20 {
		t.Errorf("Leaf-Spine should scale: 32-rack gain %.1fx", r)
	}
	// Leaf-only flattens at tens of racks: the 16->32 step gains far less
	// than doubling, and Leaf-Spine beats Leaf clearly at 32 racks.
	step := get(32, leafCache) / get(16, leafCache)
	if step > 1.6 {
		t.Errorf("Leaf-Cache 16->32 racks gained %.2fx; paper shows a plateau", step)
	}
	if get(32, leafSpineCache) < 2*get(32, leafCache) {
		t.Error("Leaf-Spine should clearly beat Leaf-only at 32 racks")
	}
	// Every mode beats or equals NoCache.
	for _, racks := range []int{1, 8, 32} {
		if get(racks, leafCache) < get(racks, noCache) {
			t.Errorf("LeafCache below NoCache at %d racks", racks)
		}
	}
}

func TestTopoModeString(t *testing.T) {
	if noCache.String() != "NoCache" || leafSpineCache.String() != "Leaf-Spine-Cache" {
		t.Error("mode names wrong")
	}
	if cacheMode(9).String() == "" {
		t.Error("unknown mode should still print")
	}
}
