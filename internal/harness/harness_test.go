package harness_test

// Shape tests: the harness must reproduce the qualitative results of every
// figure — who wins, by roughly what factor, where crossovers fall — which
// is the reproduction contract stated in DESIGN.md.

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"netcache/internal/harness"
	"netcache/internal/stats"
	"netcache/internal/workload"
)

func TestHitRatioIsMedium(t *testing.T) {
	// §1: NetCache is a load-balancing cache with *medium* hit ratio
	// (<50%), unlike traditional >90% caches.
	h := harness.PaperRack(0.99).HitRatio()
	if h < 0.3 || h > 0.55 {
		t.Errorf("paper-rack hit ratio = %.2f, expected medium (~0.3-0.55)", h)
	}
}

func TestProbIsNormalizedPMF(t *testing.T) {
	m := harness.RackModel{Partitions: 4, Keys: 50000, Theta: 0.95}
	sum := 0.0
	for i := 0; i < m.Keys; i++ {
		sum += m.Prob(i)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("pmf sums to %.9f", sum)
	}
}

func TestZetaApproxMatchesExact(t *testing.T) {
	// The Euler–Maclaurin tail must agree with brute force where brute
	// force is feasible.
	for _, theta := range []float64{0.9, 0.99} {
		m := harness.RackModel{Keys: 1_000_000, Theta: theta, CacheSize: 1_000_000}
		// HitRatio(CacheSize=Keys) must be exactly 1.
		if h := m.HitRatio(); math.Abs(h-1) > 1e-9 {
			t.Errorf("theta %.2f: full-cache hit ratio = %.12f", theta, h)
		}
	}
}

func TestFig10aShape(t *testing.T) {
	uniform := harness.PaperRack(0).StaticThroughput(false).TotalQPS
	if math.Abs(uniform-1.28e9) > 1e7 {
		t.Errorf("uniform NoCache = %.3g, want 128 x 10 MQPS", uniform)
	}

	var prevSpeedup float64
	for _, theta := range []float64{0.9, 0.95, 0.99} {
		m := harness.PaperRack(theta)
		noc := m.StaticThroughput(false).TotalQPS
		nc := m.StaticThroughput(true).TotalQPS
		speedup := nc / noc
		if speedup <= prevSpeedup {
			t.Errorf("speedup must grow with skew: theta %.2f gives %.1fx after %.1fx",
				theta, speedup, prevSpeedup)
		}
		prevSpeedup = speedup
		if theta == 0.99 {
			// Paper: NoCache at 0.99 = 15.6% of uniform; 10x speedup.
			frac := noc / uniform
			if frac < 0.08 || frac > 0.25 {
				t.Errorf("NoCache(0.99)/uniform = %.2f, paper ~0.156", frac)
			}
			if speedup < 6 || speedup > 20 {
				t.Errorf("speedup(0.99) = %.1fx, paper ~10x", speedup)
			}
		}
		if theta == 0.9 && (speedup < 2.5 || speedup > 7) {
			t.Errorf("speedup(0.9) = %.1fx, paper ~3.6x", speedup)
		}
	}
}

func TestFig10bBalance(t *testing.T) {
	// The cache must flatten the per-server load distribution.
	noc := harness.PaperRack(0.99).StaticThroughput(false)
	nc := harness.PaperRack(0.99).StaticThroughput(true)
	gNoc := stats.Gini(noc.PerServerQPS)
	gNc := stats.Gini(nc.PerServerQPS)
	if gNc > gNoc/3 {
		t.Errorf("cache should flatten load: Gini %.3f (cached) vs %.3f (uncached)", gNc, gNoc)
	}
	// No cached-case server may exceed its capacity.
	for i, q := range nc.PerServerQPS {
		if q > harness.ServerQPS*1.0001 {
			t.Errorf("server %d exceeds capacity: %.3g", i, q)
		}
	}
}

func TestFig10cShape(t *testing.T) {
	m := harness.PaperRack(0.99)
	// NoCache saturates near 0.2 BQPS.
	if lat := m.AvgLatency(0.15e9, false); math.IsInf(lat, 1) {
		t.Error("NoCache should not be saturated at 0.15 BQPS")
	}
	if lat := m.AvgLatency(0.25e9, false); !math.IsInf(lat, 1) {
		t.Error("NoCache should be saturated at 0.25 BQPS")
	}
	// NetCache stays at ~11-12us through 2 BQPS.
	for _, load := range []float64{0.5e9, 1e9, 2e9} {
		lat := m.AvgLatency(load, true) * 1e6
		if lat < 9 || lat > 20 {
			t.Errorf("NetCache latency at %.1f BQPS = %.1fus, paper 11-12us", load/1e9, lat)
		}
	}
	// Hit latency below server latency by construction.
	if harness.HitLatencySec >= harness.ServerLatencySec {
		t.Error("hit path must be faster than server path")
	}
}

func TestFig10dShape(t *testing.T) {
	rack := harness.PaperRack(0.99)
	prevNC := math.Inf(1)
	for _, w := range []float64{0, 0.2, 0.5, 1.0} {
		ww := harness.WriteWorkload{Rack: rack, WriteRatio: w}
		nc := ww.Throughput(true)
		if nc > prevNC*1.01 {
			t.Errorf("uniform writes: NetCache throughput must fall with write ratio (w=%.1f)", w)
		}
		prevNC = nc
	}
	// At w=1 the cache is irrelevant: both systems see pure uniform writes.
	full := harness.WriteWorkload{Rack: rack, WriteRatio: 1}
	nc, noc := full.Throughput(true), full.Throughput(false)
	if math.Abs(nc-noc)/noc > 0.05 {
		t.Errorf("at write ratio 1: NetCache %.3g vs NoCache %.3g should converge", nc, noc)
	}

	// Skewed writes: clear NetCache win at low ratios, gone by ~0.2-0.3.
	low := harness.WriteWorkload{Rack: rack, WriteRatio: 0.01, SkewedWrites: true}
	if low.Throughput(true) < 1.5*low.Throughput(false) {
		t.Error("at 1% skewed writes the cache should still win substantially")
	}
	cross := harness.WriteWorkload{Rack: rack, WriteRatio: 0.3, SkewedWrites: true}
	if r := cross.Throughput(true) / cross.Throughput(false); r > 1.1 {
		t.Errorf("at 30%% skewed writes NetCache/NoCache = %.2f, paper: benefit erased past 0.2", r)
	}
}

func TestFig10eShape(t *testing.T) {
	prev := 0.0
	for _, c := range []int{10, 100, 1000, 10000} {
		m := harness.PaperRack(0.99)
		m.CacheSize = c
		tot := m.StaticThroughput(true).TotalQPS
		if tot <= prev {
			t.Errorf("throughput must grow with cache size (c=%d)", c)
		}
		prev = tot
	}
	// Paper: 1000 items balance 128 nodes — the server-side part reaches
	// (approximately) the uniform-workload aggregate.
	m := harness.PaperRack(0.99)
	m.CacheSize = 1000
	r := m.StaticThroughput(true)
	if r.ServerQPS < 0.9*1.28e9 {
		t.Errorf("with 1000 cached items servers deliver %.3g, want ~1.28 BQPS (balanced)", r.ServerQPS)
	}
	// Diminishing returns: the step 10->100 helps more (relatively) than
	// 10000->65536.
	g1 := throughputAt(t, 100) / throughputAt(t, 10)
	g2 := throughputAt(t, 65536) / throughputAt(t, 10000)
	if g1 <= g2 {
		t.Errorf("returns should diminish on log scale: %.2f then %.2f", g1, g2)
	}
}

func throughputAt(t *testing.T, cache int) float64 {
	t.Helper()
	m := harness.PaperRack(0.99)
	m.CacheSize = cache
	return m.StaticThroughput(true).TotalQPS
}

func TestSnakeLineRateInvariant(t *testing.T) {
	// Fig 9: the modeled rate must be identical across value sizes and
	// cache sizes — line rate is a property of fitting the pipeline, not
	// of the program's data.
	var modeled []float64
	for _, vs := range []int{32, 128} {
		res, err := harness.RunSnake(harness.SnakeConfig{
			ValueSize: vs, CacheItems: 128, Queries: 64, UpdateEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		modeled = append(modeled, res.ModeledQPS)
		if res.Verified == 0 {
			t.Error("snake verified no values")
		}
	}
	for _, cs := range []int{64, 512} {
		res, err := harness.RunSnake(harness.SnakeConfig{
			ValueSize: 128, CacheItems: cs, Queries: 64, UpdateEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		modeled = append(modeled, res.ModeledQPS)
	}
	for _, m := range modeled[1:] {
		if m != modeled[0] {
			t.Fatalf("modeled rate varies: %v", modeled)
		}
	}
	// And it is the paper's generator-bound 2.24 BQPS.
	if math.Abs(modeled[0]-2.24e9) > 1e6 {
		t.Errorf("modeled snake rate = %.3g, want 2.24 BQPS", modeled[0])
	}
}

func TestSnakeRejectsTooManyHops(t *testing.T) {
	_, err := harness.RunSnake(harness.SnakeConfig{
		ValueSize: 64, CacheItems: 16, Queries: 1, Hops: 1000,
	})
	if err == nil {
		t.Error("hops beyond port count should fail")
	}
}

func quickDynamic(t *testing.T, churn workload.Churn) harness.DynamicResult {
	t.Helper()
	cfg := harness.PaperDynamic(churn)
	cfg.Ticks = 24
	cfg.InitialRate = 12000
	cfg.PartitionCapacity = 250
	res, err := harness.RunDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDynamicDeterministicPerSeed: two runs of one seeded Fig. 11 setup
// measure the same ticks. Random churn keeps the cache full, so each Tick's
// insertions and evictions must depend on the traffic alone.
func TestDynamicDeterministicPerSeed(t *testing.T) {
	cfg := harness.PaperDynamic(workload.ChurnRandom)
	cfg.Ticks = 6
	var runs [2]harness.DynamicResult
	for i := range runs {
		res, err := harness.RunDynamic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	if !reflect.DeepEqual(runs[0].Ticks, runs[1].Ticks) {
		t.Errorf("same seed, different ticks:\n%+v\n%+v", runs[0].Ticks, runs[1].Ticks)
	}
}

func TestFig11HotInDipsAndRecovers(t *testing.T) {
	res := quickDynamic(t, workload.ChurnHotIn)
	// Churn hits at ticks 10 and 20: loss spikes there, then clears.
	churnTick := res.Ticks[10]
	if churnTick.LossRate < 0.02 {
		t.Errorf("hot-in churn tick should show loss, got %.3f", churnTick.LossRate)
	}
	after := res.Ticks[11]
	if after.LossRate > 0.02 {
		t.Errorf("one tick after hot-in the cache should have recovered, loss %.3f", after.LossRate)
	}
	// The cache stays full throughout.
	for _, tk := range res.Ticks {
		if tk.CacheLen != res.Cfg.CacheItems {
			t.Fatalf("tick %d: cache len %d", tk.Tick, tk.CacheLen)
		}
	}
}

func TestFig11HotOutSteady(t *testing.T) {
	res := quickDynamic(t, workload.ChurnHotOut)
	// Hot-out is only a reordering for most cached keys: throughput must
	// stay steady — no heavy-loss ticks at all after warm-up.
	for _, tk := range res.Ticks[1:] {
		if tk.LossRate > 0.05 {
			t.Errorf("tick %d: hot-out loss %.3f, should be steady", tk.Tick, tk.LossRate)
		}
	}
}

func TestFig11RandomShallowerThanHotIn(t *testing.T) {
	hotIn := quickDynamic(t, workload.ChurnHotIn)
	random := quickDynamic(t, workload.ChurnRandom)
	worst := func(r harness.DynamicResult) float64 {
		w := 0.0
		for _, tk := range r.Ticks[1:] {
			if tk.LossRate > w {
				w = tk.LossRate
			}
		}
		return w
	}
	if worst(random) > worst(hotIn) {
		t.Errorf("random churn (worst loss %.3f) should dip no deeper than hot-in (%.3f)",
			worst(random), worst(hotIn))
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &harness.Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tb.Add(1, 2)
	tb.Add(3, 4)
	if got := tb.Col("b"); got[0] != 2 || got[1] != 4 {
		t.Errorf("Col = %v", got)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("a")) {
		t.Error("Fprint missing header")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad arity should panic")
			}
		}()
		tb.Add(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown column should panic")
			}
		}()
		tb.Col("zzz")
	}()
}

// The registry is exactly the paper's rows in paper order, then the balance
// analytics, then the registered queueing-simulator extension: a row that
// reproduces no figure cannot come back unnoticed.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"fig9a", "fig9b", "fig10a", "fig10b", "fig10c", "fig10d",
		"fig10e", "fig10f", "fig11a", "fig11b", "fig11c", "resources", "xval",
		"balance", "fig10c-sim"}
	var got []string
	for _, e := range harness.Experiments() {
		got = append(got, e.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for _, id := range want {
		if _, ok := harness.Lookup(id); !ok {
			t.Errorf("Lookup(%s) failed", id)
		}
	}
	if _, ok := harness.Lookup("nope"); ok {
		t.Error("Lookup of unknown id should fail")
	}
}

func TestAnalyticExperimentsRun(t *testing.T) {
	// The analytic figures are cheap enough to run fully in tests.
	for _, id := range []string{"fig10a", "fig10b", "fig10c", "fig10d", "fig10e", "fig10f"} {
		exp, _ := harness.Lookup(id)
		tb, err := exp.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		var buf bytes.Buffer
		tb.Fprint(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s printed nothing", id)
		}
	}
}

func TestPacketLevelExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiments in -short mode")
	}
	for _, id := range []string{"fig9a", "fig11c"} {
		exp, _ := harness.Lookup(id)
		tb, err := exp.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestResourcesUnderHalf(t *testing.T) {
	exp, _ := harness.Lookup("resources")
	tb, err := exp.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	pct := tb.Col("sram_pct_of_pipe")[0]
	if pct >= 50 {
		t.Errorf("paper-scale program uses %.1f%% SRAM; paper reports <50%%", pct)
	}
	if pct < 5 {
		t.Errorf("SRAM usage %.1f%% implausibly low for an 8 MB value store", pct)
	}
}

// TestAbstractHeadlineClaim checks the abstract's latency claim: NetCache
// "reduces the latency of up to 40% of queries by 50%". The queries whose
// latency drops are exactly the cache hits (server path 15us -> switch path
// 7us, a 53% cut), and the hit fraction at the paper's operating point is
// in the claimed range.
func TestAbstractHeadlineClaim(t *testing.T) {
	hit := harness.PaperRack(0.99).HitRatio()
	if hit < 0.35 || hit > 0.55 {
		t.Errorf("hit fraction %.2f outside the 'up to 40%%' ballpark", hit)
	}
	reduction := 1 - harness.HitLatencySec/harness.ServerLatencySec
	if reduction < 0.5 {
		t.Errorf("per-hit latency reduction %.0f%%, claim is 50%%", 100*reduction)
	}
}

// TestXValModelAgreesWithPackets: the capacity model and the packet-level
// emulation must agree on the *direction and rough magnitude* of the
// caching speedup at identical dimensions — the justification for using
// the model at the paper's full scale.
func TestXValModelAgreesWithPackets(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level emulation in -short mode")
	}
	r, err := harness.RunXVal(0.99, true)
	if err != nil {
		t.Fatal(err)
	}
	pkt, model := r.SpeedupPkt(), r.SpeedupModel()
	if pkt < 2 {
		t.Errorf("packet-level speedup %.1fx too small; caching not working", pkt)
	}
	// AIMD under-measures saturation (the paper notes the same), so the
	// packet ratio sits below the model's; they must still be within 2x.
	if pkt > model*1.3 || pkt < model/2 {
		t.Errorf("packet speedup %.1fx vs model %.1fx: disagreement beyond tolerance", pkt, model)
	}
}

// TestBalanceBenchFlattensLoad asserts the paper's headline balance claim
// end-to-end at the packet level: under a zipf-0.99 read workload, the
// per-server load imbalance with the cache enabled is materially lower
// than with it disabled (§6, Fig. 10b — the cache absorbs the zipf head).
func TestBalanceBenchFlattensLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment in -short mode")
	}
	exp, ok := harness.Lookup("balance")
	if !ok {
		t.Fatal("balance experiment not registered")
	}
	tb, err := exp.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("balance table has %d rows, want cache-off and cache-on", len(tb.Rows))
	}
	imb, hit := tb.Col("imbalance"), tb.Col("hit_pct")
	off, on := imb[0], imb[1]
	if off < 1.3 {
		t.Errorf("cache-off imbalance %.3f: zipf-0.99 should skew server load well above 1.3", off)
	}
	if on >= off/1.15 {
		t.Errorf("cache-on imbalance %.3f not materially below cache-off %.3f", on, off)
	}
	if hit[0] != 0 {
		t.Errorf("cache-off hit rate %.1f%%, want 0 (nothing is ever promoted)", hit[0])
	}
	if hit[1] < 20 {
		t.Errorf("cache-on hit rate %.1f%%, want a large zipf-head fraction", hit[1])
	}
	// The audit confirms the sketch found (mostly) the true hot set.
	if rec := tb.Col("recall")[1]; rec < 0.5 {
		t.Errorf("cache-on hot-set recall %.2f, want most of the true top-k cached", rec)
	}
}
