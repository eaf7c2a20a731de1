package netcache

// Ablation benchmarks for the design decisions DESIGN.md §5 calls out. Each
// compares the paper's choice against the naive alternative and reports the
// difference as custom metrics.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"netcache/internal/cachemem"
	"netcache/internal/dataplane"
	"netcache/internal/harness"
	"netcache/internal/netproto"
	"netcache/internal/sketch"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// BenchmarkAblationLookupDesign — Fig. 6b's one-lookup + (bitmap, index)
// action versus the naive one-lookup-table-per-value-array design. The
// naive layout replicates the 64K×16-byte match key eight times; on the
// modeled chip it does not even compile (no stage sequence can hold eight
// full-size exact-match tables next to the value arrays), which is the
// paper's resource argument made concrete.
func BenchmarkAblationLookupDesign(b *testing.B) {
	keyCost := func(tables, actionWords int) int {
		// Per-entry cost charged by the dataplane model: two 64-bit
		// match containers + action words + overhead, times 64K
		// entries, times the number of tables.
		per := 16 + actionWords*8 + 8
		return tables * 65536 * per
	}
	oursSRAM := keyCost(1, 1)
	naiveSRAM := keyCost(8, 1)

	var naiveCompiles bool
	for i := 0; i < b.N; i++ {
		naiveCompiles = naivePerArrayProgramCompiles()
	}
	if naiveCompiles {
		b.Fatal("naive per-array lookup should not fit the chip")
	}
	b.ReportMetric(float64(oursSRAM), "bitmap_design_sram_bytes")
	b.ReportMetric(float64(naiveSRAM), "per_array_design_sram_bytes")
	b.ReportMetric(float64(naiveSRAM)/float64(oursSRAM), "sram_ratio")
	b.ReportMetric(0, "naive_compiles")
}

// naivePerArrayProgramCompiles tries to place eight full-size lookup tables
// (one per value array, each with its own index action) plus the eight
// value arrays onto the chip.
func naivePerArrayProgramCompiles() bool {
	p := dataplane.NewProgram("naive-netcache")
	hi := p.Field("key_hi", 64)
	lo := p.Field("key_lo", 64)
	var prev *dataplane.Table
	for i := 0; i < 8; i++ {
		reg := p.Register(dataplane.RegisterSpec{
			Name: fmt.Sprintf("value_%d", i), Gress: dataplane.Egress,
			Slots: 65536, SlotBits: 128,
		})
		spec := dataplane.TableSpec{
			Name:        fmt.Sprintf("lookup_%d", i),
			Gress:       dataplane.Egress,
			MatchFields: []dataplane.FieldID{hi, lo},
			Kind:        dataplane.MatchExact,
			Size:        65536,
			// One index per table — the per-array design's action data.
			ActionDataWords: 1,
			Registers:       []*dataplane.Register{reg},
		}
		if prev != nil {
			spec.After = []*dataplane.Table{prev}
		}
		tab := p.TableBuild(spec)
		tab.Action("read", func(ctx *dataplane.Ctx, data []uint64) {
			ctx.RegAppendBytes(reg, int(data[0]), 16)
		})
		prev = tab
	}
	p.SetParser(func(raw []byte, ctx *dataplane.Ctx) error { return nil })
	p.SetDeparser(func(ctx *dataplane.Ctx, out []byte) []byte { return out })
	_, _, err := dataplane.Compile(p, dataplane.TofinoLike())
	return err == nil
}

// statsRun drives the paper-sized switch (§6) of one statistics ablation
// arm: a client on port 0, the storage server on port 1, and the arm's
// sample rate and hot threshold.
type statsRun struct {
	b   *testing.B
	sw  *switchcore.Switch
	out []dataplane.Emitted
	// sampler replays the switch's sampler stream, which every Get rolls
	// once; sketchUpdates counts the Gets it admitted that the switch did
	// not answer from a valid cache entry — the Gets the Count-Min rows
	// counted.
	sampler       *sketch.Sampler
	sketchUpdates int
}

func newStatsRun(b *testing.B, rate float64, threshold uint64) *statsRun {
	cfg := switchcore.PaperConfig()
	cfg.HotThreshold = threshold
	cfg.SampleRate = rate
	sw, err := switchcore.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.InstallRoute(ablationClient, 0); err != nil {
		b.Fatal(err)
	}
	if err := sw.InstallRoute(ablationServer, 1); err != nil {
		b.Fatal(err)
	}
	return &statsRun{b: b, sw: sw, sampler: sketch.NewSampler(rate, cfg.SampleSeed)}
}

const (
	ablationClient = netproto.Addr(0x8001)
	ablationServer = netproto.Addr(1)
	ablationKeys   = 100_000
)

// getFrames holds one client Get frame per Zipf rank.
var getFrames = sync.OnceValue(func() [][]byte {
	frames := make([][]byte, ablationKeys)
	for rank := range frames {
		pkt, _ := (&netproto.Packet{Op: netproto.OpGet, Key: workload.KeyName(rank)}).Marshal()
		frames[rank] = netproto.MarshalFrame(ablationServer, ablationClient, pkt)
	}
	return frames
})

// get runs the Get for rank through the switch and reports whether the
// switch answered it from its cache.
func (r *statsRun) get(rank int) (hit bool) {
	var err error
	r.out, err = r.sw.ProcessAppend(getFrames()[rank], 0, r.out[:0])
	if err != nil || len(r.out) != 1 {
		r.b.Fatalf("Get of rank %d: %d emissions, %v", rank, len(r.out), err)
	}
	dataplane.ReleaseFrame(r.out[0])
	hit = r.out[0].Port == 0
	if r.sampler.Sample() && !hit {
		r.sketchUpdates++
	}
	return hit
}

// estimate is the switch's Count-Min estimate for rank's key.
func (r *statsRun) estimate(rank int) uint64 { return r.sw.EstimateFreq(workload.KeyName(rank)) }

// BenchmarkAblationSampling — the statistics sampling front-end vs counting
// every query: with 16-bit counters and a heavy head, unsampled counting
// saturates the hottest Count-Min slots (losing the ability to rank the
// head), while sampling keeps them in range at a fraction of the update
// work (§4.4.3).
func BenchmarkAblationSampling(b *testing.B) {
	const queries = 3_000_000
	zipf, _ := workload.NewZipf(ablationKeys, 0.99)

	run := func(rate float64) (saturated int, updates int) {
		r := newStatsRun(b, rate, 64)
		rng := rand.New(rand.NewSource(3))
		for q := 0; q < queries; q++ {
			r.get(zipf.SampleRank(rng))
		}
		for rank := 0; rank < 64; rank++ {
			if r.estimate(rank) >= 0xFFFF {
				saturated++
			}
		}
		return saturated, r.sketchUpdates
	}
	var satFull, updFull, satSampled, updSampled int
	for i := 0; i < b.N; i++ {
		satFull, updFull = run(1.0)
		satSampled, updSampled = run(0.01)
	}
	if satFull == 0 {
		b.Fatal("unsampled head should saturate 16-bit counters at this load")
	}
	if satSampled > 0 {
		b.Fatal("1% sampling should keep the head in counter range")
	}
	b.ReportMetric(float64(satFull), "unsampled_saturated_topkeys")
	b.ReportMetric(float64(satSampled), "sampled_saturated_topkeys")
	b.ReportMetric(float64(updFull)/float64(updSampled), "update_work_ratio")
}

// BenchmarkAblationBloomDedup — the Bloom filter after the Count-Min sketch
// exists only to stop re-reporting a hot key on every subsequent query
// (§4.4.3). Measures controller reports per cycle with it (the switch's
// digests) and without it (every query whose estimate after the update is
// at or above the threshold).
func BenchmarkAblationBloomDedup(b *testing.B) {
	const queries = 200_000
	const threshold = 64
	zipf, _ := workload.NewZipf(ablationKeys, 0.99)

	var with, without int
	for i := 0; i < b.N; i++ {
		r := newStatsRun(b, 1, threshold)
		rng := rand.New(rand.NewSource(5))
		without = 0
		for q := 0; q < queries; q++ {
			rank := zipf.SampleRank(rng)
			r.get(rank)
			if r.estimate(rank) >= threshold {
				without++
			}
		}
		with = int(r.sw.Pipeline().Stats().Digests)
	}
	if with >= without {
		b.Fatal("dedup should reduce reports")
	}
	b.ReportMetric(float64(with), "reports_with_bloom")
	b.ReportMetric(float64(without), "reports_without_bloom")
	b.ReportMetric(float64(without)/float64(with), "controller_load_reduction")
}

// BenchmarkAblationHHScope — counting only *uncached* keys in the heavy-
// hitter detector (the paper's choice, §4.2) vs counting every read: the
// cached head would otherwise dominate the sketch, wasting its resolution
// and re-reporting keys the controller already cached. The paper's arm
// caches the head in the switch, whose hits never reach the sketch; the
// other arm leaves the head uncached so every read is counted.
func BenchmarkAblationHHScope(b *testing.B) {
	const queries = 500_000
	const cacheSize = 1000
	const threshold = 64
	zipf, _ := workload.NewZipf(ablationKeys, 0.99)

	run := func(uncachedOnly bool) (updates, redundantHot int) {
		r := newStatsRun(b, 1, threshold)
		if uncachedOnly {
			alloc, err := cachemem.New(r.sw.AllocatorConfig())
			if err != nil {
				b.Fatal(err)
			}
			for rank := 0; rank < cacheSize; rank++ {
				key, value := workload.KeyName(rank), workload.ValueFor(rank, 16)
				p, err := alloc.Insert(key, len(value))
				if err == nil {
					err = r.sw.InstallCacheEntry(switchcore.CacheEntry{
						Key: key, Placement: p, KeyIndex: rank, ServerPort: 1, Value: value,
					})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(9))
		for q := 0; q < queries; q++ {
			rank := zipf.SampleRank(rng)
			if !r.get(rank) && rank < cacheSize && r.estimate(rank) >= threshold {
				redundantHot++ // hot in the sketch, yet its key belongs in the cache
			}
		}
		return r.sketchUpdates, redundantHot
	}
	var updAll, redAll, updUnc, redUnc int
	for i := 0; i < b.N; i++ {
		updAll, redAll = run(false)
		updUnc, redUnc = run(true)
	}
	if redUnc != 0 {
		b.Fatal("uncached-only counting cannot produce redundant hot reports")
	}
	b.ReportMetric(float64(redAll), "redundant_hot_count_all")
	b.ReportMetric(float64(updAll)/float64(updUnc), "sketch_update_ratio")
}

// BenchmarkAblationUpdatePath — §4.3's choice of *data-plane* cache updates
// (sub-microsecond refresh) against the write-around alternative where a
// written key stays invalid until the controller's next cycle (~1 s). Even
// under *uniform* writes — NetCache's favorable regime — write-around
// collapses the cache, because every cached key is written often enough to
// spend most of each second invalid.
func BenchmarkAblationUpdatePath(b *testing.B) {
	rack := harness.PaperRack(0.99)
	var dataPlane, writeAround float64
	for i := 0; i < b.N; i++ {
		dp := harness.WriteWorkload{Rack: rack, WriteRatio: 0.1}
		wa := dp
		wa.CoherenceWindow = 1.0 // one controller cycle
		dataPlane = dp.Throughput(true)
		writeAround = wa.Throughput(true)
	}
	if writeAround >= dataPlane {
		b.Fatal("write-around must underperform data-plane updates")
	}
	b.ReportMetric(dataPlane/1e9, "dataplane_update_BQPS")
	b.ReportMetric(writeAround/1e9, "write_around_BQPS")
	b.ReportMetric(dataPlane/writeAround, "advantage")
}
