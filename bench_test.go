package netcache

// One benchmark per table/figure of the paper's evaluation (§7). Each bench
// regenerates its figure through the harness and reports the figure's
// headline quantities as custom metrics, so `go test -bench=.` doubles as
// the reproduction run. The full-precision figure data comes from
// `go run ./cmd/netcache-bench`; EXPERIMENTS.md records paper-vs-measured.

import (
	"sync/atomic"
	"testing"

	"netcache/internal/chaos"
	"netcache/internal/client"
	"netcache/internal/dataplane"
	"netcache/internal/harness"
	"netcache/internal/leafspine"
	"netcache/internal/netproto"
	"netcache/internal/rack"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// runFigure executes the experiment once per iteration and returns the last
// table for metric extraction.
func runFigure(b *testing.B, id string, quick bool) *Table {
	b.Helper()
	var tb *Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = RunExperiment(id, quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

func lastOf(v []float64) float64 { return v[len(v)-1] }

// BenchmarkFig9aValueSize: switch throughput vs value size (snake test).
// Paper: flat 2.24 BQPS for 64K items with values up to 128 B.
func BenchmarkFig9aValueSize(b *testing.B) {
	tb := runFigure(b, "fig9a", true)
	b.ReportMetric(tb.Col("modeled_BQPS")[0], "modeled_BQPS_min")
	b.ReportMetric(lastOf(tb.Col("modeled_BQPS")), "modeled_BQPS_max")
	b.ReportMetric(lastOf(tb.Col("measured_Mpps")), "measured_Mpps")
}

// BenchmarkFig9bCacheSize: switch throughput vs cache size (snake test).
// Paper: flat 2.24 BQPS up to 64K items.
func BenchmarkFig9bCacheSize(b *testing.B) {
	tb := runFigure(b, "fig9b", true)
	b.ReportMetric(tb.Col("modeled_BQPS")[0], "modeled_BQPS_min")
	b.ReportMetric(lastOf(tb.Col("modeled_BQPS")), "modeled_BQPS_max")
}

// BenchmarkFig10aThroughput: saturated throughput vs skew.
// Paper: NetCache beats NoCache 3.6x / 6.5x / 10x at Zipf 0.9 / 0.95 / 0.99.
func BenchmarkFig10aThroughput(b *testing.B) {
	tb := runFigure(b, "fig10a", false)
	sp := tb.Col("speedup")
	b.ReportMetric(sp[1], "speedup_z090")
	b.ReportMetric(sp[2], "speedup_z095")
	b.ReportMetric(sp[3], "speedup_z099")
	b.ReportMetric(tb.Col("netcache")[3], "netcache_z099_BQPS")
}

// BenchmarkFig10bBalance: per-server load at saturation.
// Paper: skewed without the cache, near-uniform with it.
func BenchmarkFig10bBalance(b *testing.B) {
	tb := runFigure(b, "fig10b", false)
	noc := tb.Col("noc_z099")
	nc := tb.Col("netcache_z099")
	b.ReportMetric(lastOf(noc)/noc[0], "nocache_max_over_min")
	b.ReportMetric(lastOf(nc)/nc[0], "netcache_max_over_min")
}

// BenchmarkFig10cLatency: average latency vs offered throughput.
// Paper: NoCache 15us saturating at 0.2 BQPS; NetCache 11-12us to 2 BQPS.
func BenchmarkFig10cLatency(b *testing.B) {
	tb := runFigure(b, "fig10c", false)
	nc := tb.Col("netcache_us")
	b.ReportMetric(nc[0], "netcache_us_low_load")
	b.ReportMetric(nc[len(nc)-2], "netcache_us_at_2BQPS")
}

// BenchmarkFig10dWriteRatio: throughput vs write ratio.
// Paper: skewed writes erase the benefit near ratio 0.2.
func BenchmarkFig10dWriteRatio(b *testing.B) {
	tb := runFigure(b, "fig10d", false)
	ratios := tb.Col("write_ratio")
	ncSkew := tb.Col("nc_skewedW")
	nocSkew := tb.Col("noc_skewedW")
	cross := 1.0
	for i := range ratios {
		if ncSkew[i] <= nocSkew[i]*1.05 {
			cross = ratios[i]
			break
		}
	}
	b.ReportMetric(cross, "skewed_crossover_ratio")
	b.ReportMetric(tb.Col("nc_uniformW")[0], "nc_read_only_BQPS")
}

// BenchmarkFig10eCacheSize: throughput vs cache size.
// Paper: ~1000 items balance 128 nodes; diminishing returns.
func BenchmarkFig10eCacheSize(b *testing.B) {
	tb := runFigure(b, "fig10e", false)
	b.ReportMetric(tb.Col("z099_servers")[4]/1.28, "balance_at_1000_items")
	b.ReportMetric(lastOf(tb.Col("z099_total")), "z099_total_max_BQPS")
}

// BenchmarkFig10fScalability: multi-rack scale-out.
// Paper: NoCache flat; Leaf limited; Leaf-Spine linear in servers.
func BenchmarkFig10fScalability(b *testing.B) {
	tb := runFigure(b, "fig10f", false)
	noc := tb.Col("nocache")
	leaf := tb.Col("leaf_cache")
	spine := tb.Col("leaf_spine_cache")
	b.ReportMetric(lastOf(noc)/noc[0], "nocache_gain_32racks")
	b.ReportMetric(lastOf(leaf)/leaf[0], "leaf_gain_32racks")
	b.ReportMetric(lastOf(spine)/spine[0], "leafspine_gain_32racks")
}

// dynamicHeadlines reports the dip/recovery profile of a Fig. 11 run.
func dynamicHeadlines(b *testing.B, id string) {
	tb := runFigure(b, id, true)
	served := tb.Col("served")
	loss := tb.Col("loss_pct")
	worstLoss, mean := 0.0, 0.0
	for i := range served {
		mean += served[i]
		if loss[i] > worstLoss {
			worstLoss = loss[i]
		}
	}
	mean /= float64(len(served))
	b.ReportMetric(mean, "mean_served_per_tick")
	b.ReportMetric(worstLoss, "worst_loss_pct")
}

// BenchmarkFig11aHotIn: radical churn; per-second throughput dips then
// recovers within a tick.
func BenchmarkFig11aHotIn(b *testing.B) { dynamicHeadlines(b, "fig11a") }

// BenchmarkFig11bRandom: moderate churn; shallow dips.
func BenchmarkFig11bRandom(b *testing.B) { dynamicHeadlines(b, "fig11b") }

// BenchmarkFig11cHotOut: mild churn; steady throughput.
func BenchmarkFig11cHotOut(b *testing.B) { dynamicHeadlines(b, "fig11c") }

// BenchmarkResources: compiles the paper-scale program and reports on-chip
// memory use. Paper (§6): less than 50% of the Tofino's on-chip memory.
func BenchmarkResources(b *testing.B) {
	tb := runFigure(b, "resources", false)
	b.ReportMetric(tb.Col("sram_pct_of_pipe")[0], "sram_pct")
}

// BenchmarkEndToEndCachedGet measures this substrate's full query path for a
// switch-served read: client -> switch pipeline (hit) -> client.
func BenchmarkEndToEndCachedGet(b *testing.B) {
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(128, 128)
	if err := r.PrePopulateTopK(16); err != nil {
		b.Fatal(err)
	}
	cli := r.Client(0)
	key := KeyName(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndServerGet measures the miss path: client -> switch ->
// storage server -> switch -> client.
func BenchmarkEndToEndServerGet(b *testing.B) {
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(128, 128)
	cli := r.Client(0)
	key := KeyName(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndPutCached measures a coherent write to a cached key:
// invalidation, store update, data-plane refresh, ack.
func BenchmarkEndToEndPutCached(b *testing.B) {
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(128, 128)
	if err := r.PrePopulateTopK(16); err != nil {
		b.Fatal(err)
	}
	cli := r.Client(0)
	key := KeyName(3)
	val := workload.ValueFor(3, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// pipelineBenchRig builds a rack whose switch runs sw (zero value: the
// default program) and a ready-to-inject cache-hit GET frame for raw
// pipeline benchmarks (no client/simnet overhead — just Process).
func pipelineBenchRig(tb testing.TB, sw switchcore.Config) (r *rack.Rack, frame []byte, inPort int) {
	tb.Helper()
	r, err := rack.New(rack.Config{Switch: sw, Servers: 4, Clients: 2, CacheCapacity: 64})
	if err != nil {
		tb.Fatal(err)
	}
	r.LoadDataset(128, 128)
	key := workload.KeyName(3)
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		tb.Fatal(err)
	}
	pkt := netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key}
	payload, err := pkt.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	frame = netproto.MarshalFrame(r.Partition(key), rack.ClientAddr(0), payload)
	return r, frame, 4 // first client-facing port (after the 4 servers)
}

// BenchmarkPipelineSequential is the single-goroutine baseline for the raw
// cache-hit GET path through the switch pipeline. It uses the steady-state
// calling convention of simnet and the UDP daemon: an emission buffer reused
// across packets and pooled reply frames released after use, so the loop's
// allocs/op is the pipeline's intrinsic garbage, not the harness's.
func BenchmarkPipelineSequential(b *testing.B) {
	r, frame, inPort := pipelineBenchRig(b, switchcore.Config{})
	out := make([]dataplane.Emitted, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = r.Switch.ProcessAppend(frame, inPort, out[:0])
		if err != nil || len(out) != 1 {
			b.Fatalf("ProcessAppend = %v, %v", out, err)
		}
		dataplane.ReleaseFrame(out[0])
	}
}

// BenchmarkPipelineParallel drives the same cache-hit GET path from many
// goroutines at once (use -cpu to set the count, e.g. -cpu 8). With the
// per-stage serialization of this refactor, throughput should scale with
// cores instead of collapsing onto one pipeline-wide lock.
func BenchmarkPipelineParallel(b *testing.B) {
	r, frame, inPort := pipelineBenchRig(b, switchcore.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		out := make([]dataplane.Emitted, 0, 4)
		for pb.Next() {
			var err error
			out, err = r.Switch.ProcessAppend(frame, inPort, out[:0])
			if err != nil || len(out) != 1 {
				b.Errorf("ProcessAppend = %v, %v", out, err)
				return
			}
			dataplane.ReleaseFrame(out[0])
		}
	})
}

// BenchmarkRackParallelGet is the end-to-end fan-out: concurrent clients
// issuing cache-hit reads through the full client/simnet/switch path.
func BenchmarkRackParallelGet(b *testing.B) {
	const nClients = 8
	r, err := rack.New(rack.Config{Servers: 4, Clients: nClients, CacheCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(128, 128)
	key := workload.KeyName(3)
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cli := r.Client(int(next.Add(1)-1) % nClients)
		for pb.Next() {
			if _, err := cli.Get(key); err != nil {
				b.Errorf("get: %v", err)
				return
			}
		}
	})
}

// BenchmarkRackPipelinedGet is the batched counterpart of RackParallelGet:
// one client keeps a window of cache-hit reads outstanding via GetBatch, so
// each burst enters the fabric as one InjectBatch (one actor wakeup for the
// whole window) instead of a goroutine per query. ns/op is per Get.
func BenchmarkRackPipelinedGet(b *testing.B) {
	const window = 32
	r, err := rack.New(rack.Config{
		Servers: 4, Clients: 1, CacheCapacity: 64, Client: client.Config{Window: window},
	})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(128, 128)
	key := workload.KeyName(3)
	if err := r.PrePopulate([]netproto.Key{key}); err != nil {
		b.Fatal(err)
	}
	cli := r.Client(0)
	keys := make([]netproto.Key, window)
	for i := range keys {
		keys[i] = key
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += window {
		n := window
		if rest := b.N - done; rest < n {
			n = rest
		}
		_, errs := cli.GetBatch(keys[:n])
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// multiRackBenchRig assembles a 2-rack leaf-spine fabric with one key cached
// at the spine, one cached only at a ToR, and the rest server-only.
func multiRackBenchRig(b *testing.B, window int) (f *leafspine.Fabric, spineKey, torKey netproto.Key) {
	b.Helper()
	f, err := leafspine.New(leafspine.Config{
		Racks: 2, ServersPerRack: 2, Clients: 1,
		SpineCache: 8, TorCache: 8, Client: client.Config{Window: window},
	})
	if err != nil {
		b.Fatal(err)
	}
	f.LoadDataset(128, 128)
	spineKey, torKey = workload.KeyName(3), workload.KeyName(4)
	_, spineCtl := f.Spine()
	if err := spineCtl.InsertKey(spineKey); err != nil {
		b.Fatal(err)
	}
	_, torCtl := f.Tor(f.RackOf(torKey))
	if err := torCtl.InsertKey(torKey); err != nil {
		b.Fatal(err)
	}
	return f, spineKey, torKey
}

// BenchmarkMultiRackSpineCachedGet: the multi-rack fast path — a read served
// by the spine switch without ever crossing a trunk.
func BenchmarkMultiRackSpineCachedGet(b *testing.B) {
	f, key, _ := multiRackBenchRig(b, 0)
	cli := f.Client(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiRackTorCachedGet: a spine miss served by the owning ToR's
// cache — the query and reply each cross one inter-switch trunk.
func BenchmarkMultiRackTorCachedGet(b *testing.B) {
	f, _, key := multiRackBenchRig(b, 0)
	cli := f.Client(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiRackServerGet: the full miss path — spine, trunk, ToR,
// storage server and back.
func BenchmarkMultiRackServerGet(b *testing.B) {
	f, _, _ := multiRackBenchRig(b, 0)
	cli := f.Client(0)
	key := workload.KeyName(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiRackPipelinedGet: one client keeps a window of reads
// outstanding across both racks via GetBatch (ns/op is per Get) — the
// batched injection path riding the trunks.
func BenchmarkMultiRackPipelinedGet(b *testing.B) {
	const window = 32
	f, _, _ := multiRackBenchRig(b, window)
	cli := f.Client(0)
	keys := make([]netproto.Key, window)
	for i := range keys {
		keys[i] = workload.KeyName(100 + i%8) // server-only keys across both racks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += window {
		n := window
		if rest := b.N - done; rest < n {
			n = rest
		}
		_, errs := cli.GetBatch(keys[:n])
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkControllerCycle measures one statistics-drain + cache-update +
// reset cycle on a warm switch.
func BenchmarkControllerCycle(b *testing.B) {
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(256, 64)
	cli := r.Client(0)
	for i := 0; i < 200; i++ {
		cli.Get(KeyName(i % 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Tick()
	}
}

// BenchmarkFailover: the replicated tier's detection-to-recovery profile.
// Each iteration runs the failover chaos scenario (crash the primary
// permanently, fail over, rejoin + resync, crash the promoted node, fail
// back) for the chaos suite's three default seeds and reports the worst
// detection window and recovery latencies.
func BenchmarkFailover(b *testing.B) {
	var detect, failover, failback, hot, postTimeouts uint64
	for i := 0; i < b.N; i++ {
		detect, failover, failback, hot, postTimeouts = 0, 0, 0, 0, 0
		for _, seed := range []uint64{1, 20260806, 0xC0FFEE} {
			rep, err := chaos.RunFailover(seed)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Failed() {
				b.Fatalf("failover seed %d violated invariants: %s", seed, rep.Violations[0])
			}
			detect = max(detect, uint64(rep.DetectTicks))
			failover = max(failover, uint64(rep.FailoverLatency.Microseconds()))
			failback = max(failback, uint64(rep.FailbackLatency.Microseconds()))
			hot += rep.HotReads
			postTimeouts += rep.PostFailoverTimeouts
		}
	}
	b.ReportMetric(float64(detect), "detect_ticks_max")
	b.ReportMetric(float64(failover), "failover_us_max")
	b.ReportMetric(float64(failback), "failback_us_max")
	b.ReportMetric(float64(hot), "hot_reads")
	b.ReportMetric(float64(postTimeouts), "post_failover_timeouts")
}

var _ = harness.Experiments // keep the harness import explicit
