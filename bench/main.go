// Command bench is the rack's end-to-end benchmark: five named workloads
// over the simnet rack and the UDP-loopback daemons, each driven by one
// generator goroutine through one client connection with every reply
// checked, plus a per-layer budget from isolated calls and a traced run.
//
//	bash bench/run.sh                                   # all workloads, measured + traced
//	bash bench/run.sh --workload sim.zipf99_read --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh compare A.jsonl B.jsonl
//
// See README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"strings"
	"time"
)

type options struct {
	seed    int64
	seconds int
	scale   float64
	trace   string // "0" measured only, "1" traced only, "" both
	spans   string
	builds  int // deployments built for setup_s; the last one is measured

	layers map[string]float64 // isolated layer calls, timed once per process
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output of a run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run of one workload measured.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    int            `json:"trace"`
	Host     map[string]any `json:"host"`
	contractLine
	Fails map[string]int        `json:"fails"`
	Info  map[string]any        `json:"info"`
	Paths map[string]pathReport `json:"paths,omitempty"`
}

func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"network":    "in-process simnet for sim.*; UDP over the host loopback interface for udp.* (no real link)",
	}
}

type workloadList []string

func (w *workloadList) String() string     { return strings.Join(*w, ",") }
func (w *workloadList) Set(s string) error { *w = append(*w, s); return nil }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var names workloadList
	var o options
	var out string
	flag.Var(&names, "workload", "workload to run (repeatable; default all)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 0, "measure for this many seconds instead of the workload's op count")
	flag.Float64Var(&o.scale, "scale", 1, "scale op counts and warm-up")
	flag.StringVar(&o.trace, "trace", "", "0: measured run only; 1: traced run and layer table only; unset: both")
	flag.StringVar(&out, "out", "", "append one JSON line per run to this file")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's last spans to this file")
	flag.Parse()
	if flag.NArg() > 0 || o.scale <= 0 || o.seconds < 0 || (o.trace != "" && o.trace != "0" && o.trace != "1") {
		flag.Usage()
		os.Exit(2)
	}
	// setup_s is the median of five builds; the traced run reports none.
	o.builds = 5
	if o.trace == "1" {
		o.builds = 1
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	bad := false
	for _, name := range names {
		spec, err := findWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		reports, err := runWorkload(spec, &o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, r := range reports {
			if err := emit(r, out); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			bad = bad || !r.Correct
		}
	}
	if bad {
		fmt.Fprintln(os.Stderr, "bench: the oracle saw a wrong or stale value")
		os.Exit(1)
	}
}

// emit prints the full report, then the contract line, and appends the
// report to the -out file.
func emit(r report, out string) error {
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	line, err := json.Marshal(r.contractLine)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, line)
	if out == "" {
		return nil
	}
	f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	compact, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(compact, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runWorkload builds the deployment, warms it up and measures: the untraced
// window for the end-to-end metrics, then (unless -trace 0) the traced run
// and the layer table for the per-layer ones.
func runWorkload(spec *workloadSpec, o *options) ([]report, error) {
	var d *deployment
	var setups []float64
	for i := 0; i < o.builds; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = deploy(spec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()

	g, err := newGenerator(spec, o.seed)
	if err != nil {
		return nil, err
	}
	l := newLoop(d, g, nil)
	warmStart := time.Now()
	l.warmUp(int(simWarmupOps*o.scale), time.Duration(15*o.scale*float64(time.Second)))
	warm := map[string]any{"warmup_s": time.Since(warmStart).Seconds(), "cache_items_at_start": d.cacheLen()}

	full := window{ops: int(float64(spec.ops) * o.scale), dur: time.Duration(o.seconds) * time.Second}
	w := full
	if o.trace == "1" {
		w = full.scaled(0.5)
	}
	ref := l.run(w)

	base := report{Workload: spec.name, Seed: o.seed, Host: hostFacts()}
	var reports []report
	if o.trace != "1" {
		r := base
		r.fill(g, endToEndMetrics(ref, median(setups)))
		r.Info = measuredInfo(ref, setups)
		maps.Copy(r.Info, warm)
		reports = append(reports, r)
	}
	if o.trace == "0" {
		return reports, nil
	}

	// Traced run: blocking ops one at a time on every workload, over a
	// quarter of the window. Through the same wrappers it alternates short
	// stretches with the tracer off and on, so the two op times it compares
	// come from the same minute of the same rack in the same issue mode.
	const pairs = 10
	tw := full.scaled(0.25 / (2 * pairs))
	tr := newTracer(spec.udp)
	tl := newLoop(d, g, tr)
	tl.setMode(1, 0)
	if spec.udp {
		d.tr.Store(tr)
	} else if tl.cl, err = tr.attachSim(d.rack); err != nil {
		return nil, err
	}
	var seq, traced runStats
	for i := 0; i < pairs; i++ {
		tr.on.Store(false)
		seq.add(tl.run(tw))
		tr.on.Store(true)
		traced.add(tl.run(tw))
	}
	d.tr.Store(nil)
	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	if o.layers == nil {
		if o.layers, err = layerCalls(); err != nil {
			return nil, err
		}
	}
	paths, selfSum := tr.report()
	r := base
	r.Trace = 1
	r.Paths = paths
	r.fill(g, perLayerMetrics(o.layers, ref, seq, traced, tr, selfSum))
	r.Info = map[string]any{
		"trace_cost_in_ns":  tr.costIn,
		"trace_cost_out_ns": tr.costOut,
		"traced_ops":        traced.ops,
		"untraced_op_ns":    meanOpNs(seq),
		"traced_op_ns":      meanOpNs(traced),
		"layer_calls":       "isolated, hot in cache: a floor for the same call inside a workload",
	}
	return append(reports, r), nil
}

// fill sets the contract fields from the oracle and the metric values.
func (r *report) fill(g *generator, metrics map[string]metricValue) {
	r.Fails = map[string]int{}
	for c, n := range g.fails {
		r.Attempted += n
		if failClass(c) != ok {
			r.Fails[failNames[c]] = n
		}
	}
	r.Failed = g.failed()
	r.Correct = g.fails[failWrongValue] == 0 && g.fails[failStale] == 0
	r.Metrics = metrics
}

func meanOpNs(rs runStats) float64 {
	if rs.ops == 0 {
		return 0
	}
	return float64(rs.wall) / float64(rs.ops)
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

func endToEndMetrics(rs runStats, setup float64) map[string]metricValue {
	return withUnits(endToEnd, map[string]float64{
		"throughput_kops":  median(perSlice(rs, sliceStat.kops)),
		"get_p50_us":       median(perSlice(rs, func(s sliceStat) float64 { return s.get.p50 })),
		"server_imbalance": rs.delta.imbalance(),
		"setup_s":          setup,
	})
}

// measuredInfo is the ungated block beside the end-to-end metrics: spreads,
// sample counts, and the figures that exist on some workloads only.
func measuredInfo(rs runStats, setups []float64) map[string]any {
	kops := perSlice(rs, sliceStat.kops)
	samples := func(f func(sliceStat) int) int {
		n := 0
		for _, s := range rs.slices {
			n += f(s)
		}
		return n
	}
	var stolen time.Duration
	disturbed := 0
	for _, s := range rs.slices {
		stolen += s.stolen
		if s.disturbed() {
			disturbed++
		}
	}
	info := map[string]any{
		"host_steal_ms":         stolen.Milliseconds(),
		"disturbed_slices":      disturbed,
		"ops":                   rs.ops,
		"wall_s":                rs.wall.Seconds(),
		"slices":                len(rs.slices),
		"throughput_kops_iqr":   iqr(kops),
		"throughput_kops_slice": kops,
		"get_latency_samples":   samples(func(s sliceStat) int { return s.get.n }),
		"get_p99_us":            median(perSlice(rs, func(s sliceStat) float64 { return s.get.p99 })),
		"get_p99_us_slice":      perSlice(rs, func(s sliceStat) float64 { return s.get.p99 }),
		"get_p90_us":            median(perSlice(rs, func(s sliceStat) float64 { return s.get.p90 })),
		"fail_ratio":            float64(rs.failed) / float64(max(rs.ops, 1)),
		"setup_s_builds":        setups,
		"server_ops":            rs.delta.serverOps,
		"cache_hits":            rs.delta.hits,
		"hit_ratio":             float64(rs.delta.hits) / float64(max(rs.gets, 1)),
	}
	if n := samples(func(s sliceStat) int { return s.put.n }); n > 0 {
		// Ungated: four of the five workloads issue no Put, and a gated
		// metric must exist, and never be 0, on every workload.
		info["put_p50_us"] = median(perSlice(rs, func(s sliceStat) float64 { return s.put.p50 }))
		info["put_p99_us"] = median(perSlice(rs, func(s sliceStat) float64 { return s.put.p99 }))
		info["put_latency_samples"] = n
	}
	if n := samples(func(s sliceStat) int { return s.late.n }); n > 0 {
		info["generator_late_p50_us"] = median(perSlice(rs, func(s sliceStat) float64 { return s.late.p50 }))
		info["generator_late_p99_us"] = median(perSlice(rs, func(s sliceStat) float64 { return s.late.p99 }))
	}
	return info
}

func perLayerMetrics(layers map[string]float64, ref, seq, traced runStats, tr *tracer, selfSum float64) map[string]metricValue {
	v := make(map[string]float64, len(perLayer))
	for k, x := range layers {
		v[k] = x
	}
	d := ref.delta
	v["client.get_p99_us"] = median(perSlice(ref, func(s sliceStat) float64 { return s.get.p99 }))
	v["client.put_p50_us"] = median(perSlice(ref, func(s sliceStat) float64 { return s.put.p50 }))
	v["client.retransmits"] = float64(d.retransmits)
	v["client.timeouts"] = float64(d.timeouts)
	v["client.unmatched"] = float64(d.unmatched)
	v["switchcore.hit_ratio"] = float64(d.hits) / float64(max(ref.gets, 1))
	v["kvstore.read_retries"] = float64(d.readRetries)
	if d.ticks > 0 {
		v["controller.tick_ms"] = float64(d.tickNs) / float64(d.ticks) / 1e6
	}
	v["controller.inserts"] = float64(d.inserts)
	v["controller.evictions"] = float64(d.evictions)
	v["udptrans.rtt_hit_us"] = median(tr.rttHit) / 1e3
	v["udptrans.leg_us"] = median(tr.leg) / 1e3
	v["udptrans.frames_per_datagram"] = ref.frames
	ops := float64(max(ref.ops, 1))
	v["proc.cpu_us_per_op"] = float64(ref.cpu.Microseconds()) / ops
	v["proc.allocs_per_op"] = float64(ref.mallocs) / ops
	v["proc.rss_mb"] = ref.rssMB
	if untraced := meanOpNs(seq); untraced > 0 && traced.ops > 0 {
		v["trace.budget_coverage"] = selfSum / untraced
		v["trace.unattributed_ns"] = untraced - selfSum
		v["trace.overhead"] = untraced / meanOpNs(traced)
	}
	return withUnits(perLayer, v)
}
