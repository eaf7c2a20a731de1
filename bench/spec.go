package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Common shape of every workload (ISSUE 11): the dataset, the switch cache
// and the sim controller cadence are the same everywhere so that the rows of
// the result table differ only in what the workload name says.
const (
	datasetKeys   = 100_000
	valueSize     = 128
	cacheCapacity = 1024
	// simTickEvery is the inline controller cadence on simnet: one
	// Rack.Tick per this many ops, on the generator goroutine, so a sim run
	// has no timers and its counters repeat for a seed.
	simTickEvery = 20_000
	// simWarmupOps fills the cache organically before the measured window.
	simWarmupOps = 1_000_000
	// numSlices cuts every measured window; throughput and latency are
	// reported as the median over the slices.
	numSlices = 10
	// latencyEvery: every n-th blocking op is timed on closed-loop runs.
	latencyEvery = 8
)

// workloadSpec is one named traffic mix on one deployment.
type workloadSpec struct {
	name string
	why  string

	udp       bool // UDP loopback daemons instead of the simnet rack
	servers   int
	replicate bool

	theta      float64 // Zipf skew; 0 draws keys uniformly
	writeRatio float64
	window     int     // >1 issues reads through GetBatch with this width
	rateKops   float64 // >0 makes the loop open: fixed arrival schedule
	ops        int     // measured ops at -scale 1 when -seconds is unset
}

var workloads = []workloadSpec{
	{
		name: "sim.zipf99_read", servers: 4, theta: 0.99, window: 1, ops: 6_000_000,
		why: "paper headline: skewed reads, most end in the switch fast path; exercises switchcore hit path and client",
	},
	{
		name: "sim.uniform_read", servers: 4, theta: 0, window: 1, ops: 6_000_000,
		why: "bypasses the cache: every Get takes the switch miss path, two more simnet hops, server and kvstore",
	},
	{
		name: "sim.zipf99_write20_repl", servers: 4, replicate: true, theta: 0.99, writeRatio: 0.2, window: 1, ops: 4_000_000,
		why: "20% Puts on hot keys with replication: switch invalidate/update coherence, replicate-before-ack, controller churn",
	},
	{
		name: "udp.zipf99_win32", udp: true, servers: 2, theta: 0.99, window: 32, ops: 2_400_000,
		why: "UDP loopback daemons, closed loop with 32 Gets in flight: udptrans syscalls per datagram dominate",
	},
	{
		name: "udp.zipf99_open20k", udp: true, servers: 2, theta: 0.99, window: 1, rateKops: 20, ops: 300_000,
		why: "UDP loopback, open loop at 20 kops/s timed from intended send: guards low-rate latency against burst batching",
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the rack sees; every workload reports all of
// them from its untraced run. BENCHMARK.json carries the bounds. A gated
// metric has to exist, never be 0, and repeat within its bound on every
// workload; get_p99_us, put_p50_us and fail_ratio do not (see README.md) and
// are reported in the run's info block, the first two also per layer.
var endToEnd = []metricDef{
	{Name: "throughput_kops", Unit: "kops/s", Better: "higher"},
	{Name: "get_p50_us", Unit: "us", Better: "lower"},
	{Name: "server_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer is the budget: one block per package, from the traced run, the
// untraced reference window beside it, and the isolated layer calls.
var perLayer = []metricDef{
	{Name: "client.self_ns", Unit: "ns", Better: "lower"},
	{Name: "client.get_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.retransmits", Unit: "count", Better: "lower"},
	{Name: "client.timeouts", Unit: "count", Better: "lower"},
	{Name: "client.unmatched", Unit: "count", Better: "lower"},
	{Name: "netproto.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "netproto.verify_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "netproto.reply_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "switchcore.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "switchcore.miss_ns", Unit: "ns", Better: "lower"},
	{Name: "switchcore.reply_ns", Unit: "ns", Better: "lower"},
	{Name: "switchcore.write_ns", Unit: "ns", Better: "lower"},
	{Name: "switchcore.par2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "switchcore.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.get_ns", Unit: "ns", Better: "lower"},
	{Name: "server.put_ns", Unit: "ns", Better: "lower"},
	{Name: "server.repl_put_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.getappend_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.put_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.read_retries", Unit: "count", Better: "lower"},
	{Name: "controller.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.inserts", Unit: "count", Better: "lower"},
	{Name: "controller.evictions", Unit: "count", Better: "lower"},
	{Name: "udptrans.rtt_hit_us", Unit: "us", Better: "lower"},
	{Name: "udptrans.leg_us", Unit: "us", Better: "lower"},
	{Name: "udptrans.frames_per_datagram", Unit: "ratio", Better: "higher"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.budget_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.unattributed_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "higher"},
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
