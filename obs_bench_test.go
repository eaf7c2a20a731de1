package netcache

import (
	"testing"
	"time"

	"netcache/internal/dataplane"
	"netcache/internal/rack"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
	"netcache/internal/telemetry"
	"netcache/internal/workload"
)

// BenchmarkObsSnapshot measures the cost of one full observability
// snapshot on a populated rack — the price a monitoring scrape pays.
func BenchmarkObsSnapshot(b *testing.B) {
	r, err := rack.New(rack.Config{Servers: 4, Clients: 2, CacheCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(64, 64)
	if _, err := r.Client(0).Get(workload.KeyName(0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := r.Snapshot()
		if len(snap.Counters) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// obsPipelineBench is BenchmarkPipelineSequential's loop body, shared by
// the trace-off/trace-on pair so their difference is exactly the trace
// hook's cost.
func obsPipelineBench(b *testing.B, r *rack.Rack, frame []byte, inPort int) {
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

// BenchmarkObsTraceOffPipeline is the cache-hit GET pipeline path with
// tracing compiled in but disabled — the acceptance budget is <5% over
// BenchmarkPipelineSequential (which it is byte-for-byte identical to:
// both run with no tap installed).
func BenchmarkObsTraceOffPipeline(b *testing.B) {
	r, frame, inPort := pipelineBenchRig(b, switchcore.Config{})
	obsPipelineBench(b, r, frame, inPort)
}

// BenchmarkObsTraceOnPipeline is the same path with tracing enabled into a
// 4096-record ring — the price of leaving the trace on.
func BenchmarkObsTraceOnPipeline(b *testing.B) {
	r, frame, inPort := pipelineBenchRig(b, switchcore.Config{})
	r.EnableTrace(4096)
	obsPipelineBench(b, r, frame, inPort)
}

// BenchmarkMonitorWindow measures one stats.Monitor poll over a populated
// rack registry — the per-window cost of the rate engine (full counter
// collection, histogram clone+subtract, delta/rate maps).
func BenchmarkMonitorWindow(b *testing.B) {
	r, err := rack.New(rack.Config{Servers: 4, Clients: 2, CacheCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	r.LoadDataset(64, 64)
	if _, err := r.Client(0).Get(workload.KeyName(0)); err != nil {
		b.Fatal(err)
	}
	mon := stats.NewMonitor(stats.MonitorConfig{Registry: r.Registry()})
	mon.Poll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := mon.Poll(); len(w.Rates) == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkTelemetryOffPipeline is the cache-hit GET pipeline path with no
// telemetry plane attached — the baseline for the pair below.
func BenchmarkTelemetryOffPipeline(b *testing.B) {
	r, frame, inPort := pipelineBenchRig(b, switchcore.Config{})
	obsPipelineBench(b, r, frame, inPort)
}

// BenchmarkTelemetryOnPipeline is the same path with the full telemetry
// plane live: a Monitor ticking at 1ms concurrently reads every counter
// the pipeline writes, and the HTTP server is attached (exposition is
// pull-based, so an unscraped endpoint costs nothing on the packet path).
// Acceptance budget: within 5% of the telemetry-off baseline.
func BenchmarkTelemetryOnPipeline(b *testing.B) {
	r, frame, inPort := pipelineBenchRig(b, switchcore.Config{})
	mon := stats.NewMonitor(stats.MonitorConfig{Registry: r.Registry(), Interval: time.Millisecond})
	mon.Start()
	defer mon.Stop()
	telemetry.New(telemetry.Config{Registry: r.Registry(), Monitor: mon})
	obsPipelineBench(b, r, frame, inPort)
}
