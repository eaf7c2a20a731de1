//go:build !race

// Allocation-regression tests for the pooled packet path. testing.AllocsPerRun
// is unreliable under the race detector (its instrumentation allocates), so
// these are compiled out of `go test -race` and run by the plain `go test`
// pass of `make test`.
//
// Every path is pinned at exactly what it measures: 0 allocs/op through the
// pipeline, 1 end to end (the value copy a client Get hands its caller).
// AllocsPerRun truncates its average, so a pool refill or map growth that
// amortizes over the runs does not flake the suite, while one allocation
// added per op — a forgotten ReleaseFrame, a deparser that stops using its
// lease, a client frame built with append instead of the pool, a reply
// channel made per call — trips them immediately. TestAllocsCachedGet keeps
// its older budget of 2; TestAllocsPipeline pins the same path at exactly 0.

package netcache

import (
	"testing"

	"netcache/internal/bufpool"
	"netcache/internal/dataplane"
	"netcache/internal/kvstore"
	"netcache/internal/netproto"
	"netcache/internal/rack"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
	"netcache/internal/telemetry"
	"netcache/internal/workload"
)

// TestAllocsGetAppend: the store's seqlock read path. An optimistic
// GetAppend into a buffer with capacity is pure probe + append — exactly
// zero allocations, no slack: a single alloc/op here means the store fell
// back to copying (or the caller's buffer escaped), which is the regression
// this test exists to catch.
func TestAllocsGetAppend(t *testing.T) {
	t.Run("chained", func(t *testing.T) {
		s := kvstore.New(4)
		key := netproto.KeyFromString("user:1")
		s.Put(key, workload.ValueFor(1, 128))
		dst := make([]byte, 0, netproto.MaxValueSize)
		allocs := testing.AllocsPerRun(1000, func() {
			v, _, ok := s.GetAppend(key, dst[:0])
			if !ok || len(v) != 128 {
				t.Fatalf("GetAppend = %d bytes, %v", len(v), ok)
			}
		})
		if allocs != 0 {
			t.Errorf("GetAppend allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestAllocsServerReplySegment: the store+reply segment of the server's
// handleGet — open the reply headers in a pooled frame, append the value
// straight from the store, seal. This is the whole per-Get work of a
// storage server past packet decode, and it must not allocate.
func TestAllocsServerReplySegment(t *testing.T) {
	t.Run("chained", func(t *testing.T) {
		s := kvstore.New(4)
		key := netproto.KeyFromString("user:1")
		s.Put(key, workload.ValueFor(1, 128))
		frame := bufpool.Get()
		defer bufpool.Put(frame)
		allocs := testing.AllocsPerRun(1000, func() {
			frame = netproto.ReplyInto(frame[:0], 0x8001, 1, netproto.OpGetReply, 7, key)
			var ok bool
			frame, _, ok = s.GetAppend(key, frame)
			if !ok {
				t.Fatal("miss")
			}
			if err := netproto.SealReply(frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("store+reply segment allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestAllocsEncodeDecode: building a frame into a pooled buffer and decoding
// it back must not allocate at all — Decode aliases, AppendFramePacket
// appends in place.
func TestAllocsEncodeDecode(t *testing.T) {
	pkt := netproto.Packet{
		Op: netproto.OpGetReply, Seq: 7,
		Key: netproto.KeyFromString("user:1"), Value: workload.ValueFor(1, 64),
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = netproto.AppendFramePacket(buf[:0], 1, 2, &pkt)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := netproto.DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		var got netproto.Packet
		if err := netproto.Decode(fr.Payload, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encode+decode allocates %.1f/op, want 0", allocs)
	}
}

// pipelineAllocs is the allocations per frame (by default a cache-hit GET)
// through r's switch pipeline in the steady-state calling convention
// (reused emission buffer, emitted frame released to the pool).
func pipelineAllocs(t *testing.T, r *rack.Rack, frame []byte, inPort int) float64 {
	t.Helper()
	out := make([]dataplane.Emitted, 0, 1)
	return testing.AllocsPerRun(1000, func() {
		var err error
		out, err = r.Switch.ProcessAppend(frame, inPort, out[:0])
		if err != nil || len(out) != 1 {
			t.Fatalf("ProcessAppend = %v, %v", out, err)
		}
		dataplane.ReleaseFrame(out[0])
	})
}

// TestAllocsCachedGet: the raw cache-hit GET through the switch pipeline.
// Its budget is ≤2 allocs per cached Get; the pooled path measures 0, which
// TestAllocsPipeline pins exactly.
func TestAllocsCachedGet(t *testing.T) {
	r, frame, inPort := pipelineBenchRig(t, switchcore.Config{})
	if allocs := pipelineAllocs(t, r, frame, inPort); allocs > 2 {
		t.Errorf("cached Get allocates %.1f/op, budget is 2", allocs)
	}
}

// TestAllocsPipeline: the cache-hit GET pipeline allocates nothing, exactly,
// with no slack, so one allocation added anywhere on the path fails the
// case that runs it.
//   - trace-off: BenchmarkPipelineSequential / BenchmarkObsTraceOffPipeline;
//   - trace-on: BenchmarkObsTraceOnPipeline, the trace hook recording into
//     a ring on every stage;
//   - telemetry-on: a Monitor and an HTTP server attached to the rack's
//     registry. Both only read counters off the packet path, so the path
//     is trace-off's; the case pins that attaching them adds nothing to
//     it. It does not reproduce BenchmarkTelemetryOnPipeline's 1ms
//     monitor: AllocsPerRun counts every goroutine's allocations, so the
//     Monitor keeps its default 1s interval and practically never polls;
//   - interpreter: the DisableFastPath twin of BenchmarkFastPathCachedGet,
//     the cached Get through the table interpreter.
//
// The interpreter passes that are not cached Gets are pinned at 0 too:
//   - miss: a Get of an uncached key, forwarded to its server;
//   - forward-reply: the server's GetReply to a client, entering on the
//     server's port and routed on by address.
func TestAllocsPipeline(t *testing.T) {
	interp := switchcore.TestConfig()
	interp.DisableFastPath = true
	none := func(*testing.T, *rack.Rack) {}
	for _, tc := range []struct {
		name  string
		sw    switchcore.Config
		setup func(t *testing.T, r *rack.Rack)
		// frame, when set, replaces the rig's cached Get.
		frame func(t *testing.T, r *rack.Rack) ([]byte, int)
	}{
		{"trace-off", switchcore.Config{}, none, nil},
		{"trace-on", switchcore.Config{}, func(_ *testing.T, r *rack.Rack) { r.EnableTrace(4096) }, nil},
		{"telemetry-on", switchcore.Config{}, func(t *testing.T, r *rack.Rack) {
			mon := stats.NewMonitor(stats.MonitorConfig{Registry: r.Registry()})
			mon.Start()
			t.Cleanup(mon.Stop)
			telemetry.New(telemetry.Config{Registry: r.Registry(), Monitor: mon})
		}, nil},
		{"interpreter", interp, none, nil},
		{"miss", switchcore.Config{}, none, func(t *testing.T, r *rack.Rack) ([]byte, int) {
			key := workload.KeyName(100) // never cached
			return allocFrame(t, r.Partition(key), rack.ClientAddr(0),
				netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key}), 4
		}},
		{"forward-reply", switchcore.Config{}, none, func(t *testing.T, r *rack.Rack) ([]byte, int) {
			return allocFrame(t, rack.ClientAddr(0), rack.ServerAddr(1), netproto.Packet{
				Op: netproto.OpGetReply, Seq: 1, Key: workload.KeyName(100), Value: workload.ValueFor(100, 128),
			}), r.ServerPort(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, frame, inPort := pipelineBenchRig(t, tc.sw)
			tc.setup(t, r)
			if tc.frame != nil {
				frame, inPort = tc.frame(t, r)
			}
			if allocs := pipelineAllocs(t, r, frame, inPort); allocs != 0 {
				t.Errorf("%s allocates %.1f/op, want 0", tc.name, allocs)
			}
		})
	}
}

func allocFrame(t *testing.T, dst, src netproto.Addr, pkt netproto.Packet) []byte {
	t.Helper()
	payload, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return netproto.MarshalFrame(dst, src, payload)
}

// clientGetAllocs is the allocations per blocking Get of key by the rack's
// first client, end to end: client, simnet, switch and, on a cache miss,
// the storage server, and back.
func clientGetAllocs(t *testing.T, r *Rack, key Key) float64 {
	t.Helper()
	cli := r.Client(0)
	return testing.AllocsPerRun(500, func() {
		if _, err := cli.Get(key); err != nil {
			t.Fatal(err)
		}
	})
}

// allocRack is a four-server rack with a 128-key dataset of 128 B values.
func allocRack(t *testing.T) *Rack {
	t.Helper()
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	r.LoadDataset(128, 128)
	return r
}

// TestAllocsServerGet: the full end-to-end miss path. The pooled call with
// its reply slot, the pooled request and reply frames and the fabric's
// allocation-free fault passthrough leave one allocation per query: the
// value copy Get hands its caller.
func TestAllocsServerGet(t *testing.T) {
	r := allocRack(t)
	if allocs := clientGetAllocs(t, r, KeyName(100)); allocs != 1 { // never cached
		t.Errorf("server Get allocates %.1f/op, want 1", allocs)
	}
}

// TestAllocsClientCachedGet: the end-to-end cached Get — client, simnet,
// the switch's fast path and back, no server. Its one allocation is the
// value copy too.
func TestAllocsClientCachedGet(t *testing.T) {
	r := allocRack(t)
	if err := r.PrePopulateTopK(8); err != nil {
		t.Fatal(err)
	}
	key := KeyName(0)
	if !r.Cached(key) {
		t.Fatal("key 0 not cached after PrePopulateTopK")
	}
	served := r.Stats().ServerGets
	if allocs := clientGetAllocs(t, r, key); allocs != 1 {
		t.Errorf("cached client Get allocates %.1f/op, want 1", allocs)
	}
	if n := r.Stats().ServerGets - served; n != 0 {
		t.Errorf("%d cached Gets reached a server", n)
	}
}
