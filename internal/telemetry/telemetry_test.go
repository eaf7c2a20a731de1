package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/stats"
)

type benchMetrics struct {
	Gets    stats.Counter
	Ratio   float64
	Latency *stats.Histogram
}

func newTestServer(t *testing.T) (*Server, *benchMetrics, *stats.Registry) {
	t.Helper()
	m := &benchMetrics{Latency: stats.NewLatencyHistogram(), Ratio: 0.25}
	reg := stats.NewRegistry()
	reg.Register("server0", func() any { return m })
	return New(Config{Registry: reg}), m, reg
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestMetricsExposition(t *testing.T) {
	s, m, reg := newTestServer(t)
	m.Gets.Add(42)
	m.Latency.Observe(1000)
	m.Latency.Observe(3000)

	code, body := get(t, s.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", code)
	}
	for _, want := range []string{
		"# TYPE netcache_server0_gets counter",
		"netcache_server0_gets 42",
		"# TYPE netcache_server0_ratio gauge",
		"netcache_server0_ratio 0.25",
		"# TYPE netcache_server0_latency summary",
		`netcache_server0_latency{quantile="0.99"}`,
		"netcache_server0_latency_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics page missing %q:\n%s", want, body)
		}
	}

	// With a monitor attached, the latest window's rates surface as gauges.
	mon := stats.NewMonitor(stats.MonitorConfig{Registry: reg})
	mon.Poll()
	s.SetMonitor(mon)
	m.Gets.Add(8)
	mon.Poll()
	_, body = get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "# TYPE netcache_rate_server0_gets gauge") {
		t.Errorf("metrics page missing windowed rate gauge:\n%s", body)
	}
}

func TestSnapshotJSON(t *testing.T) {
	s, m, reg := newTestServer(t)
	m.Gets.Add(7)
	mon := stats.NewMonitor(stats.MonitorConfig{Registry: reg})
	mon.Poll()
	m.Gets.Add(3)
	mon.Poll()
	s.SetMonitor(mon)

	code, body := get(t, s.Handler(), "/snapshot")
	if code != http.StatusOK {
		t.Fatalf("GET /snapshot = %d, want 200", code)
	}
	var payload struct {
		Snapshot stats.Snapshot `json:"snapshot"`
		Windows  []stats.Window `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, body)
	}
	if got := payload.Snapshot.Counters["server0.gets"]; got != 10 {
		t.Errorf("snapshot counter = %d, want 10", got)
	}
	if len(payload.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(payload.Windows))
	}
	if got := payload.Windows[1].Deltas["server0.gets"]; got != 3 {
		t.Errorf("last window delta = %d, want 3", got)
	}

	// ?windows=N trims to the newest N.
	_, body = get(t, s.Handler(), "/snapshot?windows=1")
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Windows) != 1 || payload.Windows[0].Deltas["server0.gets"] != 3 {
		t.Errorf("?windows=1 = %+v, want just the newest window", payload.Windows)
	}
}

func TestTraceTail(t *testing.T) {
	s, _, _ := newTestServer(t)
	ring := qtrace.NewRing(8)
	tap := ring.Tap("client0")
	for i := 0; i < 5; i++ {
		tap.Record(qtrace.ClientSend, netproto.OpGet, uint64(i), netproto.Key{}, false)
	}
	s.SetTrace(ring)

	code, body := get(t, s.Handler(), "/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d, want 200", code)
	}
	if !strings.Contains(body, "5 records shown, 5 traced total") {
		t.Errorf("trace header wrong:\n%s", body)
	}
	if got := strings.Count(body, "client0"); got != 5 {
		t.Errorf("trace shows %d records, want 5:\n%s", got, body)
	}
	_, body = get(t, s.Handler(), "/trace?n=2")
	if got := strings.Count(body, "client0"); got != 2 {
		t.Errorf("?n=2 shows %d records, want 2", got)
	}
}

func TestDetachedSourcesReturn503(t *testing.T) {
	s := New(Config{})
	for _, path := range []string{"/metrics", "/snapshot", "/trace"} {
		if code, _ := get(t, s.Handler(), path); code != http.StatusServiceUnavailable {
			t.Errorf("GET %s without sources = %d, want 503", path, code)
		}
	}
}

func TestRegistrySwap(t *testing.T) {
	s, m, _ := newTestServer(t)
	m.Gets.Add(1)
	other := stats.NewRegistry()
	o := &benchMetrics{}
	o.Gets.Add(99)
	other.Register("server1", func() any { return o })
	s.SetRegistry(other)
	_, body := get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "netcache_server1_gets 99") || strings.Contains(body, "server0") {
		t.Errorf("swap did not retarget the scrape:\n%s", body)
	}
}

func TestPprofIndex(t *testing.T) {
	s := New(Config{})
	if code, body := get(t, s.Handler(), "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("GET /debug/pprof/ = %d, want a profile index", code)
	}
}

func TestIndexPage(t *testing.T) {
	s := New(Config{})
	if code, body := get(t, s.Handler(), "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("GET / = %d, want index listing endpoints", code)
	}
	if code, _ := get(t, s.Handler(), "/nope"); code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", code)
	}
}

func TestStartServesRealSocket(t *testing.T) {
	s, m, _ := newTestServer(t)
	m.Gets.Add(5)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "netcache_server0_gets 5") {
		t.Errorf("live socket scrape missing counter:\n%s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"server0.gets":           "netcache_server0_gets",
		"balance.shares.0":       "netcache_balance_shares_0",
		"weird-name/with:stuff":  "netcache_weird_name_with_stuff",
		"tor0.server1.store.len": "netcache_tor0_server1_store_len",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
