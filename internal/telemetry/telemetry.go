// Package telemetry is the HTTP exposition side of the observability
// plane: it serves the stats.Registry's live snapshot in Prometheus text
// format (/metrics), the raw snapshot plus the stats.Monitor's windowed
// rate ring as JSON (/snapshot), the qtrace ring tail (/trace), and the
// standard pprof profiles (/debug/pprof/) from one listener.
//
// The server holds its sources behind atomic pointers so a harness can
// swap the scrape target between benchmark rows (each balance row builds
// a fresh rack) without restarting the listener, and a daemon can
// attach sources after the listener is already up.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"netcache/internal/qtrace"
	"netcache/internal/stats"
)

// Config names the sources a new Server scrapes. Every field is optional
// and swappable later via the Set* methods.
type Config struct {
	// Registry backs /metrics and the snapshot half of /snapshot.
	Registry *stats.Registry
	// Monitor backs the windows half of /snapshot; when set, /metrics also
	// exports the latest window's rates as netcache_rate_* gauges.
	Monitor *stats.Monitor
	// Trace backs /trace.
	Trace *qtrace.Ring
}

// Server is one telemetry endpoint: an http.Handler plus an optional
// owned listener started with Start.
type Server struct {
	registry atomic.Pointer[stats.Registry]
	monitor  atomic.Pointer[stats.Monitor]
	trace    atomic.Pointer[qtrace.Ring]

	mux *http.ServeMux
	srv *http.Server
	lis net.Listener
}

// New builds a Server scraping cfg's sources. It does not listen; use
// Start for a real socket or Handler with httptest.
func New(cfg Config) *Server {
	s := &Server{mux: http.NewServeMux()}
	s.SetRegistry(cfg.Registry)
	s.SetMonitor(cfg.Monitor)
	s.SetTrace(cfg.Trace)

	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/trace", s.handleTrace)
	// pprof is wired explicitly — the package's init only registers on
	// http.DefaultServeMux, which this server deliberately does not use.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// SetRegistry swaps the scraped registry; nil detaches it.
func (s *Server) SetRegistry(r *stats.Registry) { s.registry.Store(r) }

// SetMonitor swaps the windowed-rate source; nil detaches it.
func (s *Server) SetMonitor(m *stats.Monitor) { s.monitor.Store(m) }

// SetTrace swaps the query-trace ring; nil detaches it.
func (s *Server) SetTrace(r *qtrace.Ring) { s.trace.Store(r) }

// Handler returns the root handler — the hook for httptest servers and
// for embedding into an existing mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine until Close. Returns the bound address, so ":0" callers can
// print the real port.
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(lis) //nolint:errcheck // Serve always returns on Close
	return lis.Addr(), nil
}

// Close stops the listener started by Start. No-op for handler-only use.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><body><h1>netcache telemetry</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/snapshot">/snapshot</a> — JSON snapshot + monitor windows</li>
<li><a href="/trace">/trace</a> — query trace tail (?n=100)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>
</ul></body></html>
`)
}

// promName maps a registry metric name ("client0.get_latency",
// "balance.imbalance_ratio") to a Prometheus-legal name: dots and any
// other illegal runes become underscores, under a netcache_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("netcache_") + len(name))
	b.WriteString("netcache_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.registry.Load()
	if reg == nil {
		http.Error(w, "no registry attached", http.StatusServiceUnavailable)
		return
	}
	snap := reg.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	for _, name := range snap.Keys() {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name])
	}
	for _, name := range snap.GaugeKeys() {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, formatFloat(snap.Gauges[name]))
	}
	// Histograms surface as Prometheus summaries: the registry keeps
	// precomputed quantiles, not cumulative buckets.
	for _, name := range snap.HistKeys() {
		h := snap.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s summary\n", pn)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", pn, formatFloat(h.P50))
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", pn, formatFloat(h.P99))
		fmt.Fprintf(w, "%s_sum %s\n", pn, formatFloat(h.Mean*float64(h.Count)))
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
	// The monitor's latest window contributes per-counter rates, the
	// number a dashboard wants without running PromQL.
	if mon := s.monitor.Load(); mon != nil {
		if last, ok := mon.Last(); ok {
			names := make([]string, 0, len(last.Rates))
			for n := range last.Rates {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, name := range names {
				pn := promName("rate." + name)
				fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, formatFloat(last.Rates[name]))
			}
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshotPayload is the /snapshot response body.
type snapshotPayload struct {
	Snapshot stats.Snapshot `json:"snapshot"`
	// Windows is the monitor's ring, oldest first; absent without a
	// monitor attached.
	Windows []stats.Window `json:"windows,omitempty"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	reg := s.registry.Load()
	if reg == nil {
		http.Error(w, "no registry attached", http.StatusServiceUnavailable)
		return
	}
	payload := snapshotPayload{Snapshot: reg.Snapshot()}
	if mon := s.monitor.Load(); mon != nil {
		payload.Windows = mon.Windows()
		if n, err := strconv.Atoi(r.URL.Query().Get("windows")); err == nil && n >= 0 && n < len(payload.Windows) {
			payload.Windows = payload.Windows[len(payload.Windows)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload) //nolint:errcheck // client gone mid-write is fine
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ring := s.trace.Load()
	if ring == nil {
		http.Error(w, "no trace ring attached", http.StatusServiceUnavailable)
		return
	}
	recs := ring.Records()
	if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(recs) {
		recs = recs[len(recs)-n:]
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "# %d records shown, %d traced total\n", len(recs), ring.Total())
	for _, rec := range recs {
		fmt.Fprintln(w, rec.String())
	}
}
