package stats

import (
	"sync"
	"time"
)

// Window is one monitoring interval's view of a Registry: per-counter
// deltas and rates over the interval, gauge levels at the window's close,
// and interval histogram summaries (the distribution of only the
// observations recorded inside the window, via Histogram.Sub).
type Window struct {
	// Seq numbers windows from 1 in polling order.
	Seq   uint64    `json:"seq"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Deltas holds each counter's increase over the window. A counter that
	// went backwards (its component was reset or replaced mid-window)
	// clamps to 0 for that window. Counters absent from the previous poll
	// (a component that just came up) report their full current value.
	Deltas map[string]uint64 `json:"deltas"`
	// Rates is Deltas divided by the window length, per second.
	Rates map[string]float64 `json:"rates"`
	// Gauges are the levels at the window's close (no delta: gauges are
	// instantaneous readings, not accumulations).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Hists summarizes only the observations recorded inside the window —
	// interval p50/p99, not lifetime. Max is the lifetime max (the bucket
	// layout does not timestamp its maximum; see Histogram.Sub).
	Hists map[string]HistStat `json:"hists,omitempty"`
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// MonitorConfig sizes a Monitor.
type MonitorConfig struct {
	// Registry is the metric source set to watch. Required.
	Registry *Registry
	// Interval is the polling period for Start (zero: 1s, the paper's
	// controller cadence). Poll ignores it.
	Interval time.Duration
	// Windows bounds the in-memory ring of recent windows (zero: 120 — two
	// minutes of history at the default interval).
	Windows int
}

// Monitor periodically snapshots a Registry and turns the cumulative
// counters into a bounded in-memory time series of windowed deltas and
// rates (ops/s), plus interval histogram distributions. Drive it either
// with Start/Stop (wall-clock ticker) or by calling Poll directly (tests,
// harness rows that want a window per phase). Safe for concurrent use.
type Monitor struct {
	reg      *Registry
	interval time.Duration

	mu   sync.Mutex
	prev Collection
	// prevAt is the previous poll time; zero before the first poll.
	prevAt time.Time
	seq    uint64
	ring   []Window
	next   int

	stopOnce sync.Once
	stopped  chan struct{}
	// done is closed when the ticker goroutine exits; nil before Start.
	done    chan struct{}
	running bool
}

// NewMonitor returns a monitor over cfg.Registry. The first Poll (or the
// first tick after Start) establishes the baseline: its window spans from
// the monitor's creation and its deltas are the counters' absolute values.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Registry == nil {
		panic("stats: monitor needs a registry")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 120
	}
	return &Monitor{
		reg:      cfg.Registry,
		interval: cfg.Interval,
		prevAt:   time.Now(),
		ring:     make([]Window, 0, cfg.Windows),
		stopped:  make(chan struct{}),
	}
}

// Poll closes the current window now: one registry collection, one Window
// appended to the ring (evicting the oldest when full). Returns the new
// window. Callers mixing Poll with Start get interleaved windows — the
// deltas still add up, each observation lands in exactly one window.
func (m *Monitor) Poll() Window {
	now := time.Now()
	cur := m.reg.Collect()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	w := Window{
		Seq:    m.seq,
		Start:  m.prevAt,
		End:    now,
		Deltas: make(map[string]uint64, len(cur.Counters)),
		Rates:  make(map[string]float64, len(cur.Counters)),
		Gauges: cur.Gauges,
		Hists:  make(map[string]HistStat, len(cur.Histograms)),
	}
	secs := now.Sub(m.prevAt).Seconds()
	for name, v := range cur.Counters {
		d := v
		if prev, ok := m.prev.Counters[name]; ok {
			if v >= prev {
				d = v - prev
			} else {
				d = 0 // component reset mid-window
			}
		}
		w.Deltas[name] = d
		if secs > 0 {
			w.Rates[name] = float64(d) / secs
		}
	}
	for name, h := range cur.Histograms {
		w.Hists[name] = summarize(h.Sub(m.prev.Histograms[name]))
	}
	m.prev = cur
	m.prevAt = now

	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, w)
	} else {
		m.ring[m.next] = w
	}
	m.next = (m.next + 1) % cap(m.ring)
	return w
}

// Start launches the polling goroutine on the configured interval. Calling
// Start twice is a no-op; Stop halts it.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	m.done = make(chan struct{})
	m.mu.Unlock()
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// A tick and the stop can be ready together; never poll
				// once stopped, so Stop's return is a hard cutoff.
				select {
				case <-m.stopped:
					return
				default:
				}
				m.Poll()
			case <-m.stopped:
				return
			}
		}
	}()
}

// Stop halts the polling goroutine started by Start and waits for it to
// exit — no window lands after Stop returns. Safe to call multiple times,
// and with no Start at all; the Monitor remains usable via Poll (the
// ticker cannot be restarted).
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stopped) })
	m.mu.Lock()
	done := m.done
	m.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Windows returns the retained windows, oldest first.
func (m *Monitor) Windows() []Window {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ring) < cap(m.ring) {
		return append([]Window(nil), m.ring...)
	}
	out := make([]Window, 0, len(m.ring))
	out = append(out, m.ring[m.next:]...)
	return append(out, m.ring[:m.next]...)
}

// Last returns the most recent window, if any.
func (m *Monitor) Last() (Window, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ring) == 0 {
		return Window{}, false
	}
	i := m.next - 1
	if i < 0 {
		i = len(m.ring) - 1
	}
	return m.ring[i], true
}
