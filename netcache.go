// Package netcache is a Go implementation of NetCache (Jin et al., SOSP
// 2017): a rack-scale key-value store architecture in which the top-of-rack
// programmable switch serves the hottest items directly from its data plane,
// balancing the load across the storage servers under arbitrarily skewed and
// rapidly-changing workloads.
//
// The package assembles the full system described in the paper:
//
//   - a programmable switch ASIC model (pipes, stages, match-action tables,
//     register arrays) on which the NetCache P4 program is compiled and run
//     packet by packet;
//   - the variable-length on-chip key-value store with bitmap+index slot
//     addressing and First-Fit memory management;
//   - the query-statistics engine: sampled per-key counters, a Count-Min
//     sketch heavy-hitter detector, and a Bloom filter report deduplicator;
//   - the controller that inserts and evicts cached items;
//   - storage-server agents with write-through cache coherence; and
//   - a client library with the familiar Get/Put/Delete interface.
//
// # Quick start
//
//	r, err := netcache.New(netcache.Config{Servers: 8, Clients: 1})
//	if err != nil { ... }
//	cli := r.Client(0)
//	cli.Put(netcache.KeyFromString("user:42"), []byte("alice"))
//	v, err := cli.Get(netcache.KeyFromString("user:42"))
//
// Hot keys are detected and cached automatically once the controller runs
// (Rack.Tick or Rack.StartController); reads of cached keys never touch a
// storage server.
//
// The evaluation of the paper — every figure — can be regenerated through
// Experiments / RunExperiment or the netcache-bench command.
package netcache

import (
	"fmt"
	"time"

	"netcache/internal/client"
	"netcache/internal/harness"
	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/rack"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// Key is the fixed 16-byte NetCache key (§5 of the paper: variable-length
// keys are hashed onto this type with HashKey).
type Key = netproto.Key

// Aliases exposing the workload and experiment toolkits through the public
// API. The aliased packages are internal; these names are the supported
// surface.
type (
	// Churn selects a dynamic-workload pattern for DynamicConfig.
	Churn = workload.Churn
	// Experiment regenerates one figure of the paper's evaluation.
	Experiment = harness.Experiment
	// Table is an experiment's numeric result grid.
	Table = harness.Table
	// DynamicConfig parameterizes a Fig. 11-style dynamic emulation.
	DynamicConfig = harness.DynamicConfig
	// DynamicResult holds its per-tick measurements.
	DynamicResult = harness.DynamicResult
	// SwitchConfig sizes the switch data-plane program.
	SwitchConfig = switchcore.Config
	// Zipf samples popularity ranks with the bounded Zipf law the
	// paper's workloads use (rank 0 hottest).
	Zipf = workload.Zipf
	// Popularity maps popularity ranks to key IDs and supports the
	// hot-in/random/hot-out churn mutations.
	Popularity = workload.Popularity
	// Snapshot is one observability snapshot: every component counter and
	// latency-histogram summary under flat dotted names, JSON-serializable.
	Snapshot = stats.Snapshot
	// HistStat is a histogram's summary inside a Snapshot
	// (count/mean/p50/p99/max, nanoseconds for latency histograms).
	HistStat = stats.HistStat
	// TraceRing is the bounded query-trace buffer returned by EnableTrace.
	TraceRing = qtrace.Ring
	// TraceRecord is one per-query hop observation in a TraceRing.
	TraceRecord = qtrace.Record
)

// NewZipf returns a Zipf sampler over [0, n) with skew theta in [0, 1) —
// the paper evaluates 0.9, 0.95 and 0.99.
func NewZipf(n int, theta float64) (*Zipf, error) { return workload.NewZipf(n, theta) }

// NewPopularity returns the identity rank→key mapping over n keys.
func NewPopularity(n int) *Popularity { return workload.NewPopularity(n) }

// Dynamic-workload patterns (§7.1).
const (
	ChurnNone   = workload.ChurnNone
	ChurnHotIn  = workload.ChurnHotIn
	ChurnRandom = workload.ChurnRandom
	ChurnHotOut = workload.ChurnHotOut
)

// Client errors.
var (
	// ErrNotFound reports a Get of an absent key.
	ErrNotFound = client.ErrNotFound
	// ErrTimeout reports an unanswered query after all retransmissions.
	ErrTimeout = client.ErrTimeout
)

// KeyFromString builds a Key from a short string (zero-padded/truncated).
func KeyFromString(s string) Key { return netproto.KeyFromString(s) }

// HashKey maps an arbitrary-length key onto the fixed Key type; keep the
// original around to verify against hash collisions (§5).
func HashKey(raw []byte) Key { return netproto.HashKey(raw) }

// KeyName converts a dense integer ID to a Key; KeyID inverts it. The
// workload generators and dataset loaders speak IDs.
func KeyName(id int) Key { return workload.KeyName(id) }

// KeyID recovers the integer ID from a KeyName key.
func KeyID(k Key) int { return workload.KeyID(k) }

// Config sizes an in-process NetCache rack.
type Config struct {
	// Servers is the number of storage servers (≥1).
	Servers int
	// Clients is the number of client handles to provision (≥1).
	Clients int
	// CacheCapacity caps the number of cached items; zero uses the
	// switch program's limit.
	CacheCapacity int
	// Switch optionally overrides the switch program configuration;
	// the zero value selects a small fast-compiling program. Use
	// PaperSwitchConfig for the prototype's full 64K×128 B dimensions.
	Switch SwitchConfig
	// Replicate enables the replicated storage tier: every key partition
	// gets a backup server (ring pairing), writes replicate before they
	// are acked, and the controller's failure detector fails a dead
	// primary's partition over to its backup. Requires Servers ≥ 2.
	Replicate bool
	// HeartbeatMisses is the failure detector's death threshold in
	// controller Ticks (zero means 3). Only meaningful with Replicate.
	HeartbeatMisses int
}

// PaperSwitchConfig returns the prototype's switch program dimensions (§6):
// 64K-entry lookup table, 8 value stages of 64K 16-byte slots (8 MB), 4×64K
// Count-Min sketch, 3×256K-bit Bloom filter.
func PaperSwitchConfig() SwitchConfig { return switchcore.PaperConfig() }

// Rack is an assembled in-process NetCache storage rack: one switch, the
// storage servers, the controller, and client handles.
type Rack struct {
	r *rack.Rack
}

// New builds a rack.
func New(cfg Config) (*Rack, error) {
	r, err := rack.New(rack.Config{
		Switch:          cfg.Switch,
		Servers:         cfg.Servers,
		Clients:         cfg.Clients,
		CacheCapacity:   cfg.CacheCapacity,
		Replicate:       cfg.Replicate,
		HeartbeatMisses: cfg.HeartbeatMisses,
	})
	if err != nil {
		return nil, err
	}
	return &Rack{r: r}, nil
}

// Client returns client handle i.
func (r *Rack) Client(i int) *Client {
	return &Client{c: r.r.Client(i)}
}

// NumServers returns the number of storage servers.
func (r *Rack) NumServers() int { return len(r.r.Servers) }

// ServerGets returns how many read queries storage server i has served —
// the per-server load signal behind the paper's Fig. 10b breakdown.
func (r *Rack) ServerGets(i int) uint64 { return r.r.Servers[i].Metrics.Gets.Value() }

// Tick runs one controller cycle: process heavy-hitter reports, update the
// cached set, reset the statistics window. The paper runs this once per
// second.
func (r *Rack) Tick() { r.r.Tick() }

// StartController runs Tick on the given interval until the returned stop
// function is called.
func (r *Rack) StartController(interval time.Duration) (stop func()) {
	return every(interval, r.r.Tick)
}

// every calls tick on the given interval from its own goroutine until the
// returned stop function is called.
func every(interval time.Duration, tick func()) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// CacheLen returns the number of entries installed in the switch cache. It
// reads the switch, not the controller: after RebootSwitch it is 0 until
// the controller's next Tick reinstalls what it tracks.
func (r *Rack) CacheLen() int { return r.r.Switch.CacheLen() }

// Cached reports whether key currently lives in the switch cache.
func (r *Rack) Cached(key Key) bool { return r.r.Controller.Cached(key) }

// LoadDataset installs n items — KeyName(0..n-1) with deterministic values
// of valueSize bytes — directly into the servers' stores.
func (r *Rack) LoadDataset(n, valueSize int) { r.r.LoadDataset(n, valueSize) }

// PrePopulateTopK force-caches keys KeyName(0..k-1), the warm start the
// paper's dynamic experiments use.
func (r *Rack) PrePopulateTopK(k int) error {
	keys := make([]Key, k)
	for i := range keys {
		keys[i] = KeyName(i)
	}
	return r.r.PrePopulate(keys)
}

// Stats summarizes the rack's activity.
type Stats struct {
	// CachedItems is the current switch-cache population.
	CachedItems int
	// SwitchRx/SwitchTx count frames through the switch data plane.
	SwitchRx, SwitchTx uint64
	// ServerGets/ServerPuts count queries that reached storage servers.
	ServerGets, ServerPuts uint64
	// CacheInserts/CacheEvictions count controller actions.
	CacheInserts, CacheEvictions uint64
}

// Stats returns a snapshot.
func (r *Rack) Stats() Stats {
	st := Stats{
		CachedItems:    r.r.Controller.Len(),
		CacheInserts:   r.r.Controller.Metrics.Inserts.Value(),
		CacheEvictions: r.r.Controller.Metrics.Evictions.Value(),
	}
	pc := r.r.Switch.Pipeline().Stats()
	st.SwitchRx, st.SwitchTx = pc.RxPackets, pc.TxPackets
	for _, s := range r.r.Servers {
		st.ServerGets += s.Metrics.Gets.Value()
		st.ServerPuts += s.Metrics.Puts.Value()
	}
	return st
}

// Snapshot collects every component counter — switch pipeline, simnet
// fabric, servers, controller, clients — plus the clients' per-op latency
// histograms (p50/p99/max) into one named, JSON-serializable view. Safe to
// call during traffic.
func (r *Rack) Snapshot() Snapshot { return r.r.Snapshot() }

// EnableTrace turns on query tracing into a bounded ring of per-query hop
// records (client send → switch hit/miss → server → reply, with
// retransmit flags). Tracing off — the default — costs one atomic
// load per packet. Pass the returned ring to inspect; call DisableTrace to
// turn it back off.
func (r *Rack) EnableTrace(capacity int) *TraceRing { return r.r.EnableTrace(capacity) }

// DisableTrace removes the query-trace taps installed by EnableTrace.
func (r *Rack) DisableTrace() { r.r.SetTraceRing(nil) }

// ResourceReport renders the switch program's on-chip resource usage (the
// artifact behind §6's "<50% of on-chip memory").
func (r *Rack) ResourceReport() string {
	return r.r.Switch.ResourceReport().String()
}

// Client is a handle for issuing queries against the rack. Safe for
// concurrent use.
type Client struct {
	c *client.Client
}

// Get fetches the value of key; ErrNotFound for absent keys. Whether the
// reply came from the switch cache or a storage server is transparent.
func (c *Client) Get(key Key) ([]byte, error) { return c.c.Get(key) }

// Put stores value (1..128 bytes) under key, write-through coherently.
func (c *Client) Put(key Key, value []byte) error { return c.c.Put(key, value) }

// Delete removes key; deleting an absent key is not an error.
func (c *Client) Delete(key Key) error { return c.c.Delete(key) }

// GetBatch fetches several keys with a window of requests outstanding at
// once (32 for a Rack's clients, LeafSpineConfig.Window for a Fabric's),
// issuing each window as one batched burst into the fabric — the
// closed-loop depth the paper's throughput figures assume. Results and
// errors are positional; hot keys in the batch are served by the switch.
func (c *Client) GetBatch(keys []Key) ([][]byte, []error) { return c.c.GetBatch(keys) }

// Experiments returns the registry regenerating every table and figure of
// the paper's evaluation, in paper order.
func Experiments() []Experiment { return harness.Experiments() }

// RunExperiment runs one experiment by ID ("fig9a" … "fig11c",
// "resources"). quick trades precision for runtime.
func RunExperiment(id string, quick bool) (*Table, error) {
	exp, ok := harness.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("netcache: unknown experiment %q", id)
	}
	return exp.Run(quick)
}

// RunDynamic runs a Fig. 11-style dynamic-workload emulation with full
// control over the configuration.
func RunDynamic(cfg DynamicConfig) (DynamicResult, error) {
	return harness.RunDynamic(cfg)
}

// DefaultDynamicConfig returns the paper's Fig. 11 setup (scaled 1:10) for
// the given churn pattern.
func DefaultDynamicConfig(churn Churn) DynamicConfig {
	return harness.PaperDynamic(churn)
}
