package netcache

// Public surface of the multi-rack leaf-spine prototype (§5 future work,
// implemented packet-level in internal/leafspine).

import (
	"time"

	"netcache/internal/client"
	"netcache/internal/leafspine"
)

// LeafSpineConfig sizes a multi-rack fabric.
type LeafSpineConfig struct {
	// Racks is the number of storage racks (≥1), each behind its own
	// NetCache ToR switch.
	Racks int
	// ServersPerRack is each rack's width (≥1).
	ServersPerRack int
	// Clients attach to the spine switch (≥1).
	Clients int
	// SpineCache / TorCache cap each layer's cached items (0 = switch
	// limit).
	SpineCache, TorCache int
	// Window is the clients' closed-loop pipelining depth for
	// GetBatch (outstanding requests per batch); zero uses the
	// client default of 32. Batches ride the vectorized injection path
	// across the inter-switch trunks.
	Window int
}

// Fabric is an assembled leaf-spine NetCache deployment: every switch runs
// the full NetCache pipeline; the spine caches the global head, each ToR
// its rack's head, with write-through coherence composing across the two
// layers.
type Fabric struct {
	f *leafspine.Fabric
}

// NewLeafSpine builds a fabric.
func NewLeafSpine(cfg LeafSpineConfig) (*Fabric, error) {
	f, err := leafspine.New(leafspine.Config{
		Racks:          cfg.Racks,
		ServersPerRack: cfg.ServersPerRack,
		Clients:        cfg.Clients,
		SpineCache:     cfg.SpineCache,
		TorCache:       cfg.TorCache,
		Client:         client.Config{Window: cfg.Window},
	})
	if err != nil {
		return nil, err
	}
	return &Fabric{f: f}, nil
}

// Client returns client handle i (attached to the spine).
func (fb *Fabric) Client(i int) *Client { return &Client{c: fb.f.Client(i)} }

// LoadDataset installs the canonical dataset across all racks' servers.
func (fb *Fabric) LoadDataset(n, valueSize int) { fb.f.LoadDataset(n, valueSize) }

// Tick runs one controller cycle at every switch (ToRs first, then spine).
func (fb *Fabric) Tick() { fb.f.Tick() }

// StartControllers runs Tick on the given interval until stopped.
func (fb *Fabric) StartControllers(interval time.Duration) (stop func()) {
	return every(interval, fb.f.Tick)
}

// SpineCacheLen returns the number of items cached at the spine layer.
func (fb *Fabric) SpineCacheLen() int {
	_, ctl := fb.f.Spine()
	return ctl.Len()
}

// TorCacheLen returns the number of items cached at rack r's ToR.
func (fb *Fabric) TorCacheLen(r int) int {
	_, ctl := fb.f.Tor(r)
	return ctl.Len()
}

// RackOf returns the rack index owning key.
func (fb *Fabric) RackOf(key Key) int { return fb.f.RackOf(key) }

// Snapshot collects every component counter across both tiers —
// "spine.*", "tor<r>.*" (switch, net, servers, controller each), and
// "client<i>.*" with per-op latency histograms — into one named,
// JSON-serializable view. Safe to call during traffic.
func (fb *Fabric) Snapshot() Snapshot { return fb.f.Snapshot() }

// SpineSnapshot returns just the spine tier's slice of the snapshot
// (prefixes stripped).
func (fb *Fabric) SpineSnapshot() Snapshot { return fb.f.SpineSnapshot() }

// TorSnapshot returns just rack r's ToR-tier slice of the snapshot.
func (fb *Fabric) TorSnapshot(r int) Snapshot { return fb.f.TorSnapshot(r) }

// EnableTrace turns on query tracing across both tiers into a bounded
// ring; DisableTrace turns it back off.
func (fb *Fabric) EnableTrace(capacity int) *TraceRing { return fb.f.EnableTrace(capacity) }

// DisableTrace removes the query-trace taps installed by EnableTrace.
func (fb *Fabric) DisableTrace() { fb.f.SetTraceRing(nil) }

// RebootSpine power-cycles the spine switch. Routes are re-provisioned
// immediately; until the spine controller's next Tick every query falls
// through to the ToR tier, which keeps serving its cached rack heads.
func (fb *Fabric) RebootSpine() error { return fb.f.RebootSpine() }

// RebootTor power-cycles rack r's ToR switch.
func (fb *Fabric) RebootTor(r int) error { return fb.f.RebootTor(r) }

// SetUplinkDown cuts (or restores) rack r's spine↔ToR trunk, as with an
// unplugged inter-switch cable: keys cached at the spine keep being served,
// everything else toward the rack times out until the link comes back.
func (fb *Fabric) SetUplinkDown(r int, down bool) { fb.f.SetUplinkDown(r, down) }
