// Package balance computes the load-distribution analytics that are the
// NetCache paper's actual figure of merit: a tiny in-switch cache of the
// hottest keys flattens the per-server load distribution under zipfian skew
// (§6, Fig. 10b), so the number to watch is not raw throughput but how
// evenly the storage tier is loaded and how much of the skew the switch
// absorbed.
//
// A Report is derived from a stats.Snapshot — any snapshot whose counter
// names follow the repository convention ("server<i>.gets",
// "switch.mirrored", "controller.inserts", optionally nested under tier
// prefixes like "tor<r>." in a leaf-spine fabric). Racks and fabrics
// register it as a derived registry source, so every telemetry surface
// (snapshots, the Monitor's windows, the HTTP /metrics page) exposes flat
// "balance.*" metrics for free.
package balance

import (
	"sort"
	"strings"

	"netcache/internal/netproto"
	"netcache/internal/stats"
)

// Report is the balance analytics over one snapshot. Integer fields
// surface as counters, float fields as gauges when collected through
// stats.Registry.
type Report struct {
	// Servers is the number of storage servers observed in the snapshot.
	Servers uint64
	// ServerOps is the total queries served by the storage tier
	// (gets+puts+deletes across servers) — the load the cache did NOT
	// absorb.
	ServerOps uint64
	// CacheHits is the total queries answered in-network (mirrored
	// replies, summed across every switch tier).
	CacheHits uint64
	// CacheHitRatio is CacheHits / (CacheHits + server reads): the
	// fraction of reads the switches absorbed.
	CacheHitRatio float64
	// Shares is each server's fraction of ServerOps, ordered by sorted
	// server name (stable across snapshots of the same topology).
	Shares []float64
	// MaxShare and MinShare bound the per-server load shares.
	MaxShare float64
	MinShare float64
	// ImbalanceRatio is max/mean server load — 1.0 is perfect balance;
	// the paper's headline claim is that the cache drives this toward 1
	// under skew. 0 when no server traffic was observed.
	ImbalanceRatio float64
	// TailRatio is p99/median server load (nearest-rank over the sorted
	// per-server loads) — the imbalance measure that ignores a single
	// outlier server less than max/mean does.
	TailRatio float64
	// Gini is the Gini coefficient of per-server load (0 = even).
	Gini float64
	// CacheInserts and CacheEvictions are the controllers' cumulative
	// insert/evict counts; their windowed rates (via stats.Monitor) are
	// the cache churn.
	CacheInserts   uint64
	CacheEvictions uint64
	// CacheEntries is the controllers' current entry count
	// (inserts − evictions, clamped at 0).
	CacheEntries uint64
}

// serverKey returns the server prefix ("server0", "tor1.server3") when
// name is a per-server op counter, and which op it counts.
func serverKey(name string) (server, op string, ok bool) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return "", "", false
	}
	op = name[i+1:]
	switch op {
	case "gets", "puts", "deletes":
	default:
		return "", "", false
	}
	server = name[:i]
	// The last segment must be "server<digits>" — this skips nested
	// sources like "server0.store.items" (op suffix already filtered) and
	// non-server components.
	seg := server
	if j := strings.LastIndexByte(seg, '.'); j >= 0 {
		seg = seg[j+1:]
	}
	if !strings.HasPrefix(seg, "server") || len(seg) == len("server") {
		return "", "", false
	}
	for _, r := range seg[len("server"):] {
		if r < '0' || r > '9' {
			return "", "", false
		}
	}
	return server, op, true
}

// FromSnapshot derives the balance report from a component snapshot.
// Returns nil when the snapshot contains no per-server op counters (so a
// derived registry source vanishes instead of reporting zeros).
func FromSnapshot(snap stats.Snapshot) *Report {
	loads := make(map[string]uint64)
	var serverGets uint64
	for name, v := range snap.Counters {
		server, op, ok := serverKey(name)
		if !ok {
			continue
		}
		loads[server] += v
		if op == "gets" {
			serverGets += v
		}
	}
	if len(loads) == 0 {
		return nil
	}
	r := &Report{Servers: uint64(len(loads))}
	for name, v := range snap.Counters {
		switch {
		case name == "switch.mirrored" || strings.HasSuffix(name, ".switch.mirrored"):
			r.CacheHits += v
		case name == "controller.inserts" || strings.HasSuffix(name, ".controller.inserts"):
			r.CacheInserts += v
		case name == "controller.evictions" || strings.HasSuffix(name, ".controller.evictions"):
			r.CacheEvictions += v
		}
	}
	if r.CacheInserts > r.CacheEvictions {
		r.CacheEntries = r.CacheInserts - r.CacheEvictions
	}
	if reads := r.CacheHits + serverGets; reads > 0 {
		r.CacheHitRatio = float64(r.CacheHits) / float64(reads)
	}

	names := make([]string, 0, len(loads))
	for name := range loads {
		names = append(names, name)
	}
	sort.Strings(names)
	ys := make([]float64, len(names))
	var total uint64
	for i, name := range names {
		ys[i] = float64(loads[name])
		total += loads[name]
	}
	r.ServerOps = total
	r.Shares = make([]float64, len(names))
	if total == 0 {
		return r
	}
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	mean := float64(total) / float64(len(names))
	r.MinShare = sorted[0] / float64(total)
	r.MaxShare = sorted[len(sorted)-1] / float64(total)
	for i, name := range names {
		r.Shares[i] = float64(loads[name]) / float64(total)
	}
	r.ImbalanceRatio = sorted[len(sorted)-1] / mean
	if med := quantile(sorted, 0.5); med > 0 {
		r.TailRatio = quantile(sorted, 0.99) / med
	}
	r.Gini = stats.Gini(ys)
	return r
}

// quantile is the nearest-rank quantile of an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RegisterOn installs the report as a derived "balance" source on reg: the
// snapshot every component already feeds turns into flat balance.* metrics
// (balance.imbalance_ratio, balance.cache_hit_ratio, balance.shares.<i>,
// ...) on every scrape.
func RegisterOn(reg *stats.Registry) {
	reg.RegisterDerived("balance", func(base stats.Snapshot) any {
		if rep := FromSnapshot(base); rep != nil {
			return rep
		}
		return nil // typed-nil guard: the walker skips absent sources
	})
}

// Audit scores the cache's idea of the hot set against the workload's
// ground truth: precision is the fraction of reported keys that are truly
// hot, recall the fraction of truly hot keys that were reported. The
// paper's sketch-accuracy argument (§4.4, "the cache only needs to be
// approximately right") becomes measurable: a high-recall cache absorbed
// the head of the zipf curve.
func Audit(reported, truth []netproto.Key) (precision, recall float64) {
	if len(reported) == 0 || len(truth) == 0 {
		return 0, 0
	}
	set := make(map[netproto.Key]struct{}, len(truth))
	for _, k := range truth {
		set[k] = struct{}{}
	}
	var hit int
	for _, k := range reported {
		if _, ok := set[k]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(reported)), float64(hit) / float64(len(truth))
}
