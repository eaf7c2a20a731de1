// Package topo models the multi-rack scalability simulation of NetCache
// (SOSP'17 §5 "Scaling to multiple racks" and Fig. 10f): a leaf-spine
// datacenter fabric where each rack of 128 servers sits behind its ToR
// (leaf) switch, with spine switches above.
//
// Three deployments are compared, mirroring the paper's simulation (which
// likewise "assume[s] the switches can absorb queries to hot items"):
//
//   - NoCache: no switch participates; the hottest server bounds the whole
//     system, so aggregate throughput stays flat as racks are added.
//   - LeafCache: each ToR caches the hottest items *of its own rack*. Load
//     inside a rack balances, but the racks holding globally-hot items must
//     serve their hit traffic through a single ToR, whose capacity bounds
//     the system once there are tens of racks.
//   - LeafSpineCache: the globally hottest items are additionally cached in
//     the spine layer, which grows with the fabric; the per-ToR bottleneck
//     disappears and throughput scales linearly with servers.
package topo

import (
	"fmt"

	"netcache/internal/harness"
)

// Mode selects the deployment being simulated.
type Mode uint8

// The three deployments of Fig. 10f.
const (
	NoCache Mode = iota
	LeafCache
	LeafSpineCache
)

// String names the mode like the paper's figure legend.
func (m Mode) String() string {
	switch m {
	case NoCache:
		return "NoCache"
	case LeafCache:
		return "Leaf-Cache"
	case LeafSpineCache:
		return "Leaf-Spine-Cache"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Config sizes the simulated fabric.
type Config struct {
	// Racks is the number of storage racks.
	Racks int
	// ServersPerRack is the rack width (128 in the paper).
	ServersPerRack int
	// Keys is the keyspace size, hash-partitioned across all servers.
	Keys int
	// CachePerSwitch is the item budget of each caching switch.
	CachePerSwitch int
	// Theta is the read skew.
	Theta float64
	// TorQPS bounds one ToR switch's query-serving capacity.
	TorQPS float64
}

// headRanks bounds the head attributed to servers rank by rank; the tail
// below it is spread evenly.
const headRanks = 262144

// PaperConfig returns the Fig. 10f setup: up to 32 racks × 128 servers,
// Zipf 0.99 reads, 10K items per switch.
func PaperConfig(racks int) Config {
	return Config{
		Racks:          racks,
		ServersPerRack: 128,
		Keys:           100_000_000,
		CachePerSwitch: 10_000,
		Theta:          0.99,
		TorQPS:         harness.PipeQPS * 2,
	}
}

// Throughput returns the saturated aggregate throughput of the fabric under
// the given deployment mode, by bottleneck analysis over servers and
// switches.
func (c Config) Throughput(mode Mode) float64 {
	servers := c.Racks * c.ServersPerRack
	head := min(headRanks, c.Keys)

	model := harness.RackModel{Partitions: servers, Keys: c.Keys, Theta: c.Theta}

	// Attribute head ranks to servers (and hence racks) with the shared
	// hash, so rack composition matches the packet-level system.
	serverShare := make([]float64, servers)
	rackHit := make([]float64, c.Racks) // per-rack cache-served mass
	headMass := 0.0

	// Per-rack caches hold each rack's hottest CachePerSwitch keys; the
	// spine layer additionally absorbs the global head. Walking ranks in
	// global popularity order visits each rack's keys in the rack's own
	// popularity order, so the first CachePerSwitch keys seen per rack
	// are exactly that rack's cache contents.
	perRackCached := make([]int, c.Racks)
	globallyCached := 0

	parts := harness.HeadPartitions(servers, head)
	for rank := 0; rank < head; rank++ {
		p := model.Prob(rank)
		headMass += p
		srv := int(parts[rank])
		rk := srv / c.ServersPerRack

		switch mode {
		case NoCache:
			serverShare[srv] += p
		case LeafCache:
			if perRackCached[rk] < c.CachePerSwitch {
				perRackCached[rk]++
				rackHit[rk] += p
			} else {
				serverShare[srv] += p
			}
		case LeafSpineCache:
			switch {
			case globallyCached < c.CachePerSwitch:
				// Served by the spine layer, which scales with
				// the fabric: not a bottleneck.
				globallyCached++
			case perRackCached[rk] < c.CachePerSwitch:
				perRackCached[rk]++
				rackHit[rk] += p
			default:
				serverShare[srv] += p
			}
		}
	}

	// Uniform tail across all servers.
	tail := (1 - headMass) / float64(servers)
	maxServer := 0.0
	for i := range serverShare {
		serverShare[i] += tail
		if serverShare[i] > maxServer {
			maxServer = serverShare[i]
		}
	}

	// Server bottleneck.
	total := harness.ServerQPS / maxServer

	// ToR bottleneck: each rack's cache hits are served by one switch.
	if mode == LeafCache || mode == LeafSpineCache {
		maxRack := 0.0
		for _, h := range rackHit {
			if h > maxRack {
				maxRack = h
			}
		}
		if maxRack > 0 && total*maxRack > c.TorQPS {
			total = c.TorQPS / maxRack
		}
	}
	return total
}

// Register the multi-rack model with the harness's experiment registry.
// The harness cannot import this package (topo builds on harness), so the
// wiring is by injection at link time: any binary importing topo gets the
// fig10f experiment.
func init() {
	harness.Fig10fModel = func(racks int) (noCache, leaf, leafSpine float64) {
		cfg := PaperConfig(racks)
		return cfg.Throughput(NoCache), cfg.Throughput(LeafCache), cfg.Throughput(LeafSpineCache)
	}
}
