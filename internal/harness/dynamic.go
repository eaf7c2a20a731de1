package harness

import (
	"fmt"
	"math/rand"

	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// Dynamic-workload emulation — the §7.1/§7.4 methodology behind Fig. 11.
//
// The paper emulates 128 storage servers with 64 rate-limited queues per
// machine: each queue drops queries beyond its processing rate, and the
// client adjusts its sending rate by packet loss (cut when loss exceeds 5%,
// raise when below 1%). Here the same emulation runs against the real
// compiled switch pipeline, the real heavy-hitter detector, and the real
// controller: each simulated second ("tick") drives a batch of Zipf queries
// through the switch; misses debit per-partition token buckets; the
// popularity ranks churn per the hot-in / random / hot-out patterns; and the
// controller runs one cycle per tick, exactly like the paper's per-second
// statistics refresh.

// DynamicConfig parameterizes a Fig. 11 run.
type DynamicConfig struct {
	// Workload selects the churn pattern (hot-in / random / hot-out).
	Workload workload.Churn
	// Ticks is the number of simulated seconds.
	Ticks int
	// ChurnEvery applies the churn once per this many ticks (hot-in uses
	// 10 in the paper; random and hot-out use 1).
	ChurnEvery int
	// ChurnN is the number of keys moved per churn (paper: 200 of a
	// 10,000-item cache; scaled proportionally here).
	ChurnN int

	// Partitions is the number of emulated storage servers.
	Partitions int
	// Keys is the keyspace size.
	Keys int
	// CacheItems is the controller's cache capacity.
	CacheItems int
	// Theta is the Zipf skew (0.99 in the paper).
	Theta float64
	// PartitionCapacity is each emulated server's queries-per-tick rate
	// limit; the cache is uncapped, as the microbenchmark justifies.
	PartitionCapacity int
	// InitialRate is the client's starting queries-per-tick.
	InitialRate int
	// ValueSize is the item size in bytes.
	ValueSize int
	// Seed makes the run deterministic.
	Seed int64
	// DisableCache runs the emulation without the switch cache (the
	// NoCache baseline): nothing is pre-populated and the controller
	// never inserts.
	DisableCache bool
}

// PaperDynamic returns the Fig. 11 setup scaled 1:10 (cache 1,000 instead of
// 10,000; churn 20 instead of 200) so a run completes in seconds of CPU
// time. Ratios — churn fraction of the cache, hit ratio, headroom — match
// the paper's.
func PaperDynamic(churn workload.Churn) DynamicConfig {
	cfg := DynamicConfig{
		Workload:          churn,
		Ticks:             60,
		ChurnEvery:        1,
		ChurnN:            20,
		Partitions:        64,
		Keys:              1_000_000,
		CacheItems:        1000,
		Theta:             0.99,
		PartitionCapacity: 600,
		InitialRate:       30_000,
		ValueSize:         64,
		Seed:              1,
	}
	if churn == workload.ChurnHotIn {
		cfg.ChurnEvery = 10 // "200 cold keys ... every 10 seconds"
	}
	return cfg
}

// DynamicTick is one simulated second of measurements.
type DynamicTick struct {
	Tick      int
	Offered   int
	CacheHits int
	Served    int // hits + misses the emulated servers absorbed
	Dropped   int
	LossRate  float64
	CacheLen  int
}

// DynamicResult is a full Fig. 11 run.
type DynamicResult struct {
	Cfg   DynamicConfig
	Ticks []DynamicTick
}

// Throughputs returns the per-tick served throughput (queries/tick).
func (r DynamicResult) Throughputs() []float64 {
	out := make([]float64, len(r.Ticks))
	for i, tk := range r.Ticks {
		out[i] = float64(tk.Served)
	}
	return out
}

// Avg10 returns the 10-tick moving averages the paper plots alongside the
// per-second line.
func (r DynamicResult) Avg10() []float64 {
	tp := r.Throughputs()
	out := make([]float64, len(tp))
	for i := range tp {
		lo := i - 9
		if lo < 0 {
			lo = 0
		}
		sum := 0.0
		for j := lo; j <= i; j++ {
			sum += tp[j]
		}
		out[i] = sum / float64(i-lo+1)
	}
	return out
}

// simNode is the emulated storage server the controller fetches values
// from. Values are synthetic; write blocking is a no-op because the
// emulation is read-only (as Fig. 11 is).
type simNode struct {
	addr      netproto.Addr
	keys      int
	valueSize int
}

func (n *simNode) Addr() netproto.Addr { return n.addr }

func (n *simNode) FetchValue(key netproto.Key) ([]byte, uint64, bool) {
	id := workload.KeyID(key)
	if id < 0 || id >= n.keys {
		return nil, 0, false
	}
	return workload.ValueFor(id, n.valueSize), 1, true
}

func (n *simNode) BlockWrites(netproto.Key)   {}
func (n *simNode) UnblockWrites(netproto.Key) {}
func (n *simNode) Uncached(netproto.Key)      {}

// RunDynamic executes the emulation and returns per-tick measurements.
func RunDynamic(cfg DynamicConfig) (DynamicResult, error) {
	res := DynamicResult{Cfg: cfg}

	// A chip with enough ports for every partition plus the client.
	chip := dataplane.TofinoLike()
	for chip.NumPorts() < cfg.Partitions+1 {
		chip.PortsPerPipe *= 2
	}
	swCfg := switchcore.Config{
		Chip:         chip,
		CacheSize:    cfg.CacheItems,
		ValueArrays:  8,
		ValueSlots:   2 * cfg.CacheItems,
		CMSWidth:     1 << 14,
		BloomWidth:   1 << 16,
		SampleRate:   1.0,
		HotThreshold: 8,
		SampleSeed:   uint64(cfg.Seed) + 1,
	}
	if cfg.DisableCache {
		swCfg.SampleRate = 0 // no statistics either: the pure baseline
	}
	sw, err := switchcore.New(swCfg)
	if err != nil {
		return res, err
	}

	clientPort := cfg.Partitions
	clientAddr := netproto.Addr(0x8000)
	nodes := make(map[netproto.Addr]controller.StorageNode, cfg.Partitions)
	portOf := make(map[netproto.Addr]int, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		addr := netproto.Addr(p + 1)
		if err := sw.InstallRoute(addr, p); err != nil {
			return res, err
		}
		nodes[addr] = &simNode{addr: addr, keys: cfg.Keys, valueSize: cfg.ValueSize}
		portOf[addr] = p
	}
	if err := sw.InstallRoute(clientAddr, clientPort); err != nil {
		return res, err
	}

	partition := func(key netproto.Key) netproto.Addr {
		return netproto.Addr(client.PartitionOf(key, cfg.Partitions) + 1)
	}
	ctl, err := controller.New(controller.Config{
		Switch:    sw,
		Nodes:     nodes,
		Partition: partition,
		PortOf: func(a netproto.Addr) (int, bool) {
			p, ok := portOf[a]
			return p, ok
		},
		Capacity: cfg.CacheItems,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return res, err
	}

	// Pre-populate with the top CacheItems hottest keys (§7.4).
	pop := workload.NewPopularity(cfg.Keys)
	if !cfg.DisableCache {
		for rank := 0; rank < cfg.CacheItems; rank++ {
			if err := ctl.InsertKey(workload.KeyName(pop.KeyAt(rank))); err != nil {
				return res, fmt.Errorf("harness: pre-populate rank %d: %w", rank, err)
			}
		}
	}

	zipf, err := workload.NewZipf(cfg.Keys, cfg.Theta)
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	churnRng := rand.New(rand.NewSource(cfg.Seed + 7))

	rate := cfg.InitialRate
	var frame []byte
	out := make([]dataplane.Emitted, 0, 1)
	for tick := 0; tick < cfg.Ticks; tick++ {
		// Apply the popularity churn at the start of the tick.
		if cfg.Workload != workload.ChurnNone && cfg.ChurnEvery > 0 &&
			tick > 0 && tick%cfg.ChurnEvery == 0 {
			cfg.Workload.Apply(pop, churnRng, cfg.ChurnN, cfg.CacheItems)
		}

		buckets := make([]int, cfg.Partitions)
		for i := range buckets {
			buckets[i] = cfg.PartitionCapacity
		}
		tk := DynamicTick{Tick: tick, Offered: rate}

		for q := 0; q < rate; q++ {
			id := pop.KeyAt(zipf.SampleRank(rng))
			key := workload.KeyName(id)
			pkt := netproto.Packet{Op: netproto.OpGet, Seq: uint64(q), Key: key}
			payload, err := pkt.Marshal()
			if err != nil {
				return res, err
			}
			frame = netproto.EncodeFrame(frame[:0], partition(key), clientAddr, payload)
			out, err = sw.ProcessAppend(frame, clientPort, out[:0])
			if err != nil {
				return res, err
			}
			if len(out) != 1 {
				tk.Dropped++ // unroutable — should not happen
				continue
			}
			p := out[0].Port
			dataplane.ReleaseFrame(out[0]) // only the egress port matters here
			if p == clientPort {
				tk.CacheHits++
				tk.Served++
				continue
			}
			if buckets[p] > 0 {
				buckets[p]--
				tk.Served++
			} else {
				tk.Dropped++
			}
		}
		if tk.Offered > 0 {
			tk.LossRate = float64(tk.Dropped) / float64(tk.Offered)
		}
		tk.CacheLen = ctl.Len()
		res.Ticks = append(res.Ticks, tk)

		// Controller cycle: cache update + statistics reset (§7.4:
		// "refreshes the query statistics module every second").
		if !cfg.DisableCache {
			ctl.Tick()
		}

		// Client rate adaptation on loss (§7.4 thresholds).
		switch {
		case tk.LossRate > 0.05:
			rate = int(float64(rate) * 0.8)
			if rate < 1000 {
				rate = 1000
			}
		case tk.LossRate < 0.01:
			rate += cfg.InitialRate / 10
		}
	}
	return res, nil
}
