package harness

// A discrete-event queueing simulator for NetCache's latency behavior: the
// distribution-level companion to the analytic mean of Fig. 10c, and the
// evidence behind the paper's §2 motivation that overloaded servers produce
// "long tail latencies".
//
// The model: queries arrive Poisson at the offered load; a query for a
// cached key completes in the fixed switch round trip; a miss is routed to
// its key's partition (hash of the Zipf rank, the same mapping the rest of
// the repository uses) and joins that server's FIFO queue with
// deterministic per-op service time. Because service is FIFO and
// deterministic, the whole simulation runs in one pass over arrivals in
// time order — no event heap needed: each server tracks when it next goes
// idle.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"netcache/internal/client"
	"netcache/internal/workload"
)

// queueSim parameterizes one simulation run.
type queueSim struct {
	// Partitions is the number of storage servers.
	Partitions int
	// Keys is the keyspace size (scaled down from the paper's for O(1)
	// sampling; the cache size below is co-scaled to keep the hit ratio).
	Keys int
	// CacheItems is the number of cached top ranks; 0 disables caching.
	CacheItems int
	// Theta is the Zipf skew.
	Theta float64
	// OfferedQPS is the aggregate arrival rate.
	OfferedQPS float64
	// Queries is the number of arrivals to simulate.
	Queries int
	// Seed makes runs deterministic.
	Seed int64
}

// The service model is the capacity model's: each server serves ServerQPS,
// a switch-served read takes HitLatencySec, and the server path adds
// queueing and service to a fixed network+client overhead, which with one
// service time sums to ServerLatencySec.
const (
	service        = 1 / ServerQPS
	serverOverhead = ServerLatencySec - service
)

// paperQueueSim returns the Fig. 10c setup at simulation scale: 128
// partitions over 10⁶ keys with the cache sized to the paper's ~49% hit
// ratio (≈700 items at this keyspace).
func paperQueueSim(offeredQPS float64, cached bool) queueSim {
	c := queueSim{
		Partitions: 128,
		Keys:       1_000_000,
		Theta:      0.99,
		OfferedQPS: offeredQPS,
		Queries:    400_000,
		Seed:       1,
	}
	if cached {
		c.CacheItems = 700
	}
	return c
}

// queueResult summarizes one run's latency distribution (seconds).
type queueResult struct {
	Cfg       queueSim
	HitRatio  float64
	Mean      float64
	P50, P99  float64
	Max       float64
	Saturated bool // queues grew without bound during the run
}

// runQueueSim executes the simulation.
func runQueueSim(cfg queueSim) (queueResult, error) {
	if cfg.Partitions <= 0 || cfg.Keys <= 0 || cfg.Queries <= 0 || cfg.OfferedQPS <= 0 {
		return queueResult{}, fmt.Errorf("harness: queue simulation needs positive partitions, keys, queries, load")
	}

	zipf, err := workload.NewZipf(cfg.Keys, cfg.Theta)
	if err != nil {
		return queueResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Partition of each head rank, memoized once (the tail is sampled
	// uniformly at query time).
	const headRanks = 65536
	head := headRanks
	if head > cfg.Keys {
		head = cfg.Keys
	}
	headPart := HeadPartitions(cfg.Partitions, head)

	busyUntil := make([]float64, cfg.Partitions)
	lat := make([]float64, 0, cfg.Queries)
	hits := 0
	now := 0.0
	for q := 0; q < cfg.Queries; q++ {
		now += rng.ExpFloat64() / cfg.OfferedQPS
		rank := zipf.SampleRank(rng)
		if cfg.CacheItems > 0 && rank < cfg.CacheItems {
			hits++
			lat = append(lat, HitLatencySec)
			continue
		}
		var part int
		if rank < head {
			part = int(headPart[rank])
		} else {
			part = client.PartitionOf(workload.KeyName(rank), cfg.Partitions)
		}
		start := math.Max(now, busyUntil[part])
		busyUntil[part] = start + service
		lat = append(lat, serverOverhead+busyUntil[part]-now)
	}

	res := queueResult{Cfg: cfg, HitRatio: float64(hits) / float64(cfg.Queries)}
	sort.Float64s(lat)
	res.Mean = mean(lat)
	res.P50 = lat[len(lat)/2]
	res.P99 = lat[len(lat)*99/100]
	res.Max = lat[len(lat)-1]
	// Saturation heuristic: some server's backlog at the end exceeds many
	// thousand service times — its queue was growing without bound.
	for _, b := range busyUntil {
		if b-now > 5000*service {
			res.Saturated = true
			break
		}
	}
	return res, nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Fig10cSim regenerates the latency-vs-throughput curve by simulation,
// reporting the tail (P99) the analytic model cannot.
func Fig10cSim(quick bool) (*Table, error) {
	t := &Table{
		ID: "fig10c-sim", Title: "simulated latency distribution vs throughput (microseconds)",
		Columns: []string{"load_BQPS", "noc_mean_us", "noc_p99_us", "nc_mean_us", "nc_p99_us"},
		Notes: []string{
			"discrete-event queueing simulation; -1 marks saturation (unbounded queues);",
			"paper fig10c plots the mean; the P99 columns show the §2 tail-latency story",
		},
	}
	queries := 400_000
	if quick {
		queries = 120_000
	}
	for _, load := range []float64{0.05e9, 0.1e9, 0.15e9, 0.2e9, 0.5e9, 1e9, 2e9} {
		row := []float64{load / 1e9}
		for _, cached := range []bool{false, true} {
			cfg := paperQueueSim(load, cached)
			cfg.Queries = queries
			res, err := runQueueSim(cfg)
			if err != nil {
				return nil, err
			}
			if res.Saturated {
				row = append(row, -1, -1)
				continue
			}
			row = append(row, res.Mean*1e6, res.P99*1e6)
		}
		t.Add(row...)
	}
	return t, nil
}
