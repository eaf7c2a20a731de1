package harness

import (
	"sync"
	"time"

	"netcache/internal/balance"
	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/rack"
	"netcache/internal/stats"
	"netcache/internal/telemetry"
	"netcache/internal/workload"
)

// Telemetry, when non-nil, is the HTTP telemetry server the balance
// experiment retargets at each row's rack: the registry and windowed
// monitor of the row currently running become scrapable at /metrics and
// /snapshot. Set by the netcache-bench -telemetry-addr flag.
var Telemetry *telemetry.Server

// BalanceBench reproduces the paper's load-balance claim end-to-end at the
// packet level: the same zipf-0.99 read workload runs through one rack with
// the cache disabled (no keys ever promoted) and one where the controller
// promotes hot keys organically from the switch's sketch reports. The
// balance.* analytics are computed over a measurement window (a
// stats.Monitor delta, so warmup traffic is excluded) and the cached key
// set is audited against the workload's ground-truth hot set.
//
// The paper's §6/Fig.10b claim is structural, not a point estimate: with
// the cache on, the per-server load distribution flattens — the imbalance
// ratio (max/mean) drops toward 1 — because the switch absorbs the zipf
// head that otherwise concentrates on whichever servers own the hottest
// keys. TestBalanceBenchFlattensLoad asserts exactly that.
func BalanceBench(quick bool) (*Table, error) {
	t := &Table{
		ID: "balance", Title: "load balance analytics, cache on vs off (8 servers, 2 clients, zipf-0.99 reads)",
		Columns: []string{"cache_items", "kops_s", "hit_pct", "imbalance", "tail_ratio", "gini", "max_share_pct", "precision", "recall"},
		Notes: []string{
			"imbalance: max/mean per-server load over the measurement window (1.0 = perfect);",
			"tail_ratio: p99/median per-server load; gini: 0 = even;",
			"hit_pct: reads answered by the switch cache; max_share_pct: hottest server's share;",
			"precision/recall: cached keys audited against the workload's true top-k",
			"(cache_items=0 row never promotes, so its audit is 0/0 by construction);",
			"cache-on promotion is organic — sketch reports drive controller ticks, no prepopulation",
		},
	}
	for _, items := range []int{0, 64} {
		res, err := runBalance(items, quick)
		if err != nil {
			return nil, err
		}
		t.Add(float64(items), res.kops, res.hitPct, res.imbalance, res.tailRatio,
			res.gini, res.maxSharePct, res.precision, res.recall)
	}
	return t, nil
}

// balanceResult is one balance row's measurements.
type balanceResult struct {
	kops, hitPct, imbalance, tailRatio, gini float64
	maxSharePct, precision, recall           float64
}

// runBalance drives the workload through one rack. cacheItems=0 disables
// the cache entirely: nothing is prepopulated and the controller never
// ticks, so no cache entry is ever installed and every read lands on the
// owning server — the NoCache baseline.
func runBalance(cacheItems int, quick bool) (res balanceResult, err error) {
	const (
		servers = 8
		clients = 2
		nKeys   = 1000
		hotK    = 64
	)
	warmup, measured := 16000, 48000
	if quick {
		warmup, measured = 6000, 12000
	}
	capacity := cacheItems
	if capacity == 0 {
		capacity = hotK // compile the same pipeline; it just stays empty
	}
	r, err := rack.New(rack.Config{
		Servers: servers, Clients: clients, CacheCapacity: capacity,
		Client: client.Config{Timeout: 2 * time.Millisecond, Retries: 2},
	})
	if err != nil {
		return res, err
	}
	r.LoadDataset(nKeys, 64)

	mon := stats.NewMonitor(stats.MonitorConfig{Registry: r.Registry()})
	if Telemetry != nil {
		Telemetry.SetRegistry(r.Registry())
		Telemetry.SetMonitor(mon)
	}

	zipf, err := workload.NewZipf(nKeys, 0.99)
	if err != nil {
		return res, err
	}
	pop := workload.NewPopularity(nKeys)

	// drive runs n read ops split across the clients, in chunks so the
	// controller can tick between them (cache-on rows only).
	drive := func(n, seedBase, chunks int, tick bool) {
		for chunk := 0; chunk < chunks; chunk++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					gen, _ := workload.NewGenerator(workload.GeneratorConfig{
						Reads: workload.ZipfDist{Z: zipf, Pop: pop},
						Seed:  int64(seedBase + chunk*clients + c),
					})
					for i := 0; i < n/chunks/clients; i++ {
						r.Client(c).Get(workload.KeyName(gen.Next().Key))
					}
				}(c)
			}
			wg.Wait()
			if tick {
				r.Tick()
			}
		}
	}

	// Warmup: let the sketch observe the skew and the controller promote
	// the head. The cache-off row runs the same traffic without ticking,
	// so both rows measure against equally warm stores.
	drive(warmup, 1, 4, cacheItems > 0)

	// Measurement window: everything before this poll is excluded.
	mon.Poll()
	start := time.Now()
	drive(measured, 1000, 4, cacheItems > 0)
	elapsed := time.Since(start).Seconds()
	w := mon.Poll()

	rep := balance.FromSnapshot(stats.Snapshot{Counters: w.Deltas})
	if rep == nil {
		return res, nil
	}
	res.kops = float64(measured) / elapsed / 1e3
	res.hitPct = 100 * rep.CacheHitRatio
	res.imbalance = rep.ImbalanceRatio
	res.tailRatio = rep.TailRatio
	res.gini = rep.Gini
	res.maxSharePct = 100 * rep.MaxShare

	truth := make([]netproto.Key, hotK)
	for rank := range truth {
		truth[rank] = workload.KeyName(pop.KeyAt(rank))
	}
	res.precision, res.recall = balance.Audit(r.Controller.CachedKeys(), truth)
	return res, nil
}
