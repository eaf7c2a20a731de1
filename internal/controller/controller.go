// Package controller implements the NetCache controller (SOSP'17 §3, §4.3,
// Fig. 4): the control-plane process that keeps the switch cache populated
// with the hottest keys.
//
// The controller receives heavy-hitter reports from the switch data plane,
// compares reported frequencies against the (sampled) hit counters of keys
// already cached, evicts less-popular keys and inserts more-popular ones.
// Eviction candidates are chosen by sampling a few cached keys — the same
// approximation Redis uses for LRU — because reading every counter each
// cycle would be too expensive (§4.3). Cache coherence during insertion is
// preserved by blocking writes to the key at its storage server until the
// switch entry is fully installed.
//
// The controller is deliberately not an SDN controller: it manages only its
// own state (the key-value cache and the query statistics); routing tables
// belong to whatever system the operator already runs.
package controller

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"netcache/internal/cachemem"
	"netcache/internal/netproto"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
)

// StorageNode is the control-plane surface of a storage server: value
// fetches for cache population and the write-block window of §4.3. Opening
// the window also marks the key cached at the node; Uncached clears the
// mark when the insertion fails or the key is evicted, so the node knows
// which keys the switch may hold.
type StorageNode interface {
	Addr() netproto.Addr
	FetchValue(key netproto.Key) (value []byte, version uint64, ok bool)
	BlockWrites(key netproto.Key)
	UnblockWrites(key netproto.Key)
	Uncached(key netproto.Key)
}

// reportBuffer bounds the hot-report queue between the data plane and the
// controller; reports beyond it are dropped and counted.
const reportBuffer = 16384

// Config wires a controller.
type Config struct {
	// Switch is the managed switch.
	Switch *switchcore.Switch
	// Nodes maps rack addresses to storage nodes.
	Nodes map[netproto.Addr]StorageNode
	// PortOf maps a server address to its switch port (for the lookup
	// entry's egress port).
	PortOf func(addr netproto.Addr) (int, bool)
	// Partition maps keys to their owning server address.
	Partition func(key netproto.Key) netproto.Addr
	// Resolve, if non-nil, looks up the node at an address missing from
	// Nodes: deployments that learn their servers from the wire (the UDP
	// switch daemon) return the learned server there.
	Resolve func(addr netproto.Addr) (StorageNode, bool)
	// Capacity caps the number of cached items (the experiments use
	// 10,000 of the switch's 64K). Zero means the switch's CacheSize.
	Capacity int
	// SampleK is how many cached keys are sampled when hunting for an
	// eviction victim. Zero means 8.
	SampleK int
	// Seed seeds eviction sampling.
	Seed int64
	// WritePolicy optionally disables caching under write-dominated load
	// (§7.3); the zero value leaves caching always on.
	WritePolicy WritePolicy
	// Backups maps a home partition address to its backup node, enabling
	// primary-backup replication with controller-driven failover for that
	// partition. Both ends must be ReplicatedNodes in Nodes. Empty leaves
	// the tier unreplicated.
	Backups map[netproto.Addr]netproto.Addr
	// HeartbeatMisses is how many consecutive failed heartbeat probes
	// (one per Tick) declare a node dead. Zero means 3, so the detection
	// window is 3 controller cycles.
	HeartbeatMisses int
	// InstallRoute, if non-nil, provisions route flips during failover —
	// deployments wire the fabric's route installer here so a rebooting
	// switch re-provisions the flipped route rather than the original.
	// Nil falls back to the raw switch driver.
	InstallRoute func(addr netproto.Addr, port int) error
}

// Metrics counts controller activity.
type Metrics struct {
	Reports        stats.Counter
	ReportsDropped stats.Counter
	Inserts        stats.Counter
	Evictions      stats.Counter
	RejectedColder stats.Counter
	FetchMisses    stats.Counter
	Reorganized    stats.Counter
	Regrown        stats.Counter
	Cycles         stats.Counter
	CacheDisabled  stats.Counter
	CacheReenabled stats.Counter
	Resyncs        stats.Counter
	Adopted        stats.Counter

	// Failure detector / replication management. Restarts counts nodes
	// that crashed and came back inside the detection window (seen via
	// their incarnation, never declared dead); Rejoins counts nodes that
	// returned after being declared dead.
	Deaths         stats.Counter
	Restarts       stats.Counter
	Rejoins        stats.Counter
	Failovers      stats.Counter
	FailoverStalls stats.Counter
	ResyncCopied   stats.Counter
	ResyncDropped  stats.Counter
	ResyncAborts   stats.Counter
}

// entry is the controller's bookkeeping for one cached item.
type entry struct {
	key       netproto.Key
	kidx      int
	placement cachemem.Placement
	addr      netproto.Addr
	port      int
	// node is the node the value was fetched from, which marked the key
	// cached (for an adopted entry, its owner at adoption).
	node StorageNode

	// freqHint is the reported frequency that justified inserting this
	// entry, valid only within cycle hintCycle. A freshly-inserted item
	// has no hit-counter history yet, so victim sampling within the same
	// controller cycle uses this hint instead — otherwise a colder
	// report processed moments later would evict it straight away.
	freqHint  uint64
	hintCycle uint64
}

// Controller manages one switch cache. Safe for concurrent use; Tick is
// typically driven by a timer or the harness clock.
type Controller struct {
	cfg Config

	reports   chan switchcore.HotReport
	overflows chan switchcore.OverflowReport

	mu      sync.Mutex
	alloc   *cachemem.Allocator
	kidx    *cachemem.IndexPool
	entries map[netproto.Key]*entry
	order   []netproto.Key // sampling support
	rng     *rand.Rand
	cycle   uint64
	wp      writePolicyState

	// Failure-detector membership and partition replication state (see
	// failover.go).
	members   map[netproto.Addr]*member
	parts     map[netproto.Addr]*partition
	partOrder []netproto.Addr

	// Metrics is exported for harnesses and tests.
	Metrics Metrics
}

// New wires a controller to its switch and registers the hot-report
// receiver.
func New(cfg Config) (*Controller, error) {
	if cfg.Switch == nil {
		return nil, fmt.Errorf("controller: config needs a switch")
	}
	if cfg.Partition == nil || cfg.PortOf == nil {
		return nil, fmt.Errorf("controller: config needs partition and port mappings")
	}
	swCap := cfg.Switch.Config().CacheSize
	if cfg.Capacity <= 0 || cfg.Capacity > swCap {
		cfg.Capacity = swCap
	}
	if cfg.SampleK <= 0 {
		cfg.SampleK = 8
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	alloc, err := cachemem.New(cfg.Switch.AllocatorConfig())
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		reports:   make(chan switchcore.HotReport, reportBuffer),
		overflows: make(chan switchcore.OverflowReport, 1024),
		alloc:     alloc,
		kidx:      cachemem.NewIndexPool(swCap),
		entries:   make(map[netproto.Key]*entry),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	c.initReplication()
	// The digest callbacks run on the pipeline's digest drain goroutine,
	// concurrent with Tick, so they must not touch controller state
	// directly: enqueue or drop.
	cfg.Switch.OnEvents(
		func(r switchcore.HotReport) {
			select {
			case c.reports <- r:
				c.Metrics.Reports.Inc()
			default:
				c.Metrics.ReportsDropped.Inc()
			}
		},
		func(r switchcore.OverflowReport) {
			select {
			case c.overflows <- r:
			default:
			}
		},
	)
	return c, nil
}

// Len returns the number of cached items.
func (c *Controller) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Cached reports whether key is currently cached.
func (c *Controller) Cached(key netproto.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// CachedKeys returns the cached keys (unspecified order).
func (c *Controller) CachedKeys() []netproto.Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]netproto.Key(nil), c.order...)
}

// Tick runs one controller cycle: drain the hot-key reports, update the
// cache, and reset the switch statistics (the paper resets every second).
func (c *Controller) Tick() {
	c.Metrics.Cycles.Inc()

	// Recovery first: a switch holding fewer lookup entries than the
	// controller tracks has lost state (a reboot wiped its tables). The
	// controller is the authority on what should be cached, so it
	// reinstalls the missing entries while reads fall through to the
	// servers.
	c.mu.Lock()
	if len(c.entries) > 0 && c.cfg.Switch.CacheLen() < len(c.entries) {
		c.Metrics.Resyncs.Inc()
		c.reconcileLocked(false)
	}
	c.mu.Unlock()

	// Failure detection next: probe the storage nodes, fail over the
	// partitions of anyone past the miss threshold, and run the catch-up
	// copies for freshly (re)assigned backups outside the lock.
	for _, t := range c.heartbeatAndRepair() {
		c.resyncPartition(t)
	}

	// Then the control-plane value updates: items whose values outgrew
	// their slot allocation are reinstalled with a fresh placement (§4.3:
	// "the new values must be updated by the control plane").
	grown := make(map[netproto.Key]bool)
drainOverflow:
	for {
		select {
		case r := <-c.overflows:
			grown[r.Key] = true
		default:
			break drainOverflow
		}
	}
	if len(grown) > 0 {
		c.mu.Lock()
		for key := range grown {
			if e, ok := c.entries[key]; ok {
				c.evictLocked(e)
				c.insertLocked(key, 0)
				c.Metrics.Regrown.Inc()
			}
		}
		c.mu.Unlock()
	}

	// Drain and deduplicate this cycle's reports. A report fires when the
	// key first crosses the threshold, so its frequency says little about
	// how hot the key ultimately got this cycle — re-read the current
	// Count-Min estimate through the driver for the comparison (§4.3
	// "compares the hits of the HHs and the counters of the cached
	// items").
	hot := make(map[netproto.Key]uint64)
drain:
	for {
		select {
		case r := <-c.reports:
			if _, seen := hot[r.Key]; !seen {
				hot[r.Key] = c.cfg.Switch.EstimateFreq(r.Key)
			}
		default:
			break drain
		}
	}

	// Under write-dominated load the policy turns caching off: discard
	// this cycle's candidates and keep the statistics window fresh.
	if c.applyWritePolicy() {
	discardReports:
		for {
			select {
			case <-c.reports:
			default:
				break discardReports
			}
		}
		c.cfg.Switch.ResetStats(true)
		return
	}

	// Hottest first, so the most valuable keys win the free slots.
	type cand struct {
		key  netproto.Key
		freq uint64
	}
	cands := make([]cand, 0, len(hot))
	for k, f := range hot {
		cands = append(cands, cand{k, f})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].freq > cands[j].freq })

	c.mu.Lock()
	c.cycle++
	for _, cd := range cands {
		c.considerLocked(cd.key, cd.freq)
	}
	c.mu.Unlock()

	// Fresh statistics window (§4.4.3: "All statistics data are cleared
	// periodically by the controller").
	c.cfg.Switch.ResetStats(true)
}

// considerLocked decides whether to cache key given its reported frequency.
func (c *Controller) considerLocked(key netproto.Key, freq uint64) {
	if _, already := c.entries[key]; already {
		return
	}
	if len(c.entries) >= c.cfg.Capacity {
		victim, hits := c.sampleVictimLocked()
		if victim == nil || hits >= freq {
			// The new key is no hotter than the sampled cached keys:
			// keep the cache as is (avoids churn, §4.3).
			c.Metrics.RejectedColder.Inc()
			return
		}
		c.evictLocked(victim)
	}
	c.insertLocked(key, freq)
}

// InsertKey force-inserts a key (pre-population of the experiments: "a
// pre-populated cache containing the top 10,000 hottest items", §7.4). It
// fails when the cache is at capacity.
func (c *Controller) InsertKey(key netproto.Key) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, already := c.entries[key]; already {
		return nil
	}
	if len(c.entries) >= c.cfg.Capacity {
		return fmt.Errorf("controller: cache at capacity %d", c.cfg.Capacity)
	}
	if !c.insertLocked(key, 0) {
		return fmt.Errorf("controller: insert of %s failed", key)
	}
	return nil
}

// EvictKey force-evicts a key; it reports whether the key was cached.
func (c *Controller) EvictKey(key netproto.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.evictLocked(e)
	return true
}

// insertLocked performs the full §4.3 insertion protocol. freq is the
// reported frequency justifying the insertion (0 for forced inserts).
func (c *Controller) insertLocked(key netproto.Key, freq uint64) bool {
	node, addr, ok := c.ownerLocked(key)
	if !ok {
		return false
	}
	port, ok := c.cfg.PortOf(addr)
	if !ok {
		return false
	}

	// Block writes at the owner for the duration of the insertion, then
	// fetch the authoritative value. A failed insertion clears the
	// cached mark the block set; deferred last, that runs first, so the
	// writes queued behind the window drain as writes to an uncached key.
	node.BlockWrites(key)
	defer node.UnblockWrites(key)
	installed := false
	defer func() {
		if !installed {
			node.Uncached(key)
		}
	}()
	value, version, ok := node.FetchValue(key)
	if !ok || len(value) == 0 || len(value) > netproto.MaxValueSize {
		c.Metrics.FetchMisses.Inc()
		return false
	}

	placement, err := c.alloc.Insert(key, len(value))
	if err == cachemem.ErrNoSpace {
		// Fragmented: reorganize the value memory and retry (§4.4.2).
		if moves := c.alloc.Reorganize(); len(moves) > 0 {
			c.Metrics.Reorganized.Inc()
			for _, mv := range moves {
				e := c.entries[mv.Key]
				if e == nil {
					continue
				}
				e.placement = mv.To
				if err := c.cfg.Switch.MoveCacheEntry(mv.Key, e.kidx, e.port, mv); err != nil {
					return false
				}
			}
		}
		placement, err = c.alloc.Insert(key, len(value))
	}
	if err != nil {
		return false
	}
	kidx := c.kidx.Alloc()
	if kidx < 0 {
		c.alloc.Evict(key)
		return false
	}
	err = c.cfg.Switch.InstallCacheEntry(switchcore.CacheEntry{
		Key: key, Placement: placement, KeyIndex: kidx, ServerPort: port,
		Value: value, Version: version,
	})
	if err != nil {
		c.alloc.Evict(key)
		c.kidx.Free(kidx)
		return false
	}
	c.entries[key] = &entry{
		key: key, kidx: kidx, placement: placement, addr: addr, port: port,
		node: node, freqHint: freq, hintCycle: c.cycle,
	}
	c.order = append(c.order, key)
	c.Metrics.Inserts.Inc()
	installed = true
	return true
}

func (c *Controller) evictLocked(e *entry) {
	if _, err := c.cfg.Switch.RemoveCacheEntry(e.key, e.kidx); err != nil {
		return
	}
	e.node.Uncached(e.key)
	c.dropEntryLocked(e)
	c.Metrics.Evictions.Inc()
}

// dropEntryLocked removes an entry from the controller's bookkeeping only —
// the switch side is already gone (or about to be removed by the caller).
func (c *Controller) dropEntryLocked(e *entry) {
	c.alloc.Evict(e.key)
	c.kidx.Free(e.kidx)
	delete(c.entries, e.key)
	for i, k := range c.order {
		if k == e.key {
			last := len(c.order) - 1
			c.order[i] = c.order[last]
			c.order = c.order[:last]
			break
		}
	}
}

// Reconcile makes the controller's bookkeeping and the switch's installed
// entries agree. A switch entry the controller does not track is adopted
// when adopt is set and its placement, key index and owner are free and
// known (a restarted controller attaching to a warm switch); otherwise it
// is removed from the switch and its owner told it is uncached, so writes
// to it stop refreshing the switch. A tracked entry the switch lost (a reboot
// wiped its tables) is dropped and reinstalled through the §4.3 insertion;
// if that fails, the key can re-enter through the hot-key path.
func (c *Controller) Reconcile(adopt bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reconcileLocked(adopt)
}

func (c *Controller) reconcileLocked(adopt bool) {
	installed := make(map[netproto.Key]bool)
	for _, ie := range c.cfg.Switch.DumpCache() {
		installed[ie.Key] = true
		if _, tracked := c.entries[ie.Key]; tracked {
			continue
		}
		if !adopt || !c.adoptLocked(ie) {
			c.cfg.Switch.RemoveCacheEntry(ie.Key, ie.KeyIndex)
			if node, _, ok := c.ownerLocked(ie.Key); ok {
				node.Uncached(ie.Key)
			}
		}
	}
	var lost []*entry
	for _, key := range c.order {
		if !installed[key] {
			lost = append(lost, c.entries[key])
		}
	}
	// Every lost entry leaves the bookkeeping before any is reinstalled,
	// so a reorganization inside an insertion moves only installed entries.
	for _, e := range lost {
		c.dropEntryLocked(e)
	}
	for _, e := range lost {
		c.insertLocked(e.key, 0)
	}
}

// adoptLocked takes over an installed entry the controller does not track.
func (c *Controller) adoptLocked(ie switchcore.InstalledEntry) bool {
	node, addr, ok := c.ownerLocked(ie.Key)
	if !ok || c.alloc.Adopt(ie.Key, ie.Placement) != nil {
		return false
	}
	if !c.kidx.Reserve(ie.KeyIndex) {
		c.alloc.Evict(ie.Key)
		return false
	}
	c.entries[ie.Key] = &entry{
		key: ie.Key, kidx: ie.KeyIndex, placement: ie.Placement,
		addr: addr, port: ie.ServerPort, node: node,
	}
	c.order = append(c.order, ie.Key)
	c.Metrics.Adopted.Inc()
	return true
}

// sampleVictimLocked samples up to SampleK cached keys and returns the one
// with the fewest sampled hits this cycle, along with that count.
func (c *Controller) sampleVictimLocked() (*entry, uint64) {
	if len(c.order) == 0 {
		return nil, 0
	}
	k := c.cfg.SampleK
	if k > len(c.order) {
		k = len(c.order)
	}
	var victim *entry
	best := ^uint64(0)
	idxs := make([]int, 0, k)
	seen := make(map[int]bool, k)
	ents := make([]*entry, 0, k)
	for len(idxs) < k {
		i := c.rng.Intn(len(c.order))
		if seen[i] {
			continue
		}
		seen[i] = true
		e := c.entries[c.order[i]]
		idxs = append(idxs, e.kidx)
		ents = append(ents, e)
	}
	for i, snap := range c.cfg.Switch.ReadCounters(idxs) {
		hits := snap.Hits
		if e := ents[i]; e.hintCycle == c.cycle && e.freqHint > hits {
			hits = e.freqHint
		}
		if hits < best {
			best = hits
			victim = ents[i]
		}
	}
	return victim, best
}
