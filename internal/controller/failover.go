package controller

import (
	"sort"

	"netcache/internal/netproto"
)

// This file is the controller's replication management: a heartbeat-based
// failure detector over the storage nodes, controller-driven failover that
// re-points the switch routes (and the cached entries' ownership) of a dead
// primary's partition at its backup, and the versioned anti-entropy resync
// that lets a restarted node catch up and become promotable again.
//
// The paper delegates storage fault tolerance to the KV layer (§4.4); this
// is that layer. The switch keeps the mechanism cheap: a partition moves by
// overwriting one routing-table entry per home address plus one lookup
// entry per cached key, so hot keys keep serving from the switch cache
// through the entire switchover and cold keys fail over within a detection
// window instead of timing out until an operator intervenes.

// ReplicatedNode is the optional control-plane surface of a storage node
// that participates in replication. Nodes that do not implement it (e.g. a
// remote daemon shim) are simply not managed by the failure detector.
type ReplicatedNode interface {
	StorageNode
	// Ping is the heartbeat probe; false (or no answer, in a networked
	// deployment) counts as a miss.
	Ping() bool
	// Incarnation counts the node's process lifetimes. A change between
	// two successful pings means the node crashed and restarted inside the
	// detection window — it never missed enough probes to be declared
	// dead, but its volatile replica registrations are gone all the same,
	// so the detector must treat the restart as a membership change.
	Incarnation() uint64
	// SetReplica/DropReplica configure live replication of the partition
	// homed at home on the node currently serving it as primary.
	SetReplica(home, backup netproto.Addr)
	DropReplica(home netproto.Addr)
	// Range walks the node's store for the anti-entropy snapshot, with the
	// contract of kvstore.Store.Range.
	Range(fn func(key netproto.Key, value []byte, version uint64) bool)
	// ReplicaApply installs (value, version) if newer than anything the
	// node has seen for key; ReplicaStamp and ReplicaDrop are the
	// compare-and-drop pair that prunes keys deleted at the primary while
	// the node was down without racing live replication.
	ReplicaApply(key netproto.Key, value []byte, version uint64) bool
	ReplicaStamp(key netproto.Key) uint64
	ReplicaDrop(key netproto.Key, stamp uint64) bool
	// ProbeValue distinguishes "key absent" from "node unreachable":
	// present is meaningful only when alive. The resync's prune drops a
	// backup key only on positive evidence of absence — FetchValue's
	// ok=false conflates the two, and pruning off a corpse would tombstone
	// every key the backup holds.
	ProbeValue(key netproto.Key) (present, alive bool)
}

// member is the failure detector's view of one storage node.
type member struct {
	node   ReplicatedNode
	misses int
	dead   bool
	// inc is the incarnation observed on the last successful probe.
	inc uint64
}

// partition tracks who serves and who backs one key partition. home is the
// stable hash address clients route by; primary is the node the switch
// routes it to right now.
type partition struct {
	home        netproto.Addr
	primary     netproto.Addr
	backup      netproto.Addr // 0 = currently unreplicated
	backupReady bool          // caught up → promotable
	// epoch increments on every membership change of this partition. A
	// resync validates it before promoting the backup to ready, so a
	// primary declared dead mid-resync aborts the catch-up instead of
	// certifying a copy of a corpse.
	epoch uint64
}

// resyncTask is one partition catch-up, snapshotted under the lock and
// executed outside it.
type resyncTask struct {
	home    netproto.Addr
	primary ReplicatedNode
	backup  ReplicatedNode
	epoch   uint64
}

// initReplication builds the detector's membership and partition tables
// from the config. Called from New with no lock needed yet.
func (c *Controller) initReplication() {
	c.members = make(map[netproto.Addr]*member)
	for addr, node := range c.cfg.Nodes {
		if rn, ok := node.(ReplicatedNode); ok {
			c.members[addr] = &member{node: rn, inc: rn.Incarnation()}
		}
	}
	c.parts = make(map[netproto.Addr]*partition)
	for home, b := range c.cfg.Backups {
		if b == 0 || b == home {
			continue
		}
		pm, bm := c.members[home], c.members[b]
		if pm == nil || bm == nil {
			continue
		}
		// Both nodes start empty, so the pair is trivially in sync and the
		// backup is promotable from the first write on.
		c.parts[home] = &partition{home: home, primary: home, backup: b, backupReady: true}
		c.partOrder = append(c.partOrder, home)
		pm.node.SetReplica(home, b)
	}
	sort.Slice(c.partOrder, func(i, j int) bool { return c.partOrder[i] < c.partOrder[j] })
}

// heartbeatAndRepair runs one failure-detector cycle: probe every member,
// declare the ones past the miss threshold dead (failing over their
// partitions), and hand back the catch-up work for partitions that have an
// assigned but not yet caught-up backup. The returned tasks are executed
// outside the lock.
func (c *Controller) heartbeatAndRepair() []resyncTask {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.members) == 0 {
		return nil
	}
	// Probe in address order so multi-death ticks declare deterministically
	// (seeded chaos runs must reproduce).
	addrs := make([]netproto.Addr, 0, len(c.members))
	for addr := range c.members {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		m := c.members[addr]
		if m.node.Ping() {
			m.misses = 0
			if inc := m.node.Incarnation(); inc != m.inc {
				m.inc = inc
				if !m.dead {
					// The node crashed and came back between two probes: it
					// never missed enough pings to be declared dead, but its
					// replica registrations died with the old process, so
					// replication is silently off. Treat the restart as the
					// membership change it is — fail its partitions over to
					// their ready backups, detach it as backup elsewhere
					// (epoch++ both ways), and let repairLocked re-register
					// and re-certify it before it is promotable again.
					c.Metrics.Restarts.Inc()
					c.declareDeadLocked(addr)
				}
			}
			if m.dead {
				m.dead = false
				c.Metrics.Rejoins.Inc()
			}
			continue
		}
		if m.dead {
			continue
		}
		m.misses++
		if m.misses >= c.cfg.HeartbeatMisses {
			m.dead = true
			c.Metrics.Deaths.Inc()
			c.declareDeadLocked(addr)
		}
	}
	return c.repairLocked()
}

// declareDeadLocked fails over every partition addr primaries (route flip +
// cached-entry rebind + promotion) and detaches it as backup elsewhere.
func (c *Controller) declareDeadLocked(addr netproto.Addr) {
	for _, home := range c.partOrder {
		p := c.parts[home]
		if p.backup == addr {
			p.backup, p.backupReady = 0, false
			p.epoch++
			if pm := c.members[p.primary]; pm != nil && !pm.dead {
				pm.node.DropReplica(home)
			}
		}
		if p.primary != addr {
			continue
		}
		p.epoch++
		promoted := netproto.Addr(0)
		if p.backup != 0 && p.backupReady {
			if bm := c.members[p.backup]; bm != nil && !bm.dead {
				promoted = p.backup
			}
		}
		if promoted == 0 {
			// No promotable copy: the partition is down until the primary
			// (or a catching-up backup) comes back. Routes stay put.
			p.backup, p.backupReady = 0, false
			c.Metrics.FailoverStalls.Inc()
			continue
		}
		port, ok := c.cfg.PortOf(promoted)
		if !ok {
			p.backup, p.backupReady = 0, false
			c.Metrics.FailoverStalls.Inc()
			continue
		}
		// Flip the route for the partition's home address, then rebind its
		// cached entries: value, validity and version slots are untouched,
		// so hot keys keep serving from the switch throughout; the rebind
		// re-points PutCached forwarding and the CacheUpdate ownership
		// check at the promoted node.
		c.installRouteLocked(home, port)
		for _, e := range c.entries {
			if c.cfg.Partition(e.key) != home {
				continue
			}
			e.addr, e.port = promoted, port
			_ = c.cfg.Switch.RebindCacheEntry(e.key, e.kidx, e.placement, port)
		}
		p.primary = promoted
		p.backup, p.backupReady = 0, false
		if bm := c.members[promoted]; bm != nil {
			bm.node.DropReplica(home)
		}
		c.Metrics.Failovers.Inc()
	}
}

// repairLocked assigns backups to partitions that lack one and collects the
// resync work for every assigned-but-not-ready backup. Eligible backups for
// a partition are its two configured homes — the original primary and the
// configured backup — whichever is alive and not currently serving it, so a
// restarted node always rejoins as the backup of its old partition.
func (c *Controller) repairLocked() []resyncTask {
	var tasks []resyncTask
	for _, home := range c.partOrder {
		p := c.parts[home]
		pm := c.members[p.primary]
		if pm == nil || pm.dead {
			continue
		}
		if p.backup == 0 {
			for _, cand := range [2]netproto.Addr{c.cfg.Backups[home], home} {
				if cand == 0 || cand == p.primary {
					continue
				}
				if bm := c.members[cand]; bm != nil && !bm.dead {
					p.backup, p.backupReady = cand, false
					p.epoch++
					break
				}
			}
		}
		if p.backup == 0 || p.backupReady {
			continue
		}
		bm := c.members[p.backup]
		if bm == nil || bm.dead {
			continue
		}
		tasks = append(tasks, resyncTask{home: home, primary: pm.node, backup: bm.node, epoch: p.epoch})
	}
	return tasks
}

// Resync drives the versioned anti-entropy catch-up for every partition
// addr is currently assigned to back up, returning how many became
// promotable. It is safe to call concurrently with Tick: a membership
// change that lands mid-resync (the primary declared dead, the assignment
// moved) invalidates the partition's epoch and the catch-up is discarded
// instead of certifying stale state.
func (c *Controller) Resync(addr netproto.Addr) int {
	c.mu.Lock()
	var tasks []resyncTask
	for _, home := range c.partOrder {
		p := c.parts[home]
		if p.backup != addr || p.backupReady {
			continue
		}
		pm, bm := c.members[p.primary], c.members[p.backup]
		if pm == nil || pm.dead || bm == nil || bm.dead {
			continue
		}
		tasks = append(tasks, resyncTask{home: home, primary: pm.node, backup: bm.node, epoch: p.epoch})
	}
	c.mu.Unlock()
	ready := 0
	for _, t := range tasks {
		if c.resyncPartition(t) {
			ready++
		}
	}
	return ready
}

// resyncPartition copies one partition from its primary to its backup.
// Live replication is enabled first, so writes that land during the copy
// stream to the backup on their own; the snapshot and the live stream
// commute through the per-key version stamp (higher version wins regardless
// of arrival order). Runs without the controller lock held, except for the
// epoch-validated registration below.
func (c *Controller) resyncPartition(t resyncTask) bool {
	// Register the replica atomically with an epoch check. The task was
	// snapshotted under the lock, so a membership change (the backup
	// declared dead, the assignment moved) can land before we get here —
	// declareDeadLocked has then already issued DropReplica, and a late
	// SetReplica would overwrite it, pointing replication at a dead node:
	// every write to the partition would retry into the void and never ack.
	// Validated and registered under the same critical section, any later
	// membership change strictly follows this registration and its
	// DropReplica wins.
	c.mu.Lock()
	if p := c.parts[t.home]; p == nil || p.epoch != t.epoch || p.backup != t.backup.Addr() {
		c.mu.Unlock()
		c.Metrics.ResyncAborts.Inc()
		return false
	}
	t.primary.SetReplica(t.home, t.backup.Addr())
	c.mu.Unlock()

	// Copy the primary's partition keys, newest-version-wins.
	type item struct {
		key netproto.Key
		val []byte
		ver uint64
	}
	var snap []item
	t.primary.Range(func(key netproto.Key, value []byte, version uint64) bool {
		if c.cfg.Partition(key) == t.home {
			snap = append(snap, item{key, append([]byte(nil), value...), version})
		}
		return true
	})
	for _, it := range snap {
		if t.backup.ReplicaApply(it.key, it.val, it.ver) {
			c.Metrics.ResyncCopied.Inc()
		}
	}

	// Prune keys the backup holds that the primary deleted while the
	// backup was away. Compare-and-drop: if a live replicated write
	// advanced the key's stamp between the sample and the drop, the drop
	// is refused and the newer value stays. A drop needs positive evidence
	// of absence — ProbeValue from a live primary. A primary that died
	// mid-resync answers alive=false for every key, and pruning on that
	// would tombstone the backup's entire partition: the stamps left
	// behind refuse the re-apply of the next catch-up, certifying an empty
	// backup. Stop pruning instead; the epoch guard below aborts the
	// certification.
	var stale []netproto.Key
	t.backup.Range(func(key netproto.Key, _ []byte, _ uint64) bool {
		if c.cfg.Partition(key) == t.home {
			stale = append(stale, key)
		}
		return true
	})
	for _, key := range stale {
		stamp := t.backup.ReplicaStamp(key)
		present, alive := t.primary.ProbeValue(key)
		if !alive {
			break
		}
		if present {
			continue
		}
		if t.backup.ReplicaDrop(key, stamp) {
			c.Metrics.ResyncDropped.Inc()
		}
	}

	// Promote to ready only if the partition's membership is unchanged:
	// same epoch, same assignment, primary still alive.
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.parts[t.home]
	if p == nil || p.epoch != t.epoch || p.backup != t.backup.Addr() {
		c.Metrics.ResyncAborts.Inc()
		return false
	}
	if pm := c.members[p.primary]; pm == nil || pm.dead {
		c.Metrics.ResyncAborts.Inc()
		return false
	}
	p.backupReady = true
	return true
}

// installRouteLocked provisions a route flip, preferring the fabric hook
// (which records the entry so a switch reboot re-provisions the flipped
// route) over the raw switch driver.
func (c *Controller) installRouteLocked(addr netproto.Addr, port int) {
	if c.cfg.InstallRoute != nil {
		_ = c.cfg.InstallRoute(addr, port)
		return
	}
	_ = c.cfg.Switch.InstallRoute(addr, port)
}

// ownerLocked resolves the node currently serving key's partition: the
// failover-aware replacement for a bare Partition lookup.
func (c *Controller) ownerLocked(key netproto.Key) (StorageNode, netproto.Addr, bool) {
	addr := c.cfg.Partition(key)
	if p, ok := c.parts[addr]; ok {
		addr = p.primary
	}
	node, ok := c.cfg.Nodes[addr]
	if !ok && c.cfg.Resolve != nil {
		node, ok = c.cfg.Resolve(addr)
	}
	return node, addr, ok
}

// CurrentPrimary returns the address of the node currently serving key's
// partition (its stable home address when the partition is not replicated).
func (c *Controller) CurrentPrimary(key netproto.Key) netproto.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	home := c.cfg.Partition(key)
	if p, ok := c.parts[home]; ok {
		return p.primary
	}
	return home
}

// ReplicaState reports who serves and who backs the partition homed at
// home; ok is false when the partition is not replicated.
func (c *Controller) ReplicaState(home netproto.Addr) (primary, backup netproto.Addr, ready, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[home]
	if !ok {
		return 0, 0, false, false
	}
	return p.primary, p.backup, p.backupReady, true
}

// NodeDead reports the failure detector's verdict on addr.
func (c *Controller) NodeDead(addr netproto.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[addr]
	return ok && m.dead
}
