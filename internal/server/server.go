// Package server implements the NetCache storage-server agent: the shim
// layer between the wire protocol and the in-memory key-value store
// (SOSP'17 §3 "Storage servers", §6). It has two jobs:
//
//  1. map NetCache query packets to key-value store calls, and
//  2. enforce the write-through cache-coherence protocol of §4.3: when the
//     switch marks a write as targeting a cached key (OpPutCached /
//     OpDeleteCached), the agent applies the write atomically, replies to
//     the client immediately, pushes the new value into the switch data
//     plane with a reliable OpCacheUpdate (retried until acked), and blocks
//     subsequent writes to that key until the switch confirms — so the
//     switch cache and the store can never permanently diverge.
//
// The controller uses the same blocking machinery while it inserts a key
// into the cache (§4.3 "write queries to this key are blocked at the
// storage servers until the insertion is finished").
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"netcache/internal/bufpool"
	"netcache/internal/kvstore"
	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/stats"
)

// Config tunes a server agent.
type Config struct {
	// Addr is the server's rack address.
	Addr netproto.Addr
	// Shards is the per-core sharding factor of the backing store.
	Shards int
	// Engine selects the storage engine: "chained" (default) or
	// "cuckoo" (see kvstore.NewEngine).
	Engine string
	// RetryInterval is the cache-update retransmission period. Zero
	// means 2ms.
	RetryInterval time.Duration
	// MaxRetries bounds cache-update retransmissions before the agent
	// gives up and unblocks writers (the key stays invalid in the switch,
	// which is safe: reads fall through to the server). Zero means 16.
	MaxRetries int
	// PartitionOf maps a key to its home partition address — the stable
	// hash address clients route by, independent of which node currently
	// serves the partition. Required for replication; nil leaves the
	// server unreplicated even if SetReplica is called.
	PartitionOf func(key netproto.Key) netproto.Addr
}

// Metrics counts the agent's activity.
type Metrics struct {
	Gets, Puts, Deletes stats.Counter
	CacheUpdatesSent    stats.Counter
	CacheUpdateRetries  stats.Counter
	CacheUpdateGiveUps  stats.Counter
	WritesQueued        stats.Counter
	WritesDeduped       stats.Counter
	StaleAcks           stats.Counter

	// Primary-side replication counters.
	ReplicatesSent   stats.Counter
	ReplicateRetries stats.Counter
	ReplicateGiveUps stats.Counter
	// Backup-side replication counters.
	ReplicatesApplied stats.Counter
	ReplicatesDeduped stats.Counter
}

// StoreStats is a snapshot of the storage engine's own counters, surfaced
// through stats.Registry alongside the agent's Metrics (the engine is
// replaceable across a wiping restart, so the registry resolves it lazily
// via Server.StoreStats rather than holding the engine).
type StoreStats struct {
	Items       uint64
	ReadRetries uint64
}

// StoreStats reads the current engine's counters.
func (s *Server) StoreStats() *StoreStats {
	s.mu.Lock()
	store := s.store
	s.mu.Unlock()
	return &StoreStats{
		Items:       uint64(store.Len()),
		ReadRetries: store.ReadRetries(),
	}
}

// Server is one storage node. Attach it to the fabric with SetSend +
// Receive. Safe for concurrent use.
type Server struct {
	cfg   Config
	store kvstore.Engine
	send  func(frame []byte)

	mu   sync.Mutex
	keys map[netproto.Key]*keyState

	// down marks a crashed server: frames are dropped and control calls
	// are no-ops until Restart.
	down bool

	// incarnation counts the server's process lifetimes; Restart bumps it.
	// The failure detector compares it across successful heartbeats to
	// catch a crash-restart cycle that fit between two probes: the new
	// process answers pings, but its volatile replica registrations died
	// with the old one.
	incarnation uint64

	// applied is the per-key write replay guard: the source and sequence
	// number of the last write applied to the store. A network that
	// duplicates or reorders frames can deliver a client's retransmitted
	// (or replayed) write after a newer one; replaying it would resurrect
	// the old value in the store. A write whose (src, seq) is at or below
	// the recorded stamp is acknowledged again — the client may have
	// missed the first ack — but not re-applied. The guard tracks only the
	// most recent writer per key, which covers retransmissions and replays
	// under the per-key single-writer discipline the chaos suite checks.
	applied map[netproto.Key]writeStamp

	// replicas maps home partition address → backup address for the
	// partitions this node currently serves as primary. Owned by the
	// controller (SetReplica/DropReplica); volatile across a crash — the
	// controller reconfigures the pair on rejoin, and the incarnation
	// bump makes even a restart faster than the detection window visible.
	replicas map[netproto.Addr]netproto.Addr

	// replStamp is the backup-side replication guard: per key, the highest
	// primary version applied via OpReplicate/OpReplicateDelete or the
	// anti-entropy catch-up path. Duplicated or reordered replication
	// frames at or below the stamp are re-acked but not re-applied, and
	// for replicated deletes the stamp doubles as a tombstone. Like the
	// store, it survives a preserve-restart and is wiped with the store.
	replStamp map[netproto.Key]uint64

	// control-request deduplication window (networked §4.3 protocol)
	ctlSeen  map[uint64]bool
	ctlOrder []uint64

	// trace, when set, receives per-query hop records. Kept in an atomic
	// pointer so the disabled path is one load and a nil branch.
	trace atomic.Pointer[qtrace.Tap]

	// Metrics is exported for harnesses and tests.
	Metrics Metrics
}

// SetTrace installs (or, with nil, removes) the query-trace tap. Safe to
// call concurrently with traffic.
func (s *Server) SetTrace(t *qtrace.Tap) { s.trace.Store(t) }

// writeStamp identifies the last applied write of one key.
type writeStamp struct {
	src netproto.Addr
	seq uint64
}

// keyState tracks per-key write blocking.
type keyState struct {
	// blocks counts controller-issued blocks (cache insertion windows).
	blocks int
	// pending is the in-flight cache update, if any.
	pending *pendingUpdate
	// repl is the in-flight replication of an applied write, if any. While
	// set, the client ack (and any cache refresh) is withheld and later
	// writes to the key queue: replicate-before-ack.
	repl *pendingRepl
	// queue holds writes deferred until the key unblocks.
	queue []queuedWrite
}

type pendingUpdate struct {
	seq   uint64
	value []byte
	tries int
	timer *time.Timer
}

// pendingRepl is a write applied at the primary whose client ack is parked
// until the backup confirms (OpReplicateAck).
type pendingRepl struct {
	op     netproto.Op // OpReplicate or OpReplicateDelete
	seq    uint64      // primary store version carried on the wire
	value  []byte
	backup netproto.Addr
	src    netproto.Addr   // client to acknowledge on completion
	reply  netproto.Packet // the withheld client ack
	// refresh is the switch cache update to fire once replicated
	// (OpPutCached writes); nil otherwise.
	refresh *pendingUpdate
	tries   int
	timer   *time.Timer
}

type queuedWrite struct {
	src netproto.Addr
	pkt netproto.Packet
}

// New returns a server agent backed by a fresh store. An unknown engine
// name falls back to the default chained store.
func New(cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 2 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 16
	}
	store := kvstore.NewEngine(cfg.Engine, cfg.Shards)
	if store == nil {
		store = kvstore.New(cfg.Shards)
	}
	return &Server{
		cfg:     cfg,
		store:   store,
		keys:    make(map[netproto.Key]*keyState),
		applied: make(map[netproto.Key]writeStamp),
	}
}

// Crash models a process crash: the server stops receiving, every pending
// cache-update retransmission is cancelled, and all volatile protocol state
// (write-block windows, queued writes, control dedup window) is discarded.
// The store itself survives in memory — Restart decides whether it is
// preserved (a disk-backed store reattached after a process restart) or
// wiped (a node replaced from empty).
func (s *Server) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = true
	for _, st := range s.keys {
		if st.pending != nil && st.pending.timer != nil {
			st.pending.timer.Stop()
		}
		if st.repl != nil && st.repl.timer != nil {
			st.repl.timer.Stop()
		}
	}
	s.keys = make(map[netproto.Key]*keyState)
	s.ctlSeen = nil
	s.ctlOrder = nil
	// Replica assignments are controller-owned soft state: the controller
	// re-establishes the pair when the node rejoins.
	s.replicas = nil
}

// Restart brings a crashed server back. With wipeStore the backing engine is
// replaced by an empty one (and the write replay guard forgets its stamps —
// there is no old value left to resurrect); otherwise the store and guard
// are preserved, as with durable storage.
func (s *Server) Restart(wipeStore bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wipeStore {
		store := kvstore.NewEngine(s.cfg.Engine, s.cfg.Shards)
		if store == nil {
			store = kvstore.New(s.cfg.Shards)
		}
		s.store = store
		s.applied = make(map[netproto.Key]writeStamp)
		s.replStamp = nil
	}
	s.incarnation++
	s.down = false
}

// Down reports whether the server is crashed.
func (s *Server) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Addr returns the server's rack address.
func (s *Server) Addr() netproto.Addr { return s.cfg.Addr }

// Store exposes the backing storage engine (for preloading datasets in
// harnesses).
func (s *Server) Store() kvstore.Engine { return s.store }

// SetSend installs the transmit function (frames leave toward the switch).
// Must be called before traffic arrives.
func (s *Server) SetSend(fn func(frame []byte)) { s.send = fn }

// Receive handles one frame delivered to the server's port.
func (s *Server) Receive(frame []byte) {
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return // crashed: the NIC is gone
	}
	fr, err := netproto.DecodeFrame(frame)
	if err != nil {
		return
	}
	var pkt netproto.Packet
	if netproto.Decode(fr.Payload, &pkt) != nil {
		return
	}
	switch pkt.Op {
	case netproto.OpGet:
		s.handleGet(fr.Src, pkt)
	case netproto.OpPut, netproto.OpPutCached, netproto.OpDelete, netproto.OpDeleteCached:
		s.handleWrite(fr.Src, pkt)
	case netproto.OpCacheUpdateAck:
		s.handleAck(pkt)
	case netproto.OpReplicate, netproto.OpReplicateDelete:
		s.handleReplicate(fr.Src, pkt)
	case netproto.OpReplicateAck:
		s.handleReplAck(pkt)
	case netproto.OpCtlBlock, netproto.OpCtlUnblock:
		// The networked form of the controller's write-block window
		// (§4.3), used when controller and server are separate
		// processes. Retransmitted requests (lost acks) are deduped by
		// SEQ so a block is never applied twice.
		if s.ctlDedup(pkt.Seq) {
			if pkt.Op == netproto.OpCtlBlock {
				s.BlockWrites(pkt.Key)
			} else {
				s.UnblockWrites(pkt.Key)
			}
		}
		s.reply(fr.Src, netproto.Packet{Op: netproto.OpCtlAck, Seq: pkt.Seq, Key: pkt.Key})
	}
}

// ctlDedup records a control sequence number, returning false when it was
// already applied. The window is bounded: old entries age out.
func (s *Server) ctlDedup(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctlSeen == nil {
		s.ctlSeen = make(map[uint64]bool)
	}
	if s.ctlSeen[seq] {
		return false
	}
	s.ctlSeen[seq] = true
	s.ctlOrder = append(s.ctlOrder, seq)
	if len(s.ctlOrder) > 4096 {
		delete(s.ctlSeen, s.ctlOrder[0])
		s.ctlOrder = s.ctlOrder[1:]
	}
	return true
}

// handleGet is the zero-copy read path: the reply headers go into a pooled
// frame, the store appends the value directly into it (GetAppend — no
// intermediate value slice, no Packet), and the frame is sealed and sent.
func (s *Server) handleGet(src netproto.Addr, pkt netproto.Packet) {
	s.Metrics.Gets.Inc()
	s.trace.Load().Record(qtrace.ServerGet, pkt.Op, pkt.Seq, pkt.Key, false, false)
	frame := bufpool.Get()
	frame = netproto.ReplyInto(frame, src, s.cfg.Addr, netproto.OpGetReply, pkt.Seq, pkt.Key)
	frame, _, ok := s.store.GetAppend(pkt.Key, frame)
	if !ok {
		netproto.SetFrameOp(frame, netproto.OpGetReplyMiss)
	}
	if err := netproto.SealReply(frame); err != nil {
		bufpool.Put(frame)
		return
	}
	s.send(frame)
	bufpool.Put(frame)
}

// handleWrite applies a write or queues it if the key is blocked.
func (s *Server) handleWrite(src netproto.Addr, pkt netproto.Packet) {
	s.trace.Load().Record(qtrace.ServerWrite, pkt.Op, pkt.Seq, pkt.Key, false, false)
	s.mu.Lock()
	st := s.keys[pkt.Key]
	if st != nil && (st.blocks > 0 || st.pending != nil || st.repl != nil) {
		// pkt.Value aliases the delivered frame, whose buffer the fabric
		// recycles once Receive returns; a queued write outlives that, so
		// it needs its own copy.
		pkt.Value = append([]byte(nil), pkt.Value...)
		st.queue = append(st.queue, queuedWrite{src, pkt})
		s.Metrics.WritesQueued.Inc()
		s.mu.Unlock()
		return
	}
	s.applyWriteLocked(src, pkt)
}

// applyWriteLocked applies the write, arranges the cache refresh for cached
// keys, and releases the lock before sending anything.
func (s *Server) applyWriteLocked(src netproto.Addr, pkt netproto.Packet) {
	if ws, ok := s.applied[pkt.Key]; ok && ws.src == src && pkt.Seq <= ws.seq {
		// Retransmitted or network-replayed write: already applied. Ack
		// again (the first ack may have been lost) without touching the
		// store, then keep draining any writes queued behind it.
		s.Metrics.WritesDeduped.Inc()
		key := pkt.Key
		s.mu.Unlock()
		s.reply(src, netproto.Reply(&pkt, nil, true))
		s.mu.Lock()
		if st := s.keys[key]; st != nil {
			s.drainLocked(key, st) // unlocks
		} else {
			s.mu.Unlock()
		}
		return
	}
	var refresh *pendingUpdate
	var repl *pendingRepl
	switch pkt.Op {
	case netproto.OpPut, netproto.OpPutCached:
		s.Metrics.Puts.Inc()
		version := s.store.Put(pkt.Key, pkt.Value)
		if pkt.Op == netproto.OpPutCached {
			// The key is cached: refresh the switch and block
			// subsequent writes until the refresh is acked (§4.3).
			refresh = &pendingUpdate{
				seq:   version,
				value: append([]byte(nil), pkt.Value...),
			}
		}
		if backup, ok := s.backupForLocked(pkt.Key); ok {
			repl = &pendingRepl{
				op:     netproto.OpReplicate,
				seq:    version,
				value:  append([]byte(nil), pkt.Value...),
				backup: backup,
			}
		}
	case netproto.OpDelete, netproto.OpDeleteCached:
		s.Metrics.Deletes.Inc()
		version, ok := s.store.Delete(pkt.Key)
		// A deleted cached key stays invalid in the switch until the
		// controller evicts it; reads fall through here and miss. A
		// delete that removed nothing leaves the pair in sync already,
		// so only an effective delete replicates.
		if backup, bok := s.backupForLocked(pkt.Key); bok && ok {
			repl = &pendingRepl{op: netproto.OpReplicateDelete, seq: version, backup: backup}
		}
	}
	key := pkt.Key
	if repl != nil {
		// Replicate before acking (§4.3 order preserved: the switch
		// invalidated the cached copy in flight, the primary applied; now
		// the backup must confirm before the client ack and any cache
		// refresh go out — an acked write survives a permanent primary
		// failure). The applied-stamp is recorded on completion, so if
		// replication gives up the client's retransmission re-applies and
		// re-replicates instead of being deduped into a hollow ack.
		repl.src = src
		repl.reply = netproto.Reply(&pkt, nil, true)
		repl.refresh = refresh
		s.stateLocked(key).repl = repl
		s.mu.Unlock()
		s.sendReplicate(key, repl)
		s.scheduleReplRetry(key, repl.seq)
		return
	}
	s.applied[key] = writeStamp{src: src, seq: pkt.Seq}
	if refresh != nil {
		s.stateLocked(key).pending = refresh
	}
	s.mu.Unlock()

	// Reply to the client immediately — the agent does not wait for the
	// switch cache to be updated (§4.3: lower write latency than a
	// standard write-through cache).
	s.reply(src, netproto.Reply(&pkt, nil, true))

	if refresh != nil {
		s.sendCacheUpdate(key, refresh)
		s.scheduleRetry(key, refresh.seq)
		return
	}
	// No refresh armed: the key did not re-block, so continue draining any
	// writes still queued behind this one (e.g. plain writes that queued
	// while a now-evicted key's update was in flight).
	s.mu.Lock()
	if st := s.keys[key]; st != nil {
		s.drainLocked(key, st) // unlocks
	} else {
		s.mu.Unlock()
	}
}

func (s *Server) stateLocked(key netproto.Key) *keyState {
	st := s.keys[key]
	if st == nil {
		st = &keyState{}
		s.keys[key] = st
	}
	return st
}

// sendCacheUpdate pushes the new value into the switch data plane. The
// update travels addressed to the server itself so that the switch routes
// it through the egress pipe owning the key's value slots and bounces the
// ack straight back (§4.3: "the updates are purely in the data plane at
// line rate").
func (s *Server) sendCacheUpdate(key netproto.Key, u *pendingUpdate) {
	s.Metrics.CacheUpdatesSent.Inc()
	pkt := netproto.Packet{Op: netproto.OpCacheUpdate, Seq: u.seq, Key: key, Value: u.value}
	s.sendPacket(s.cfg.Addr, &pkt)
}

// scheduleRetry arms the retransmission timer for a pending update — the
// "light-weight high-performance reliable packet mechanism" of §6.
func (s *Server) scheduleRetry(key netproto.Key, seq uint64) {
	s.mu.Lock()
	st := s.keys[key]
	if st == nil || st.pending == nil || st.pending.seq != seq {
		s.mu.Unlock()
		return // already acked
	}
	u := st.pending
	u.timer = time.AfterFunc(s.cfg.RetryInterval, func() { s.retry(key, seq) })
	s.mu.Unlock()
}

func (s *Server) retry(key netproto.Key, seq uint64) {
	s.mu.Lock()
	st := s.keys[key]
	if st == nil || st.pending == nil || st.pending.seq != seq {
		s.mu.Unlock()
		return // acked in the meantime
	}
	u := st.pending
	u.tries++
	// A write queued behind the update invalidated the switch entry on its
	// way here. Resending the older value now would validate it again after
	// that invalidation, and a queued delete, which sends no refresh of its
	// own, would leave it valid once acked. So a superseded update is
	// dropped like one out of retries.
	if u.tries >= s.cfg.MaxRetries || len(st.queue) > 0 {
		// Give up: the key stays invalid in the switch (safe — reads
		// fall through) and writers unblock.
		s.Metrics.CacheUpdateGiveUps.Inc()
		st.pending = nil
		s.drainLocked(key, st) // unlocks
		return
	}
	s.Metrics.CacheUpdateRetries.Inc()
	s.mu.Unlock()
	s.sendCacheUpdate(key, u)
	s.scheduleRetry(key, seq)
}

func (s *Server) handleAck(pkt netproto.Packet) {
	s.mu.Lock()
	st := s.keys[pkt.Key]
	if st == nil || st.pending == nil || st.pending.seq != pkt.Seq {
		s.Metrics.StaleAcks.Inc()
		s.mu.Unlock()
		return
	}
	if st.pending.timer != nil {
		st.pending.timer.Stop()
	}
	st.pending = nil
	s.drainLocked(pkt.Key, st) // unlocks
}

// backupForLocked resolves the backup address for key's home partition, if
// this node currently primaries it with a configured replica.
func (s *Server) backupForLocked(key netproto.Key) (netproto.Addr, bool) {
	if s.cfg.PartitionOf == nil || len(s.replicas) == 0 {
		return 0, false
	}
	b, ok := s.replicas[s.cfg.PartitionOf(key)]
	if !ok || b == 0 || b == s.cfg.Addr {
		return 0, false
	}
	return b, true
}

// sendReplicate ships an applied write to the backup. Both ends use node
// aliases, not home addresses: the backup's home route may have been
// re-pointed at this very node by an earlier failover (a rejoined ex-primary
// is addressed by a route that still targets its replacement), and the
// backup's ack must likewise reach this node even if our home route has
// moved. Aliases always route to the physical server.
func (s *Server) sendReplicate(key netproto.Key, pr *pendingRepl) {
	s.Metrics.ReplicatesSent.Inc()
	pkt := netproto.Packet{Op: pr.op, Seq: pr.seq, Key: key, Value: pr.value}
	s.sendPacketFrom(netproto.NodeAlias(pr.backup), netproto.NodeAlias(s.cfg.Addr), &pkt)
}

// scheduleReplRetry arms the replication retransmission timer, mirroring
// the cache-update reliability protocol.
func (s *Server) scheduleReplRetry(key netproto.Key, seq uint64) {
	s.mu.Lock()
	st := s.keys[key]
	if st == nil || st.repl == nil || st.repl.seq != seq {
		s.mu.Unlock()
		return // already acked
	}
	pr := st.repl
	pr.timer = time.AfterFunc(s.cfg.RetryInterval, func() { s.replRetry(key, seq) })
	s.mu.Unlock()
}

func (s *Server) replRetry(key netproto.Key, seq uint64) {
	s.mu.Lock()
	st := s.keys[key]
	if st == nil || st.repl == nil || st.repl.seq != seq {
		s.mu.Unlock()
		return // acked in the meantime
	}
	pr := st.repl
	pr.tries++
	if pr.tries >= s.cfg.MaxRetries {
		s.completeReplLocked(key, st, false) // unlocks
		return
	}
	s.Metrics.ReplicateRetries.Inc()
	s.mu.Unlock()
	s.sendReplicate(key, pr)
	s.scheduleReplRetry(key, seq)
}

// completeReplLocked finishes an in-flight replication: on ack it records
// the replay stamp, releases the client reply, and fires any parked cache
// refresh; on give-up it withholds the ack entirely — the backup is
// unreachable, and acknowledging an unreplicated write would break the
// durability contract. The client's retransmission re-applies the write,
// by which time the failure detector has usually reconfigured the pair.
// Called with the lock held; releases it.
func (s *Server) completeReplLocked(key netproto.Key, st *keyState, acked bool) {
	pr := st.repl
	st.repl = nil
	if !acked {
		s.Metrics.ReplicateGiveUps.Inc()
		s.drainLocked(key, st) // unlocks
		return
	}
	s.applied[key] = writeStamp{src: pr.src, seq: pr.reply.Seq}
	refresh := pr.refresh
	if refresh != nil {
		st.pending = refresh
	}
	s.mu.Unlock()
	s.reply(pr.src, pr.reply)
	if refresh != nil {
		s.sendCacheUpdate(key, refresh)
		s.scheduleRetry(key, refresh.seq)
		return
	}
	s.mu.Lock()
	if st := s.keys[key]; st != nil {
		s.drainLocked(key, st) // unlocks
	} else {
		s.mu.Unlock()
	}
}

func (s *Server) handleReplAck(pkt netproto.Packet) {
	s.mu.Lock()
	st := s.keys[pkt.Key]
	if st == nil || st.repl == nil || st.repl.seq != pkt.Seq {
		s.Metrics.StaleAcks.Inc()
		s.mu.Unlock()
		return
	}
	if st.repl.timer != nil {
		st.repl.timer.Stop()
	}
	s.completeReplLocked(pkt.Key, st, true) // unlocks
}

// handleReplicate is the backup side: apply the primary's write if it is
// newer than the replication stamp, then ack. The stamp makes duplicated
// and reordered replication frames idempotent, and for deletes it is the
// tombstone that stops a stale Replicate from resurrecting the key.
func (s *Server) handleReplicate(src netproto.Addr, pkt netproto.Packet) {
	s.mu.Lock()
	if s.replStamp == nil {
		s.replStamp = make(map[netproto.Key]uint64)
	}
	if pkt.Seq > s.replStamp[pkt.Key] {
		s.replStamp[pkt.Key] = pkt.Seq
		if pkt.Op == netproto.OpReplicate {
			s.store.PutAt(pkt.Key, pkt.Value, pkt.Seq)
		} else {
			s.store.BumpVersion(pkt.Key, pkt.Seq)
			s.store.Delete(pkt.Key)
		}
		s.Metrics.ReplicatesApplied.Inc()
	} else {
		s.Metrics.ReplicatesDeduped.Inc()
	}
	s.mu.Unlock()
	s.reply(src, netproto.Packet{Op: netproto.OpReplicateAck, Seq: pkt.Seq, Key: pkt.Key})
}

// Ping is the failure detector's heartbeat probe: a crashed server does
// not answer.
func (s *Server) Ping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down
}

// Incarnation returns the server's process lifetime counter (see the field
// doc): a different value across two successful pings means the server
// restarted in between, however quickly.
func (s *Server) Incarnation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incarnation
}

// SetReplica registers backup as the replica of the home partition this
// node primaries. Controller-owned: the pairing changes only on failover
// and rejoin.
func (s *Server) SetReplica(home, backup netproto.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return
	}
	if s.replicas == nil {
		s.replicas = make(map[netproto.Addr]netproto.Addr)
	}
	s.replicas[home] = backup
}

// DropReplica stops replicating the home partition (backup declared dead
// or partition handed off).
func (s *Server) DropReplica(home netproto.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.replicas, home)
}

// ReplicaApply is the anti-entropy catch-up path: install (value, version)
// if it is newer than what this node has seen for key. It uses the same
// stamp as live replication, so a resync copy and a concurrent replicated
// write commute — the higher version wins regardless of arrival order.
func (s *Server) ReplicaApply(key netproto.Key, value []byte, version uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return false
	}
	if s.replStamp == nil {
		s.replStamp = make(map[netproto.Key]uint64)
	}
	if version <= s.replStamp[key] {
		return false
	}
	s.replStamp[key] = version
	return s.store.PutAt(key, value, version)
}

// ReplicaStamp returns the replication stamp recorded for key (0 if none).
func (s *Server) ReplicaStamp(key netproto.Key) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replStamp[key]
}

// ReplicaDrop removes key from the store iff its replication stamp still
// equals stamp — the compare-and-drop the controller uses to prune keys
// deleted at the primary while this node was down. If a live replicated
// write advanced the stamp since the controller sampled it, the drop is
// refused and the newer value stays.
func (s *Server) ReplicaDrop(key netproto.Key, stamp uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || s.replStamp[key] != stamp {
		return false
	}
	s.store.Delete(key)
	return true
}

// BlockWrites opens a controller write-block window on key (used during
// cache insertion). Blocks nest. A crashed server ignores the call — its
// protocol state is gone anyway, and reads fall through to misses.
func (s *Server) BlockWrites(key netproto.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return
	}
	s.stateLocked(key).blocks++
}

// UnblockWrites closes a controller write-block window and processes any
// writes that queued behind it.
func (s *Server) UnblockWrites(key netproto.Key) {
	s.mu.Lock()
	st := s.keys[key]
	if s.down || st == nil || st.blocks == 0 {
		s.mu.Unlock()
		return
	}
	st.blocks--
	s.drainLocked(key, st) // unlocks
}

// FetchValue is the controller's read path when populating the cache. A
// crashed server has no read path.
func (s *Server) FetchValue(key netproto.Key) (value []byte, version uint64, ok bool) {
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return nil, 0, false
	}
	return s.store.Get(key)
}

// ProbeValue reports whether key is present, distinguishing absence from
// unreachability: present is only meaningful when alive. The resync prune
// drops backup keys solely on a live node's word (see
// controller.ReplicatedNode).
func (s *Server) ProbeValue(key netproto.Key) (present, alive bool) {
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return false, false
	}
	_, _, ok := s.store.Get(key)
	return ok, true
}

// drainLocked processes the next queued write if the key is now unblocked,
// and garbage-collects empty states. It is called with the lock held and
// releases it.
func (s *Server) drainLocked(key netproto.Key, st *keyState) {
	if st.blocks > 0 || st.pending != nil || st.repl != nil || len(st.queue) == 0 {
		if st.blocks == 0 && st.pending == nil && st.repl == nil && len(st.queue) == 0 {
			delete(s.keys, key)
		}
		s.mu.Unlock()
		return
	}
	next := st.queue[0]
	st.queue = st.queue[1:]
	// applyWriteLocked unlocks; it may re-block the key (PutCached), in
	// which case remaining queued writes wait for the next ack.
	s.applyWriteLocked(next.src, next.pkt)
}

func (s *Server) reply(dst netproto.Addr, pkt netproto.Packet) {
	s.sendPacket(dst, &pkt)
}

// sendPacket frames pkt into a pooled buffer, hands it to the fabric, and
// recycles the buffer: send implementations (simnet.Inject, udptrans.Send)
// consume the frame synchronously and do not retain it.
func (s *Server) sendPacket(dst netproto.Addr, pkt *netproto.Packet) {
	s.sendPacketFrom(dst, s.cfg.Addr, pkt)
}

// sendPacketFrom is sendPacket with an explicit source address — the
// replication path stamps its node alias so acks route back to the physical
// node rather than to wherever its home address currently points.
func (s *Server) sendPacketFrom(dst, src netproto.Addr, pkt *netproto.Packet) {
	frame := bufpool.Get()
	frame, err := netproto.AppendFramePacket(frame, dst, src, pkt)
	if err != nil {
		bufpool.Put(frame)
		return
	}
	s.send(frame)
	bufpool.Put(frame)
}
