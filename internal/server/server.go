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
// storage servers until the insertion is finished"). A write that reaches
// the server untagged while the key is cached passed the switch before the
// insertion — parked behind that window, or still in flight when it closed
// — so the switch neither invalidated the entry nor told the server, and
// the entry holds the value fetched before the write. Such a write
// refreshes the switch itself, and its client ack waits for the switch to
// confirm.
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
	// Deprecated: Engine is ignored; the store is always the chained
	// kvstore.Store.
	Engine string
	// RetryInterval is the retransmission period of a write's reliable
	// messages (replication, cache refresh). Zero means 2ms.
	RetryInterval time.Duration
	// MaxRetries bounds each message's transmissions before the agent
	// gives up and unblocks writers (after a refresh the key stays invalid
	// in the switch, which is safe: reads fall through to the server).
	// Zero means 16.
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

// StoreStats is a snapshot of the store's own counters, surfaced through
// stats.Registry alongside the agent's Metrics (the store is replaced by a
// wiping restart, so the registry resolves it lazily via Server.StoreStats
// rather than holding the store).
type StoreStats struct {
	Items       uint64
	ReadRetries uint64
}

// StoreStats reads the current store's counters.
func (s *Server) StoreStats() *StoreStats {
	store := s.store.Load()
	return &StoreStats{
		Items:       uint64(store.Len()),
		ReadRetries: store.ReadRetries(),
	}
}

// Server is one storage node. Attach it to the fabric with SetSend +
// Receive. Safe for concurrent use.
type Server struct {
	cfg Config
	// store is swapped whole by a wiping Restart while reads run without
	// s.mu, hence the atomic pointer.
	store atomic.Pointer[kvstore.Store]
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
	// cached is set when an insertion window opens and cleared when the
	// controller reports the key not cached (a failed insertion or an
	// eviction); the state outlives its other fields while it is set. An
	// untagged write applied while it is set is fenced: it refreshes the
	// switch (an empty refresh invalidates after a delete) and holds its
	// client ack until the switch confirms.
	cached bool
	// w is the applied write still owing reliable messages, if any; later
	// writes to the key queue behind it.
	w *write
	// queue holds writes deferred until the key unblocks.
	queue []queuedWrite
}

// write is an applied write that still owes reliable messages: a
// replication to the backup first (replicate-before-ack), then a refresh
// of the switch cache (§4.3), one on the wire at a time, each resent until
// acked. Both carry the write's store version as their seq.
type write struct {
	seq   uint64
	value []byte // nil for a delete
	msgs  [2]outbound
	n     int // messages owed
	cur   int // index of the one on the wire; n once all are done
	// client and reply are the client ack. It goes out once no replication
	// is outstanding (the write is durable), or, if the write is fenced
	// (see keyState.cached), once the last message is acked or given up.
	client  netproto.Addr
	reply   netproto.Packet
	fenced  bool
	durable bool
}

// outbound is one reliable message of a write. Each kind counts into its
// own Metrics counters.
type outbound struct {
	op                     netproto.Op // OpReplicate, OpReplicateDelete or OpCacheUpdate
	dst, src               netproto.Addr
	tries                  int
	timer                  *time.Timer
	sent, retries, giveUps *stats.Counter
}

func (m *outbound) refresh() bool { return m.op == netproto.OpCacheUpdate }

// current returns the message on the wire, nil once all are done.
func (w *write) current() *outbound {
	if w.cur == w.n {
		return nil
	}
	return &w.msgs[w.cur]
}

type queuedWrite struct {
	src netproto.Addr
	pkt netproto.Packet
}

// New returns a server agent backed by a fresh store.
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
	s := &Server{
		cfg:     cfg,
		keys:    make(map[netproto.Key]*keyState),
		applied: make(map[netproto.Key]writeStamp),
	}
	s.store.Store(kvstore.New(cfg.Shards))
	return s
}

// Crash models a process crash: the server stops receiving, every pending
// retransmission is cancelled, and all volatile protocol state
// (write-block windows, queued writes, control dedup window) is discarded.
// The store itself survives in memory — Restart decides whether it is
// preserved (a disk-backed store reattached after a process restart) or
// wiped (a node replaced from empty).
func (s *Server) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = true
	for _, st := range s.keys {
		if st.w != nil {
			if m := st.w.current(); m != nil && m.timer != nil {
				m.timer.Stop()
			}
		}
	}
	s.keys = make(map[netproto.Key]*keyState)
	s.ctlSeen = nil
	s.ctlOrder = nil
	// Replica assignments are controller-owned soft state: the controller
	// re-establishes the pair when the node rejoins.
	s.replicas = nil
}

// Restart brings a crashed server back. With wipeStore the store is
// replaced by an empty one (and the write replay guard forgets its stamps —
// there is no old value left to resurrect); otherwise the store and guard
// are preserved, as with durable storage.
func (s *Server) Restart(wipeStore bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wipeStore {
		s.store.Store(kvstore.New(s.cfg.Shards))
		s.applied = make(map[netproto.Key]writeStamp)
		s.replStamp = nil
	}
	s.incarnation++
	s.down = false
}

// Addr returns the server's rack address.
func (s *Server) Addr() netproto.Addr { return s.cfg.Addr }

// Store exposes the backing store (for preloading datasets in harnesses).
func (s *Server) Store() *kvstore.Store { return s.store.Load() }

// Range walks the store for the controller's anti-entropy snapshot.
func (s *Server) Range(fn func(key netproto.Key, value []byte, version uint64) bool) {
	s.store.Load().Range(fn)
}

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
	case netproto.OpCacheUpdateAck, netproto.OpReplicateAck:
		s.handleAck(pkt)
	case netproto.OpReplicate, netproto.OpReplicateDelete:
		s.handleReplicate(fr.Src, pkt)
	case netproto.OpCtlBlock, netproto.OpCtlUnblock, netproto.OpCtlUncached:
		// The networked form of the controller's write-block window
		// (§4.3), used when controller and server are separate
		// processes. Retransmitted requests (lost acks) are deduped by
		// SEQ so a block is never applied twice.
		if s.ctlDedup(pkt.Seq) {
			switch pkt.Op {
			case netproto.OpCtlBlock:
				s.BlockWrites(pkt.Key)
			case netproto.OpCtlUnblock:
				s.UnblockWrites(pkt.Key)
			default:
				s.Uncached(pkt.Key)
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
	frame, _, ok := s.store.Load().GetAppend(pkt.Key, frame)
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
	if st != nil && (st.blocks > 0 || st.w != nil) {
		// pkt.Value aliases the delivered frame, whose buffer the fabric
		// recycles once Receive returns; a queued write outlives that, so
		// it needs its own copy.
		pkt.Value = append([]byte(nil), pkt.Value...)
		st.queue = append(st.queue, queuedWrite{src, pkt})
		s.Metrics.WritesQueued.Inc()
		s.mu.Unlock()
		return
	}
	s.applyWriteLocked(src, pkt, st)
}

// applyWriteLocked applies the write, arranges the messages it owes, and
// releases the lock before sending anything. st is the key's state, nil if
// it has none.
func (s *Server) applyWriteLocked(src netproto.Addr, pkt netproto.Packet, st *keyState) {
	key := pkt.Key
	reply := netproto.Reply(&pkt, nil, true)
	if ws, ok := s.applied[key]; ok && ws.src == src && pkt.Seq <= ws.seq {
		// Retransmitted or network-replayed write: already applied. Ack
		// again (the first ack may have been lost) without touching the
		// store, then keep draining any writes queued behind it.
		s.Metrics.WritesDeduped.Inc()
		s.ackThenDrainLocked(key, src, reply) // unlocks
		return
	}
	fenced := st != nil && st.cached && (pkt.Op == netproto.OpPut || pkt.Op == netproto.OpDelete)
	var version uint64
	var replicate, refresh bool
	var value []byte
	backup, replicated := s.backupForLocked(key)
	switch pkt.Op {
	case netproto.OpPut, netproto.OpPutCached:
		s.Metrics.Puts.Inc()
		version = s.store.Load().Put(key, pkt.Value)
		// A cached key's switch entry is refreshed (§4.3).
		replicate, refresh = replicated, pkt.Op == netproto.OpPutCached || fenced
		value = pkt.Value
	case netproto.OpDelete, netproto.OpDeleteCached:
		s.Metrics.Deletes.Inc()
		var ok bool
		version, ok = s.store.Load().Delete(key)
		// A deleted cached key stays invalid in the switch until the
		// controller evicts it; reads fall through here and miss. A
		// delete that removed nothing leaves the pair in sync already, so
		// only an effective delete replicates. A fenced one refreshes the
		// switch with an empty update: an insertion may have validated the
		// deleted value.
		replicate, refresh = replicated && ok, fenced && ok
	}
	if !replicate && !refresh {
		s.applied[key] = writeStamp{src: src, seq: pkt.Seq}
		s.ackThenDrainLocked(key, src, reply) // unlocks
		return
	}
	w := &write{seq: version, value: append([]byte(nil), value...), client: src, reply: reply, fenced: fenced && refresh}
	ms := &s.Metrics
	if replicate {
		// Replicate before acking: an acked write survives a permanent
		// primary failure. Both ends use node aliases, not home addresses:
		// the backup's home route may have been re-pointed at this very
		// node by an earlier failover, and the backup's ack must reach this
		// node even if our home route has moved. Aliases always route to
		// the physical server.
		op := netproto.OpReplicate
		if pkt.Op == netproto.OpDelete || pkt.Op == netproto.OpDeleteCached {
			op = netproto.OpReplicateDelete
		}
		w.msgs[w.n] = outbound{op: op, dst: netproto.NodeAlias(backup), src: netproto.NodeAlias(s.cfg.Addr),
			sent: &ms.ReplicatesSent, retries: &ms.ReplicateRetries, giveUps: &ms.ReplicateGiveUps}
		w.n++
	}
	if refresh {
		// The refresh travels addressed to the server itself, so that the
		// switch routes it through the egress pipe owning the key's value
		// slots and bounces the ack straight back (§4.3: "the updates are
		// purely in the data plane at line rate").
		w.msgs[w.n] = outbound{op: netproto.OpCacheUpdate, dst: s.cfg.Addr, src: s.cfg.Addr,
			sent: &ms.CacheUpdatesSent, retries: &ms.CacheUpdateRetries, giveUps: &ms.CacheUpdateGiveUps}
		w.n++
	}
	st = s.stateLocked(key)
	st.w = w
	s.stepLocked(key, st) // unlocks
}

// stepLocked moves st.w on to its current message. Once no replication is
// outstanding the write is durable: its replay stamp is recorded and the
// client is acked before the refresh goes out — the agent does not wait for
// the switch cache (§4.3: lower write latency than a standard write-through
// cache) — unless the write is fenced, whose ack goes out once the last
// message is done. Called with the lock held; releases it.
func (s *Server) stepLocked(key netproto.Key, st *keyState) {
	w := st.w
	m := w.current()
	ack := false
	if !w.durable && (m == nil || m.refresh()) {
		w.durable = true
		s.applied[key] = writeStamp{src: w.client, seq: w.reply.Seq}
		ack = !w.fenced
	}
	if m == nil {
		st.w = nil
		if ack || w.fenced {
			s.ackThenDrainLocked(key, w.client, w.reply) // unlocks
		} else {
			s.drainLocked(key, st) // unlocks
		}
		return
	}
	s.mu.Unlock()
	if ack {
		s.reply(w.client, w.reply)
	}
	s.transmit(key, w, m)
}

// ackThenDrainLocked sends a client ack outside the lock, then drains the
// writes queued behind it. Called with the lock held; releases it.
func (s *Server) ackThenDrainLocked(key netproto.Key, dst netproto.Addr, reply netproto.Packet) {
	s.mu.Unlock()
	s.reply(dst, reply)
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

// transmit sends m and, unless it was acked meanwhile, arms its
// retransmission timer — the "light-weight high-performance reliable packet
// mechanism" of §6.
func (s *Server) transmit(key netproto.Key, w *write, m *outbound) {
	m.sent.Inc()
	pkt := netproto.Packet{Op: m.op, Seq: w.seq, Key: key, Value: w.value}
	s.sendPacketFrom(m.dst, m.src, &pkt)
	s.mu.Lock()
	if st := s.keys[key]; st != nil && st.w != nil && st.w.current() == m {
		if m.timer == nil {
			m.timer = time.AfterFunc(s.cfg.RetryInterval, func() { s.retry(key, m) })
		} else {
			m.timer.Reset(s.cfg.RetryInterval)
		}
	}
	s.mu.Unlock()
}

func (s *Server) retry(key netproto.Key, m *outbound) {
	s.mu.Lock()
	st := s.keys[key]
	if st == nil || st.w == nil || st.w.current() != m {
		s.mu.Unlock()
		return // acked in the meantime
	}
	w := st.w
	m.tries++
	// A write queued behind a refresh invalidated the switch entry on its
	// way here. Resending the older value now would validate it again after
	// that invalidation, and a queued delete, which sends no refresh of its
	// own, would leave it valid once acked. So a superseded refresh is
	// dropped like one out of retries.
	if m.tries < s.cfg.MaxRetries && !(m.refresh() && supersededLocked(w, st.queue)) {
		m.retries.Inc()
		s.mu.Unlock()
		s.transmit(key, w, m)
		return
	}
	m.giveUps.Inc()
	if !m.refresh() {
		// The backup is unreachable, and acking an unreplicated write would
		// break the durability contract: the write is dropped unacked and
		// unstamped, so the client's retransmission re-applies and
		// re-replicates it, by which time the failure detector has usually
		// reconfigured the pair.
		st.w = nil
		s.drainLocked(key, st) // unlocks
		return
	}
	// The key stays invalid in the switch (safe — reads fall through) and
	// writers unblock. A held ack goes out too: the write is applied,
	// though after MaxRetries the switch may still serve the value fetched
	// before it.
	w.cur++
	s.stepLocked(key, st) // unlocks
}

// supersededLocked reports whether a write queued behind w's refresh
// invalidated the switch entry on its way here. For a fenced write only a
// tagged write did: an untagged one passed the switch before the insertion
// and touched nothing, and the switch may still hold the value fetched
// before w, so the refresh is resent.
func supersededLocked(w *write, queue []queuedWrite) bool {
	if !w.fenced {
		return len(queue) > 0
	}
	for _, q := range queue {
		if q.pkt.Op == netproto.OpPutCached || q.pkt.Op == netproto.OpDeleteCached {
			return true
		}
	}
	return false
}

// handleAck retires the message on the wire when an ack of its kind
// (OpReplicateAck or OpCacheUpdateAck) carries its seq.
func (s *Server) handleAck(pkt netproto.Packet) {
	s.mu.Lock()
	st := s.keys[pkt.Key]
	var m *outbound
	if st != nil && st.w != nil && st.w.seq == pkt.Seq {
		m = st.w.current()
	}
	if m == nil || m.refresh() != (pkt.Op == netproto.OpCacheUpdateAck) {
		s.Metrics.StaleAcks.Inc()
		s.mu.Unlock()
		return
	}
	if m.timer != nil {
		m.timer.Stop()
	}
	st.w.cur++
	s.stepLocked(pkt.Key, st) // unlocks
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
			s.store.Load().PutAt(pkt.Key, pkt.Value, pkt.Seq)
		} else {
			s.store.Load().BumpVersion(pkt.Key, pkt.Seq)
			s.store.Load().Delete(pkt.Key)
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
	s.store.Load().PutAt(key, value, version)
	return true
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
	s.store.Load().Delete(key)
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
	st := s.stateLocked(key)
	st.blocks++
	st.cached = true
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

// Uncached records that key is not in the switch cache: the insertion whose
// window set the cached bit failed, or the controller evicted the key.
func (s *Server) Uncached(key netproto.Key) {
	s.mu.Lock()
	st := s.keys[key]
	if st == nil {
		s.mu.Unlock()
		return
	}
	st.cached = false
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
	return s.store.Load().Get(key)
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
	_, _, ok := s.store.Load().Get(key)
	return ok, true
}

// drainLocked processes the next queued write if the key is now unblocked,
// and garbage-collects empty states. It is called with the lock held and
// releases it.
func (s *Server) drainLocked(key netproto.Key, st *keyState) {
	if st.blocks > 0 || st.w != nil || len(st.queue) == 0 {
		if st.blocks == 0 && st.w == nil && len(st.queue) == 0 && !st.cached {
			delete(s.keys, key)
		}
		s.mu.Unlock()
		return
	}
	next := st.queue[0]
	st.queue = st.queue[1:]
	// applyWriteLocked unlocks; it may re-block the key (PutCached), in
	// which case remaining queued writes wait for the next ack.
	s.applyWriteLocked(next.src, next.pkt, st)
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
