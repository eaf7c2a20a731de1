// Package simnet is the in-process network fabric connecting clients and
// storage servers to the NetCache switch: the stand-in for the testbed's
// NICs and cables (SOSP'17 §7.1). Frames injected at a port traverse the
// switch data plane; emissions are delivered to the endpoint attached to the
// output port, or re-injected through a loopback cable — the wiring used by
// the industry-standard snake test the paper benchmarks with.
//
// Inject is safe for any number of concurrent goroutines — the fabric is as
// parallel as the switch underneath it. Delivery to any one endpoint is
// serialized and in order: each attached port owns a small actor-style queue
// whose current drainer runs the handler, so an endpoint never sees two
// frames at once, and a reentrant handler (a storage server answering a
// query injects its reply, which may loop straight back to its own port)
// enqueues rather than recursing — same-goroutine reentrancy that would
// deadlock a plain per-port mutex.
//
// The fabric doubles as the fault-injection layer for robustness testing:
// per-port, per-direction rules (SetFault) lose, duplicate, corrupt, and
// reorder frames; SetPartitioned drops all traffic between two port groups,
// and SetPortDown unplugs a port entirely. All probabilistic draws come from
// one lock-free splitmix64 stream over an atomic counter, so concurrent
// packets never contend on it, single-goroutine tests stay deterministic,
// and Reseed reproduces a fault schedule from a seed. Loss injection
// exercises the reliable cache-update retry path; corruption exercises the
// frame-checksum parse boundary; reordering and duplication exercise the
// switch's stale-update protection.
package simnet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"netcache/internal/bufpool"
	"netcache/internal/dataplane"
	"netcache/internal/rng"
	"netcache/internal/stats"
)

// Switch is the data-plane surface simnet drives (switchcore's). It
// appends a frame's emissions to out; the fabric passes a reused emission
// slice and takes ownership of pool-backed emitted frames, releasing each
// one back to the frame pool as soon as the endpoint handler returns.
// Handlers must therefore not retain delivered frames — the contract
// Handler documents.
type Switch interface {
	ProcessAppend(frame []byte, inPort int, out []dataplane.Emitted) ([]dataplane.Emitted, error)
}

// Handler consumes frames delivered to an endpoint's port. The frame is
// valid only for the duration of the call: the fabric may recycle its buffer
// the moment the handler returns. Handlers that keep data must copy it.
type Handler func(frame []byte)

// delivery is one frame queued toward an endpoint, tagged with whether its
// buffer goes back to the frame pool after the handler has run.
type delivery struct {
	frame  []byte
	pooled bool
}

// portQueue serializes delivery to one endpoint. Whichever goroutine finds
// the queue idle becomes the drainer and runs the handler for every queued
// frame (including frames other goroutines append meanwhile); the rest
// enqueue and leave. The queue is a power-of-two ring so steady-state
// traffic enqueues without allocating, and a batch of N frames costs one
// lock acquisition instead of N.
type portQueue struct {
	h          Handler
	mu         sync.Mutex
	ring       []delivery // power-of-two circular buffer
	head, tail int        // tail-head = queued count; indices mod len(ring)
	busy       bool
}

// push appends with mu held, growing the ring when full.
func (pq *portQueue) push(d delivery) {
	if pq.tail-pq.head == len(pq.ring) {
		grown := make([]delivery, max(16, len(pq.ring)*2))
		n := 0
		for i := pq.head; i != pq.tail; i++ {
			grown[n] = pq.ring[i&(len(pq.ring)-1)]
			n++
		}
		pq.ring = grown
		pq.head, pq.tail = 0, n
	}
	pq.ring[pq.tail&(len(pq.ring)-1)] = d
	pq.tail++
}

// Dir selects which cable segment of a port a fault rule applies to,
// relative to the switch.
type Dir uint8

const (
	// ToSwitch faults act on frames injected at the port, before the
	// switch processes them (the endpoint→switch segment).
	ToSwitch Dir = iota
	// FromSwitch faults act on frames the switch emits toward the port,
	// before the endpoint's handler runs (the switch→endpoint segment).
	FromSwitch
)

// String names the direction.
func (d Dir) String() string {
	if d == ToSwitch {
		return "to-switch"
	}
	return "from-switch"
}

// FaultRule configures the fault processes on one port+direction. All
// probabilities are per frame in [0,1]; the zero rule injects nothing.
// Faults compose in a fixed order: loss, corrupt, duplicate, reorder.
type FaultRule struct {
	// Loss discards the frame.
	Loss float64
	// Dup delivers the frame twice.
	Dup float64
	// Corrupt flips one to three bytes of a copy of the frame. Corrupted
	// frames must die at the receiver's parse boundary (the frame
	// checksum); the CorruptInjected counter is the denominator for that
	// assertion.
	Corrupt float64
	// Reorder holds the frame in a bounded delay queue and releases it
	// after up to ReorderDepth subsequent frames have passed — delivering
	// it late, behind newer traffic.
	Reorder float64
	// ReorderDepth bounds the delay queue (held frames and the holdback
	// distance). Zero means 4.
	ReorderDepth int
}

// active reports whether the rule injects any fault.
func (r FaultRule) active() bool { return r != FaultRule{} }

func (r FaultRule) depth() int {
	if r.ReorderDepth <= 0 {
		return 4
	}
	return r.ReorderDepth
}

// faultKey addresses one port+direction rule.
type faultKey struct {
	port int
	dir  Dir
}

// heldFrame is one reorder-delayed frame: released once ttl subsequent
// frames have passed its port+direction.
type heldFrame struct {
	frame []byte
	ttl   int
}

// reorderBuf is the bounded delay queue of one port+direction.
type reorderBuf struct {
	mu   sync.Mutex
	held []heldFrame
}

// plug is what is plugged into one switch port: an endpoint's delivery queue,
// or one end of a loopback cable whose other end is peer.
type plug struct {
	q      *portQueue
	peer   int
	cabled bool
}

// Net wires endpoints and cables to a switch. Attach all endpoints before
// traffic starts; Attach/Cable are not safe to call concurrently with
// each other. Inject and the fault controls (SetLoss, SetFault,
// SetPartitioned, SetPortDown, Reseed, Flush) are safe from any goroutine.
type Net struct {
	sw Switch
	// plugs is indexed by port. Attach and Cable publish a grown copy, so
	// a delivery reads it with one load and no lock.
	plugs atomic.Pointer[[]plug]

	// faultMu guards the fault configuration: rules, partitions, downed
	// ports, and the reorder-buffer map (each buffer has its own mutex).
	faultMu sync.RWMutex
	faults  map[faultKey]FaultRule
	reorder map[faultKey]*reorderBuf
	parts   map[uint64]struct{} // partitioned (in,out) port pairs
	down    map[int]uint8       // per-port bitmask of downed Dir segments
	// clean is true while no fault rule, partition or downed port is
	// installed. Every mutator recomputes it under faultMu, so on a clean
	// fabric the per-frame fault checks cost one atomic load each.
	clean atomic.Bool

	rngCtr atomic.Uint64 // splitmix64 counter stream for fault draws

	// Delivered counts frames handed to endpoints; Unattached counts
	// emissions to ports with no endpoint or cable; ProcessErrors counts
	// frames the switch refused with an error (Inject still returns the
	// error to its caller, but trunk handlers and endpoint send closures
	// have no caller to return it to — the counter is how those paths
	// surface it); LossDropped counts frames discarded by loss injection.
	// The remaining counters account for the other fault processes:
	// duplicates injected, frames held back for reordering, frames
	// corrupted, frames dropped by a partition, and frames dropped at a
	// downed port.
	Delivered        stats.Counter
	Unattached       stats.Counter
	ProcessErrors    stats.Counter
	LossDropped      stats.Counter
	Duplicated       stats.Counter
	Reordered        stats.Counter
	CorruptInjected  stats.Counter
	PartitionDropped stats.Counter
	DownDropped      stats.Counter
}

// New returns a fabric around sw.
func New(sw Switch) *Net {
	n := &Net{
		sw:      sw,
		faults:  make(map[faultKey]FaultRule),
		reorder: make(map[faultKey]*reorderBuf),
		parts:   make(map[uint64]struct{}),
		down:    make(map[int]uint8),
	}
	n.plugs.Store(new([]plug))
	n.clean.Store(true)
	n.rngCtr.Store(1) // fixed seed: reproducible fault patterns
	return n
}

// plugAt returns what is plugged into port (the zero plug if nothing is).
func (n *Net) plugAt(port int) plug {
	if ps := *n.plugs.Load(); uint(port) < uint(len(ps)) {
		return ps[port]
	}
	return plug{}
}

// freePlugs returns a copy of the port table grown to cover ports,
// panicking if any of them is negative or already in use. The caller fills
// in the new plugs and publishes the copy.
func (n *Net) freePlugs(ports ...int) []plug {
	old := *n.plugs.Load()
	size := len(old)
	for _, p := range ports {
		switch cur := n.plugAt(p); {
		case p < 0:
			panic(fmt.Sprintf("simnet: negative port %d", p))
		case cur.q != nil:
			panic(fmt.Sprintf("simnet: port %d already attached", p))
		case cur.cabled:
			panic(fmt.Sprintf("simnet: port %d already cabled", p))
		}
		size = max(size, p+1)
	}
	ps := make([]plug, size)
	copy(ps, old)
	return ps
}

// Attach connects an endpoint to a switch port.
func (n *Net) Attach(port int, h Handler) {
	ps := n.freePlugs(port)
	ps[port] = plug{q: &portQueue{h: h}}
	n.plugs.Store(&ps)
}

// Cable connects two switch ports with a loopback cable: frames emitted on
// one are re-injected at the other, in both directions — the snake-test
// wiring ("port 2i-1 is connected to port 2i", §7.1).
func (n *Net) Cable(a, b int) {
	ps := n.freePlugs(a, b)
	ps[a] = plug{peer: b, cabled: true}
	ps[b] = plug{peer: a, cabled: true}
	n.plugs.Store(&ps)
}

// SetLoss configures the probability of discarding a frame emitted toward
// the given port — shorthand for editing the Loss field of the port's
// FromSwitch rule. Safe to call at any time, including during traffic.
func (n *Net) SetLoss(port int, p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	k := faultKey{port, FromSwitch}
	r := n.faults[k]
	r.Loss = p
	n.setFaultLocked(k, r)
	n.recleanLocked()
}

// SetFault replaces the fault rule of one port+direction; the zero rule
// clears it. Frames already held back for reordering stay held until enough
// traffic passes or Flush releases them.
func (n *Net) SetFault(port int, dir Dir, r FaultRule) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.setFaultLocked(faultKey{port, dir}, r)
	n.recleanLocked()
}

func (n *Net) setFaultLocked(k faultKey, r FaultRule) {
	if !r.active() {
		delete(n.faults, k)
		return
	}
	n.faults[k] = r
	if r.Reorder > 0 && n.reorder[k] == nil {
		n.reorder[k] = &reorderBuf{}
	}
}

// ClearFaults removes every fault rule (held reorder frames remain until
// Flush) and clears partitions and downed ports.
func (n *Net) ClearFaults() {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.faults = make(map[faultKey]FaultRule)
	n.parts = make(map[uint64]struct{})
	n.down = make(map[int]uint8)
	n.recleanLocked()
}

// recleanLocked recomputes the clean flag; faultMu must be held for writing.
func (n *Net) recleanLocked() {
	n.clean.Store(len(n.faults) == 0 && len(n.parts) == 0 && len(n.down) == 0)
}

// SetPartitioned partitions (or heals, with partitioned=false) the network
// between two port groups: a frame entering the switch at a port of one
// group is never emitted at a port of the other. Traffic within a group, and
// switch-originated replies to the ingress port itself, are unaffected —
// the switch is not part of either group.
func (n *Net) SetPartitioned(groupA, groupB []int, partitioned bool) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	for _, a := range groupA {
		for _, b := range groupB {
			if partitioned {
				n.parts[pairKey(a, b)] = struct{}{}
				n.parts[pairKey(b, a)] = struct{}{}
			} else {
				delete(n.parts, pairKey(a, b))
				delete(n.parts, pairKey(b, a))
			}
		}
	}
	n.recleanLocked()
}

// SetPortDown takes a port's link down (or up) in both directions:
// everything injected at or emitted toward a down port is discarded, as
// with an unplugged cable.
func (n *Net) SetPortDown(port int, isDown bool) {
	n.SetPortDirDown(port, ToSwitch, isDown)
	n.SetPortDirDown(port, FromSwitch, isDown)
}

// SetPortDirDown takes one direction of a port's link down (or up): an
// asymmetric cable fault. With only ToSwitch down, frames injected at the
// port vanish but the switch still delivers toward it; with only FromSwitch
// down, the endpoint's frames get in but nothing comes back. Either half
// alone makes requests across the port time out while the other half keeps
// draining late traffic.
func (n *Net) SetPortDirDown(port int, dir Dir, isDown bool) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	mask := uint8(1) << dir
	if isDown {
		n.down[port] |= mask
	} else if m := n.down[port] &^ mask; m == 0 {
		delete(n.down, port)
	} else {
		n.down[port] = m
	}
	n.recleanLocked()
}

// Reseed restarts the fault PRNG stream. Two runs with the same seed, the
// same rules, and the same frame sequence draw identical fault schedules.
func (n *Net) Reseed(seed uint64) { n.rngCtr.Store(seed) }

func pairKey(in, out int) uint64 {
	return uint64(uint32(in))<<32 | uint64(uint32(out))
}

// randU64 draws from the splitmix64 stream over an atomically advanced
// counter: one fetch-and-add, no shared RNG state to lock.
func (n *Net) randU64() uint64 { return rng.NextAtomic(&n.rngCtr) }

func (n *Net) rand01() float64 {
	return float64(n.randU64()>>11) / float64(1<<53)
}

func (n *Net) isDown(port int, dir Dir) bool {
	if n.clean.Load() {
		return false
	}
	n.faultMu.RLock()
	d := n.down[port]
	n.faultMu.RUnlock()
	return d&(uint8(1)<<dir) != 0
}

func (n *Net) partitioned(in, out int) bool {
	if n.clean.Load() {
		return false
	}
	n.faultMu.RLock()
	_, p := n.parts[pairKey(in, out)]
	n.faultMu.RUnlock()
	return p
}

// hasFaults reports whether a fault rule is installed on port+dir — the
// condition under which applyFaults can do anything but pass the frame
// through. Callers on the hot path check it first and skip applyFaults
// entirely when clean, avoiding the per-frame [][]byte wrapper the
// passthrough return would allocate.
func (n *Net) hasFaults(port int, dir Dir) bool {
	if n.clean.Load() {
		return false
	}
	n.faultMu.RLock()
	_, ok := n.faults[faultKey{port, dir}]
	n.faultMu.RUnlock()
	return ok
}

// applyFaults runs one frame through the fault processes of port+dir and
// returns the frames to forward now: none (lost or held), one, or several
// (duplicates and released holdbacks, holdbacks last).
func (n *Net) applyFaults(frame []byte, port int, dir Dir) [][]byte {
	k := faultKey{port, dir}
	n.faultMu.RLock()
	r, ok := n.faults[k]
	rb := n.reorder[k]
	n.faultMu.RUnlock()
	if !ok {
		return [][]byte{frame}
	}
	if r.Loss > 0 && n.rand01() < r.Loss {
		n.LossDropped.Inc()
		return nil
	}
	if r.Corrupt > 0 && n.rand01() < r.Corrupt && len(frame) > 0 {
		frame = n.corruptCopy(frame)
		n.CorruptInjected.Inc()
	}
	out := [][]byte{frame}
	if r.Dup > 0 && n.rand01() < r.Dup {
		n.Duplicated.Inc()
		out = append(out, frame)
	}
	if r.Reorder > 0 && rb != nil {
		out = rb.pass(n, r, out)
	}
	return out
}

// pass pushes frames through the bounded delay queue: each may be held back
// (probabilistically, queue permitting), and frames passing age the held
// ones, releasing any that have waited ReorderDepth frames — behind the
// newer traffic, which is the reordering.
func (rb *reorderBuf) pass(n *Net, r FaultRule, frames [][]byte) [][]byte {
	depth := r.depth()
	var out [][]byte
	rb.mu.Lock()
	for _, f := range frames {
		if len(rb.held) < depth && n.rand01() < r.Reorder {
			n.Reordered.Inc()
			rb.held = append(rb.held, heldFrame{
				frame: append([]byte(nil), f...), ttl: depth,
			})
			continue
		}
		out = append(out, f)
	}
	if len(out) > 0 {
		keep := rb.held[:0]
		for _, h := range rb.held {
			h.ttl -= len(out)
			if h.ttl <= 0 {
				out = append(out, h.frame)
			} else {
				keep = append(keep, h)
			}
		}
		rb.held = keep
	}
	rb.mu.Unlock()
	return out
}

// corruptCopy flips 1–3 bytes of a copy of frame.
func (n *Net) corruptCopy(frame []byte) []byte {
	buf := append([]byte(nil), frame...)
	flips := 1 + int(n.randU64()%3)
	for i := 0; i < flips; i++ {
		pos := int(n.randU64() % uint64(len(buf)))
		buf[pos] ^= byte(1 + n.randU64()%255)
	}
	return buf
}

// Inject pushes a frame into the switch at the given port and delivers all
// resulting emissions. It returns the first switch error encountered. Safe
// for concurrent callers; when a destination endpoint is already being
// drained by another goroutine, the frame is queued there and Inject returns
// without waiting for the handler to run. The fabric never retains frame
// after Inject returns: callers (client retransmission buffers) may reuse it.
func (n *Net) Inject(frame []byte, port int) error {
	if n.isDown(port, ToSwitch) {
		n.DownDropped.Inc()
		return nil
	}
	if !n.hasFaults(port, ToSwitch) {
		return n.forward(frame, port, nil)
	}
	for _, f := range n.applyFaults(frame, port, ToSwitch) {
		if err := n.forward(f, port, nil); err != nil {
			return err
		}
	}
	return nil
}

// batchItem is one buffered port-queue delivery of an InjectBatch.
type batchItem struct {
	pq *portQueue
	d  delivery
}

// batchSink accumulates port-queue deliveries across a batch so each
// destination's actor is woken (and its lock taken) once per batch rather
// than once per frame.
type batchSink struct {
	items []batchItem
}

// InjectBatch pushes a burst of frames into the switch at one port,
// coalescing deliveries: every destination endpoint has its queue locked
// once for all the batch's frames to it. Emissions that leave through a
// loopback cable re-enter the switch immediately, unbatched (cable hops are
// the snake-test topology, not the hot path). Like Inject, the injected
// frames are not retained.
func (n *Net) InjectBatch(frames [][]byte, port int) error {
	if n.isDown(port, ToSwitch) {
		for range frames {
			n.DownDropped.Inc()
		}
		return nil
	}
	var sink batchSink
	var firstErr error
	faulty := n.hasFaults(port, ToSwitch)
	for _, frame := range frames {
		if !faulty {
			if err := n.forward(frame, port, &sink); err != nil {
				firstErr = err
				break
			}
			continue
		}
		for _, f := range n.applyFaults(frame, port, ToSwitch) {
			if err := n.forward(f, port, &sink); err != nil {
				firstErr = err
				break
			}
		}
		if firstErr != nil {
			break
		}
	}
	// Flush buffered deliveries in arrival order, one lock per run of
	// consecutive same-destination items.
	for i := 0; i < len(sink.items); {
		j := i + 1
		for j < len(sink.items) && sink.items[j].pq == sink.items[i].pq {
			j++
		}
		sink.items[i].pq.deliverBatch(sink.items[i:j])
		i = j
	}
	return firstErr
}

// emitScratch pools the emission slices forward passes to ProcessAppend.
var emitScratch = sync.Pool{
	New: func() any { s := make([]dataplane.Emitted, 0, 8); return &s },
}

// forward runs one frame through the switch and fans out its emissions.
// When sink is non-nil, port-queue deliveries are buffered there instead of
// being delivered immediately (InjectBatch).
//
// Pool-backed emissions (Emitted.Pooled) are owned by this function: every
// path either hands the buffer to a port queue exactly once — tagging the
// delivery so the drainer releases it after the handler — or releases it
// here (fault loss, partition/down drops, cable re-injection, reorder
// holdback of a copy). Fault duplication can put the same buffer in the
// output twice; only the last occurrence carries the release tag, so the
// buffer outlives every delivery of it.
func (n *Net) forward(frame []byte, inPort int, sink *batchSink) error {
	scratch := emitScratch.Get().(*[]dataplane.Emitted)
	out, err := n.sw.ProcessAppend(frame, inPort, (*scratch)[:0])
	defer func() {
		for i := range out {
			out[i] = dataplane.Emitted{}
		}
		*scratch = out[:0]
		emitScratch.Put(scratch)
	}()
	if err != nil {
		n.ProcessErrors.Inc()
		return err
	}
	for _, em := range out {
		if n.partitioned(inPort, em.Port) {
			n.PartitionDropped.Inc()
			dataplane.ReleaseFrame(em)
			continue
		}
		if n.isDown(em.Port, FromSwitch) {
			n.DownDropped.Inc()
			dataplane.ReleaseFrame(em)
			continue
		}
		if !n.hasFaults(em.Port, FromSwitch) {
			pooled := em.Pooled && len(em.Frame) > 0
			if err := n.deliverFinal(em.Frame, em.Port, pooled, sink); err != nil {
				return err
			}
			continue
		}
		fs := n.applyFaults(em.Frame, em.Port, FromSwitch)
		last := -1 // index in fs of the final delivery of em's own buffer
		if em.Pooled && len(em.Frame) > 0 {
			for i, f := range fs {
				if len(f) > 0 && &f[0] == &em.Frame[0] {
					last = i
				}
			}
			if last == -1 {
				// Lost, or held for reordering (the hold copies):
				// the buffer has no further reader.
				bufpool.Put(em.Frame)
			}
		}
		for i, f := range fs {
			if err := n.deliverFinal(f, em.Port, i == last, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliverFinal hands one post-fault frame to the endpoint or cable at port.
// pooled marks a frame whose buffer returns to the pool once it has no
// reader: after the endpoint handler runs, or here when the frame's journey
// ends (cable re-injection and unattached ports — the switch copies what it
// needs before Inject returns).
func (n *Net) deliverFinal(frame []byte, port int, pooled bool, sink *batchSink) error {
	pl := n.plugAt(port)
	if pq := pl.q; pq != nil {
		n.Delivered.Inc()
		d := delivery{frame: frame, pooled: pooled}
		if sink != nil {
			sink.items = append(sink.items, batchItem{pq: pq, d: d})
			return nil
		}
		pq.deliver(d)
		return nil
	}
	if pl.cabled {
		err := n.Inject(frame, pl.peer)
		if pooled {
			bufpool.Put(frame)
		}
		return err
	}
	n.Unattached.Inc()
	if pooled {
		bufpool.Put(frame)
	}
	return nil
}

// Flush releases every frame still held in a reorder delay queue: ToSwitch
// holdbacks re-enter the switch, FromSwitch holdbacks go to their endpoints.
// Chaos scenarios call it after clearing fault rules so quiescing traffic
// does not strand frames. Release order is deterministic (by port, then
// direction, then hold order). Bounded to a fixed number of rounds in case
// still-active rules keep re-holding released frames.
func (n *Net) Flush() error {
	for round := 0; round < 64; round++ {
		type pending struct {
			key   faultKey
			frame []byte
		}
		var todo []pending
		n.faultMu.RLock()
		keys := make([]faultKey, 0, len(n.reorder))
		for k := range n.reorder {
			keys = append(keys, k)
		}
		n.faultMu.RUnlock()
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].port != keys[j].port {
				return keys[i].port < keys[j].port
			}
			return keys[i].dir < keys[j].dir
		})
		for _, k := range keys {
			n.faultMu.RLock()
			rb := n.reorder[k]
			n.faultMu.RUnlock()
			if rb == nil {
				continue
			}
			rb.mu.Lock()
			for _, h := range rb.held {
				todo = append(todo, pending{key: k, frame: h.frame})
			}
			rb.held = nil
			rb.mu.Unlock()
		}
		if len(todo) == 0 {
			return nil
		}
		for _, p := range todo {
			if n.isDown(p.key.port, p.key.dir) {
				n.DownDropped.Inc()
				continue
			}
			var err error
			if p.key.dir == ToSwitch {
				err = n.forward(p.frame, p.key.port, nil)
			} else {
				err = n.deliverFinal(p.frame, p.key.port, false, nil)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver enqueues one delivery and, if no other goroutine is draining this
// port, drains the queue in order. A handler that re-enters Inject and loops
// a frame back to its own port finds busy set and enqueues; the outer drain
// loop picks it up after the handler returns — ordered, and without the
// recursion a synchronous fabric would do.
func (pq *portQueue) deliver(d delivery) {
	pq.mu.Lock()
	pq.push(d)
	if pq.busy {
		pq.mu.Unlock()
		return
	}
	pq.drainLocked()
}

// deliverBatch enqueues a run of deliveries under one lock acquisition —
// the single actor wakeup InjectBatch buys for N in-flight frames.
func (pq *portQueue) deliverBatch(items []batchItem) {
	pq.mu.Lock()
	for i := range items {
		pq.push(items[i].d)
	}
	if pq.busy {
		pq.mu.Unlock()
		return
	}
	pq.drainLocked()
}

// drainLocked runs the handler for every queued delivery, releasing
// pool-backed frames as each handler returns. Called with mu held; returns
// with mu released.
func (pq *portQueue) drainLocked() {
	pq.busy = true
	for pq.tail != pq.head {
		i := pq.head & (len(pq.ring) - 1)
		d := pq.ring[i]
		pq.ring[i] = delivery{}
		pq.head++
		pq.mu.Unlock()
		pq.h(d.frame)
		if d.pooled {
			bufpool.Put(d.frame)
		}
		pq.mu.Lock()
	}
	pq.busy = false
	pq.mu.Unlock()
}
