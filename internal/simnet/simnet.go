// Package simnet is the in-process network fabric connecting clients and
// storage servers to the NetCache switch: the stand-in for the testbed's
// NICs and cables (SOSP'17 §7.1). Frames injected at a port traverse the
// switch data plane; emissions are delivered to the endpoint attached to the
// output port.
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
// and SetPortDown unplugs a port entirely. Each installed rule draws from
// its own lock-free splitmix64 stream over an atomic counter, started from
// the net's seed, the port+direction and how many rules that port+direction
// has had: the faults the n-th frame under a rule meets depend on the seed
// alone, never on how traffic at other ports interleaves, and Reseed
// reproduces a fault schedule from a seed. Loss injection
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
// traffic enqueues without allocating.
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

// portFaults is the fault state of one port+direction: the splitmix64 draw
// stream of its current rule and its bounded reorder delay queue.
type portFaults struct {
	draws atomic.Uint64
	// installs counts the rules installed since the last Reseed; guarded
	// by Net.faultMu.
	installs uint64

	mu   sync.Mutex
	held []heldFrame
}

// restart starts the draw stream of a rule installed on k: one stream per
// seed, port+direction and install.
func (pf *portFaults) restart(k faultKey, seed uint64) {
	pf.draws.Store(rng.Mix(seed^(uint64(uint32(k.port))<<1|uint64(k.dir))) + pf.installs)
	pf.installs++
}

func (pf *portFaults) randU64() uint64 { return rng.NextAtomic(&pf.draws) }

func (pf *portFaults) rand01() float64 {
	return float64(pf.randU64()>>11) / float64(1<<53)
}

// Net wires endpoints to a switch. Attach all endpoints before traffic
// starts; Attach is not safe to call concurrently with itself. Inject and
// the fault controls (SetFault, SetPartitioned, SetPortDown, Reseed, Flush)
// are safe from any goroutine.
type Net struct {
	sw Switch
	// ports holds each port's delivery queue (nil if nothing is attached).
	// Attach publishes a grown copy, so a delivery reads it with one load
	// and no lock.
	ports atomic.Pointer[[]*portQueue]

	// faultMu guards the fault configuration: rules, partitions, downed
	// ports, the seed, and the per-port+direction state map (each state
	// has its own mutex and atomic stream).
	faultMu sync.RWMutex
	faults  map[faultKey]FaultRule
	state   map[faultKey]*portFaults
	parts   map[uint64]struct{} // partitioned (in,out) port pairs
	down    map[int]uint8       // per-port bitmask of downed Dir segments
	seed    uint64
	// clean is true while no fault rule, partition or downed port is
	// installed. Every mutator recomputes it under faultMu, so on a clean
	// fabric the per-frame fault checks cost one atomic load each.
	clean atomic.Bool

	// Delivered counts frames handed to endpoints; Unattached counts
	// emissions to ports with no endpoint; ProcessErrors counts
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
		sw:     sw,
		faults: make(map[faultKey]FaultRule),
		state:  make(map[faultKey]*portFaults),
		parts:  make(map[uint64]struct{}),
		down:   make(map[int]uint8),
	}
	n.ports.Store(new([]*portQueue))
	n.clean.Store(true)
	n.seed = 1 // fixed seed: reproducible fault patterns
	return n
}

// queueAt returns the delivery queue attached to port, or nil.
func (n *Net) queueAt(port int) *portQueue {
	if ps := *n.ports.Load(); uint(port) < uint(len(ps)) {
		return ps[port]
	}
	return nil
}

// Attach connects an endpoint to a switch port. It panics if the port is
// negative or already attached.
func (n *Net) Attach(port int, h Handler) {
	switch {
	case port < 0:
		panic(fmt.Sprintf("simnet: negative port %d", port))
	case n.queueAt(port) != nil:
		panic(fmt.Sprintf("simnet: port %d already attached", port))
	}
	old := *n.ports.Load()
	ps := make([]*portQueue, max(len(old), port+1))
	copy(ps, old)
	ps[port] = &portQueue{h: h}
	n.ports.Store(&ps)
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
	pf := n.state[k]
	if pf == nil {
		pf = &portFaults{}
		n.state[k] = pf
	}
	pf.restart(k, n.seed)
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

// Reseed restarts the fault streams from seed, each installed rule's as if
// it had just been installed first. Two runs with the same seed, the same
// rules, and the same frame sequence at each port+direction draw identical
// fault schedules.
func (n *Net) Reseed(seed uint64) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.seed = seed
	for k, pf := range n.state {
		pf.installs = 0
		if _, ok := n.faults[k]; ok {
			pf.restart(k, seed)
		}
	}
}

func pairKey(in, out int) uint64 {
	return uint64(uint32(in))<<32 | uint64(uint32(out))
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
	pf := n.state[k]
	n.faultMu.RUnlock()
	if !ok {
		return [][]byte{frame}
	}
	if r.Loss > 0 && pf.rand01() < r.Loss {
		n.LossDropped.Inc()
		return nil
	}
	if r.Corrupt > 0 && pf.rand01() < r.Corrupt && len(frame) > 0 {
		frame = pf.corruptCopy(frame)
		n.CorruptInjected.Inc()
	}
	out := [][]byte{frame}
	if r.Dup > 0 && pf.rand01() < r.Dup {
		n.Duplicated.Inc()
		out = append(out, frame)
	}
	if r.Reorder > 0 {
		out = pf.pass(n, r, out)
	}
	return out
}

// pass pushes frames through the bounded delay queue: each may be held back
// (probabilistically, queue permitting), and frames passing age the held
// ones, releasing any that have waited ReorderDepth frames — behind the
// newer traffic, which is the reordering.
func (pf *portFaults) pass(n *Net, r FaultRule, frames [][]byte) [][]byte {
	depth := r.depth()
	var out [][]byte
	pf.mu.Lock()
	for _, f := range frames {
		if len(pf.held) < depth && pf.rand01() < r.Reorder {
			n.Reordered.Inc()
			pf.held = append(pf.held, heldFrame{
				frame: append([]byte(nil), f...), ttl: depth,
			})
			continue
		}
		out = append(out, f)
	}
	if len(out) > 0 {
		keep := pf.held[:0]
		for _, h := range pf.held {
			h.ttl -= len(out)
			if h.ttl <= 0 {
				out = append(out, h.frame)
			} else {
				keep = append(keep, h)
			}
		}
		pf.held = keep
	}
	pf.mu.Unlock()
	return out
}

// corruptCopy flips 1–3 bytes of a copy of frame.
func (pf *portFaults) corruptCopy(frame []byte) []byte {
	buf := append([]byte(nil), frame...)
	flips := 1 + int(pf.randU64()%3)
	for i := 0; i < flips; i++ {
		pos := int(pf.randU64() % uint64(len(buf)))
		buf[pos] ^= byte(1 + pf.randU64()%255)
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
		return n.forward(frame, port)
	}
	for _, f := range n.applyFaults(frame, port, ToSwitch) {
		if err := n.forward(f, port); err != nil {
			return err
		}
	}
	return nil
}

// emitScratch pools the emission slices forward passes to ProcessAppend.
var emitScratch = sync.Pool{
	New: func() any { s := make([]dataplane.Emitted, 0, 8); return &s },
}

// forward runs one frame through the switch and fans out its emissions.
//
// Pool-backed emissions (Emitted.Pooled) are owned by this function: every
// path either hands the buffer to a port queue exactly once — tagging the
// delivery so the drainer releases it after the handler — or releases it
// here (fault loss, partition/down drops, unattached ports, reorder
// holdback of a copy). Fault duplication can put the same buffer in the
// output twice; only the last occurrence carries the release tag, so the
// buffer outlives every delivery of it.
func (n *Net) forward(frame []byte, inPort int) error {
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
			n.deliverFinal(em.Frame, em.Port, em.Pooled && len(em.Frame) > 0)
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
			n.deliverFinal(f, em.Port, i == last)
		}
	}
	return nil
}

// deliverFinal hands one post-fault frame to the endpoint at port. pooled
// marks a frame whose buffer returns to the pool once it has no reader:
// after the endpoint handler runs, or here if no endpoint is attached.
func (n *Net) deliverFinal(frame []byte, port int, pooled bool) {
	pq := n.queueAt(port)
	if pq == nil {
		n.Unattached.Inc()
		if pooled {
			bufpool.Put(frame)
		}
		return
	}
	n.Delivered.Inc()
	pq.deliver(delivery{frame: frame, pooled: pooled})
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
		keys := make([]faultKey, 0, len(n.state))
		for k := range n.state {
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
			pf := n.state[k]
			n.faultMu.RUnlock()
			pf.mu.Lock()
			for _, h := range pf.held {
				todo = append(todo, pending{key: k, frame: h.frame})
			}
			pf.held = nil
			pf.mu.Unlock()
		}
		if len(todo) == 0 {
			return nil
		}
		for _, p := range todo {
			if n.isDown(p.key.port, p.key.dir) {
				n.DownDropped.Inc()
				continue
			}
			if p.key.dir == FromSwitch {
				n.deliverFinal(p.frame, p.key.port, false)
			} else if err := n.forward(p.frame, p.key.port); err != nil {
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
