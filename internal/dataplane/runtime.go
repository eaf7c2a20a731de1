package dataplane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"netcache/internal/bufpool"
)

// Ctx is the per-packet execution context: the PHV (parsed header fields and
// metadata), forwarding decisions, and the value scratch buffer that NetCache
// stages append register data to. A Ctx is valid only for the duration of one
// Pipeline.Process call.
type Ctx struct {
	phv []uint64

	// InPort is the front-panel port the packet arrived on.
	InPort int
	// EgressPort is the port chosen by the ingress pipeline; it selects
	// the egress pipe through the traffic manager.
	EgressPort int
	// finalPort, when >= 0, overrides EgressPort at emission time: the
	// packet-mirroring mechanism NetCache uses to bounce cache-hit
	// replies back to the client-facing upstream port (§4.4.4).
	finalPort int

	dropped bool

	// ValueBuf accumulates value bytes appended by the egress value
	// tables (Fig. 6b: "data in the register arrays is appended to the
	// value field").
	ValueBuf []byte

	// Raw is the original packet, available to parser and deparser.
	Raw []byte

	digests [][]byte

	// locks are deferred mutex releases registered via OnCompleteRUnlock
	// and OnCompleteUnlock. They run (LIFO, like defers) once the packet
	// has fully left the pipeline — on every exit path, including drops.
	// The program uses them to release per-key serialization acquired in
	// an early stage (see switchcore).
	locks []lockRelease

	// register single-access enforcement
	stage    int
	gress    Gress
	accessed []uint32
	epoch    uint32

	// trace, when non-nil, collects per-table execution events
	// (ProcessTraced).
	trace *Trace
}

// Get returns the value of field f.
func (c *Ctx) Get(f FieldID) uint64 { return c.phv[f] }

// Set assigns field f.
func (c *Ctx) Set(f FieldID, v uint64) { c.phv[f] = v }

// Drop marks the packet to be discarded.
func (c *Ctx) Drop() { c.dropped = true }

// Mirror redirects the final emission to port, modeling egress packet
// mirroring. The packet still traversed — and consumed — its original egress
// pipe, which the pipe counters reflect.
func (c *Ctx) Mirror(port int) { c.finalPort = port }

// lockRelease is one deferred mutex release.
type lockRelease struct {
	mu    *sync.RWMutex
	write bool
}

// OnCompleteRUnlock schedules mu.RUnlock for after the packet has fully
// exited the pipeline (emitted or dropped). Releases run in reverse
// registration order on the processing goroutine, so an action holds a
// cross-stage invariant (e.g. a per-key lock) for exactly the lifetime of
// one packet.
func (c *Ctx) OnCompleteRUnlock(mu *sync.RWMutex) {
	c.locks = append(c.locks, lockRelease{mu: mu})
}

// OnCompleteUnlock schedules mu.Unlock for packet completion, like
// OnCompleteRUnlock.
func (c *Ctx) OnCompleteUnlock(mu *sync.RWMutex) {
	c.locks = append(c.locks, lockRelease{mu: mu, write: true})
}

func (c *Ctx) runComplete() {
	for i := len(c.locks) - 1; i >= 0; i-- {
		if c.locks[i].write {
			c.locks[i].mu.Unlock()
		} else {
			c.locks[i].mu.RUnlock()
		}
	}
	c.locks = c.locks[:0]
}

// Digest queues a message for the control plane (a learn digest). NetCache
// uses it to deliver hot-key reports to the controller (§4.4.3). The payload
// is copied.
func (c *Ctx) Digest(payload []byte) {
	c.digests = append(c.digests, append([]byte(nil), payload...))
}

// register access helpers — the data-plane view of register arrays. They
// enforce the two ASIC constraints the paper designs around: an array is
// usable only from its home stage, and only once per packet.

func (c *Ctx) checkReg(r *Register) {
	if r.stage != c.stage || r.gress != c.gress {
		panic(fmt.Sprintf("dataplane: register %q (stage %d %s) accessed from stage %d %s",
			r.name, r.stage, r.gress, c.stage, c.gress))
	}
	if c.accessed[r.id] == c.epoch {
		panic(fmt.Sprintf("dataplane: register %q accessed twice by one packet", r.name))
	}
	c.accessed[r.id] = c.epoch
}

// RegGet reads slot idx of r from the data plane.
func (c *Ctx) RegGet(r *Register, idx int) uint64 {
	c.checkReg(r)
	return r.Get(idx)
}

// RegSet writes slot idx of r from the data plane.
func (c *Ctx) RegSet(r *Register, idx int, v uint64) {
	c.checkReg(r)
	r.Set(idx, v)
}

// RegAdd saturating-adds delta to slot idx and returns the new value. The
// read-modify-write is atomic (the stage ALU).
func (c *Ctx) RegAdd(r *Register, idx int, delta uint64) uint64 {
	c.checkReg(r)
	return r.AddSat(idx, delta)
}

// RegReadModify reads slot idx, applies fn, writes the result back, and
// returns the pair — the single read-modify-write a stage ALU performs. fn
// must be pure; it may be retried under contention.
func (c *Ctx) RegReadModify(r *Register, idx int, fn func(old uint64) uint64) (old, new uint64) {
	c.checkReg(r)
	return r.update(idx, fn)
}

// RegAppendBytes reads the 16-byte slot idx of a 128-bit array and appends
// the first n bytes to ValueBuf — the value-stage behavior of Fig. 6b.
func (c *Ctx) RegAppendBytes(r *Register, idx, n int) {
	c.checkReg(r)
	var tmp [16]byte
	r.GetBytes(idx, tmp[:])
	if n > 16 {
		n = 16
	}
	c.ValueBuf = append(c.ValueBuf, tmp[:n]...)
}

// RegSetBytes writes src into the 16-byte slot idx of a 128-bit array.
func (c *Ctx) RegSetBytes(r *Register, idx int, src []byte) {
	c.checkReg(r)
	r.SetBytes(idx, src)
}

// Emitted is one packet leaving the switch.
type Emitted struct {
	Port  int
	Frame []byte
	// Pooled marks a Frame whose backing buffer was leased from the frame
	// pool by the pipeline. A consumer that is DONE with the frame — it
	// copied or fully processed the bytes and retains no reference — may
	// return the buffer with ReleaseFrame. Consumers that retain frames
	// (tests, traces) simply never release; the buffer falls to the GC and
	// nothing breaks.
	Pooled bool
}

// ReleaseFrame returns an emitted frame's buffer to the frame pool, if it
// came from there. Call at most once per emission, and only when no live
// reference to em.Frame remains.
func ReleaseFrame(em Emitted) {
	if em.Pooled {
		bufpool.Put(em.Frame)
	}
}

// Counters aggregates the pipeline's packet accounting (a snapshot; see
// Pipeline.Stats).
type Counters struct {
	RxPackets  uint64
	TxPackets  uint64
	ParseDrops uint64
	// Corrupted counts the subset of ParseDrops whose parser error wrapped
	// ErrCorruptPacket — frames rejected by an integrity check (checksum /
	// magic) rather than merely being too short or foreign. It is the
	// dataplane's proof that bit-flipped frames die at the parse boundary
	// instead of being misparsed into the pipeline.
	Corrupted      uint64
	PipeDrops      uint64
	Mirrored       uint64
	Digests        uint64
	DigestsDropped uint64   // digests lost to a full learn-filter queue
	ByEgressPipe   []uint64 // packets that consumed each egress pipe
}

// ErrCorruptPacket is the sentinel a program's parser wraps (errors.Is) when
// a packet fails an integrity check; the pipeline counts such drops in
// Counters.Corrupted in addition to ParseDrops.
var ErrCorruptPacket = errors.New("dataplane: corrupt packet")

// pipeCounters is the live, concurrently-updated form of Counters.
type pipeCounters struct {
	rx, tx         atomic.Uint64
	parseDrops     atomic.Uint64
	corrupted      atomic.Uint64
	pipeDrops      atomic.Uint64
	mirrored       atomic.Uint64
	digests        atomic.Uint64
	digestsDropped atomic.Uint64
	byEgressPipe   []atomic.Uint64
}

// digestQueueCap bounds the learn-digest queue, like the finite learn-filter
// buffer on the ASIC; overflow drops the digest and counts it.
const digestQueueCap = 8192

// Pipeline is a compiled program bound to a chip configuration: the
// executable switch. Process is the data-plane entry point and is safe for
// any number of concurrent callers — the unit of serialization is the
// individual register slot and table snapshot, standing in for the ASIC's
// per-stage atomic ALUs, not the chip. Control-plane mutators serialize on a
// separate driver mutex and publish table changes copy-on-write, so driver
// updates never stall traffic.
type Pipeline struct {
	prog *Program
	cfg  ChipConfig

	ingress []step
	egress  []step

	// ctlMu serializes control-plane critical sections (Control) against
	// each other; the data plane never takes it.
	ctlMu sync.Mutex

	// Learn digests are forwarded through a bounded queue drained by a
	// dedicated goroutine, so handlers run outside the packet path and
	// may freely call back into the pipeline.
	digestFn  atomic.Pointer[func(payload []byte)]
	digestCh  chan []byte
	drainOnce sync.Once
	closeOnce sync.Once

	// pending counts digests enqueued but not yet handled; SyncDigests
	// waits on it for deterministic tests and controller ticks.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  int

	ctr pipeCounters

	ctxPool sync.Pool
}

func newPipeline(p *Program, cfg ChipConfig, in, eg []step) *Pipeline {
	pl := &Pipeline{
		prog:     p,
		cfg:      cfg,
		ingress:  in,
		egress:   eg,
		digestCh: make(chan []byte, digestQueueCap),
	}
	pl.pendCond = sync.NewCond(&pl.pendMu)
	pl.ctr.byEgressPipe = make([]atomic.Uint64, cfg.Pipes)
	nFields, nRegs := len(p.fields), len(p.registers)
	pl.ctxPool.New = func() any {
		return &Ctx{
			phv:      make([]uint64, nFields),
			accessed: make([]uint32, nRegs),
			ValueBuf: make([]byte, 0, 160),
		}
	}
	return pl
}

// Config returns the chip configuration the pipeline was compiled for.
func (pl *Pipeline) Config() ChipConfig { return pl.cfg }

// Program returns the compiled program.
func (pl *Pipeline) Program() *Program { return pl.prog }

// OnDigest registers the control-plane digest receiver. The handler runs on
// a dedicated drain goroutine, outside the packet path, so it may call back
// into the pipeline (including Process) without restriction. Digests queue
// through a bounded buffer; when it overflows the digest is dropped and
// counted in DigestsDropped, like a full learn filter.
func (pl *Pipeline) OnDigest(fn func(payload []byte)) {
	if fn == nil {
		pl.digestFn.Store(nil)
		return
	}
	pl.digestFn.Store(&fn)
	pl.drainOnce.Do(func() { go pl.drainDigests() })
}

func (pl *Pipeline) drainDigests() {
	for d := range pl.digestCh {
		if fnp := pl.digestFn.Load(); fnp != nil {
			(*fnp)(d)
		}
		pl.pendMu.Lock()
		pl.pending--
		if pl.pending == 0 {
			pl.pendCond.Broadcast()
		}
		pl.pendMu.Unlock()
	}
}

// SyncDigests blocks until every digest emitted by already-completed Process
// calls has been delivered to the OnDigest handler. Controllers call it
// before a Tick so hot-key reports from prior traffic are visible — the
// simulator's stand-in for the (bounded) report latency of the real switch.
func (pl *Pipeline) SyncDigests() {
	pl.pendMu.Lock()
	for pl.pending > 0 {
		pl.pendCond.Wait()
	}
	pl.pendMu.Unlock()
}

// Close shuts down the digest drain goroutine. Call only after traffic has
// quiesced; Process calls racing a Close may panic on the closed queue.
func (pl *Pipeline) Close() {
	pl.closeOnce.Do(func() {
		pl.drainOnce.Do(func() {}) // prevent a future drain start
		close(pl.digestCh)
	})
}

// Process runs one packet through the switch: parser, ingress pipe of the
// arrival port, traffic manager, egress pipe of the chosen port, deparser.
// It returns the emitted packets (zero if dropped, one normally). It is safe
// to call from any number of goroutines concurrently.
func (pl *Pipeline) Process(raw []byte, inPort int) ([]Emitted, error) {
	return pl.process(raw, inPort, nil, nil)
}

// ProcessAppend is Process appending its emissions to out, so a caller in a
// loop reuses one slice instead of allocating a fresh one per packet. The
// emitted frames may be pool-backed (Emitted.Pooled); hot-path callers
// release them with ReleaseFrame once consumed.
func (pl *Pipeline) ProcessAppend(raw []byte, inPort int, out []Emitted) ([]Emitted, error) {
	return pl.process(raw, inPort, out, nil)
}

// CountBypass accounts one packet that a program-compiled fast path carried
// around the interpreter as a mirrored reply: received, bound for
// egressPort's pipe, mirrored to its final port, transmitted — the same
// pipeline counters process bumps for an interpreted cache-hit read. Fast
// paths call it exactly once per packet they fully handle so Stats stays
// truthful; a fast path that bails out must not call it (the interpreter
// then accounts the packet itself).
func (pl *Pipeline) CountBypass(egressPort int) {
	pl.ctr.rx.Add(1)
	pl.ctr.byEgressPipe[pl.cfg.PipeOfPort(egressPort)].Add(1)
	pl.ctr.mirrored.Add(1)
	pl.ctr.tx.Add(1)
}

func (pl *Pipeline) process(raw []byte, inPort int, out []Emitted, trace *Trace) ([]Emitted, error) {
	if inPort < 0 || inPort >= pl.cfg.NumPorts() {
		return out, fmt.Errorf("dataplane: input port %d out of range [0,%d)", inPort, pl.cfg.NumPorts())
	}

	pl.ctr.rx.Add(1)

	ctx := pl.ctxPool.Get().(*Ctx)
	defer pl.ctxPool.Put(ctx)
	ctx.reset(inPort, raw)
	ctx.trace = trace
	defer func() {
		ctx.trace = nil
		ctx.runComplete()
	}()

	if err := pl.prog.parser(raw, ctx); err != nil {
		pl.ctr.parseDrops.Add(1)
		if errors.Is(err, ErrCorruptPacket) {
			pl.ctr.corrupted.Add(1)
		}
		return out, nil // parser exceptions drop silently, like hardware
	}

	ctx.gress = Ingress
	pl.run(pl.ingress, ctx)
	if ctx.dropped {
		pl.ctr.pipeDrops.Add(1)
		pl.flushDigests(ctx)
		return out, nil
	}

	if ctx.EgressPort < 0 || ctx.EgressPort >= pl.cfg.NumPorts() {
		pl.ctr.pipeDrops.Add(1)
		pl.flushDigests(ctx)
		return out, nil
	}
	pl.ctr.byEgressPipe[pl.cfg.PipeOfPort(ctx.EgressPort)].Add(1)

	ctx.gress = Egress
	pl.run(pl.egress, ctx)
	if ctx.dropped {
		pl.ctr.pipeDrops.Add(1)
		pl.flushDigests(ctx)
		return out, nil
	}

	// The deparser builds the egress frame in a pooled lease. If it used
	// the lease (the common case: every frame fits FrameCap), the emission
	// is marked Pooled so the consumer can return the buffer; if the
	// deparser switched to a different buffer, the untouched lease goes
	// straight back to the pool.
	lease := bufpool.Get()
	frame := pl.prog.deparser(ctx, lease)
	pooled := false
	if len(frame) > 0 {
		if &frame[0] == &lease[:1][0] {
			pooled = true
		} else {
			bufpool.Put(lease)
		}
	}
	port := ctx.EgressPort
	if ctx.finalPort >= 0 {
		port = ctx.finalPort
		pl.ctr.mirrored.Add(1)
	}
	pl.ctr.tx.Add(1)
	pl.flushDigests(ctx)
	return append(out, Emitted{Port: port, Frame: frame, Pooled: pooled}), nil
}

// run walks one gress: each table whose gateway holds is applied in its
// stage, and a table whose gateway fails is passed over on the step's own
// conditions, without entering the table.
func (pl *Pipeline) run(steps []step, ctx *Ctx) {
	phv := ctx.phv
next:
	for i := range steps {
		s := &steps[i]
		for _, c := range s.when {
			if c.mask>>phv[c.field]&1 == 0 {
				if t := s.table; ctx.trace != nil {
					*ctx.trace = append(*ctx.trace, TraceEvent{
						Gress: t.spec.Gress, Stage: t.stage, Table: t.spec.Name, Skipped: true,
					})
				}
				continue next
			}
		}
		ctx.stage = s.stage
		s.table.apply(ctx)
		if ctx.dropped {
			return
		}
	}
}

func (pl *Pipeline) flushDigests(ctx *Ctx) {
	if len(ctx.digests) == 0 {
		return
	}
	pl.ctr.digests.Add(uint64(len(ctx.digests)))
	if pl.digestFn.Load() == nil {
		ctx.digests = ctx.digests[:0]
		return
	}
	for _, d := range ctx.digests {
		pl.pendMu.Lock()
		pl.pending++
		pl.pendMu.Unlock()
		select {
		case pl.digestCh <- d:
		default:
			pl.ctr.digestsDropped.Add(1)
			pl.pendMu.Lock()
			pl.pending--
			if pl.pending == 0 {
				pl.pendCond.Broadcast()
			}
			pl.pendMu.Unlock()
		}
	}
	ctx.digests = ctx.digests[:0]
}

func (c *Ctx) reset(inPort int, raw []byte) {
	for i := range c.phv {
		c.phv[i] = 0
	}
	c.InPort = inPort
	c.EgressPort = -1
	c.finalPort = -1
	c.dropped = false
	c.ValueBuf = c.ValueBuf[:0]
	c.Raw = raw
	c.digests = c.digests[:0]
	c.locks = c.locks[:0]
	c.epoch++
	if c.epoch == 0 { // wrapped: clear stale marks
		for i := range c.accessed {
			c.accessed[i] = 0
		}
		c.epoch = 1
	}
}

// Control runs fn inside the switch-driver critical section: control-plane
// operations are serialized against each other, so a multi-step update (e.g.
// write value slots, then flip the valid bit, then install the lookup entry)
// is not interleaved with another driver operation. It does NOT pause the
// data plane — packets keep flowing and observe each individual step
// atomically, exactly as on the ASIC; programs needing a stronger cross-step
// invariant against in-flight packets layer their own per-key serialization
// (see switchcore).
func (pl *Pipeline) Control(fn func()) {
	pl.ctlMu.Lock()
	defer pl.ctlMu.Unlock()
	fn()
}

// Stats returns a snapshot of the pipeline counters. Individual counters are
// read atomically; the snapshot as a whole is not a consistent cut across
// counters under concurrent traffic.
func (pl *Pipeline) Stats() Counters {
	c := Counters{
		RxPackets:      pl.ctr.rx.Load(),
		TxPackets:      pl.ctr.tx.Load(),
		ParseDrops:     pl.ctr.parseDrops.Load(),
		Corrupted:      pl.ctr.corrupted.Load(),
		PipeDrops:      pl.ctr.pipeDrops.Load(),
		Mirrored:       pl.ctr.mirrored.Load(),
		Digests:        pl.ctr.digests.Load(),
		DigestsDropped: pl.ctr.digestsDropped.Load(),
		ByEgressPipe:   make([]uint64, len(pl.ctr.byEgressPipe)),
	}
	for i := range pl.ctr.byEgressPipe {
		c.ByEgressPipe[i] = pl.ctr.byEgressPipe[i].Load()
	}
	return c
}
