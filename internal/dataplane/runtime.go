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
// Pipeline.ProcessAppend call.
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
	// compiled counts the packets program-compiled paths carried
	// (CountCompiled) in one row per ingress port: forwarded, then
	// mirrored, by egress pipe. Rows are padded to 64 bytes so that ports
	// fed from different cores do not write one cache line.
	compiled    []atomic.Uint64
	compiledRow int
}

// digestQueueCap bounds the learn-digest queue, like the finite learn-filter
// buffer on the ASIC; overflow drops the digest and counts it. It holds one
// controller cycle's worth: 16,384 hot-key reports and 1,024 overflows.
const digestQueueCap = 16384 + 1024

// Pipeline is a compiled program bound to a chip configuration: the
// executable switch. ProcessAppend is the data-plane entry point and is safe for
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

	// digestCh is the learn-filter queue: the packet path enqueues
	// digests without blocking, and the control plane drains them
	// (DrainDigests).
	digestCh chan []byte

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
	pl.ctr.byEgressPipe = make([]atomic.Uint64, cfg.Pipes)
	pl.ctr.compiledRow = (2*cfg.Pipes + 7) &^ 7
	pl.ctr.compiled = make([]atomic.Uint64, cfg.NumPorts()*pl.ctr.compiledRow)
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

// DrainDigests hands the learn digests queued at the call to fn, oldest
// first, without waiting for more: digests raised while it runs are left for
// the next drain. fn runs on the caller's goroutine and may call back into
// the pipeline.
func (pl *Pipeline) DrainDigests(fn func(payload []byte)) {
	for n := len(pl.digestCh); n > 0; n-- {
		select {
		case d := <-pl.digestCh:
			fn(d)
		default: // a concurrent drain took the rest
			return
		}
	}
}

// ProcessAppend runs one packet through the switch: parser, ingress pipe of
// the arrival port, traffic manager, egress pipe of the chosen port,
// deparser. It appends the emitted packets (zero if dropped, one normally)
// to out, so a caller in a loop reuses one slice instead of allocating a
// fresh one per packet. The emitted frames may be pool-backed
// (Emitted.Pooled); hot-path callers release them with ReleaseFrame once
// consumed. It is safe to call from any number of goroutines concurrently.
func (pl *Pipeline) ProcessAppend(raw []byte, inPort int, out []Emitted) ([]Emitted, error) {
	return pl.process(raw, inPort, out, nil)
}

// CountCompiled accounts one packet that a program-compiled path carried
// around the interpreter from inPort, bound for egressPort's pipe:
// received, through that egress pipe, mirrored if it left on a mirror port,
// and transmitted — what the interpreter would have counted for it. One
// atomic add, into inPort's row; Stats folds the rows in when read. A
// compiled path calls it exactly once per packet it fully handles; one that
// bails out to the interpreter must not.
func (pl *Pipeline) CountCompiled(inPort, egressPort int, mirrored bool) {
	i := inPort*pl.ctr.compiledRow + pl.cfg.PipeOfPort(egressPort)
	if mirrored {
		i += pl.cfg.Pipes
	}
	pl.ctr.compiled[i].Add(1)
}

// Digest queues a learn digest raised by a program-compiled path, counted
// and delivered exactly like one raised by an action (Ctx.Digest). The
// payload is copied.
func (pl *Pipeline) Digest(payload []byte) {
	pl.queueDigest(append([]byte(nil), payload...))
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
	for _, d := range ctx.digests {
		pl.queueDigest(d)
	}
	ctx.digests = ctx.digests[:0]
}

func (pl *Pipeline) queueDigest(d []byte) {
	pl.ctr.digests.Add(1)
	select {
	case pl.digestCh <- d:
	default:
		pl.ctr.digestsDropped.Add(1)
	}
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

// Stats returns a snapshot of the pipeline counters, the interpreter's and
// the compiled paths' together. Individual counters are read atomically;
// the snapshot as a whole is not a consistent cut across counters under
// concurrent traffic.
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
	for row := 0; row < len(pl.ctr.compiled); row += pl.ctr.compiledRow {
		for i := 0; i < 2*pl.cfg.Pipes; i++ {
			n := pl.ctr.compiled[row+i].Load()
			c.ByEgressPipe[i%pl.cfg.Pipes] += n
			c.RxPackets += n
			c.TxPackets += n
			if i >= pl.cfg.Pipes {
				c.Mirrored += n
			}
		}
	}
	return c
}
