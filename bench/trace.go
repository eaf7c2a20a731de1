package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/rack"
)

// Span kinds. A span name is a kind, plus the frame's op for the kinds that
// wrap a server's receive or send. Spans are recorded from this package
// only, around the calls into each layer at its exported seams.
const (
	spanOp         = iota << 5 // generator: draw the query, check the reply
	spanClientGet              // Client.Get
	spanClientPut              // Client.Put
	spanClientSend             // the client's send function: Net.Inject or Endpoint.Send
	spanClientRecv             // Client.Receive
	spanServerRecv             // Server.Receive (UDP only, see attachSim)
	spanServerSend             // a server's send function: Net.Inject or Endpoint.Send
	spanTick                   // inline Rack.Tick
)

var kindNames = [...]string{"op", "client.get", "client.put", "client.send", "client.receive", "server.receive", "server.send", "controller.tick"}

func spanName(id uint8) string {
	kind := kindNames[id>>5]
	if k := int(id) &^ 31; k == spanServerRecv || k == spanServerSend {
		return kind + "." + netproto.Op(id&31).String()
	}
	return kind
}

// timed wraps a send or receive function in a span of kind, reported to
// whatever tracer get returns at the time of the call (none when nil). A
// server's spans are named by the frame's op as well.
func timed(get func() *tracer, kind int, fn func(frame []byte)) func(frame []byte) {
	byOp := kind == spanServerRecv || kind == spanServerSend
	return func(frame []byte) {
		name := kind
		if byOp && len(frame) > netproto.FrameOpOff {
			name |= int(frame[netproto.FrameOpOff] & 31)
		}
		t := get()
		s := t.begin(name)
		fn(frame)
		t.end(s)
	}
}

// span is one timed call. Spans of one op share its id; parent is the span
// that caused it, as an index into the same buffer (-1 for the op's root).
type span struct {
	op         uint32
	parent     int32
	start, end int64 // ns since the tracer's base
	name       uint8
}

// spanRef is what begin hands out for end: the buffer generation and the
// span's index, so an end that arrives after a fold touches nothing.
type spanRef int64

const noSpan spanRef = -1

// tracer keeps spans in a preallocated buffer. When the buffer is nearly
// full it folds the finished ops into per-path sums and starts over, with
// the time that takes taken off the clock.
//
// On simnet the whole path runs synchronously on the generator goroutine,
// so spans nest and parent is the innermost open span. On UDP the server
// and client receive callbacks run on their own goroutines; there every
// span's parent is the op's client call (flat). The mutex is for those, and
// for a server retry timer that can fire into a wrapped send on simnet.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	flat  bool
	spans []span
	gen   int64
	top   int32 // innermost open span, -1 outside an op
	call  int32 // the op's client.get / client.put span
	opID  uint32

	on       atomic.Bool // spans are recorded only while set
	pausedNs atomic.Int64

	// calibration: what one begin/end pair adds inside the span it
	// measures, and outside it in its parent's self time
	costIn, costOut float64

	paths map[string]*pathSums
	// UDP timings from span starts, in ns
	rttHit, leg []float64
}

// pathSums accumulates, for one path, the self time of every span name.
type pathSums struct {
	ops      int
	opNs     float64
	selfNs   [256]float64
	spans    [256]int // how many spans of the name
	children [256]int // how many direct children they had
}

const (
	traceBufferSpans = 1 << 18
	maxSpansPerOp    = 256
)

func newTracer(flat bool) *tracer {
	t := &tracer{
		base:  time.Now(),
		flat:  flat,
		spans: make([]span, 0, traceBufferSpans),
		top:   -1,
		call:  -1,
		paths: map[string]*pathSums{},
	}
	t.calibrate()
	return t
}

func (t *tracer) paused() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.pausedNs.Load())
}

// begin opens a span. A nil tracer, or one switched off, records nothing.
func (t *tracer) begin(name int) spanRef {
	if t == nil || !t.on.Load() {
		return noSpan
	}
	t.mu.Lock()
	idx := int32(len(t.spans))
	if int(idx) == cap(t.spans) {
		t.mu.Unlock()
		return noSpan // one op outgrew maxSpansPerOp; drop the span
	}
	parent := t.top
	switch {
	case name == spanOp:
		t.opID++
		parent, t.top, t.call = -1, idx, -1
	case t.flat && t.call >= 0:
		parent = t.call
	default:
		t.top = idx
		if name == spanClientGet || name == spanClientPut {
			t.call = idx
		}
	}
	t.spans = append(t.spans, span{op: t.opID, parent: parent, name: uint8(name)})
	ref := spanRef(t.gen<<32 | int64(idx))
	t.spans[idx].start = int64(time.Since(t.base))
	t.mu.Unlock()
	return ref
}

func (t *tracer) end(ref spanRef) {
	if t == nil || ref < 0 {
		return
	}
	t.mu.Lock()
	t.endLocked(ref)
	t.mu.Unlock()
}

func (t *tracer) endLocked(ref spanRef) {
	now := int64(time.Since(t.base))
	idx := int32(ref)
	if int64(ref)>>32 != t.gen {
		return // the span was folded away: a reply that came after its op
	}
	s := &t.spans[idx]
	s.end = now
	if !t.flat || s.parent < 0 || idx == t.call {
		t.top = s.parent
	}
}

// endOp closes the op's root span, and folds the buffer when it is nearly
// full.
func (t *tracer) endOp(root spanRef) {
	if t == nil || root < 0 {
		return
	}
	t.mu.Lock()
	t.endLocked(root)
	if len(t.spans) > cap(t.spans)-maxSpansPerOp {
		start := time.Now()
		t.fold()
		t.pausedNs.Add(int64(time.Since(start)))
	}
	t.mu.Unlock()
}

// calibrate measures the tracer's own cost on nested empty spans: the
// median over batches, so a preemption or a GC cycle does not count.
func (t *tracer) calibrate() {
	const batches, n = 21, 1000
	var in, out [batches]float64
	t.on.Store(true)
	defer t.on.Store(false)
	for b := range in {
		for i := 0; i < n; i++ {
			p := t.begin(spanOp)
			c := t.begin(spanClientGet)
			t.end(c)
			t.end(p)
			ps, cs := t.spans[int32(p)], t.spans[int32(c)]
			in[b] += float64(cs.end-cs.start) / n
			out[b] += float64(ps.end-ps.start-(cs.end-cs.start)) / n
		}
	}
	// The spans were left to fill the buffer as a run's do, so that the
	// cost of writing fresh memory is in the figures.
	t.spans = t.spans[:0]
	t.costIn = median(in[:])
	t.costOut = median(out[:]) - t.costIn
	t.opID, t.top, t.call = 0, -1, -1
}

// fold adds every finished op in the buffer to its path's sums and empties
// the buffer. Called with the lock held, between ops.
func (t *tracer) fold() {
	var child [maxSpansPerOp]int64
	var kids [maxSpansPerOp]int
	for lo := 0; lo < len(t.spans); {
		first := lo
		for lo++; lo < len(t.spans) && t.spans[lo].op == t.spans[first].op; lo++ {
		}
		op := t.spans[first:lo]
		if op[0].name != spanOp || op[0].end == 0 || len(op) > maxSpansPerOp {
			continue
		}
		clear(child[:len(op)])
		clear(kids[:len(op)])
		var sawServer, sawUpdate, sawRepl, isPut bool
		var sendAt, serverAt, recvAt int64
		for i := range op {
			s := &op[i]
			if s.end == 0 {
				s.end = s.start // never closed: a reply that came after its op
			}
			if p := int(s.parent) - first; p >= 0 && p < len(op) {
				child[p] += s.end - s.start
				kids[p]++
			}
			switch kind := int(s.name) &^ 31; {
			case kind == spanClientPut:
				isPut = true
			case kind == spanClientSend && sendAt == 0:
				sendAt = s.start
			case kind == spanClientRecv && recvAt == 0:
				recvAt = s.start
			case kind == spanServerRecv || kind == spanServerSend:
				// Controller RPCs to a UDP server land in whatever op
				// is open; only the query's own frames say which path.
				switch netproto.Op(s.name & 31) {
				case netproto.OpGet, netproto.OpGetReply, netproto.OpGetReplyMiss:
					if !sawServer {
						serverAt = s.start
					}
					sawServer = true
				case netproto.OpCacheUpdate:
					sawUpdate = true
				case netproto.OpReplicate:
					sawRepl = true
				}
			}
		}
		path := "get_hit"
		switch {
		case isPut:
			path = "put"
			if sawRepl {
				path += "_repl"
			}
			if sawUpdate {
				path += "_cached"
			}
		case sawServer:
			path = "get_miss"
		}
		ps := t.paths[path]
		if ps == nil {
			ps = &pathSums{}
			t.paths[path] = ps
		}
		ps.ops++
		ps.opNs += float64(op[0].end - op[0].start)
		for i := range op {
			s := &op[i]
			ps.selfNs[s.name] += float64(s.end - s.start - child[i])
			ps.spans[s.name]++
			ps.children[s.name] += kids[i]
		}
		if t.flat && sendAt > 0 && len(t.rttHit)+len(t.leg) < 1<<20 {
			switch {
			case path == "get_hit" && recvAt > 0:
				t.rttHit = append(t.rttHit, float64(recvAt-sendAt))
			case path == "get_miss" && serverAt > 0:
				t.leg = append(t.leg, float64(serverAt-sendAt))
			}
		}
	}
	t.spans = t.spans[:0]
	t.gen++
	t.top, t.call = -1, -1
}

// pathReport is one path's self-time table: mean ns per op, by span name,
// with the tracer's own calibrated cost taken out.
type pathReport struct {
	Ops    int                `json:"ops"`
	OpNs   float64            `json:"traced_op_ns"`
	SelfNs map[string]float64 `json:"self_ns"`
	SumNs  float64            `json:"self_sum_ns"`
}

// report folds what is left and returns the per-path tables and the mean
// self-time sum per op over all paths.
func (t *tracer) report() (map[string]pathReport, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fold()
	out := map[string]pathReport{}
	var total float64
	var ops int
	for path, ps := range t.paths {
		pr := pathReport{Ops: ps.ops, OpNs: ps.opNs / float64(ps.ops), SelfNs: map[string]float64{}}
		for name := range ps.selfNs {
			if ps.spans[name] == 0 {
				continue
			}
			self := ps.selfNs[name] - float64(ps.spans[name])*t.costIn - float64(ps.children[name])*t.costOut
			pr.SelfNs[spanName(uint8(name))] = self / float64(ps.ops)
			pr.SumNs += self / float64(ps.ops)
		}
		total += pr.SumNs * float64(ps.ops)
		ops += ps.ops
		out[path] = pr
	}
	if ops == 0 {
		return out, 0
	}
	return out, total / float64(ops)
}

// attachSim installs the timing wrappers on a simnet rack. Server sends are
// re-pointed through Server.SetSend. simnet.Net.Attach refuses a second
// handler on a port, so the receive side cannot be re-wrapped in place: the
// traced run drives a client of its own on a spare port, built and wired as
// rack.New wires its clients, and a server's Receive has no span of its own
// on simnet: its time is the self time of the send that delivered to it.
func (t *tracer) attachSim(r *rack.Rack) (*client.Client, error) {
	port := len(r.Servers) + len(r.Clients)
	cl, err := client.New(client.Config{Addr: rack.ClientAddr(len(r.Clients)), Partition: r.Partition})
	if err != nil {
		return nil, err
	}
	self := func() *tracer { return t }
	inject := func(port int) func([]byte) {
		return func(frame []byte) { _ = r.Net.Inject(frame, port) }
	}
	cl.SetSend(timed(self, spanClientSend, inject(port)))
	r.Net.Attach(port, timed(self, spanClientRecv, cl.Receive))
	if err := r.Switch.InstallRoute(cl.Addr(), port); err != nil {
		return nil, err
	}
	for i, srv := range r.Servers {
		srv.SetSend(timed(self, spanServerSend, inject(r.ServerPort(i))))
	}
	return cl, nil
}

// writeSpans dumps the spans still in the buffer, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i, s := range t.spans {
		err = enc.Encode(map[string]any{
			"id": i, "op": s.op, "name": spanName(s.name), "parent": s.parent,
			"start_ns": s.start, "end_ns": s.end,
		})
		if err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
