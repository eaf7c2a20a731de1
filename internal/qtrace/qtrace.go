// Package qtrace is an opt-in, bounded query-trace facility: components
// append per-query hop records (client send → switch hit/miss → server →
// reply) into a shared ring buffer. Tracing is wired through per-component
// Tap pointers held in atomics, so the disabled path costs one atomic load
// and a nil branch per packet — cheap enough to leave the hooks compiled in
// on the data plane.
package qtrace

import (
	"fmt"
	"sync"
	"time"

	"netcache/internal/netproto"
)

// Stage identifies where in a query's life a record was taken.
type Stage uint8

const (
	ClientSend Stage = iota
	ClientRetransmit
	ClientRecv
	ClientTimedOut
	SwitchHit
	SwitchMiss
	SwitchWrite
	ServerGet
	ServerWrite
)

var stageNames = [...]string{
	ClientSend:       "client_send",
	ClientRetransmit: "client_retransmit",
	ClientRecv:       "client_recv",
	ClientTimedOut:   "client_timeout",
	SwitchHit:        "switch_hit",
	SwitchMiss:       "switch_miss",
	SwitchWrite:      "switch_write",
	ServerGet:        "server_get",
	ServerWrite:      "server_write",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Record is one hop observation for one query.
type Record struct {
	When       time.Time
	Node       string // "client3", "tor0", "server2" — assigned by the Tap
	Stage      Stage
	Op         netproto.Op
	Seq        uint64
	Key        netproto.Key
	Retransmit bool
}

func (r Record) String() string {
	flags := ""
	if r.Retransmit {
		flags = " retx"
	}
	return fmt.Sprintf("%s %-12s %-17s op=%s seq=%d key=%x%s",
		r.When.Format("15:04:05.000000"), r.Node, r.Stage, opName(r.Op), r.Seq, r.Key[:4], flags)
}

// opName names the query opcodes a trace can carry; hop stages already say
// which side of the exchange a record is, so replies never reach a tap.
func opName(op netproto.Op) string {
	switch op {
	case netproto.OpGet:
		return "get"
	case netproto.OpPut:
		return "put"
	case netproto.OpDelete:
		return "del"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// Ring is a fixed-capacity trace buffer: once full, new records overwrite
// the oldest. A nil *Ring is valid and drops everything, so components can
// hold taps unconditionally.
type Ring struct {
	mu    sync.Mutex
	buf   []Record
	next  int
	total uint64
}

// NewRing returns a ring holding up to capacity records.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Record, 0, capacity)}
}

func (r *Ring) add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Records returns the buffered records oldest-first.
func (r *Ring) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Len returns the number of buffered records.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns how many records were ever added, including overwritten ones.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Reset drops all buffered records (capacity is kept).
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.mu.Unlock()
}

// Tap returns a component-local tap writing into the ring with the given
// node label. A nil receiver returns a nil tap, which records nothing —
// callers store the result in an atomic.Pointer and never nil-check twice.
func (r *Ring) Tap(node string) *Tap {
	if r == nil {
		return nil
	}
	return &Tap{ring: r, node: node}
}

// Tap stamps records with its node name and forwards them to the ring.
type Tap struct {
	ring *Ring
	node string
}

// Record appends one observation. Safe on a nil tap (no-op).
func (t *Tap) Record(stage Stage, op netproto.Op, seq uint64, key netproto.Key, retransmit bool) {
	if t == nil {
		return
	}
	t.ring.add(Record{
		When:       time.Now(),
		Node:       t.node,
		Stage:      stage,
		Op:         op,
		Seq:        seq,
		Key:        key,
		Retransmit: retransmit,
	})
}
