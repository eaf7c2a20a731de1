// Package client implements the NetCache client library (SOSP'17 §3): a
// Get/Put/Delete interface in the style of Memcached/Redis that translates
// API calls into NetCache packets, routes each query to the storage server
// owning the key's partition, and matches replies by sequence number.
//
// Read queries follow the paper's UDP semantics — fire, await, retransmit on
// timeout (§4.1: SEQ "can be used as a sequence number for reliable
// transmissions by UDP Get queries"). A query's first attempt waits
// Policy.RTOFloor, each retransmission twice the last up to Config.Timeout,
// every wait stretched by deterministic seeded jitter (see rto.go and
// Policy). The client is unaware of the switch cache: a reply served by the
// switch is indistinguishable from one served by a server, which is exactly
// the transparency the architecture promises.
package client

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/rng"
	"netcache/internal/stats"
)

// Partitioner maps a key to the rack address of the storage server that
// owns it (the client-side view of hash partitioning, §3).
type Partitioner func(key netproto.Key) netproto.Addr

// NoRetries requests exactly zero retransmissions: one attempt, then
// ErrTimeout. The zero value of Config keeps the default of 3 retries, so a
// literal 0 cannot also mean "none"; any negative Retries normalizes like
// NoRetries.
const NoRetries = -1

// Config tunes a client.
type Config struct {
	// Addr is the client's rack address.
	Addr netproto.Addr
	// Partition routes keys to server addresses.
	Partition Partitioner
	// Timeout is the longest that one attempt waits, before jitter: the
	// cap on the doubling RTO, raised to Policy.RTOFloor when below it.
	// Zero or negative means 10ms.
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt.
	// Zero means 3; NoRetries (any negative) means an explicit zero.
	Retries int
	// Policy tunes the retransmission schedule (RTO floor, jitter seed).
	// The zero value uses the defaults.
	Policy Policy
	// Window is the closed-loop depth of GetBatch: how many
	// requests the client keeps outstanding at once. Zero means 32.
	Window int
}

// Metrics counts client activity.
type Metrics struct {
	Sent       stats.Counter
	Retransmit stats.Counter
	Timeouts   stats.Counter
	// DroppedFrames counts frames Receive discarded before matching: frame
	// decode failures, packet decode failures, and non-reply opcodes — the
	// client-side mirror of the switch's Corrupted counter.
	DroppedFrames stats.Counter
	// Unmatched counts well-formed replies with no pending query to claim
	// them: late duplicates, replies to abandoned queries, or spurious
	// traffic. Nonzero under chaos is normal; growth on a clean fabric is
	// a bug.
	Unmatched stats.Counter
	// GetLatency/PutLatency/DeleteLatency are end-to-end per-op latency
	// distributions in nanoseconds, measured from prepare (sequence
	// assignment, immediately before the first transmission) to the winning
	// reply. Only successful queries are observed; timeouts land in the
	// Timeouts counter instead. Cached hits and server-path replies are
	// indistinguishable here by design — the switch answers with the same
	// opcode the server would — so per-path latency lives in the query
	// trace, not the client histograms.
	GetLatency    *stats.Histogram
	PutLatency    *stats.Histogram
	DeleteLatency *stats.Histogram
}

// Client issues NetCache queries over a frame transport. Safe for
// concurrent use.
type Client struct {
	cfg       Config
	send      func(frame []byte)
	sendBatch func(frames [][]byte)

	seq atomic.Uint64
	// calls is the pending-call table: the query numbered seq holds
	// calls[seq&mask] from prepare until await releases it.
	calls []call
	mask  uint64

	// jitterCtr is the client's splitmix64 jitter stream: seeded, lock-free,
	// independent of the clock and of math/rand, so seeded runs replay.
	jitterCtr atomic.Uint64

	// trace, when set, receives per-query hop records. Kept in an atomic
	// pointer so the disabled path is one load and a nil branch.
	trace atomic.Pointer[qtrace.Tap]

	// Metrics is exported for harnesses and tests.
	Metrics Metrics
}

// Errors returned by the query methods.
var (
	ErrTimeout  = errors.New("client: query timed out")
	ErrNotFound = errors.New("client: key not found")
)

// New returns a client. SetSend must be called before issuing queries.
func New(cfg Config) (*Client, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("client: config needs a partitioner")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Millisecond
	}
	switch {
	case cfg.Retries < 0: // NoRetries: an explicit zero
		cfg.Retries = 0
	case cfg.Retries == 0:
		cfg.Retries = 3
	}
	cfg.Policy = cfg.Policy.normalize()
	cfg.Timeout = max(cfg.Timeout, cfg.Policy.RTOFloor)
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	c := &Client{cfg: cfg}
	// Four windows of slots, at least 64, each framing its requests in its
	// own part of one buffer.
	n := 64
	for n < 4*cfg.Window {
		n <<= 1
	}
	const frameCap = netproto.FrameHeaderSize + netproto.MaxPacketSize
	frames := make([]byte, n*frameCap)
	c.calls = make([]call, n)
	c.mask = uint64(n - 1)
	for i := range c.calls {
		c.calls[i].frame = frames[i*frameCap : i*frameCap : (i+1)*frameCap]
	}
	// Numbering starts at the clock: a server drops a write whose SEQ is at
	// or below the last it applied from the same address, so a restarted
	// client counting from 1 again would have its writes acked, not applied.
	c.seq.Store(uint64(time.Now().UnixNano()))
	c.Metrics.GetLatency = stats.NewLatencyHistogram()
	c.Metrics.PutLatency = stats.NewLatencyHistogram()
	c.Metrics.DeleteLatency = stats.NewLatencyHistogram()
	// Distinct clients sharing a harness seed draw distinct jitter streams.
	c.jitterCtr.Store(cfg.Policy.Seed ^ uint64(cfg.Addr)*rng.Seeds[0])
	return c, nil
}

// epoch anchors the client's clock. time.Since(epoch) reads only the
// monotonic clock, about half the cost of time.Now, and a query reads it
// twice: once in prepare and once when its reply lands.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// waitReply waits up to wait for cl's reply and reports whether it arrived.
// Receive hands the reply over by setting cl.done, so a reply that is
// already in — a synchronous fabric delivers it inside the send — costs one
// atomic load and no channel operation. With poll set (a query's first
// attempt), waits under the policy's spinUnder threshold (2ms) poll that
// flag in a Gosched-yielding loop, since a parked timer's ~1ms wakeup would
// round every sub-millisecond RTO up (DESIGN.md §7, "Poll-mode short
// waits"); a poll that reaches its deadline parks for pollGrace before it
// gives up. Longer waits and retransmissions park on a fresh timer per
// attempt: reusing one with stop-drain-reset races the runtime's expiry
// send, and a stale expiry would fire the next wait at once.
func (c *Client) waitReply(cl *call, wait time.Duration, poll bool) bool {
	if cl.done.Load() {
		return true
	}
	if wait <= 0 {
		return false
	}
	if poll && wait < c.cfg.Policy.spinUnder {
		deadline := now() + wait
		for !cl.done.Load() {
			if now() > deadline {
				return park(cl, pollGrace)
			}
			runtime.Gosched()
		}
		return true
	}
	return park(cl, wait)
}

// pollGrace is how long an expired poll-mode wait parks before it reports a
// timeout. A Gosched loop never lets its P steal, so a reply stranded on
// another P's queue or timer heap waits for that P alone; parking lets the
// scheduler steal it (DESIGN.md §7, "An expired poll parks once").
const pollGrace = 50 * time.Microsecond

// park blocks on cl's wake channel until its reply lands or wait elapses,
// and reports whether it arrived.
func park(cl *call, wait time.Duration) bool {
	if cl.wake == nil {
		cl.wake = make(chan struct{}, 1)
	}
	// Set parked before the last look at done: Receive sets done before it
	// reads parked, so either this load sees the reply or Receive sees the
	// waiter and signals wake.
	cl.parked.Store(true)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for !cl.done.Load() {
		select {
		case <-cl.wake: // a signal left by an earlier wait is harmless
		case <-timer.C:
			return cl.done.Load()
		}
	}
	return true
}

// jitter draws a deterministic pseudo-random duration in [0, frac*base).
func (c *Client) jitter(base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	span := time.Duration(float64(base) * DefaultJitterFrac)
	if span <= 0 {
		return 0
	}
	return time.Duration(rng.NextAtomic(&c.jitterCtr) % uint64(span))
}

// Addr returns the client's rack address.
func (c *Client) Addr() netproto.Addr { return c.cfg.Addr }

// SetSend installs the transmit function (frames leave toward the switch).
func (c *Client) SetSend(fn func(frame []byte)) { c.send = fn }

// SetSendBatch installs an optional vectorized transmit function. When
// present, GetBatch issues each window of requests through it as one burst
// (one fabric wakeup / one datagram batch for N frames); retransmissions
// still go through the per-frame send path. Like SetSend's fn, it must not
// retain the frames after returning.
func (c *Client) SetSendBatch(fn func(frames [][]byte)) { c.sendBatch = fn }

// Receive handles one frame delivered to the client's port. Nothing is
// discarded silently: undecodable frames and non-reply packets count as
// DroppedFrames, replies that match no pending query as Unmatched — the
// counters chaos debugging needs to tell "the fabric ate it" from "the
// client ignored it".
func (c *Client) Receive(frame []byte) {
	fr, err := netproto.DecodeFrame(frame)
	if err != nil {
		c.Metrics.DroppedFrames.Inc()
		return
	}
	var pkt netproto.Packet
	if netproto.Decode(fr.Payload, &pkt) != nil || !pkt.Op.IsReply() {
		c.Metrics.DroppedFrames.Inc()
		return
	}
	// The first reply to a pending call claims it: its slot goes from
	// pending to answered. A duplicate, a reply to a released call or to one
	// whose slot a later query holds, and a seq that seq<<1 cannot carry
	// whole fail the swap and count as Unmatched. Nothing here blocks: on a
	// synchronous fabric Receive runs inside the sender's own call stack.
	cl := &c.calls[pkt.Seq&c.mask]
	want := pkt.Seq << 1
	if want == 0 || want>>1 != pkt.Seq || !cl.state.CompareAndSwap(want, want|1) {
		c.Metrics.Unmatched.Inc()
		return
	}
	// Copy the value out of the transport buffer before handing off.
	if pkt.Value != nil {
		pkt.Value = append(make([]byte, 0, len(pkt.Value)), pkt.Value...)
	}
	cl.reply = pkt
	cl.done.Store(true)
	if cl.parked.Load() {
		select {
		case cl.wake <- struct{}{}:
		default:
		}
	}
}

// Get fetches the value of key. It returns ErrNotFound for absent keys and
// ErrTimeout when every retransmission went unanswered.
func (c *Client) Get(key netproto.Key) ([]byte, error) {
	pkt, err := c.roundTrip(netproto.Packet{Op: netproto.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	if pkt.Op == netproto.OpGetReplyMiss {
		return nil, ErrNotFound
	}
	return pkt.Value, nil
}

// Put stores value under key.
func (c *Client) Put(key netproto.Key, value []byte) error {
	if len(value) == 0 || len(value) > netproto.MaxValueSize {
		return fmt.Errorf("client: value size %d out of (0,%d]", len(value), netproto.MaxValueSize)
	}
	_, err := c.roundTrip(netproto.Packet{Op: netproto.OpPut, Key: key, Value: value})
	return err
}

// Delete removes key. Deleting an absent key is not an error, matching the
// store's idempotent semantics.
func (c *Client) Delete(key netproto.Key) error {
	_, err := c.roundTrip(netproto.Packet{Op: netproto.OpDelete, Key: key})
	return err
}

// call is one slot of the pending-call table and, while claimed, one
// in-flight query: its sequence number, the encoded request frame (the
// slot's own buffer, reused verbatim by every retransmission), and the
// reply Receive hands over.
type call struct {
	// state is 0 while the slot is free, seq<<1 while its query waits and
	// seq<<1|1 once a reply has claimed it. Each move is one CAS, and the
	// seq in the word keeps a reply to an earlier query in this slot from
	// claiming a later one.
	state atomic.Uint64
	seq   uint64
	op    netproto.Op
	key   netproto.Key
	start time.Duration // prepare's clock read
	frame []byte

	// reply is written by the Receive that claimed the call, before it
	// sets done; the waiter reads it only after it has seen done.
	reply netproto.Packet
	done  atomic.Bool
	// parked is set by a waiter about to block on wake. Only then does
	// Receive signal wake, so a reply that beats its waiter costs no
	// channel operation. wake is made on the slot's first park; a signal
	// an earlier query left only makes the next waiter look at done again.
	parked atomic.Bool
	wake   chan struct{}
}

// claim takes a free slot for the next sequence number. A slot still held
// by a waiting query is passed over for the next number. After a pass
// over the table's worth of numbers finds none free, claim yields and tries
// again, or with wait unset returns nil.
func (c *Client) claim(wait bool) *call {
	for tries := 1; ; tries++ {
		seq := c.seq.Add(1)
		if cl := &c.calls[seq&c.mask]; cl.state.CompareAndSwap(0, seq<<1) {
			cl.seq = seq
			return cl
		}
		if tries%len(c.calls) == 0 {
			if !wait {
				return nil
			}
			runtime.Gosched()
		}
	}
}

// prepare encodes the request into cl's frame and stamps its start:
// everything up to (but not including) the first transmission. Every
// successful prepare must be paired with exactly one await, which releases
// the slot; a failed one releases it itself.
func (c *Client) prepare(cl *call, pkt netproto.Packet) error {
	pkt.Seq = cl.seq
	dst := c.cfg.Partition(pkt.Key)
	frame, err := netproto.AppendFramePacket(cl.frame[:0], dst, c.cfg.Addr, &pkt)
	cl.frame = frame
	if err != nil {
		c.release(cl)
		return err
	}
	cl.op = pkt.Op
	cl.key = pkt.Key
	cl.start = now()
	c.trace.Load().Record(qtrace.ClientSend, cl.op, cl.seq, cl.key, false)
	return nil
}

// release frees cl's slot. A call no reply claimed is freed by one CAS. A
// claimed one first waits until its Receive has handed the reply over, so
// no Receive writes a slot the next query holds. The slot keeps the reply
// until the next one overwrites it.
func (c *Client) release(cl *call) {
	if cl.parked.Load() {
		cl.parked.Store(false)
	}
	if !cl.done.Load() && cl.state.CompareAndSwap(cl.seq<<1, 0) {
		return
	}
	for !cl.done.Load() {
		runtime.Gosched()
	}
	cl.done.Store(false)
	cl.state.Store(0)
}

// complete records the end-to-end latency of a successful call into the
// matching per-op histogram, emits the ClientRecv trace record and returns
// the reply.
func (c *Client) complete(cl *call) (netproto.Packet, error) {
	d := float64(now() - cl.start)
	switch cl.op {
	case netproto.OpGet:
		c.Metrics.GetLatency.Observe(d)
	case netproto.OpPut:
		c.Metrics.PutLatency.Observe(d)
	case netproto.OpDelete:
		c.Metrics.DeleteLatency.Observe(d)
	}
	c.trace.Load().Record(qtrace.ClientRecv, cl.op, cl.seq, cl.key, false)
	return cl.reply, nil
}

// SetTrace installs (or, with nil, removes) the query-trace tap. Safe to
// call concurrently with traffic.
func (c *Client) SetTrace(t *qtrace.Tap) { c.trace.Store(t) }

// roundTrip sends the query and awaits the matching reply, retransmitting
// per the configured policy.
func (c *Client) roundTrip(pkt netproto.Packet) (netproto.Packet, error) {
	cl := c.claim(true)
	if err := c.prepare(cl, pkt); err != nil {
		return netproto.Packet{}, err
	}
	return c.await(cl, false)
}

// await drives one prepared call to completion: transmit (unless preSent
// says the first copy already left in a batch), wait, retransmit, and on
// return release its slot, request frame included. The release is safe
// because no transmit path retains a sent frame: the simnet fabric and the
// switch copy what they keep before Inject returns, and the UDP endpoint
// hands the bytes to the kernel. It keeps the accounting contract of
// DESIGN.md §7: Sent counts every frame transmitted (GetBatch counts its
// bursts), Retransmit each retransmission, Timeouts each failed query.
func (c *Client) await(cl *call, preSent bool) (netproto.Packet, error) {
	defer c.release(cl)

	for attempt := 0; ; attempt++ {
		if attempt > 0 || !preSent {
			c.Metrics.Sent.Inc()
			if attempt > 0 {
				c.Metrics.Retransmit.Inc()
				c.trace.Load().Record(qtrace.ClientRetransmit, cl.op, cl.seq, cl.key, true)
			}
			c.send(cl.frame)
		}
		// The fabric may deliver synchronously, in which case the
		// reply is already in.
		if c.waitReply(cl, 0, false) {
			return c.complete(cl)
		}
		rto := c.rto(attempt)
		if c.waitReply(cl, rto+c.jitter(rto), attempt == 0) {
			return c.complete(cl)
		}
		if attempt >= c.cfg.Retries {
			c.Metrics.Timeouts.Inc()
			c.trace.Load().Record(qtrace.ClientTimedOut, cl.op, cl.seq, cl.key, false)
			return netproto.Packet{}, ErrTimeout
		}
	}
}

// GetBatch fetches several keys with Config.Window requests outstanding at
// once — the closed-loop depth the paper's throughput figures assume, and
// the fan-out pattern of web workloads ("rendering even a single web page
// often requires hundreds ... of storage accesses", §1). Each window is
// prepared on this goroutine, transmitted as one burst (through the batch
// sender if one is installed, SetSendBatch, else frame by frame), and then
// awaited in order: pipelining without a goroutine per request. Only a
// window's first request waits for a free slot: requests holding slots
// while they wait for more could deadlock the callers sharing the client,
// so a full table ends the window early instead.
// results[i] and errs[i] correspond to keys[i]; absent keys yield
// ErrNotFound in errs.
func (c *Client) GetBatch(keys []netproto.Key) (results [][]byte, errs []error) {
	results = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	w := c.cfg.Window
	window := make([]*call, w)
	frames := make([][]byte, 0, w)
	for base, end := 0, 0; base < len(keys); base = end {
		end = min(base+w, len(keys))
		frames = frames[:0]
		for i := base; i < end; i++ {
			cl := c.claim(i == base)
			if cl == nil {
				end = i
				break
			}
			if err := c.prepare(cl, netproto.Packet{Op: netproto.OpGet, Key: keys[i]}); err != nil {
				errs[i], cl = err, nil
			} else {
				frames = append(frames, cl.frame)
			}
			window[i-base] = cl
		}
		c.Metrics.Sent.Add(uint64(len(frames)))
		if c.sendBatch != nil {
			c.sendBatch(frames)
		} else {
			for _, f := range frames {
				c.send(f)
			}
		}
		for i := base; i < end; i++ {
			cl := window[i-base]
			if cl == nil {
				continue // prepare failed
			}
			reply, err := c.await(cl, true)
			switch {
			case err != nil:
				errs[i] = err
			case reply.Op == netproto.OpGetReplyMiss:
				errs[i] = ErrNotFound
			default:
				results[i] = reply.Value
			}
		}
	}
	return results, errs
}

// HashPartitioner returns the canonical partitioner: keys are hashed across
// the given server addresses (§3: "key-value items are hash-partitioned to
// the storage servers").
func HashPartitioner(servers []netproto.Addr) Partitioner {
	if len(servers) == 0 {
		panic("client: HashPartitioner needs at least one server")
	}
	addrs := append([]netproto.Addr(nil), servers...)
	return func(key netproto.Key) netproto.Addr {
		return addrs[PartitionOf(key, len(addrs))]
	}
}

// PartitionOf returns the partition index of key among n partitions — the
// shared hash every component (client, rack, harness) agrees on.
func PartitionOf(key netproto.Key, n int) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(n))
}
