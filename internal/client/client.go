// Package client implements the NetCache client library (SOSP'17 §3): a
// Get/Put/Delete interface in the style of Memcached/Redis that translates
// API calls into NetCache packets, routes each query to the storage server
// owning the key's partition, and matches replies by sequence number.
//
// Read queries follow the paper's UDP semantics — fire, await, retransmit on
// timeout (§4.1: SEQ "can be used as a sequence number for reliable
// transmissions by UDP Get queries"). The retransmission timer is adaptive
// by default: a per-destination Jacobson/Karn RTT estimator derives the RTO,
// successive timeouts back off exponentially with deterministic seeded
// jitter, and an optional hedged-read mode races a duplicate Get against the
// tail (see rto.go and Policy). The client is unaware of the switch cache: a
// reply served by the switch is indistinguishable from one served by a
// server, which is exactly the transparency the architecture promises.
package client

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netcache/internal/bufpool"
	"netcache/internal/netproto"
	"netcache/internal/qtrace"
	"netcache/internal/rng"
	"netcache/internal/stats"
)

// Partitioner maps a key to the rack address of the storage server that
// owns it (the client-side view of hash partitioning, §3).
type Partitioner func(key netproto.Key) netproto.Addr

// Explicit-zero sentinels. The zero value of Config keeps the historical
// defaults (Timeout 10ms, Retries 3), so a literal 0 cannot also mean
// "zero"; these negative sentinels request an actual zero.
const (
	// NoRetries requests exactly zero retransmissions: one attempt, then
	// ErrTimeout. Any negative Retries normalizes the same way.
	NoRetries = -1
	// NoWait requests a zero per-attempt timeout: only a reply already
	// buffered when the send returns (a synchronous fabric) is accepted.
	// Any negative Timeout normalizes the same way.
	NoWait time.Duration = -1
)

// Config tunes a client.
type Config struct {
	// Addr is the client's rack address.
	Addr netproto.Addr
	// Partition routes keys to server addresses.
	Partition Partitioner
	// Timeout is the initial RTO, before the first RTT sample, and lifts
	// the RTO ceiling when it is above DefaultRTOCeil. Zero means 10ms;
	// NoWait (any negative) means an explicit zero.
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt.
	// Zero means 3; NoRetries (any negative) means an explicit zero.
	Retries int
	// Policy tunes the adaptive retransmission path (RTT-estimated RTO,
	// backoff, jitter, hedged reads). The zero value adapts with defaults.
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
	// Hedges counts hedged-read duplicates (not retransmissions: they fire
	// before the RTO, on the P99 hedge delay).
	Hedges stats.Counter
	// DroppedFrames counts frames Receive discarded before matching: frame
	// decode failures, packet decode failures, and non-reply opcodes — the
	// client-side mirror of the switch's Corrupted counter.
	DroppedFrames stats.Counter
	// Unmatched counts well-formed replies with no pending query to claim
	// them: late duplicates, replies to abandoned queries, or spurious
	// traffic. Nonzero under chaos is normal; growth on a clean fabric is
	// a bug.
	Unmatched stats.Counter
	// RTTSamples counts clean (Karn-admissible) samples fed to the
	// estimators; KarnSkipped counts replies whose RTT was discarded as
	// ambiguous because the attempt had been retransmitted or hedged.
	RTTSamples  stats.Counter
	KarnSkipped stats.Counter
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
	// mu guards pending, and every write Receive makes to a pending call.
	mu      sync.Mutex
	pending map[uint64]*call

	// est holds one RTT estimator per destination server. The map is
	// copy-on-write: a query finds its estimator with one atomic load, and
	// estMu only serializes adding a destination.
	estMu sync.Mutex
	est   atomic.Pointer[map[netproto.Addr]*rtoEstimator]

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
	switch {
	case cfg.Timeout < 0: // NoWait: an explicit zero
		cfg.Timeout = 0
	case cfg.Timeout == 0:
		cfg.Timeout = 10 * time.Millisecond
	}
	switch {
	case cfg.Retries < 0: // NoRetries: an explicit zero
		cfg.Retries = 0
	case cfg.Retries == 0:
		cfg.Retries = 3
	}
	cfg.Policy = cfg.Policy.normalize()
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	c := &Client{
		cfg:     cfg,
		pending: make(map[uint64]*call),
	}
	// Numbering starts at the clock: a server drops a write whose SEQ is at
	// or below the last it applied from the same address, so a restarted
	// client counting from 1 again would have its writes acked, not applied.
	c.seq.Store(uint64(time.Now().UnixNano()))
	c.est.Store(&map[netproto.Addr]*rtoEstimator{})
	c.Metrics.GetLatency = stats.NewLatencyHistogram()
	c.Metrics.PutLatency = stats.NewLatencyHistogram()
	c.Metrics.DeleteLatency = stats.NewLatencyHistogram()
	// Distinct clients sharing a harness seed draw distinct jitter streams.
	c.jitterCtr.Store(cfg.Policy.Seed ^ uint64(cfg.Addr)*rng.Seeds[0])
	return c, nil
}

// estimatorFor returns (creating on first use) the estimator for dst.
func (c *Client) estimatorFor(dst netproto.Addr) *rtoEstimator {
	if e, ok := (*c.est.Load())[dst]; ok {
		return e
	}
	c.estMu.Lock()
	defer c.estMu.Unlock()
	old := *c.est.Load()
	if e, ok := old[dst]; ok {
		return e
	}
	m := maps.Clone(old)
	e := newEstimator(c.cfg.Timeout, c.cfg.Policy)
	m[dst] = e
	c.est.Store(&m)
	return e
}

// Estimator returns a snapshot of the RTT estimator state toward dst (the
// zero snapshot if the client has never sent there).
func (c *Client) Estimator(dst netproto.Addr) EstimatorState {
	e, ok := (*c.est.Load())[dst]
	if !ok {
		return EstimatorState{}
	}
	return e.snapshot()
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
// flag in a Gosched-yielding loop: a parked timer's wakeup latency (~1ms on
// stock kernels) would otherwise quantize every sub-millisecond RTO up to
// the millisecond scale, erasing exactly the gap the estimator exists to
// close; a poll that reaches its deadline parks for pollGrace before it
// gives up.
// Longer waits (UDP, a backed-off RTO) and retransmissions park on the
// call's one-slot wake channel, which Receive signals only once the waiter
// has set cl.parked, and on a fresh timer per attempt: reusing one
// timer across attempts with stop-drain-reset races the runtime's expiry
// send — Stop can return false while the send is still in flight, the drain
// select finds the channel empty, and the stale expiry then lands after
// Reset, firing the next wait instantly and causing a spurious early
// retransmit or timeout.
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
// timeout. A Gosched loop never lets its P steal: the yielding goroutine
// goes to the global run queue and is picked straight back up, so a
// goroutine queued on another P (the drainer holding the reply in a fabric
// queue) or a timer in another P's heap (a server's retry) waits for that
// P alone. When that P's thread is descheduled, the reply is stranded for
// as long as the host keeps it off the CPU. Parking empties this P, and the
// scheduler then steals the stranded goroutine and runs the other heap's
// expired timers; the reply, if it was only stranded, lands and wakes the
// waiter at once. A reply that was really lost costs the grace on top of
// the RTO, rounded up to the netpoller's millisecond when the process is
// otherwise idle. The grace frees the P only if no other poller is queued,
// so retransmissions do not poll at all: when a stranded reply stalls
// several queries, their pollers would keep every P busy for the whole
// stall, while parked retransmissions let a P go idle and steal.
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
	// Copy the value out of the transport buffer before handing off.
	if pkt.Value != nil {
		pkt.Value = append([]byte(nil), pkt.Value...)
	}
	// The first reply to a pending call claims it: it leaves pending, so a
	// duplicate (a retransmission answered twice, a hedge, a late reply from
	// a failed-over primary) finds nothing and counts as Unmatched. Nothing
	// here blocks — on a synchronous fabric Receive runs inside the sender's
	// own call stack — and every write to the call happens under mu, which
	// release also takes before the call is recycled.
	c.mu.Lock()
	cl, ok := c.pending[pkt.Seq]
	if ok {
		delete(c.pending, pkt.Seq)
		cl.reply = pkt
		cl.done.Store(true)
		if cl.parked.Load() {
			select {
			case cl.wake <- struct{}{}:
			default:
			}
		}
	}
	c.mu.Unlock()
	if !ok {
		c.Metrics.Unmatched.Inc()
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

// call is one in-flight query: its sequence number, destination, the
// encoded request frame (a pooled buffer, reused verbatim by every
// retransmission and hedge), and the slot its reply is handed over in.
// Calls are pooled; one is registered in pending from prepare until await
// releases it.
type call struct {
	seq   uint64
	dst   netproto.Addr
	op    netproto.Op
	key   netproto.Key
	start time.Duration // prepare's clock read, also attempt 0's start
	frame []byte

	// reply is written by Receive, under Client.mu, before it sets done;
	// the waiter reads it only after it has seen done.
	reply netproto.Packet
	done  atomic.Bool
	// parked is set by a waiter about to block on wake. Only then does
	// Receive signal wake, so a reply that beats its waiter costs no
	// channel operation. wake is made on the call's first park and kept
	// across reuse.
	parked atomic.Bool
	wake   chan struct{}
}

var calls = sync.Pool{New: func() any { return new(call) }}

// prepare assigns a sequence number, encodes the request into a pooled
// frame, and registers a pooled call — everything up to (but not including)
// the first transmission. Every successful prepare must be paired with
// exactly one await, which unregisters and releases.
func (c *Client) prepare(pkt netproto.Packet) (*call, error) {
	seq := c.seq.Add(1)
	pkt.Seq = seq
	dst := c.cfg.Partition(pkt.Key)
	frame := bufpool.Get()
	frame, err := netproto.AppendFramePacket(frame, dst, c.cfg.Addr, &pkt)
	if err != nil {
		bufpool.Put(frame)
		return nil, err
	}
	cl := calls.Get().(*call)
	cl.seq = seq
	cl.dst = dst
	cl.op = pkt.Op
	cl.key = pkt.Key
	cl.start = now()
	cl.frame = frame
	c.mu.Lock()
	c.pending[seq] = cl
	c.mu.Unlock()
	c.trace.Load().Record(qtrace.ClientSend, cl.op, seq, cl.key, false, false)
	return cl, nil
}

// release unregisters cl, returns its frame and the call itself to their
// pools. Taking mu orders it after any Receive still writing the call, and
// once cl has left pending no Receive can reach it, so the next query that
// draws cl from the pool never sees this one's reply or wake signal.
func (c *Client) release(cl *call) {
	c.mu.Lock()
	delete(c.pending, cl.seq)
	c.mu.Unlock()
	bufpool.Put(cl.frame)
	cl.frame = nil
	cl.reply = netproto.Packet{}
	cl.done.Store(false)
	if cl.parked.Load() {
		select {
		case <-cl.wake:
		default:
		}
		cl.parked.Store(false)
	}
	calls.Put(cl)
}

// complete records the end-to-end latency of a successful call, ending at
// the clock read end, into the matching per-op histogram and emits the
// ClientRecv trace record.
func (c *Client) complete(cl *call, end time.Duration) {
	d := float64(end - cl.start)
	switch cl.op {
	case netproto.OpGet:
		c.Metrics.GetLatency.Observe(d)
	case netproto.OpPut:
		c.Metrics.PutLatency.Observe(d)
	case netproto.OpDelete:
		c.Metrics.DeleteLatency.Observe(d)
	}
	c.trace.Load().Record(qtrace.ClientRecv, cl.op, cl.seq, cl.key, false, false)
}

// SetTrace installs (or, with nil, removes) the query-trace tap. Safe to
// call concurrently with traffic.
func (c *Client) SetTrace(t *qtrace.Tap) { c.trace.Store(t) }

// roundTrip sends the query and awaits the matching reply, retransmitting
// per the configured policy.
func (c *Client) roundTrip(pkt netproto.Packet) (netproto.Packet, error) {
	cl, err := c.prepare(pkt)
	if err != nil {
		return netproto.Packet{}, err
	}
	return c.await(cl, false)
}

// await drives one prepared call to completion: transmit (unless preSent
// says the first copy already left in a batch), wait, retransmit, and on
// return release the call and its request frame. The release is safe
// because no transmit path retains a sent frame: the simnet fabric and the
// switch copy what they keep before Inject returns, and the UDP endpoint
// hands the bytes to the kernel.
//
// Accounting contract (the chaos engine's conservation check and the
// benchmark's retransmit count depend on it): Sent counts every frame
// transmitted — first attempts, retransmissions and hedges — so first
// attempts == Sent - Retransmit - Hedges. Each intermediate expiry
// increments Retransmit exactly once (when the retransmission goes out),
// and a query that fails increments Timeouts exactly once, on the final
// attempt's expiry. Batched first attempts are counted by GetBatch at the
// moment the burst goes out.
func (c *Client) await(cl *call, preSent bool) (netproto.Packet, error) {
	defer c.release(cl)

	est := c.estimatorFor(cl.dst)
	hedged := false
	// finish reads the clock once for a reply that arrived: the read ends
	// both the op's latency and its RTT sample, which Karn's rule admits
	// only for an attempt that was never retransmitted or hedged.
	finish := func(attempt int, start time.Duration) (netproto.Packet, error) {
		end := now()
		if attempt > 0 || hedged {
			c.Metrics.KarnSkipped.Inc()
		} else {
			est.Observe(end - start)
			c.Metrics.RTTSamples.Inc()
		}
		c.complete(cl, end)
		return cl.reply, nil
	}

	start := cl.start
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			start = now()
		}
		if attempt > 0 || !preSent {
			c.Metrics.Sent.Inc()
			if attempt > 0 {
				c.Metrics.Retransmit.Inc()
				c.trace.Load().Record(qtrace.ClientRetransmit, cl.op, cl.seq, cl.key, true, false)
			}
			c.send(cl.frame)
		}
		// The fabric may deliver synchronously, in which case the
		// reply is already in.
		if c.waitReply(cl, 0, false) {
			return finish(attempt, start)
		}
		rto := est.RTO()
		wait := rto + c.jitter(rto)
		// Hedged read: instead of waiting out the whole RTO, a first-attempt
		// Get fires a second copy after the observed P99 reply latency. The
		// duplicate is idempotent; whichever reply lands first wins, and the
		// replica reply is absorbed as Unmatched.
		if c.cfg.Policy.Hedge && attempt == 0 && !hedged && cl.op == netproto.OpGet {
			if hd := est.HedgeDelay(); hd > 0 && hd < wait {
				if c.waitReply(cl, hd, true) {
					return finish(attempt, start)
				}
				hedged = true
				c.Metrics.Sent.Inc()
				c.Metrics.Hedges.Inc()
				c.trace.Load().Record(qtrace.ClientHedge, cl.op, cl.seq, cl.key, false, true)
				c.send(cl.frame)
				wait -= hd
			}
		}
		if c.waitReply(cl, wait, attempt == 0) {
			return finish(attempt, start)
		}
		est.TimedOut()
		if attempt >= c.cfg.Retries {
			c.Metrics.Timeouts.Inc()
			c.trace.Load().Record(qtrace.ClientTimedOut, cl.op, cl.seq, cl.key, false, false)
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
// awaited in order: pipelining without a goroutine per request.
// results[i] and errs[i] correspond to keys[i]; absent keys yield
// ErrNotFound in errs.
func (c *Client) GetBatch(keys []netproto.Key) (results [][]byte, errs []error) {
	results = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	w := c.cfg.Window
	window := make([]*call, w)
	frames := make([][]byte, 0, w)
	for base := 0; base < len(keys); base += w {
		end := min(base+w, len(keys))
		frames = frames[:0]
		for i := base; i < end; i++ {
			cl, err := c.prepare(netproto.Packet{Op: netproto.OpGet, Key: keys[i]})
			window[i-base] = cl
			if err != nil {
				errs[i] = err
				continue
			}
			frames = append(frames, cl.frame)
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
