package client

import (
	"testing"
	"time"

	"netcache/internal/netproto"
)

func testPolicy(floor time.Duration) Policy {
	return Policy{RTOFloor: floor}.normalize()
}

func TestEstimatorFirstSample(t *testing.T) {
	e := newEstimator(10*time.Millisecond, testPolicy(time.Millisecond))
	if got := e.RTO(); got != 10*time.Millisecond {
		t.Fatalf("pre-sample RTO = %v, want initial 10ms", got)
	}
	e.Observe(8 * time.Millisecond)
	s := e.snapshot()
	if s.SRTT != 8*time.Millisecond || s.RTTVar != 4*time.Millisecond {
		t.Errorf("first sample: srtt=%v rttvar=%v, want 8ms/4ms", s.SRTT, s.RTTVar)
	}
	// RFC 6298: RTO = SRTT + 4*RTTVAR = 8 + 16 = 24ms.
	if s.RTO != 24*time.Millisecond {
		t.Errorf("RTO after first sample = %v, want 24ms", s.RTO)
	}
}

func TestEstimatorConvergesOnStableRTT(t *testing.T) {
	e := newEstimator(50*time.Millisecond, testPolicy(time.Millisecond))
	const rtt = 10 * time.Millisecond
	for i := 0; i < 200; i++ {
		e.Observe(rtt)
	}
	s := e.snapshot()
	if s.SRTT < 9900*time.Microsecond || s.SRTT > 10100*time.Microsecond {
		t.Errorf("SRTT = %v, want ~10ms", s.SRTT)
	}
	// RTTVAR decays geometrically toward 0 on a constant path, so the RTO
	// converges down to SRTT (the floor doesn't bind at 10ms).
	if s.RTO < rtt || s.RTO > rtt+time.Millisecond {
		t.Errorf("RTO = %v, want within 1ms above the stable 10ms RTT", s.RTO)
	}
}

func TestEstimatorClampFloorAndCeil(t *testing.T) {
	floor, ceil := 2*time.Millisecond, DefaultRTOCeil
	e := newEstimator(10*time.Millisecond, testPolicy(floor))
	for i := 0; i < 50; i++ {
		e.Observe(10 * time.Microsecond) // far below the floor
	}
	if got := e.RTO(); got != floor {
		t.Errorf("tiny-RTT RTO = %v, want floor %v", got, floor)
	}
	for i := 0; i < 50; i++ {
		e.Observe(time.Second) // far above the ceiling
	}
	if got := e.RTO(); got != ceil {
		t.Errorf("huge-RTT RTO = %v, want ceil %v", got, ceil)
	}
}

func TestEstimatorBackoffDoublesAndResets(t *testing.T) {
	// A 1ms path: 2^DefaultBackoffMax doublings stay below the ceiling.
	e := newEstimator(10*time.Millisecond, testPolicy(DefaultRTOFloor))
	for i := 0; i < 200; i++ {
		e.Observe(time.Millisecond)
	}
	base := e.RTO()
	e.TimedOut()
	if got := e.RTO(); got != 2*base {
		t.Errorf("after 1 timeout RTO = %v, want %v", got, 2*base)
	}
	e.TimedOut()
	if got := e.RTO(); got != 4*base {
		t.Errorf("after 2 timeouts RTO = %v, want %v", got, 4*base)
	}
	// After DefaultBackoffMax doublings further timeouts stop doubling.
	for i := 2; i < DefaultBackoffMax+3; i++ {
		e.TimedOut()
	}
	if want := base << DefaultBackoffMax; e.RTO() != want {
		t.Errorf("backoff should cap at 2^%d: RTO = %v, want %v", DefaultBackoffMax, e.RTO(), want)
	}
	// A fresh unambiguous sample resets the backoff entirely.
	e.Observe(time.Millisecond)
	if got := e.RTO(); got != base {
		t.Errorf("after fresh sample RTO = %v, want %v", got, base)
	}
}

func TestEstimatorBackoffClampsAtCeil(t *testing.T) {
	e := newEstimator(10*time.Millisecond, testPolicy(time.Millisecond))
	for i := 0; i < 10; i++ {
		e.TimedOut()
	}
	if got := e.RTO(); got != DefaultRTOCeil {
		t.Errorf("backed-off RTO = %v, want ceiling %v", got, DefaultRTOCeil)
	}
}

// Karn's rule, end to end: a reply that arrives after a retransmission is
// ambiguous and must not feed the estimator.
func TestKarnExcludesRetransmittedSamples(t *testing.T) {
	cli, srv := newPair(t, 2*time.Millisecond, 5)
	key := netproto.KeyFromString("k")
	if err := cli.Put(key, []byte("v")); err != nil { // clean sample
		t.Fatal(err)
	}
	cleanSamples := cli.Metrics.RTTSamples.Value()
	if cleanSamples == 0 {
		t.Fatal("clean Put should have produced an RTT sample")
	}
	srv.mu.Lock()
	srv.dropN = 2
	srv.mu.Unlock()
	if _, err := cli.Get(key); err != nil {
		t.Fatal(err)
	}
	if got := cli.Metrics.RTTSamples.Value(); got != cleanSamples {
		t.Errorf("retransmitted query fed %d new samples, want 0 (Karn)", got-cleanSamples)
	}
	if cli.Metrics.KarnSkipped.Value() == 0 {
		t.Error("ambiguous reply should be counted in KarnSkipped")
	}
}

// Jitter is a pure function of (seed, addr, draw index): same seed, same
// stream; different seed, different stream.
func TestJitterDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) *Client {
		c, err := New(Config{
			Addr:      cliAddr,
			Partition: func(netproto.Key) netproto.Addr { return srvAddr },
			Policy:    Policy{Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, c := mk(7), mk(7), mk(8)
	var diff bool
	for i := 0; i < 64; i++ {
		ja, jb, jc := a.jitter(time.Millisecond), b.jitter(time.Millisecond), c.jitter(time.Millisecond)
		if ja != jb {
			t.Fatalf("draw %d: same seed diverged (%v vs %v)", i, ja, jb)
		}
		if ja != jc {
			diff = true
		}
		if ja < 0 || ja >= time.Duration(float64(time.Millisecond)*DefaultJitterFrac)+1 {
			t.Fatalf("draw %d: jitter %v outside [0, frac*base)", i, ja)
		}
	}
	if !diff {
		t.Error("seeds 7 and 8 produced identical 64-draw jitter streams")
	}
}

// Regression for the Config zero-value footgun: NoRetries means exactly
// zero retransmissions, while a zero value still means the default 3.
func TestNoRetriesMeansZero(t *testing.T) {
	cli, srv := newPair(t, time.Millisecond, NoRetries)
	srv.mu.Lock()
	srv.dropN = 100
	srv.mu.Unlock()
	if _, err := cli.Get(netproto.KeyFromString("k")); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if sent := cli.Metrics.Sent.Value(); sent != 1 {
		t.Errorf("Sent = %d, want exactly 1 (no retransmissions)", sent)
	}
	if retx := cli.Metrics.Retransmit.Value(); retx != 0 {
		t.Errorf("Retransmit = %d, want 0", retx)
	}
	if cli.Metrics.Timeouts.Value() != 1 {
		t.Errorf("Timeouts = %d, want 1", cli.Metrics.Timeouts.Value())
	}
}

func TestZeroValueConfigKeepsDefaults(t *testing.T) {
	cli, err := New(Config{Partition: func(netproto.Key) netproto.Addr { return srvAddr }})
	if err != nil {
		t.Fatal(err)
	}
	if cli.cfg.Retries != 3 || cli.cfg.Timeout != 10*time.Millisecond {
		t.Errorf("zero-value config normalized to retries=%d timeout=%v, want 3/10ms",
			cli.cfg.Retries, cli.cfg.Timeout)
	}
}

// NoWait: a zero per-attempt timeout still succeeds on a synchronous fabric
// (the reply is buffered before send returns) and fails without blocking
// when the reply never comes.
func TestNoWaitTimeout(t *testing.T) {
	cli, srv := newPair(t, NoWait, NoRetries)
	key := netproto.KeyFromString("k")
	if err := cli.Put(key, []byte("v")); err != nil {
		t.Fatalf("synchronous put with NoWait: %v", err)
	}
	srv.mu.Lock()
	srv.dropN = 1
	srv.mu.Unlock()
	start := time.Now()
	if _, err := cli.Get(key); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("NoWait timeout took %v, want near-immediate", elapsed)
	}
}

// The accounting contract: intermediate expiries count exactly once as
// retransmits, a failed query exactly once as a timeout.
func TestRetransmitTimeoutAccounting(t *testing.T) {
	cli, srv := newPair(t, time.Millisecond, 5)
	key := netproto.KeyFromString("k")
	if err := cli.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	base := cli.Metrics.Sent.Value()
	srv.mu.Lock()
	srv.dropN = 2
	srv.mu.Unlock()
	if _, err := cli.Get(key); err != nil {
		t.Fatal(err)
	}
	if sent := cli.Metrics.Sent.Value() - base; sent != 3 {
		t.Errorf("recovered query Sent = %d, want 3", sent)
	}
	if retx := cli.Metrics.Retransmit.Value(); retx != 2 {
		t.Errorf("recovered query Retransmit = %d, want 2", retx)
	}
	if to := cli.Metrics.Timeouts.Value(); to != 0 {
		t.Errorf("recovered query Timeouts = %d, want 0", to)
	}

	cli2, srv2 := newPair(t, time.Millisecond, 2)
	srv2.mu.Lock()
	srv2.dropN = 1 << 30
	srv2.mu.Unlock()
	if _, err := cli2.Get(key); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if sent := cli2.Metrics.Sent.Value(); sent != 3 {
		t.Errorf("failed query Sent = %d, want 3 (1 attempt + 2 retransmits)", sent)
	}
	if retx := cli2.Metrics.Retransmit.Value(); retx != 2 {
		t.Errorf("failed query Retransmit = %d, want 2", retx)
	}
	if to := cli2.Metrics.Timeouts.Value(); to != 1 {
		t.Errorf("failed query Timeouts = %d, want exactly 1", to)
	}
}

// Receive must not discard anything silently: corrupt frames and non-reply
// packets bump DroppedFrames, late/duplicate replies bump Unmatched.
func TestReceiveCountsDropsAndUnmatched(t *testing.T) {
	cli, _ := newPair(t, time.Millisecond, 1)
	cli.Receive([]byte{1, 2, 3}) // undecodable frame
	cli.Receive(netproto.MarshalFrame(cliAddr, srvAddr, []byte("junk")))
	pkt := netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: netproto.KeyFromString("k")}
	payload, _ := pkt.Marshal()
	cli.Receive(netproto.MarshalFrame(cliAddr, srvAddr, payload)) // non-reply op
	if got := cli.Metrics.DroppedFrames.Value(); got != 3 {
		t.Errorf("DroppedFrames = %d, want 3", got)
	}
	// A well-formed reply nobody is waiting for: a late duplicate.
	late := netproto.Packet{Op: netproto.OpGetReply, Seq: 999, Key: netproto.KeyFromString("k"), Value: []byte("v")}
	payload, _ = late.Marshal()
	cli.Receive(netproto.MarshalFrame(cliAddr, srvAddr, payload))
	if got := cli.Metrics.Unmatched.Value(); got != 1 {
		t.Errorf("Unmatched = %d, want 1", got)
	}
	if got := cli.Metrics.DroppedFrames.Value(); got != 3 {
		t.Errorf("unmatched reply must not count as dropped; DroppedFrames = %d", got)
	}
}

// A duplicated reply (the server answering both the original and a
// retransmission) is absorbed and counted, never fatal.
func TestDuplicateReplyCountsUnmatched(t *testing.T) {
	cli, srv := newPair(t, 5*time.Millisecond, 2)
	key := netproto.KeyFromString("k")
	if err := cli.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.dupNext = true // answer the next request twice
	srv.mu.Unlock()
	if _, err := cli.Get(key); err != nil {
		t.Fatal(err)
	}
	if got := cli.Metrics.Unmatched.Value(); got != 1 {
		t.Errorf("duplicate reply: Unmatched = %d, want 1", got)
	}
}

// The adaptive RTO actually adapts: after clean traffic on a microsecond
// fabric the estimator sits at the floor, orders of magnitude below the
// 10ms initial timeout a fixed client would burn per loss.
func TestAdaptiveRTOTracksFastPath(t *testing.T) {
	cli, srv := newPair(t, 10*time.Millisecond, 3)
	key := netproto.KeyFromString("k")
	if err := cli.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := cli.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	s := cli.Estimator(srvAddr)
	if s.Samples < 50 {
		t.Fatalf("samples = %d, want >= 50", s.Samples)
	}
	if s.RTO != DefaultRTOFloor {
		t.Errorf("clean in-process RTO = %v, want clamped to floor %v", s.RTO, DefaultRTOFloor)
	}
	srv.mu.Lock()
	srv.dropN = 1
	srv.mu.Unlock()
	start := time.Now()
	if _, err := cli.Get(key); err != nil {
		t.Fatal(err)
	}
	// One loss costs about one floor-clamped RTO, not the 10ms fixed timeout.
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Errorf("loss recovery took %v, want ~%v (adaptive RTO)", elapsed, DefaultRTOFloor)
	}
}

// Timeout = RTOFloor pins the RTO: the ceiling is max(DefaultRTOCeil,
// Timeout, floor), so at 100ms floor and ceiling coincide, a fast sample
// cannot pull the RTO down, backoff cannot push it up, and every attempt
// waits the pinned RTO plus under 10% jitter. Deployments that assert
// wall-clock patience windows rely on this.
func TestPinnedRTOIgnoresEstimator(t *testing.T) {
	const pin = 100 * time.Millisecond
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   pin,
		Policy:    Policy{RTOFloor: pin},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := cli.estimatorFor(srvAddr)
	if got := e.RTO(); got != pin {
		t.Fatalf("pre-sample RTO = %v, want %v", got, pin)
	}
	e.Observe(10 * time.Microsecond)
	if got := e.RTO(); got != pin {
		t.Errorf("RTO after a 10µs sample = %v, want %v", got, pin)
	}
	for i := 0; i < DefaultBackoffMax; i++ {
		e.TimedOut()
	}
	if got := e.RTO(); got != pin {
		t.Errorf("RTO after %d timeouts = %v, want %v", DefaultBackoffMax, got, pin)
	}
	for i := 0; i < 256; i++ {
		rto := e.RTO()
		if wait := rto + cli.jitter(rto); wait < pin || wait >= pin+pin/10 {
			t.Fatalf("draw %d: wait %v outside [%v, %v)", i, wait, pin, pin+pin/10)
		}
	}
}
