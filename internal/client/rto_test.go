package client

import (
	"testing"
	"time"

	"netcache/internal/netproto"
)

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

// A zero or negative Timeout normalizes to the default, and the first
// attempt waits the default floor: a synchronous fabric's reply is taken
// as soon as the send returns, and a lost query with NoRetries gives up
// after one floor-length wait.
func TestNoWaitTimeout(t *testing.T) {
	cli, srv := newPair(t, -1, NoRetries)
	if cli.cfg.Timeout != 10*time.Millisecond {
		t.Fatalf("Timeout -1 normalized to %v, want the 10ms default", cli.cfg.Timeout)
	}
	key := netproto.KeyFromString("k")
	if err := cli.Put(key, []byte("v")); err != nil {
		t.Fatalf("synchronous put: %v", err)
	}
	srv.mu.Lock()
	srv.dropN = 1
	srv.mu.Unlock()
	start := time.Now()
	if _, err := cli.Get(key); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("one %v attempt took %v, want near-immediate", DefaultRTOFloor, elapsed)
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

// Timeout = RTOFloor pins the RTO: the floor is then also the cap, so
// backoff cannot move it, and every attempt waits the pinned RTO plus under
// 10% jitter. Deployments that assert wall-clock patience windows rely on
// this.
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
	for i := 0; i < 256; i++ {
		rto := cli.rto(i % (cli.cfg.Retries + 1))
		if wait := rto + cli.jitter(rto); wait < pin || wait >= pin+pin/10 {
			t.Fatalf("draw %d: wait %v outside [%v, %v)", i, wait, pin, pin+pin/10)
		}
	}
}

// The jitter-free schedule of every configuration the repository runs:
// attempt k waits min(RTOFloor << k, max(Timeout, RTOFloor)).
func TestRetransmitSchedule(t *testing.T) {
	const (
		us = time.Microsecond
		ms = time.Millisecond
	)
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		retries int
		floor   time.Duration
		want    []time.Duration
	}{
		{"defaults (rack, bench sim rows)", 0, 0, 0, []time.Duration{200 * us, 400 * us, 800 * us, 1600 * us}},
		{"chaos and balance", 2 * ms, 2, 0, []time.Duration{200 * us, 400 * us, 800 * us}},
		{"pinned", 100 * ms, 3, 100 * ms, []time.Duration{100 * ms, 100 * ms, 100 * ms, 100 * ms}},
		{"UDP client", 50 * ms, 5, 5 * ms, []time.Duration{5 * ms, 10 * ms, 20 * ms, 40 * ms, 50 * ms, 50 * ms}},
		{"timeout below floor", 200 * us, 2, time.Millisecond, []time.Duration{ms, ms, ms}},
		{"NoRetries", 0, NoRetries, 0, []time.Duration{200 * us}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := New(Config{
				Partition: func(netproto.Key) netproto.Addr { return srvAddr },
				Timeout:   tc.timeout,
				Retries:   tc.retries,
				Policy:    Policy{RTOFloor: tc.floor},
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := cli.cfg.Retries + 1; n != len(tc.want) {
				t.Fatalf("%d attempts, want %d", n, len(tc.want))
			}
			for k, want := range tc.want {
				if got := cli.rto(k); got != want {
					t.Errorf("attempt %d: RTO %v, want %v", k, got, want)
				}
			}
		})
	}
}
