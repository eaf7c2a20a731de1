package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache/internal/netproto"
)

const (
	cliAddr = netproto.Addr(0x8001)
	srvAddr = netproto.Addr(1)
)

// echoServer is a minimal in-memory responder standing in for the rack.
type echoServer struct {
	t       *testing.T
	cli     *Client
	mu      sync.Mutex
	store   map[netproto.Key][]byte
	dropN   int  // drop the next N requests (loss injection)
	dupNext bool // answer the next request twice (duplication injection)
	lastDst netproto.Addr
}

func newPair(t *testing.T, timeout time.Duration, retries int) (*Client, *echoServer) {
	t.Helper()
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   timeout,
		Retries:   retries,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := &echoServer{t: t, cli: cli, store: make(map[netproto.Key][]byte)}
	cli.SetSend(srv.handle)
	return cli, srv
}

func (s *echoServer) handle(frame []byte) {
	fr, err := netproto.DecodeFrame(frame)
	if err != nil {
		s.t.Errorf("bad frame: %v", err)
		return
	}
	var pkt netproto.Packet
	if err := netproto.Decode(fr.Payload, &pkt); err != nil {
		s.t.Errorf("bad packet: %v", err)
		return
	}
	s.mu.Lock()
	s.lastDst = fr.Dst
	if s.dropN > 0 {
		s.dropN--
		s.mu.Unlock()
		return
	}
	var value []byte
	var found bool
	switch pkt.Op {
	case netproto.OpGet:
		value, found = s.store[pkt.Key]
	case netproto.OpPut:
		s.store[pkt.Key] = append([]byte(nil), pkt.Value...)
		found = true
	case netproto.OpDelete:
		delete(s.store, pkt.Key)
		found = true
	}
	dup := s.dupNext
	s.dupNext = false
	s.mu.Unlock()
	reply := netproto.Reply(&pkt, value, found)
	payload, _ := reply.Marshal()
	s.cli.Receive(netproto.MarshalFrame(fr.Src, fr.Dst, payload))
	if dup {
		s.cli.Receive(netproto.MarshalFrame(fr.Src, fr.Dst, payload))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing partitioner should fail")
	}
}

func TestGetPutDelete(t *testing.T) {
	cli, _ := newPair(t, 10*time.Millisecond, 2)
	key := netproto.KeyFromString("k")

	if _, err := cli.Get(key); err != ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
	if err := cli.Put(key, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Get(key)
	if err != nil || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := cli.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get(key); err != ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	cli, _ := newPair(t, time.Millisecond, 1)
	key := netproto.KeyFromString("k")
	if err := cli.Put(key, nil); err == nil {
		t.Error("empty value should fail")
	}
	if err := cli.Put(key, make([]byte, 129)); err == nil {
		t.Error("oversize value should fail")
	}
}

func TestRetransmitRecoversLoss(t *testing.T) {
	cli, srv := newPair(t, 2*time.Millisecond, 5)
	key := netproto.KeyFromString("k")
	cli.Put(key, []byte("v"))

	srv.mu.Lock()
	srv.dropN = 2
	srv.mu.Unlock()
	v, err := cli.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after loss = %q, %v", v, err)
	}
	if cli.Metrics.Retransmit.Value() < 2 {
		t.Errorf("retransmits = %d, want >= 2", cli.Metrics.Retransmit.Value())
	}
}

func TestTimeoutAfterRetriesExhausted(t *testing.T) {
	cli, srv := newPair(t, time.Millisecond, 2)
	srv.mu.Lock()
	srv.dropN = 100
	srv.mu.Unlock()
	_, err := cli.Get(netproto.KeyFromString("k"))
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if cli.Metrics.Timeouts.Value() != 1 {
		t.Errorf("timeouts = %d", cli.Metrics.Timeouts.Value())
	}
}

func TestQueriesRoutedToOwner(t *testing.T) {
	cli, srv := newPair(t, 10*time.Millisecond, 1)
	cli.Put(netproto.KeyFromString("x"), []byte("v"))
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.lastDst != srvAddr {
		t.Errorf("query sent to %d, want %d", srv.lastDst, srvAddr)
	}
}

func TestConcurrentClients(t *testing.T) {
	cli, _ := newPair(t, 50*time.Millisecond, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := netproto.KeyFromString(string(rune('a' + g)))
			for i := 0; i < 200; i++ {
				if err := cli.Put(key, []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				v, err := cli.Get(key)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if v[0] != byte(g) {
					t.Errorf("cross-talk: got %v for goroutine %d", v, g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestReceiveIgnoresGarbage(t *testing.T) {
	cli, _ := newPair(t, time.Millisecond, 1)
	cli.Receive([]byte{1})
	cli.Receive(netproto.MarshalFrame(cliAddr, srvAddr, []byte("junk")))
	// A non-reply op is ignored even if well-formed.
	pkt := netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: netproto.KeyFromString("k")}
	payload, _ := pkt.Marshal()
	cli.Receive(netproto.MarshalFrame(cliAddr, srvAddr, payload))
}

func TestUnsolicitedReplyIgnored(t *testing.T) {
	cli, _ := newPair(t, time.Millisecond, 1)
	pkt := netproto.Packet{Op: netproto.OpGetReply, Seq: 999, Key: netproto.KeyFromString("k"), Value: []byte("v")}
	payload, _ := pkt.Marshal()
	cli.Receive(netproto.MarshalFrame(cliAddr, srvAddr, payload)) // must not panic or block
}

func TestHashPartitioner(t *testing.T) {
	servers := []netproto.Addr{1, 2, 3, 4}
	part := HashPartitioner(servers)
	counts := make(map[netproto.Addr]int)
	for i := 0; i < 10000; i++ {
		k := netproto.HashKey([]byte{byte(i), byte(i >> 8)})
		addr := part(k)
		counts[addr]++
		if part(k) != addr {
			t.Fatal("partitioner not deterministic")
		}
	}
	for _, a := range servers {
		if counts[a] < 1500 {
			t.Errorf("server %d got %d/10000 keys; want roughly balanced", a, counts[a])
		}
	}
}

func TestHashPartitionerEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty server list should panic")
		}
	}()
	HashPartitioner(nil)
}

func TestPartitionOfAgreesWithPartitioner(t *testing.T) {
	servers := []netproto.Addr{10, 20, 30}
	part := HashPartitioner(servers)
	for i := 0; i < 100; i++ {
		k := netproto.HashKey([]byte{byte(i)})
		if part(k) != servers[PartitionOf(k, 3)] {
			t.Fatal("PartitionOf disagrees with HashPartitioner")
		}
	}
}

// With no batch sender installed, GetBatch sends each window frame by frame.
func TestGetBatch(t *testing.T) {
	cli, _ := newPair(t, 50*time.Millisecond, 3)
	var keys []netproto.Key
	for i := 0; i < 50; i++ {
		k := netproto.KeyFromString(fmt.Sprintf("mk-%d", i))
		keys = append(keys, k)
		if i%2 == 0 {
			if err := cli.Put(k, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	results, errs := cli.GetBatch(keys)
	if len(results) != 50 || len(errs) != 50 {
		t.Fatalf("arity: %d/%d", len(results), len(errs))
	}
	for i := range keys {
		if i%2 == 0 {
			if errs[i] != nil || len(results[i]) != 1 || results[i][0] != byte(i) {
				t.Errorf("key %d: %v %v", i, results[i], errs[i])
			}
		} else if errs[i] != ErrNotFound {
			t.Errorf("key %d: err = %v, want ErrNotFound", i, errs[i])
		}
	}
}

func TestGetBatchEmpty(t *testing.T) {
	cli, _ := newPair(t, time.Millisecond, 1)
	results, errs := cli.GetBatch(nil)
	if len(results) != 0 || len(errs) != 0 {
		t.Error("empty batch should return empty slices")
	}
}

// Regression for the retransmission timer: every attempt must wait its full
// RTO. The old implementation reused one timer with stop-drain-reset; a
// stale expiry surviving the drain would fire the next attempt's wait
// instantly, so an unanswered query could exhaust all retries in far less
// than (Retries+1) x Timeout. A fresh timer per attempt makes the floor hold.
// The RTO floor is pinned to the timeout so that every attempt waits it.
func TestEachAttemptWaitsFullTimeout(t *testing.T) {
	const (
		timeout = 20 * time.Millisecond
		retries = 3
	)
	cli, srv := newPair(t, timeout, retries)
	cli.cfg.Policy.RTOFloor = timeout
	srv.mu.Lock()
	srv.dropN = 1 << 30 // never answer
	srv.mu.Unlock()

	start := time.Now()
	if _, err := cli.Get(netproto.KeyFromString("k")); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	elapsed := time.Since(start)
	// Allow generous slack below the exact floor for coarse timers, but a
	// stale expiry collapses at least one full attempt, so anything under
	// retries x timeout means an attempt returned early.
	if floor := time.Duration(retries) * timeout; elapsed < floor {
		t.Errorf("query with %d retries finished in %v, want >= %v (an attempt timed out early)",
			retries, elapsed, floor)
	}
}

// Regression companion: hammer the exact race window. Replies land right at
// the timeout boundary, so attempts constantly alternate between "reply just
// beat the timer" and "timer just beat the reply" — the interleaving where a
// reused timer's in-flight expiry could leak into the next attempt. Every
// query must still succeed within the retry budget.
func TestTimerReplyRaceWindow(t *testing.T) {
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   200 * time.Microsecond,
		Retries:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	cli.SetSend(func(frame []byte) {
		fr, _ := netproto.DecodeFrame(frame)
		var pkt netproto.Packet
		if netproto.Decode(fr.Payload, &pkt) != nil {
			return
		}
		reply := netproto.Reply(&pkt, []byte("v"), true)
		payload, _ := reply.Marshal()
		out := netproto.MarshalFrame(fr.Src, fr.Dst, payload)
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(200 * time.Microsecond) // straddle the expiry instant
			cli.Receive(out)
		}()
	})
	for i := 0; i < 300; i++ {
		if _, err := cli.Get(netproto.KeyFromString("k")); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	wg.Wait()
}

// Regression: duplicate replies racing timer-driven re-registration must
// never block the delivery goroutine (fatal on a synchronous fabric). The
// delayed double-replying server makes the race likely across iterations.
func TestDuplicateDelayedRepliesDoNotDeadlock(t *testing.T) {
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   300 * time.Microsecond,
		Retries:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	cli.SetSend(func(frame []byte) {
		fr, _ := netproto.DecodeFrame(frame)
		var pkt netproto.Packet
		if netproto.Decode(fr.Payload, &pkt) != nil {
			return
		}
		reply := netproto.Reply(&pkt, []byte("v"), true)
		payload, _ := reply.Marshal()
		out := netproto.MarshalFrame(fr.Src, fr.Dst, payload)
		// Two delayed replies per request, straddling the timeout.
		for _, d := range []time.Duration{250 * time.Microsecond, 400 * time.Microsecond} {
			wg.Add(1)
			go func(d time.Duration) {
				defer wg.Done()
				time.Sleep(d)
				cli.Receive(out)
			}(d)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := cli.Get(netproto.KeyFromString("k")); err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client deadlocked on duplicate replies")
	}
	wg.Wait()
}

// Regression: a failover can answer one request twice — the dying primary's
// reply crawls out late after the client already accepted the promoted
// backup's answer to a retransmission. The late duplicate must be absorbed
// as Unmatched: it never completes a second operation for an already-matched
// seq, and it cannot leak into a later operation (seqs are never reused).
func TestLateDuplicateAfterFailoverCountsUnmatched(t *testing.T) {
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   500 * time.Microsecond,
		Retries:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		attempts int
		late     []byte // the old primary's reply, held back until after completion
	)
	cli.SetSend(func(frame []byte) {
		fr, _ := netproto.DecodeFrame(frame)
		var pkt netproto.Packet
		if netproto.Decode(fr.Payload, &pkt) != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts == 1 {
			// The doomed primary answers with the pre-failover value, but the
			// frame is delayed past the client's timeout: hold it.
			reply := netproto.Reply(&pkt, []byte("stale"), true)
			payload, _ := reply.Marshal()
			late = netproto.MarshalFrame(fr.Src, fr.Dst, payload)
			return
		}
		// The retransmission reaches the promoted backup, which answers
		// promptly with the post-failover value.
		reply := netproto.Reply(&pkt, []byte("fresh"), true)
		payload, _ := reply.Marshal()
		out := netproto.MarshalFrame(fr.Src, fr.Dst, payload)
		mu.Unlock()
		cli.Receive(out)
		mu.Lock()
	})
	v, err := cli.Get(netproto.KeyFromString("k"))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(v) != "fresh" {
		t.Fatalf("get returned %q, want the promoted backup's %q", v, "fresh")
	}
	if got := cli.Metrics.Unmatched.Value(); got != 0 {
		t.Fatalf("Unmatched = %d before the late duplicate arrived", got)
	}

	// Now the old primary's reply finally drains out of the fabric.
	mu.Lock()
	dup := late
	mu.Unlock()
	if dup == nil {
		t.Fatal("first attempt's reply was never captured")
	}
	cli.Receive(dup)
	if got := cli.Metrics.Unmatched.Value(); got != 1 {
		t.Fatalf("late duplicate: Unmatched = %d, want 1", got)
	}

	// A later operation with a fresh seq is untouched by the duplicate: it
	// completes against the live server and absorbs nothing stale.
	mu.Lock()
	attempts = 1 // answer immediately from now on
	mu.Unlock()
	v, err = cli.Get(netproto.KeyFromString("k"))
	if err != nil {
		t.Fatalf("get after duplicate: %v", err)
	}
	if string(v) != "fresh" {
		t.Fatalf("get after duplicate returned %q, want %q", v, "fresh")
	}
	if got := cli.Metrics.Unmatched.Value(); got != 1 {
		t.Fatalf("Unmatched = %d after clean op, want still 1", got)
	}
	// Replaying the duplicate yet again still cannot complete anything.
	cli.Receive(dup)
	if got := cli.Metrics.Unmatched.Value(); got != 2 {
		t.Fatalf("replayed duplicate: Unmatched = %d, want 2", got)
	}
}

// echoSeq answers a request frame with a found reply whose value is the
// request's key, a colon and its sequence number, so a reply names the query
// it belongs to.
func echoSeq(frame []byte) (uint64, []byte) {
	fr, _ := netproto.DecodeFrame(frame)
	var pkt netproto.Packet
	_ = netproto.Decode(fr.Payload, &pkt)
	value := fmt.Sprintf("%s:%d", pkt.Key, pkt.Seq)
	reply := netproto.Reply(&pkt, []byte(value), true)
	payload, _ := reply.Marshal()
	return pkt.Seq, netproto.MarshalFrame(fr.Src, fr.Dst, payload)
}

// A reply to query s that arrives once query s+N holds s's slot, N being
// the table size, counts Unmatched and neither completes nor corrupts the
// new query.
func TestDuplicateAfterCallRecycledCountsUnmatched(t *testing.T) {
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   50 * time.Millisecond,
		Retries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(cli.calls))
	var (
		first   []byte // the reply to the first query
		s0      uint64 // its sequence number
		lastSeq uint64
		reused  bool
	)
	cli.SetSend(func(frame []byte) {
		seq, reply := echoSeq(frame)
		lastSeq = seq
		switch {
		case first == nil:
			first, s0 = reply, seq
		case seq == s0+n:
			reused = true
			unmatched := cli.Metrics.Unmatched.Value()
			cli.Receive(first)
			if got := cli.Metrics.Unmatched.Value(); got != unmatched+1 {
				t.Errorf("reply to seq %d into the slot of seq %d: Unmatched %d -> %d, want +1", s0, seq, unmatched, got)
			}
			if cl := &cli.calls[seq&cli.mask]; cl.done.Load() || cl.state.Load() != seq<<1 {
				t.Errorf("the stale reply claimed seq %d's slot: state %#x, done %v", seq, cl.state.Load(), cl.done.Load())
			}
		}
		cli.Receive(reply)
	})
	for i := uint64(0); i <= n; i++ {
		v, err := cli.Get(netproto.KeyFromString("k"))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("k:%d", lastSeq); string(v) != want {
			t.Fatalf("get %d = %q, want its own reply %q", i, v, want)
		}
	}
	if !reused {
		t.Fatalf("seq %d never came round to seq %d's slot", s0+n, s0)
	}
	if got := cli.Metrics.Unmatched.Value(); got != 1 {
		t.Errorf("Unmatched = %d, want 1", got)
	}
	if held := heldSlots(cli); held != 0 {
		t.Errorf("%d slots still claimed", held)
	}
}

// A query that gives up while a Receive has claimed its reply but not yet
// handed it over keeps its slot until the handover, so the reply cannot
// land in the next query to take the slot.
func TestReleaseWaitsForClaimedReply(t *testing.T) {
	cli, _ := newPair(t, time.Millisecond, NoRetries)
	cl := cli.claim(true)
	if !cl.state.CompareAndSwap(cl.seq<<1, cl.seq<<1|1) { // Receive's claim
		t.Fatal("a fresh slot is not pending")
	}
	released := make(chan struct{})
	go func() {
		cli.release(cl)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("release freed the slot before the claimed reply was handed over")
	case <-time.After(5 * time.Millisecond):
	}
	cl.done.Store(true) // the handover
	<-released
	if cl.state.Load() != 0 || cl.done.Load() {
		t.Errorf("after release: state %#x, done %v; want a free, cleared slot", cl.state.Load(), cl.done.Load())
	}
}

// heldSlots counts the slots of cli's pending-call table that are not free.
func heldSlots(cli *Client) int {
	held := 0
	for i := range cli.calls {
		if cli.calls[i].state.Load() != 0 {
			held++
		}
	}
	return held
}

// Run under -race: four times as many callers as slots share one client
// whose responder answers out of order, answers one request in four twice
// and drops one in five. Every Get ends once, with its own reply or
// ErrTimeout; GetBatch callers, whose windows hold several slots at once,
// share the table with them; and once the replies have drained no slot is
// left claimed.
func TestCallersOutnumberSlots(t *testing.T) {
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   2 * time.Millisecond,
		Retries:   1,
		Window:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := len(cli.calls)
	requests := make(chan []byte, 4*slots) // a request per caller, so sends seldom wait on the responder
	var sent atomic.Uint64
	cli.SetSend(func(frame []byte) {
		// The frame is the slot's buffer, reused once the call is released.
		requests <- append([]byte(nil), frame...)
	})
	responded := make(chan struct{})
	go func() {
		defer close(responded)
		var batch [][]byte
		for frame := range requests {
			batch = append(batch[:0], frame)
			for more := true; more && len(batch) < 32; {
				select {
				case f, ok := <-requests:
					if ok {
						batch = append(batch, f)
					} else {
						more = false
					}
				default:
					more = false
				}
			}
			// Answer the batch backwards, duplicating and dropping by a
			// running count.
			for i := len(batch) - 1; i >= 0; i-- {
				n := sent.Add(1)
				if n%5 == 0 {
					continue
				}
				_, reply := echoSeq(batch[i])
				cli.Receive(reply)
				if n%4 == 0 {
					cli.Receive(reply)
				}
			}
		}
	}()

	callers, per := 4*slots, 8
	var wg sync.WaitGroup
	var answered, timedOut atomic.Uint64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("g%d", g)
			check := func(v []byte, err error) {
				if err == ErrTimeout {
					timedOut.Add(1)
					return
				}
				if err != nil || !bytes.HasPrefix(v, []byte(key+":")) {
					t.Errorf("%s: got %q, %v", key, v, err)
					return
				}
				answered.Add(1)
			}
			if g%16 == 0 {
				keys := make([]netproto.Key, per)
				for i := range keys {
					keys[i] = netproto.KeyFromString(key)
				}
				vs, errs := cli.GetBatch(keys)
				for i := range keys {
					check(vs[i], errs[i])
				}
				return
			}
			for i := 0; i < per; i++ {
				check(cli.Get(netproto.KeyFromString(key)))
			}
		}(g)
	}
	wg.Wait()
	close(requests)
	<-responded
	if got, want := answered.Load()+timedOut.Load(), uint64(callers*per); got != want {
		t.Errorf("answered %d + timed out %d = %d Gets, want %d", answered.Load(), timedOut.Load(), got, want)
	}
	if got := cli.Metrics.Timeouts.Value(); got != timedOut.Load() {
		t.Errorf("Timeouts = %d, callers saw %d", got, timedOut.Load())
	}
	if answered.Load() == 0 || timedOut.Load() == 0 {
		t.Errorf("answered %d, timed out %d: both outcomes should occur", answered.Load(), timedOut.Load())
	}
	t.Logf("%d Gets: %d answered, %d timed out, %d unmatched replies", callers*per, answered.Load(), timedOut.Load(), cli.Metrics.Unmatched.Value())
	if held := heldSlots(cli); held != 0 {
		t.Errorf("%d of %d slots still claimed", held, slots)
	}
}

// Run under -race: replies race their calls' completion, timeout and
// recycling. Two in three queries are answered twice, once inside the send
// and once from another goroutine that may land before, during or after the
// call completes; the third is answered only from another goroutine, late
// enough that the query may have timed out and released its call. One
// reply per answered query claims it and every other reply counts
// Unmatched, bar those claiming a query just after its final expiry; each
// Get returns its own reply, so a goroutine's values carry its key and
// strictly rising sequence numbers. The poll case waits in the spinUnder
// loop, the park case on the call's wake channel.
func TestDuplicateRepliesRaceCompletion(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spinUnder time.Duration
	}{{"poll", 0}, {"park", -1}} {
		t.Run(tc.name, func(t *testing.T) { duplicateRepliesRace(t, tc.spinUnder) })
	}
}

func duplicateRepliesRace(t *testing.T, spinUnder time.Duration) {
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
		Timeout:   200 * time.Microsecond,
		Retries:   NoRetries,
		Policy:    Policy{spinUnder: spinUnder},
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		dups              sync.WaitGroup
		replies, onlyLate atomic.Uint64
	)
	cli.SetSend(func(frame []byte) {
		seq, reply := echoSeq(frame)
		inline := seq%3 != 0
		if inline {
			replies.Add(2)
		} else {
			replies.Add(1)
			onlyLate.Add(1)
		}
		dups.Add(1)
		go func() {
			defer dups.Done()
			switch {
			case !inline:
				time.Sleep(200 * time.Microsecond) // lands around the RTO
			case seq%2 == 0:
				runtime.Gosched() // let the original win and the call recycle
			}
			cli.Receive(reply)
		}()
		if inline {
			cli.Receive(reply)
		}
	})
	const goroutines, per = 4, 300
	var wg sync.WaitGroup
	var answered atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			var last uint64
			for i := 0; i < per; i++ {
				v, err := cli.Get(netproto.KeyFromString(key))
				if err == ErrTimeout {
					continue
				}
				var seq uint64
				if _, serr := fmt.Sscanf(string(v), key+":%d", &seq); err != nil || serr != nil || seq <= last {
					t.Errorf("%s's get %d = %q, %v after seq %d", key, i, v, err, last)
					return
				}
				last = seq
				answered.Add(1)
			}
		}(fmt.Sprintf("g%d", g))
	}
	wg.Wait()
	dups.Wait()
	timeouts := cli.Metrics.Timeouts.Value()
	if got := answered.Load() + timeouts; got != goroutines*per {
		t.Fatalf("answered %d + timeouts %d != %d queries", answered.Load(), timeouts, goroutines*per)
	}
	if timeouts > onlyLate.Load() {
		t.Errorf("%d timeouts, but only %d queries went without an inline reply", timeouts, onlyLate.Load())
	}
	// A reply that lands between its query's final expiry and the release
	// still claims the call, so it is neither Unmatched nor an answer.
	unclaimed := replies.Load() - answered.Load()
	if got := cli.Metrics.Unmatched.Value(); got > unclaimed || got < unclaimed-timeouts {
		t.Errorf("Unmatched = %d, want %d less at most %d claimed after a timeout", got, unclaimed, timeouts)
	}
	if r := cli.Metrics.Retransmit.Value(); r != 0 {
		t.Errorf("retransmits = %d with NoRetries", r)
	}
	if held := heldSlots(cli); held != 0 {
		t.Errorf("%d slots left claimed", held)
	}
}

// BenchmarkClientGet is the client's half of a cached Get, alone: the
// sender answers inline the way the switch's hit path does (open a reply
// to the request's seq and key, append a 128-byte value, seal), with no
// switch and no fabric in between.
func BenchmarkClientGet(b *testing.B) {
	cli, err := New(Config{
		Addr:      cliAddr,
		Partition: func(netproto.Key) netproto.Addr { return srvAddr },
	})
	if err != nil {
		b.Fatal(err)
	}
	value := bytes.Repeat([]byte{'v'}, netproto.MaxValueSize)
	reply := make([]byte, 0, netproto.FrameValueOff+len(value))
	cli.SetSend(func(frame []byte) {
		p := frame[netproto.FrameHeaderSize:]
		seq := binary.BigEndian.Uint64(p[3:11])
		key := netproto.Key(p[11 : 11+netproto.KeySize])
		reply = netproto.ReplyInto(reply[:0], cliAddr, srvAddr, netproto.OpGetReply, seq, key)
		reply = append(reply, value...)
		if err := netproto.SealReply(reply); err != nil {
			b.Fatal(err)
		}
		cli.Receive(reply)
	})
	key := netproto.KeyFromString("k")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}
