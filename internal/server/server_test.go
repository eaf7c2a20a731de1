package server

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"netcache/internal/netproto"
)

const (
	srvAddr = netproto.Addr(7)
	cliAddr = netproto.Addr(9)
)

// harness captures frames the server sends and lets tests play the roles of
// switch and client.
type harness struct {
	t   *testing.T
	srv *Server

	mu   sync.Mutex
	sent [][]byte
	// ackUpdates makes the harness behave like the switch: every
	// OpCacheUpdate is immediately acknowledged.
	ackUpdates bool
	// dropUpdates silently discards OpCacheUpdate frames (loss).
	dropUpdates bool
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	cfg.Addr = srvAddr
	h := &harness{t: t}
	h.srv = New(cfg)
	h.srv.SetSend(h.onSend)
	return h
}

func (h *harness) onSend(frame []byte) {
	fr, err := netproto.DecodeFrame(frame)
	if err != nil {
		h.t.Errorf("server sent undecodable frame: %v", err)
		return
	}
	var pkt netproto.Packet
	if err := netproto.Decode(fr.Payload, &pkt); err != nil {
		h.t.Errorf("server sent undecodable packet: %v", err)
		return
	}
	if pkt.Op == netproto.OpCacheUpdate {
		h.mu.Lock()
		drop := h.dropUpdates
		ack := h.ackUpdates
		h.mu.Unlock()
		if drop {
			return
		}
		if ack {
			ackPkt := netproto.Packet{Op: netproto.OpCacheUpdateAck, Seq: pkt.Seq, Key: pkt.Key}
			payload, _ := ackPkt.Marshal()
			h.record(frame)
			h.srv.Receive(netproto.MarshalFrame(srvAddr, srvAddr, payload))
			return
		}
	}
	h.record(frame)
}

func (h *harness) record(frame []byte) {
	h.mu.Lock()
	h.sent = append(h.sent, append([]byte(nil), frame...))
	h.mu.Unlock()
}

func (h *harness) takeSent() []netproto.Packet {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []netproto.Packet
	for _, f := range h.sent {
		fr, _ := netproto.DecodeFrame(f)
		var pkt netproto.Packet
		if netproto.Decode(fr.Payload, &pkt) == nil {
			if pkt.Value != nil {
				pkt.Value = append([]byte(nil), pkt.Value...)
			}
			out = append(out, pkt)
		}
	}
	h.sent = nil
	return out
}

func (h *harness) query(pkt netproto.Packet) {
	payload, err := pkt.Marshal()
	if err != nil {
		h.t.Fatal(err)
	}
	h.srv.Receive(netproto.MarshalFrame(srvAddr, cliAddr, payload))
}

func key(s string) netproto.Key { return netproto.KeyFromString(s) }

func TestGetMissAndHit(t *testing.T) {
	h := newHarness(t, Config{})
	h.query(netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key("nope")})
	out := h.takeSent()
	if len(out) != 1 || out[0].Op != netproto.OpGetReplyMiss || out[0].Seq != 1 {
		t.Fatalf("miss reply = %+v", out)
	}

	h.srv.Store().Put(key("yes"), []byte("value"))
	h.query(netproto.Packet{Op: netproto.OpGet, Seq: 2, Key: key("yes")})
	out = h.takeSent()
	if len(out) != 1 || out[0].Op != netproto.OpGetReply || string(out[0].Value) != "value" {
		t.Fatalf("hit reply = %+v", out)
	}
}

func TestUncachedPutNoRefresh(t *testing.T) {
	h := newHarness(t, Config{})
	h.query(netproto.Packet{Op: netproto.OpPut, Seq: 3, Key: key("k"), Value: []byte("v")})
	out := h.takeSent()
	if len(out) != 1 || out[0].Op != netproto.OpPutReply {
		t.Fatalf("put reply = %+v", out)
	}
	if h.srv.Metrics.CacheUpdatesSent.Value() != 0 {
		t.Error("uncached put must not refresh the switch")
	}
	if v, _, ok := h.srv.Store().Get(key("k")); !ok || string(v) != "v" {
		t.Error("store not updated")
	}
}

func TestCachedPutSendsRefreshAndAckUnblocks(t *testing.T) {
	h := newHarness(t, Config{})
	h.ackUpdates = true
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 4, Key: key("hot"), Value: []byte("new")})
	out := h.takeSent()
	// Expect: PutReply to the client, then a CacheUpdate (recorded by the
	// harness before it acked it).
	if len(out) != 2 {
		t.Fatalf("expected reply + update, got %+v", out)
	}
	if out[0].Op != netproto.OpPutReply || out[0].Seq != 4 {
		t.Errorf("first frame = %+v, want PutReply (client is answered before the switch update)", out[0])
	}
	if out[1].Op != netproto.OpCacheUpdate || string(out[1].Value) != "new" {
		t.Errorf("second frame = %+v, want CacheUpdate", out[1])
	}
	// Acked: a following write applies immediately.
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 5, Key: key("hot"), Value: []byte("newer")})
	out = h.takeSent()
	if len(out) != 2 || out[0].Op != netproto.OpPutReply {
		t.Fatalf("post-ack write = %+v", out)
	}
	if h.srv.Metrics.WritesQueued.Value() != 0 {
		t.Error("nothing should have queued")
	}
}

func TestWritesBlockedUntilAck(t *testing.T) {
	h := newHarness(t, Config{RetryInterval: time.Hour}) // no retry noise
	// Updates are neither acked nor dropped: they stay pending.
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 1, Key: key("k"), Value: []byte("v1")})
	out := h.takeSent()
	if len(out) != 2 || out[1].Op != netproto.OpCacheUpdate {
		t.Fatalf("first write = %+v", out)
	}
	updSeq := out[1].Seq

	// Second write must queue: no reply, no second update.
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 2, Key: key("k"), Value: []byte("v2")})
	if out := h.takeSent(); len(out) != 0 {
		t.Fatalf("blocked write should emit nothing, got %+v", out)
	}
	if h.srv.Metrics.WritesQueued.Value() != 1 {
		t.Error("write should have queued")
	}
	// Store still has v1: the queued write is not yet applied, so reads
	// serialize correctly through the server.
	if v, _, _ := h.srv.Store().Get(key("k")); string(v) != "v1" {
		t.Errorf("store = %q before ack", v)
	}

	// Ack the first update: the queued write applies and produces its own
	// reply + update.
	ack := netproto.Packet{Op: netproto.OpCacheUpdateAck, Seq: updSeq, Key: key("k")}
	payload, _ := ack.Marshal()
	h.srv.Receive(netproto.MarshalFrame(srvAddr, srvAddr, payload))
	out = h.takeSent()
	if len(out) != 2 || out[0].Op != netproto.OpPutReply || out[0].Seq != 2 ||
		out[1].Op != netproto.OpCacheUpdate || string(out[1].Value) != "v2" {
		t.Fatalf("drained write = %+v", out)
	}
	if v, _, _ := h.srv.Store().Get(key("k")); string(v) != "v2" {
		t.Errorf("store = %q after drain", v)
	}
}

func TestRetryOnLostUpdate(t *testing.T) {
	h := newHarness(t, Config{RetryInterval: time.Millisecond, MaxRetries: 50})
	h.mu.Lock()
	h.dropUpdates = true
	h.mu.Unlock()

	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 1, Key: key("k"), Value: []byte("v")})

	// Wait for a few retries, then let one through and ack it.
	deadline := time.Now().Add(time.Second)
	for h.srv.Metrics.CacheUpdateRetries.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no retries observed")
		}
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	h.dropUpdates = false
	h.ackUpdates = true
	h.mu.Unlock()

	for h.srv.Metrics.CacheUpdatesSent.Value() == h.srv.Metrics.CacheUpdateRetries.Value() {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// After the ack, a new write proceeds without queueing forever.
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 2, Key: key("k"), Value: []byte("v2")})
	deadline = time.Now().Add(time.Second)
	for {
		out := h.takeSent()
		found := false
		for _, p := range out {
			if p.Op == netproto.OpPutReply && p.Seq == 2 {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second write never completed after retry recovery")
		}
		time.Sleep(time.Millisecond)
	}
}

// A lost update with a delete queued behind it must not be resent: the
// delete invalidated the switch entry on its way in, and the older value
// would be valid again in the switch after the delete is acked.
func TestSupersededUpdateNotResent(t *testing.T) {
	h := newHarness(t, Config{RetryInterval: time.Hour}) // retries fired by hand
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 1, Key: key("k"), Value: []byte("v1")})
	out := h.takeSent()
	if len(out) != 2 || out[1].Op != netproto.OpCacheUpdate {
		t.Fatalf("first write = %+v", out)
	}
	updSeq := out[1].Seq
	h.query(netproto.Packet{Op: netproto.OpDeleteCached, Seq: 2, Key: key("k")})
	if out := h.takeSent(); len(out) != 0 {
		t.Fatalf("queued delete should emit nothing, got %+v", out)
	}

	h.srv.retry(key("k"), updSeq) // the update's retry timer expires
	out = h.takeSent()
	if len(out) != 1 || out[0].Op != netproto.OpDeleteReply || out[0].Seq != 2 {
		t.Fatalf("after retry = %+v, want only the delete's reply (no resent update)", out)
	}
	if _, _, ok := h.srv.Store().Get(key("k")); ok {
		t.Error("queued delete not applied")
	}
	if n := h.srv.Metrics.CacheUpdateRetries.Value(); n != 0 {
		t.Errorf("CacheUpdateRetries = %d, want 0", n)
	}
}

func TestGiveUpUnblocksWriters(t *testing.T) {
	h := newHarness(t, Config{RetryInterval: time.Millisecond, MaxRetries: 3})
	h.mu.Lock()
	h.dropUpdates = true
	h.mu.Unlock()
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 1, Key: key("k"), Value: []byte("v1")})
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 2, Key: key("k"), Value: []byte("v2")})

	deadline := time.Now().Add(time.Second)
	for h.srv.Metrics.CacheUpdateGiveUps.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never gave up")
		}
		time.Sleep(time.Millisecond)
	}
	// The queued write eventually applies (possibly also giving up on its
	// own refresh).
	for {
		if v, _, _ := h.srv.Store().Get(key("k")); string(v) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued write never applied after give-up")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeleteCached(t *testing.T) {
	h := newHarness(t, Config{})
	h.srv.Store().Put(key("k"), []byte("v"))
	h.query(netproto.Packet{Op: netproto.OpDeleteCached, Seq: 1, Key: key("k")})
	out := h.takeSent()
	if len(out) != 1 || out[0].Op != netproto.OpDeleteReply {
		t.Fatalf("delete reply = %+v", out)
	}
	if _, _, ok := h.srv.Store().Get(key("k")); ok {
		t.Error("store should have deleted")
	}
	if h.srv.Metrics.CacheUpdatesSent.Value() != 0 {
		t.Error("delete must not refresh the switch (entry stays invalid)")
	}
}

func TestControllerBlockWindow(t *testing.T) {
	h := newHarness(t, Config{})
	h.ackUpdates = true
	h.srv.BlockWrites(key("k"))
	h.query(netproto.Packet{Op: netproto.OpPut, Seq: 1, Key: key("k"), Value: []byte("v")})
	if out := h.takeSent(); len(out) != 0 {
		t.Fatalf("blocked write emitted %+v", out)
	}
	// Nested blocks.
	h.srv.BlockWrites(key("k"))
	h.srv.UnblockWrites(key("k"))
	if out := h.takeSent(); len(out) != 0 {
		t.Fatal("still one block outstanding")
	}
	h.srv.UnblockWrites(key("k"))
	// The parked write reached the switch before the insertion, so the
	// entry holds the value fetched before it: the write refreshes the
	// switch, and its ack waits for the switch to confirm.
	out := h.takeSent()
	if len(out) != 2 || out[0].Op != netproto.OpCacheUpdate || string(out[0].Value) != "v" ||
		out[1].Op != netproto.OpPutReply {
		t.Fatalf("unblocked write = %+v, want CacheUpdate then PutReply", out)
	}
	// Unblocking an unblocked key is a no-op.
	h.srv.UnblockWrites(key("k"))
}

// A write that reaches the server untagged while its key is cached passed
// the switch before the insertion, so the switch did not invalidate the
// entry: the server refreshes it (an empty update after a delete) and holds
// the client ack until the switch acks. Tagged writes keep the §4.3 order,
// and once the controller reports the key uncached untagged writes are
// plain again.
func TestUntaggedWriteToCachedKeyHoldsAck(t *testing.T) {
	h := newHarness(t, Config{RetryInterval: time.Hour}) // retries fired by hand
	k := key("k")
	h.srv.Store().Put(k, []byte("v0"))
	h.srv.BlockWrites(k) // an insertion: the key is cached from here on
	h.srv.UnblockWrites(k)
	ackUpdate := func(seq uint64) {
		ack := netproto.Packet{Op: netproto.OpCacheUpdateAck, Seq: seq, Key: k}
		payload, _ := ack.Marshal()
		h.srv.Receive(netproto.MarshalFrame(srvAddr, srvAddr, payload))
	}

	h.query(netproto.Packet{Op: netproto.OpPut, Seq: 1, Key: k, Value: []byte("v1")})
	out := h.takeSent()
	if len(out) != 1 || out[0].Op != netproto.OpCacheUpdate || string(out[0].Value) != "v1" {
		t.Fatalf("late put = %+v, want only its CacheUpdate", out)
	}
	upd := out[0].Seq
	// A write behind a held update does not supersede it: the update is
	// resent, since the switch may still hold v0.
	h.query(netproto.Packet{Op: netproto.OpDelete, Seq: 2, Key: k})
	h.srv.retry(k, upd)
	if out := h.takeSent(); len(out) != 1 || out[0].Op != netproto.OpCacheUpdate || out[0].Seq != upd {
		t.Fatalf("retry of a held update = %+v, want it resent", out)
	}
	ackUpdate(upd)
	out = h.takeSent()
	if len(out) != 2 || out[0].Op != netproto.OpPutReply || out[0].Seq != 1 ||
		out[1].Op != netproto.OpCacheUpdate || len(out[1].Value) != 0 {
		t.Fatalf("after the ack = %+v, want the put's reply, then the delete's empty update", out)
	}
	ackUpdate(out[1].Seq)
	if out := h.takeSent(); len(out) != 1 || out[0].Op != netproto.OpDeleteReply || out[0].Seq != 2 {
		t.Fatalf("after the delete's ack = %+v", out)
	}

	// A tagged write: the switch invalidated in flight, so the client is
	// answered first.
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 3, Key: k, Value: []byte("v3")})
	out = h.takeSent()
	if len(out) != 2 || out[0].Op != netproto.OpPutReply || out[1].Op != netproto.OpCacheUpdate {
		t.Fatalf("tagged put = %+v, want PutReply then CacheUpdate", out)
	}
	ackUpdate(out[1].Seq)

	// The controller's Uncached, in its networked form.
	h.query(netproto.Packet{Op: netproto.OpCtlUncached, Seq: 100, Key: k})
	if out := h.takeSent(); len(out) != 1 || out[0].Op != netproto.OpCtlAck || out[0].Seq != 100 {
		t.Fatalf("OpCtlUncached answered %+v, want its OpCtlAck", out)
	}
	h.query(netproto.Packet{Op: netproto.OpPut, Seq: 4, Key: k, Value: []byte("v4")})
	if out := h.takeSent(); len(out) != 1 || out[0].Op != netproto.OpPutReply {
		t.Fatalf("put after Uncached = %+v, want only its reply", out)
	}
	h.srv.mu.Lock()
	n := len(h.srv.keys)
	h.srv.mu.Unlock()
	if n != 0 {
		t.Errorf("%d key states left after Uncached, want 0", n)
	}
}

// A tagged write queued behind a held update invalidated the switch entry
// on its way in, so resending the held update's older value would validate
// it again (window B): the update is dropped, and its held ack goes out
// ahead of the queued write's.
func TestHeldUpdateSupersededByTaggedWrite(t *testing.T) {
	h := newHarness(t, Config{RetryInterval: time.Hour}) // retries fired by hand
	k := key("k")
	h.srv.BlockWrites(k)
	h.srv.UnblockWrites(k)
	h.query(netproto.Packet{Op: netproto.OpPut, Seq: 1, Key: k, Value: []byte("v1")})
	out := h.takeSent()
	if len(out) != 1 || out[0].Op != netproto.OpCacheUpdate {
		t.Fatalf("late put = %+v, want only its CacheUpdate", out)
	}
	h.query(netproto.Packet{Op: netproto.OpDeleteCached, Seq: 2, Key: k})
	h.srv.retry(k, out[0].Seq)
	out = h.takeSent()
	if len(out) != 2 || out[0].Op != netproto.OpPutReply || out[0].Seq != 1 ||
		out[1].Op != netproto.OpDeleteReply || out[1].Seq != 2 {
		t.Fatalf("after retry = %+v, want the put's and the delete's replies, no resent update", out)
	}
	if n := h.srv.Metrics.CacheUpdateRetries.Value(); n != 0 {
		t.Errorf("CacheUpdateRetries = %d, want 0", n)
	}
}

// TestQueuedWriteSurvivesFrameRecycle pins the aliasing rule behind the
// pooled packet path: a delivered frame's buffer belongs to the fabric again
// the moment Receive returns, so a write queued behind a block window must
// have copied its value out. Without the copy in handleWrite this stores the
// scribbled bytes — the exact tear the chaos corruption injector would
// surface as a wrong-value invariant hit.
func TestQueuedWriteSurvivesFrameRecycle(t *testing.T) {
	h := newHarness(t, Config{})
	h.srv.BlockWrites(key("k"))
	pkt := netproto.Packet{Op: netproto.OpPut, Seq: 1, Key: key("k"), Value: []byte("fresh")}
	payload, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frame := netproto.MarshalFrame(srvAddr, cliAddr, payload)
	h.srv.Receive(frame)
	// The fabric recycles the buffer for an unrelated frame.
	for i := range frame {
		frame[i] = 0xEE
	}
	h.srv.UnblockWrites(key("k"))
	if v, _, ok := h.srv.Store().Get(key("k")); !ok || !bytes.Equal(v, []byte("fresh")) {
		t.Errorf("queued write stored %q after frame recycle, want %q", v, "fresh")
	}
}

func TestFetchValue(t *testing.T) {
	h := newHarness(t, Config{})
	h.srv.Store().Put(key("k"), []byte("v"))
	v, _, ok := h.srv.FetchValue(key("k"))
	if !ok || !bytes.Equal(v, []byte("v")) {
		t.Errorf("FetchValue = %q %v", v, ok)
	}
	if _, _, ok := h.srv.FetchValue(key("absent")); ok {
		t.Error("absent key should miss")
	}
}

func TestGarbageFramesIgnored(t *testing.T) {
	h := newHarness(t, Config{})
	h.srv.Receive([]byte{1, 2})                                       // short frame
	h.srv.Receive(netproto.MarshalFrame(srvAddr, cliAddr, []byte{9})) // bad payload
	// Reply ops are not requests; ignore.
	pkt := netproto.Packet{Op: netproto.OpGetReply, Seq: 1, Key: key("k"), Value: []byte("v")}
	payload, _ := pkt.Marshal()
	h.srv.Receive(netproto.MarshalFrame(srvAddr, cliAddr, payload))
	if out := h.takeSent(); len(out) != 0 {
		t.Errorf("garbage produced output: %+v", out)
	}
}

func TestStaleAckIgnored(t *testing.T) {
	h := newHarness(t, Config{RetryInterval: time.Hour})
	h.query(netproto.Packet{Op: netproto.OpPutCached, Seq: 1, Key: key("k"), Value: []byte("v")})
	h.takeSent()
	// Wrong seq: must not unblock.
	ack := netproto.Packet{Op: netproto.OpCacheUpdateAck, Seq: 999, Key: key("k")}
	payload, _ := ack.Marshal()
	h.srv.Receive(netproto.MarshalFrame(srvAddr, srvAddr, payload))
	if h.srv.Metrics.StaleAcks.Value() != 1 {
		t.Error("stale ack not counted")
	}
	h.query(netproto.Packet{Op: netproto.OpPut, Seq: 2, Key: key("k"), Value: []byte("v2")})
	if h.srv.Metrics.WritesQueued.Value() != 1 {
		t.Error("write should still be blocked after stale ack")
	}
}

// A wiping restart swaps the store while reads run without the server lock
// (handleGet, Store, FetchValue, ProbeValue, StoreStats). Under -race this
// fails if the swap is not atomic with those reads.
func TestRestartWipeRacesReads(t *testing.T) {
	srv := New(Config{Addr: srvAddr})
	srv.SetSend(func([]byte) {})
	payload, err := (&netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key("k")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	get := netproto.MarshalFrame(srvAddr, cliAddr, payload)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Receive(get)
			srv.Store().Put(key("k"), []byte("v"))
			srv.FetchValue(key("k"))
			srv.ProbeValue(key("k"))
			srv.StoreStats()
		}
	}()
	for i := 0; i < 200; i++ {
		srv.Crash()
		srv.Restart(true)
	}
	close(stop)
	<-done
}
