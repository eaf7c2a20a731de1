package switchcore

import (
	"testing"

	"netcache/internal/netproto"
)

// A bit-flipped frame must die at the parse boundary: no emission, no error
// surfaced to the injector, and the Corrupted counter proves the drop was
// classified as corruption rather than generic garbage.
func TestCorruptFrameDroppedAtParser(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("k")
	r.install(t, key, []byte("value"))

	frame := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key})
	frame[len(frame)-1] ^= 0x5A

	out, err := r.sw.ProcessAppend(frame, clientPort, nil)
	if err != nil {
		t.Fatalf("corrupt frame must be dropped silently, got error %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("corrupt frame emitted %d packets", len(out))
	}
	ctr := r.sw.Pipeline().Stats()
	if ctr.Corrupted != 1 {
		t.Errorf("Corrupted = %d, want 1", ctr.Corrupted)
	}
	if ctr.ParseDrops < 1 {
		t.Errorf("ParseDrops = %d, want >= 1", ctr.ParseDrops)
	}

	// The same frame with an intact checksum is served normally.
	good := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 2, Key: key})
	em := one(t, r.sw, good, clientPort)
	if em.Port != clientPort {
		t.Errorf("intact frame should hit the cache, went to port %d", em.Port)
	}
}

// A duplicated or reordered OpCacheUpdate carrying an old sequence number
// must not regress the cached value past a newer refresh, but the sender
// still gets its ack (it may be a retransmitting server awaiting one).
func TestStaleCacheUpdateRejected(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("versioned")
	_, idx := r.install(t, key, []byte("v-installed"))

	refresh := func(seq uint64, val string) netproto.Packet {
		upd := mkFrame(t, serverAddr, serverAddr,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: seq, Key: key, Value: []byte(val)})
		_, ack := decode(t, one(t, r.sw, upd, serverPort).Frame)
		return ack
	}
	read := func() string {
		get := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1000, Key: key})
		_, pkt := decode(t, one(t, r.sw, get, clientPort).Frame)
		return string(pkt.Value)
	}

	// A fresh update advances the version and lands.
	if ack := refresh(10, "v-seq-10"); ack.Op != netproto.OpCacheUpdateAck || ack.Seq != 10 {
		t.Fatalf("ack = %+v", ack)
	}
	if got := read(); got != "v-seq-10" {
		t.Fatalf("after seq 10: read %q", got)
	}

	// A reordered older update is acked but must not regress the value.
	if ack := refresh(9, "v-seq-9-stale"); ack.Op != netproto.OpCacheUpdateAck || ack.Seq != 9 {
		t.Fatalf("stale update must still be acked, got %+v", ack)
	}
	if got := read(); got != "v-seq-10" {
		t.Errorf("stale seq-9 update regressed value to %q", got)
	}

	// An exact duplicate of the applied update is likewise a no-op.
	refresh(10, "v-seq-10-dup-with-different-bytes")
	if got := read(); got != "v-seq-10" {
		t.Errorf("duplicate seq-10 update changed value to %q", got)
	}
	if !isValid(r.sw, idx) {
		t.Error("rejected updates must not invalidate the entry")
	}

	// A strictly newer update still goes through.
	refresh(11, "v-seq-11")
	if got := read(); got != "v-seq-11" {
		t.Errorf("after seq 11: read %q", got)
	}
}

// An empty OpCacheUpdate is an invalidation: a server that deleted a key
// behind a cache insertion clears the value the insertion validated. It is
// acked and version-guarded like any update, and a newer update validates
// the entry again.
func TestEmptyCacheUpdateInvalidates(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("deleted")
	_, idx := r.install(t, key, []byte("v-installed"))
	refresh := func(seq uint64, val []byte) netproto.Packet {
		upd := mkFrame(t, serverAddr, serverAddr,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: seq, Key: key, Value: val})
		_, ack := decode(t, one(t, r.sw, upd, serverPort).Frame)
		return ack
	}
	if ack := refresh(5, nil); ack.Op != netproto.OpCacheUpdateAck || ack.Seq != 5 {
		t.Fatalf("empty update ack = %+v", ack)
	}
	if isValid(r.sw, idx) {
		t.Fatal("empty update left the entry valid")
	}
	get := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key})
	if em := one(t, r.sw, get, clientPort); em.Port != serverPort {
		t.Fatalf("read of the invalidated key went to port %d, want the server's", em.Port)
	}
	refresh(6, []byte("v-seq-6"))
	_, pkt := decode(t, one(t, r.sw, get, clientPort).Frame)
	if pkt.Op != netproto.OpGetReply || string(pkt.Value) != "v-seq-6" {
		t.Fatalf("read after a newer update = %+v", pkt)
	}
}

// Installing an entry with a Version seeds the guard: updates at or below
// that version are rejected from the start.
func TestInstallSeedsVersionGuard(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("seeded")
	p, err := r.alloc.Insert(key, 8)
	if err != nil {
		t.Fatal(err)
	}
	idx := r.kidx.Alloc()
	if err := r.sw.InstallCacheEntry(CacheEntry{
		Key: key, Placement: p, KeyIndex: idx, ServerPort: serverPort,
		Value: []byte("v-at-40"), Version: 40,
	}); err != nil {
		t.Fatal(err)
	}

	upd := mkFrame(t, serverAddr, serverAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 40, Key: key, Value: []byte("replay")})
	one(t, r.sw, upd, serverPort)
	get := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key})
	_, pkt := decode(t, one(t, r.sw, get, clientPort).Frame)
	if string(pkt.Value) != "v-at-40" {
		t.Errorf("replayed update at the install version landed: %q", pkt.Value)
	}
}

// Reboot wipes tables and registers: the cache is empty, routes are gone
// (frames are unroutable until the OS re-provisions them), and once routes
// are back reads fall through to the servers.
func TestRebootWipesSwitchState(t *testing.T) {
	r := newRig(t)
	key := netproto.KeyFromString("cached")
	r.install(t, key, []byte("v"))
	if r.sw.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d before reboot", r.sw.CacheLen())
	}

	r.sw.Reboot()

	if n := r.sw.CacheLen(); n != 0 {
		t.Errorf("CacheLen = %d after reboot, want 0", n)
	}
	if d := r.sw.DumpCache(); len(d) != 0 {
		t.Errorf("DumpCache returned %d entries after reboot", len(d))
	}
	get := mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: key})
	out, err := r.sw.ProcessAppend(get, clientPort, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("unrouted post-reboot frame: out=%d err=%v", len(out), err)
	}

	// Re-provision routes: traffic flows again, reads miss to the server.
	if err := r.sw.InstallRoute(clientAddr, clientPort); err != nil {
		t.Fatal(err)
	}
	if err := r.sw.InstallRoute(serverAddr, serverPort); err != nil {
		t.Fatal(err)
	}
	em := one(t, r.sw, get, clientPort)
	if em.Port != serverPort {
		t.Errorf("post-reboot read went to port %d, want server fall-through", em.Port)
	}
}

// DumpCache reflects the driver's installs faithfully enough for a
// controller to adopt the switch state.
func TestDumpCacheRoundTrip(t *testing.T) {
	r := newRig(t)
	kA, kB := netproto.KeyFromString("alpha"), netproto.KeyFromString("beta")
	pA, idxA := r.install(t, kA, []byte("value-of-alpha"))
	_, idxB := r.install(t, kB, []byte("b"))

	dump := r.sw.DumpCache()
	if len(dump) != 2 {
		t.Fatalf("DumpCache len = %d, want 2", len(dump))
	}
	byKey := map[netproto.Key]InstalledEntry{}
	for _, ie := range dump {
		byKey[ie.Key] = ie
	}
	a, okA := byKey[kA]
	b, okB := byKey[kB]
	if !okA || !okB {
		t.Fatalf("dump keys = %v", byKey)
	}
	if a.KeyIndex != idxA || b.KeyIndex != idxB {
		t.Errorf("key indexes: got (%d,%d), want (%d,%d)", a.KeyIndex, b.KeyIndex, idxA, idxB)
	}
	if a.ServerPort != serverPort || !a.Valid || !b.Valid {
		t.Errorf("entry a = %+v, b = %+v", a, b)
	}
	if a.Placement.Index != pA.Index || a.Placement.Bitmap != pA.Bitmap {
		t.Errorf("placement: got %+v, want %+v", a.Placement, pA)
	}
	if a.Placement.Size != len("value-of-alpha") {
		t.Errorf("size = %d, want %d", a.Placement.Size, len("value-of-alpha"))
	}
	if got := readValue(r.sw, a.Placement, a.KeyIndex); string(got) != "value-of-alpha" {
		t.Errorf("value read via dump placement = %q", got)
	}
}
