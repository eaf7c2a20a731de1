package netcache

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestVarClientCRUD(t *testing.T) {
	r := newRack(t)
	vc := r.VarClient(0)
	key := []byte("a-key-much-longer-than-sixteen-bytes:user:profile:12345")
	value := []byte("payload")

	if _, err := vc.Get(key); err != ErrNotFound {
		t.Fatalf("absent: %v", err)
	}
	if err := vc.Put(key, value); err != nil {
		t.Fatal(err)
	}
	got, err := vc.Get(key)
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := vc.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := vc.Get(key); err != ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
}

func TestVarClientValidation(t *testing.T) {
	r := newRack(t)
	vc := r.VarClient(0)
	if err := vc.Put(nil, []byte("v")); err == nil {
		t.Error("empty key should fail")
	}
	if err := vc.Put([]byte("k"), nil); err == nil {
		t.Error("empty value should fail")
	}
	if err := vc.Put([]byte("k"), make([]byte, MaxVarValueSize+1)); err == nil {
		t.Error("oversize value should fail")
	}
	if err := vc.Put([]byte("k"), make([]byte, MaxVarValueSize)); err != nil {
		t.Errorf("max-size value should fit: %v", err)
	}
}

func TestVarClientCollisionDetected(t *testing.T) {
	// Simulate a hash collision by writing raw bytes under the hashed key
	// of a *different* original key, then reading through VarClient.
	r := newRack(t)
	vc := r.VarClient(0)
	victim := []byte("the-key-I-ask-for")
	other := []byte("a-colliding-key")
	if err := vc.Put(other, []byte("other-value")); err != nil {
		t.Fatal(err)
	}
	// Forge: copy other's stored envelope under victim's hash slot.
	stored, err := r.Client(0).Get(HashKey(other))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Client(0).Put(HashKey(victim), stored); err != nil {
		t.Fatal(err)
	}
	if _, err := vc.Get(victim); err != ErrHashCollision {
		t.Fatalf("expected ErrHashCollision, got %v", err)
	}
}

func TestVarClientHotKeyStillCaches(t *testing.T) {
	// The switch is oblivious to the envelope: variable-key items cache
	// and verify like any other.
	r := newRack(t)
	vc := r.VarClient(0)
	key := []byte("trending:topic:with-a-rather-long-name")
	if err := vc.Put(key, []byte("spicy")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := vc.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	r.Tick()
	if !r.Cached(HashKey(key)) {
		t.Fatal("hot variable-length key not cached")
	}
	got, err := vc.Get(key)
	if err != nil || string(got) != "spicy" {
		t.Fatalf("cached var-key Get = %q, %v", got, err)
	}
}

func TestChunkedClientRoundTrip(t *testing.T) {
	r := newRack(t)
	cc := r.ChunkedClient(0)
	rng := rand.New(rand.NewSource(1))

	for _, size := range []int{1, 100, 124, 125, 128, 252, 253, 1000, 5000} {
		key := []byte{byte(size), byte(size >> 8), 'k'}
		value := make([]byte, size)
		rng.Read(value)
		if err := cc.Put(key, value); err != nil {
			t.Fatalf("size %d: put: %v", size, err)
		}
		got, err := cc.Get(key)
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("size %d: got %d bytes, err %v", size, len(got), err)
		}
	}
}

func TestChunkedClientOverwriteShrinks(t *testing.T) {
	r := newRack(t)
	cc := r.ChunkedClient(0)
	key := []byte("shrinker")
	big := bytes.Repeat([]byte("B"), 2000)
	small := []byte("tiny")
	if err := cc.Put(key, big); err != nil {
		t.Fatal(err)
	}
	if err := cc.Put(key, small); err != nil {
		t.Fatal(err)
	}
	got, err := cc.Get(key)
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("after shrink: %q, %v", got, err)
	}
}

func TestChunkedClientDelete(t *testing.T) {
	r := newRack(t)
	cc := r.ChunkedClient(0)
	key := []byte("doomed")
	if err := cc.Put(key, bytes.Repeat([]byte("x"), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := cc.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Get(key); err != ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
	// Tail chunks are gone too (probe one directly).
	if _, err := r.Client(0).Get(chunkKey(key, 1)); err != ErrNotFound {
		t.Errorf("tail chunk survived delete: %v", err)
	}
	// Deleting an absent key is fine.
	if err := cc.Delete([]byte("never-existed")); err != nil {
		t.Errorf("idempotent delete: %v", err)
	}
}

func TestChunkedClientValidation(t *testing.T) {
	r := newRack(t)
	cc := r.ChunkedClient(0)
	if err := cc.Put(nil, []byte("v")); err == nil {
		t.Error("empty key should fail")
	}
	if err := cc.Put([]byte("k"), nil); err == nil {
		t.Error("empty value should fail")
	}
	if err := cc.Put([]byte("k"), make([]byte, MaxChunkedValueSize+1)); err == nil {
		t.Error("oversize should fail")
	}
}

func TestChunkCount(t *testing.T) {
	cases := map[int]int{1: 1, 124: 1, 125: 2, 124 + 128: 2, 124 + 129: 3}
	for size, want := range cases {
		if got := chunkCount(size); got != want {
			t.Errorf("chunkCount(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestRebootSwitchRecovers(t *testing.T) {
	r := newRack(t)
	r.LoadDataset(100, 64)
	cli := r.Client(0)
	hot := KeyName(5)
	for i := 0; i < 20; i++ {
		cli.Get(hot)
	}
	r.Tick()
	if !r.Cached(hot) {
		t.Fatal("setup: key not cached")
	}

	// Crash-reboot: cache flushed, no state carried over (§3: the switch
	// holds no critical state).
	if n := r.RebootSwitch(); n != 1 {
		t.Errorf("flushed %d items, want 1", n)
	}
	if r.CacheLen() != 0 {
		t.Fatal("cache not empty after reboot")
	}

	// The system keeps serving correct data from the servers...
	v, err := cli.Get(hot)
	if err != nil || len(v) != 64 {
		t.Fatalf("post-reboot Get: %d bytes, %v", len(v), err)
	}
	// ...and the cache refills within one controller cycle of traffic
	// ("they will refill rapidly").
	for i := 0; i < 20; i++ {
		cli.Get(hot)
	}
	r.Tick()
	if !r.Cached(hot) {
		t.Fatal("cache did not refill after reboot")
	}
}

func TestChunkedClientShrinkCollectsStaleChunks(t *testing.T) {
	r := newRack(t)
	cc := r.ChunkedClient(0)
	key := []byte("gc-me")
	if err := cc.Put(key, bytes.Repeat([]byte("A"), 1000)); err != nil { // 8 chunks
		t.Fatal(err)
	}
	if err := cc.Put(key, []byte("tiny")); err != nil { // 1 chunk
		t.Fatal(err)
	}
	// Every stale tail chunk must be gone from the stores.
	for i := 1; i < chunkCount(1000); i++ {
		if _, err := r.Client(0).Get(chunkKey(key, i)); err != ErrNotFound {
			t.Errorf("stale chunk %d survived the shrink: %v", i, err)
		}
	}
	v, err := cc.Get(key)
	if err != nil || !bytes.Equal(v, []byte("tiny")) {
		t.Fatalf("after shrink: %q %v", v, err)
	}
}

func TestReplicatedFailoverFacade(t *testing.T) {
	r, err := New(Config{Servers: 4, Clients: 1, CacheCapacity: 32,
		Replicate: true, HeartbeatMisses: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.LoadDataset(100, 64)
	cli := r.Client(0)
	key := KeyName(5)
	if err := cli.Put(key, []byte("acked-before-crash")); err != nil {
		t.Fatal(err)
	}
	home := r.PrimaryServer(key)
	if home < 0 {
		t.Fatal("no primary for key")
	}

	// Kill the primary for good. One Tick trips the 1-miss detector and
	// flips the partition's routes to the backup.
	r.CrashServer(home)
	r.Tick()
	if p := r.PrimaryServer(key); p == home || p < 0 {
		t.Fatalf("partition did not fail over (primary still %d)", p)
	}
	// The acked write survives the permanent failure, and the partition
	// accepts new writes without the dead node.
	if v, err := cli.Get(key); err != nil || string(v) != "acked-before-crash" {
		t.Fatalf("read from promoted backup: %q %v", v, err)
	}
	if err := cli.Put(key, []byte("written-after-failover")); err != nil {
		t.Fatalf("write after failover: %v", err)
	}

	// The crashed node rejoins as a backup and catches back up over the
	// following controller cycles.
	r.RestartServer(home, false)
	for i := 0; i < 50; i++ {
		r.Tick()
	}
	if v, err := cli.Get(key); err != nil || string(v) != "written-after-failover" {
		t.Fatalf("read after rejoin: %q %v", v, err)
	}
}
