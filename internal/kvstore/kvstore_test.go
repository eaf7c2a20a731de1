package kvstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"netcache/internal/netproto"
)

func key(i int) netproto.Key {
	return netproto.KeyFromString(fmt.Sprintf("key-%08d", i))
}

func TestBasicCRUD(t *testing.T) {
	s := New(4)
	if _, _, ok := s.Get(key(1)); ok {
		t.Fatal("empty store should miss")
	}
	v1 := s.Put(key(1), []byte("hello"))
	got, ver, ok := s.Get(key(1))
	if !ok || string(got) != "hello" || ver != v1 {
		t.Fatalf("Get = %q v%d %v", got, ver, ok)
	}
	v2 := s.Put(key(1), []byte("world"))
	if v2 <= v1 {
		t.Errorf("version must increase: %d then %d", v1, v2)
	}
	got, _, _ = s.Get(key(1))
	if string(got) != "world" {
		t.Errorf("overwrite failed: %q", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	dv, ok := s.Delete(key(1))
	if !ok || dv <= v2 {
		t.Errorf("Delete = v%d %v", dv, ok)
	}
	if _, ok := s.Delete(key(1)); ok {
		t.Error("double delete should miss")
	}
	if s.Len() != 0 {
		t.Errorf("Len after delete = %d", s.Len())
	}
}

func TestValueIsCopied(t *testing.T) {
	s := New(1)
	buf := []byte("mutable")
	s.Put(key(1), buf)
	buf[0] = 'X'
	got, _, _ := s.Get(key(1))
	if string(got) != "mutable" {
		t.Error("Put must copy the value")
	}
	got[0] = 'Y'
	again, _, _ := s.Get(key(1))
	if string(again) != "mutable" {
		t.Error("Get must return a copy")
	}
}

func TestGrowthKeepsAllItems(t *testing.T) {
	s := New(1)
	const n = 10000
	for i := 0; i < n; i++ {
		s.Put(key(i), []byte(fmt.Sprintf("val-%d", i)))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, _, ok := s.Get(key(i))
		if !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d: %q %v", i, got, ok)
		}
	}
	sh := &s.shards[0]
	if load := float64(sh.used) / float64(len(*sh.slots.Load())); load > maxLoadFactor+0.01 {
		t.Errorf("load factor %.2f exceeds threshold", load)
	}
}

func TestShardOfStable(t *testing.T) {
	s := New(8)
	if len(s.shards) != 8 {
		t.Fatalf("shards = %d", len(s.shards))
	}
	for i := 0; i < 100; i++ {
		a, b := s.shardOf(hash(key(i))), s.shardOf(hash(key(i)))
		if a != b || a < 0 || a >= 8 {
			t.Fatalf("ShardOf unstable or out of range: %d %d", a, b)
		}
	}
}

func TestShardRounding(t *testing.T) {
	if got := len(New(5).shards); got != 8 {
		t.Errorf("5 shards should round to 8, got %d", got)
	}
	if got := len(New(0).shards); got != 1 {
		t.Errorf("0 shards should round to 1, got %d", got)
	}
}

func TestRange(t *testing.T) {
	s := New(4)
	want := map[netproto.Key]string{}
	for i := 0; i < 100; i++ {
		want[key(i)] = fmt.Sprintf("v%d", i)
		s.Put(key(i), []byte(fmt.Sprintf("v%d", i)))
	}
	seen := 0
	s.Range(func(k netproto.Key, v []byte, ver uint64) bool {
		if want[k] != string(v) {
			t.Errorf("key %s: value %q", k, v)
		}
		seen++
		return true
	})
	if seen != 100 {
		t.Errorf("Range visited %d items", seen)
	}
	// Early termination.
	seen = 0
	s.Range(func(k netproto.Key, v []byte, ver uint64) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Errorf("early stop visited %d", seen)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	s := New(8)
	const goroutines = 8
	const opsEach = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				k := key(rng.Intn(500))
				switch rng.Intn(3) {
				case 0:
					s.Put(k, []byte{byte(i)})
				case 1:
					s.Get(k)
				case 2:
					s.Delete(k)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Invariant: Len agrees with a full Range count.
	count := 0
	s.Range(func(netproto.Key, []byte, uint64) bool { count++; return true })
	if count != s.Len() {
		t.Errorf("Len=%d but Range saw %d", s.Len(), count)
	}
}

func TestVersionMonotonicPerKey(t *testing.T) {
	s := New(2)
	var last uint64
	for i := 0; i < 100; i++ {
		v := s.Put(key(7), []byte{byte(i)})
		if v <= last {
			t.Fatalf("version regressed: %d after %d", v, last)
		}
		last = v
	}
	dv, _ := s.Delete(key(7))
	if dv <= last {
		t.Fatalf("delete version %d not after %d", dv, last)
	}
	if v := s.Put(key(7), []byte("new")); v <= dv {
		t.Fatalf("re-create version %d not after delete %d", v, dv)
	}
}

// Property: the store behaves exactly like a map[Key][]byte under any
// sequence of operations.
func TestQuickMapEquivalence(t *testing.T) {
	type op struct {
		Key uint8
		Val []byte
		Op  uint8 // 0 put, 1 delete, 2 get
	}
	f := func(ops []op) bool {
		s := New(4)
		ref := map[netproto.Key]string{}
		for _, o := range ops {
			k := key(int(o.Key))
			switch o.Op % 3 {
			case 0:
				s.Put(k, o.Val)
				ref[k] = string(o.Val)
			case 1:
				_, ok := s.Delete(k)
				_, refOk := ref[k]
				if ok != refOk {
					return false
				}
				delete(ref, k)
			case 2:
				v, _, ok := s.Get(k)
				rv, refOk := ref[k]
				if ok != refOk || (ok && string(v) != rv) {
					return false
				}
			}
		}
		return s.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsString checks the shard bookkeeping: one stored item is counted
// once, in n and used of the shard its hash picks.
func TestStatsString(t *testing.T) {
	s := New(2)
	s.Put(key(1), []byte("x"))
	if len(s.shards) != 2 {
		t.Fatalf("shards = %d", len(s.shards))
	}
	home := s.shardOf(hash(key(1)))
	for i := range s.shards {
		want := 0
		if i == home {
			want = 1
		}
		if s.shards[i].n != want || s.shards[i].used != want {
			t.Errorf("shard %d: n=%d used=%d, want %d", i, s.shards[i].n, s.shards[i].used, want)
		}
	}
}

// TestPutWalksPastTombstone: with keys a, b and c sharing a home slot, a
// deleted a leaves a tombstone in front of b. Rewriting b updates it where
// it is rather than storing it a second time in the tombstone, and the new
// key c takes the tombstone instead of a never-used slot.
func TestPutWalksPastTombstone(t *testing.T) {
	s := New(1)
	sh := &s.shards[0]
	mask := uint64(initialSlots - 1)
	var same []netproto.Key
	home := hash(key(0)) & mask
	for i := 0; len(same) < 3; i++ {
		if hash(key(i))&mask == home {
			same = append(same, key(i))
		}
	}
	a, b, c := same[0], same[1], same[2]
	slotOf := func(i uint64) *slot { return &(*sh.slots.Load())[(home+i)&mask] }
	check := func(step string, n, used int) {
		t.Helper()
		if sh.n != n || sh.used != used {
			t.Fatalf("%s: n=%d used=%d, want n=%d used=%d", step, sh.n, sh.used, n, used)
		}
	}
	s.Put(a, []byte("a"))
	s.Put(b, []byte("b1"))
	check("a and b stored", 2, 2)
	if slotOf(1).key() != b {
		t.Fatal("b is not in the slot after its home")
	}
	s.Delete(a)
	check("a deleted", 1, 2)
	s.Put(b, []byte("b2"))
	check("b rewritten", 1, 2)
	if slotOf(0).box.Load() != tombstone {
		t.Error("rewriting b filled a's tombstone")
	}
	if v, _, _ := s.Get(b); string(v) != "b2" {
		t.Errorf("b = %q after its rewrite, want b2", v)
	}
	s.Put(c, []byte("c"))
	check("c stored", 2, 2)
	if slotOf(0).key() != c {
		t.Error("c did not take a's tombstone")
	}
	for k, want := range map[netproto.Key]string{b: "b2", c: "c"} {
		if v, _, ok := s.Get(k); !ok || string(v) != want {
			t.Errorf("Get(%v) = %q, %v; want %q", k, v, ok, want)
		}
	}
	if _, _, ok := s.Get(a); ok {
		t.Error("deleted a is back")
	}
}

// TestTombstonesDoNotGrowTable: churn through many distinct keys with few
// live at once. Tombstones fill the table, and grow rehashes it at the same
// size instead of doubling it.
func TestTombstonesDoNotGrowTable(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		s.Put(key(i), []byte("v"))
		if i >= 8 {
			s.Delete(key(i - 8))
		}
	}
	if n := len(*s.shards[0].slots.Load()); n != initialSlots {
		t.Errorf("table has %d slots after churn over 8 live keys, want %d", n, initialSlots)
	}
	for i := 10000 - 8; i < 10000; i++ {
		if _, _, ok := s.Get(key(i)); !ok {
			t.Fatalf("key %d lost in a same-size rehash", i)
		}
	}
}

// TestGrowPresizes: after Grow(n), n fresh Puts replace no shard table, on
// an empty store and on one holding items and tombstones, and every earlier
// item stays.
func TestGrowPresizes(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, held := range []int{0, 1000} {
			for _, n := range []int{1, 100, 20000} {
				t.Run(fmt.Sprintf("shards=%d/held=%d/n=%d", shards, held, n), func(t *testing.T) {
					s := New(shards)
					for i := 0; i < held; i++ {
						s.Put(key(i), []byte(fmt.Sprintf("val-%d", i)))
						if i%3 == 0 {
							s.Delete(key(i))
						}
					}
					s.Grow(n)
					tables := make([]*[]slot, len(s.shards))
					for i := range s.shards {
						tables[i] = s.shards[i].slots.Load()
					}
					for i := held; i < held+n; i++ {
						s.Put(key(i), []byte("fresh"))
					}
					for i := range s.shards {
						sh := &s.shards[i]
						if sh.slots.Load() != tables[i] {
							t.Errorf("shard %d: a Put replaced the table Grow sized", i)
						}
						if load := float64(sh.used) / float64(len(*sh.slots.Load())); load > maxLoadFactor {
							t.Errorf("shard %d: load factor %.3f exceeds %.2f", i, load, maxLoadFactor)
						}
					}
					for i := 0; i < held; i++ {
						got, _, ok := s.Get(key(i))
						if want := i%3 != 0; ok != want || ok && string(got) != fmt.Sprintf("val-%d", i) {
							t.Fatalf("key %d: %q %v, want present=%v", i, got, ok, want)
						}
					}
					if want := held - (held+2)/3 + n; s.Len() != want {
						t.Errorf("Len = %d, want %d", s.Len(), want)
					}
				})
			}
		}
	}
}

// TestSlotReuseRace: two keys whose probe sequences start at the same slot
// of one small shard take turns in it, the writer deleting each and
// re-inserting the other, so the slot a reader is checking is handed from
// key to key. Every 16th turn the writer also inserts and deletes a fresh
// key, whose tombstones make grow rehash the table. Every value embeds its
// key's id; a reader that matched one key's words against the other key's
// box would return a foreign id. Run under -race as part of the race suite.
func TestSlotReuseRace(t *testing.T) {
	s := New(1)
	var ids []int
	fresh := 0
	for ; len(ids) < 2; fresh++ {
		if hash(key(fresh))&(initialSlots-1) == 0 {
			ids = append(ids, fresh)
		}
	}
	value := func(id int) []byte {
		v := make([]byte, 64)
		binary.LittleEndian.PutUint64(v, uint64(id))
		return v
	}
	const ops = 100000
	tables := map[*[]slot]bool{s.shards[0].slots.Load(): true}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < ops; i++ {
			from, to := ids[i%2], ids[1-i%2]
			s.Delete(key(from))
			s.Put(key(to), value(to))
			if i%16 == 0 {
				s.Put(key(fresh+i), value(fresh+i))
				s.Delete(key(fresh + i))
				tables[s.shards[0].slots.Load()] = true
			}
		}
	}()
	// One reader, reading until the writer is done: on two CPUs the two run
	// side by side throughout, which is what lands a slot's hand-over
	// inside a read.
	dst := make([]byte, 0, netproto.MaxValueSize)
	for i := 0; ; i++ {
		select {
		case <-done:
			if len(tables) < 2 {
				t.Error("grow never replaced the table; the test no longer covers a rehash")
			}
			return
		default:
		}
		id := ids[i%2]
		v, _, ok := s.GetAppend(key(id), dst[:0])
		if ok && binary.LittleEndian.Uint64(v) != uint64(id) {
			t.Fatalf("GetAppend(key %d) returned the value of key %d", id, binary.LittleEndian.Uint64(v))
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s := New(16)
	for i := 0; i < 100000; i++ {
		s.Put(key(i), make([]byte, 128))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(key(i % 100000))
	}
}

func BenchmarkPut(b *testing.B) {
	s := New(16)
	val := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put(key(i%100000), val)
	}
}

func BenchmarkGetParallel(b *testing.B) {
	s := New(16)
	for i := 0; i < 100000; i++ {
		s.Put(key(i), make([]byte, 128))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Get(key(i % 100000))
			i++
		}
	})
}
