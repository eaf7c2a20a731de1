package cachemem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netcache/internal/netproto"
)

func key(i int) netproto.Key {
	var k netproto.Key
	k[0] = byte(i >> 24)
	k[1] = byte(i >> 16)
	k[2] = byte(i >> 8)
	k[3] = byte(i)
	return k
}

func small(t *testing.T, pol Policy) *Allocator {
	t.Helper()
	a, err := New(Config{Arrays: 8, Indexes: 16, UnitBytes: 16, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// occupancy is the fraction of the allocator's slots in use.
func occupancy(a *Allocator) float64 {
	total := a.arrays * a.indexes
	return float64(total-a.freeSlots) / float64(total)
}

// fitsInPlace reports whether a newSize-byte value fits key's current
// placement: the §4.3 rule that a data-plane update may not grow an item.
func fitsInPlace(a *Allocator, key netproto.Key, newSize int) bool {
	p, ok := a.Lookup(key)
	return ok && newSize > 0 && a.SlotsFor(newSize) <= p.Slots()
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Arrays: 0, Indexes: 1, UnitBytes: 1},
		{Arrays: 17, Indexes: 1, UnitBytes: 1},
		{Arrays: 8, Indexes: 0, UnitBytes: 1},
		{Arrays: 8, Indexes: 1, UnitBytes: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if _, err := New(PaperConfig()); err != nil {
		t.Errorf("paper config: %v", err)
	}
}

func TestPaperConfigDimensions(t *testing.T) {
	a, _ := New(PaperConfig())
	if a.arrays*a.unit != 128 {
		t.Errorf("paper config max value = %d, want 128", a.arrays*a.unit)
	}
	if got := a.Arrays() * a.Indexes() * a.UnitBytes(); got != 8<<20 {
		t.Errorf("paper config capacity = %d bytes, want 8 MB", got)
	}
}

func TestInsertEvictRoundTrip(t *testing.T) {
	a := small(t, FirstFit)
	p, err := a.Insert(key(1), 48) // 3 slots
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != 3 {
		t.Errorf("48-byte value should take 3 slots, got %d", p.Slots())
	}
	if a.Len() != 1 || a.freeSlots != 8*16-3 {
		t.Errorf("Len=%d FreeSlots=%d", a.Len(), a.freeSlots)
	}
	got, ok := a.Lookup(key(1))
	if !ok || got != p {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if !a.Evict(key(1)) {
		t.Error("Evict should succeed")
	}
	if a.Evict(key(1)) {
		t.Error("double Evict should fail")
	}
	if a.freeSlots != 8*16 {
		t.Errorf("slots leaked: %d", a.freeSlots)
	}
}

func TestInsertErrors(t *testing.T) {
	a := small(t, FirstFit)
	if _, err := a.Insert(key(1), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(key(1), 16); err != ErrAlreadyCached {
		t.Errorf("dup insert: %v", err)
	}
	if _, err := a.Insert(key(2), 0); err != ErrEmptyValue {
		t.Errorf("zero size: %v", err)
	}
	if _, err := a.Insert(key(2), 129); err != ErrTooBig {
		t.Errorf("oversize: %v", err)
	}
	// Fill everything with full-width items, then fail.
	for i := 0; i < 15; i++ {
		if _, err := a.Insert(key(100+i), 128); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// One bin has 7 free slots (key(1) took one), so a 128-byte item fails.
	if _, err := a.Insert(key(999), 128); err != ErrNoSpace {
		t.Errorf("full: %v", err)
	}
	// But a 112-byte (7-slot) item fits in the partial bin.
	if _, err := a.Insert(key(998), 112); err != nil {
		t.Errorf("partial bin: %v", err)
	}
	if a.freeSlots != 0 {
		t.Errorf("FreeSlots = %d, want 0", a.freeSlots)
	}
}

func TestFirstFitTakesEarliestBin(t *testing.T) {
	a := small(t, FirstFit)
	p1, _ := a.Insert(key(1), 16)
	p2, _ := a.Insert(key(2), 16)
	if p1.Index != 0 || p2.Index != 0 {
		t.Errorf("first-fit should pack bin 0: got %d, %d", p1.Index, p2.Index)
	}
	if p1.Bitmap == p2.Bitmap {
		t.Error("two items in one bin must not share slots")
	}
}

func TestBestFitPrefersTightBin(t *testing.T) {
	a := small(t, BestFit)
	// Leave bin 0 with 2 free slots, bin 1 untouched (8 free).
	if _, err := a.Insert(key(1), 96); err != nil { // 6 slots in bin 0
		t.Fatal(err)
	}
	p, err := a.Insert(key(2), 32) // 2 slots: best-fit should reuse bin 0
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 0 {
		t.Errorf("best-fit should choose the tight bin 0, got %d", p.Index)
	}

	b := small(t, FirstFit)
	b.Insert(key(1), 96)
	q, _ := b.Insert(key(2), 32)
	if q.Index != 0 {
		// First-fit also picks bin 0 here; the policies differ when an
		// earlier bin is loose — covered below.
		t.Errorf("first-fit bin = %d", q.Index)
	}
}

func TestPoliciesDiverge(t *testing.T) {
	// bin 0 loose (8 free), bin 1 tight (2 free): best-fit places a
	// 2-slot item in bin 1, first-fit in bin 0. Construct by filling bin
	// 0 and bin 1, then evicting all of bin 0 and part of bin 1.
	mk := func(pol Policy) *Allocator {
		a := small(t, pol)
		a.Insert(key(1), 128) // bin 0, 8 slots
		a.Insert(key(2), 96)  // bin 1, 6 slots
		a.Evict(key(1))       // bin 0 fully free
		return a
	}
	ff := mk(FirstFit)
	p, _ := ff.Insert(key(3), 32)
	if p.Index != 0 {
		t.Errorf("first-fit should take bin 0, got %d", p.Index)
	}
	bf := mk(BestFit)
	p, _ = bf.Insert(key(3), 32)
	if p.Index != 1 {
		t.Errorf("best-fit should take tight bin 1, got %d", p.Index)
	}
}

func TestCanUpdateInPlace(t *testing.T) {
	a := small(t, FirstFit)
	a.Insert(key(1), 40) // 3 slots = up to 48 bytes
	if !fitsInPlace(a, key(1), 48) {
		t.Error("48 bytes fits 3 slots")
	}
	if fitsInPlace(a, key(1), 49) {
		t.Error("49 bytes needs 4 slots; §4.3 forbids growth in place")
	}
	if fitsInPlace(a, key(2), 8) {
		t.Error("uncached key cannot update in place")
	}
	if fitsInPlace(a, key(1), 0) {
		t.Error("zero size invalid")
	}
}

func TestReorganizeRepairsFragmentation(t *testing.T) {
	a := small(t, FirstFit)
	// Fill all 16 bins with one 4-slot item each...
	for i := 0; i < 16; i++ {
		if _, err := a.Insert(key(i), 64); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// ...then 16 more 4-slot items to make every bin exactly full.
	for i := 16; i < 32; i++ {
		if _, err := a.Insert(key(i), 64); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// First-fit packed two 4-slot items per bin (keys 2i and 2i+1 share
	// bin i). Evict one item from each of 8 different bins: 32 free
	// slots, but no bin has more than 4 free.
	for i := 0; i < 8; i++ {
		a.Evict(key(2 * i))
	}
	if _, err := a.Insert(key(100), 128); err != ErrNoSpace {
		t.Fatalf("fragmented insert should fail, got %v", err)
	}
	moves := a.Reorganize()
	if len(moves) == 0 {
		t.Fatal("reorganize should move something")
	}
	// Now 8-slot items fit: 32 free slots consolidated into 4 empty bins.
	for i := 0; i < 4; i++ {
		if _, err := a.Insert(key(200+i), 128); err != nil {
			t.Fatalf("post-reorg insert %d: %v", i, err)
		}
	}
}

func TestReorganizePreservesItems(t *testing.T) {
	a := small(t, FirstFit)
	sizes := map[int]int{1: 16, 2: 128, 3: 48, 4: 80, 5: 112}
	for k, sz := range sizes {
		if _, err := a.Insert(key(k), sz); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Len()
	freeBefore := a.freeSlots
	moves := a.Reorganize()
	if a.Len() != before || a.freeSlots != freeBefore {
		t.Errorf("reorganize changed inventory: len %d→%d free %d→%d",
			before, a.Len(), freeBefore, a.freeSlots)
	}
	for k, sz := range sizes {
		p, ok := a.Lookup(key(k))
		if !ok {
			t.Fatalf("key %d lost", k)
		}
		if p.Size != sz || p.Slots() != a.SlotsFor(sz) {
			t.Errorf("key %d placement corrupted: %+v", k, p)
		}
	}
	// Every move must reference a currently-cached key with matching To.
	for _, m := range moves {
		p, ok := a.Lookup(m.Key)
		if !ok || p != m.To {
			t.Errorf("move %+v inconsistent with allocator state", m)
		}
	}
}

func TestLargestFreeBin(t *testing.T) {
	a := small(t, FirstFit)
	if _, err := a.Insert(key(100), 128); err != nil {
		t.Errorf("empty allocator refused an 8-slot value: %v", err)
	}
	a.Evict(key(100))
	for i := 0; i < 16; i++ {
		a.Insert(key(i), 112) // 7 slots per bin
	}
	if _, err := a.Insert(key(100), 32); err != ErrNoSpace {
		t.Errorf("2-slot insert with one free slot per bin: %v, want ErrNoSpace", err)
	}
	if _, err := a.Insert(key(101), 16); err != nil {
		t.Errorf("1-slot insert with one free slot per bin: %v", err)
	}
}

func TestOccupancy(t *testing.T) {
	a := small(t, FirstFit)
	if occupancy(a) != 0 {
		t.Errorf("empty occupancy = %f", occupancy(a))
	}
	a.Insert(key(1), 16*8*16/2) // impossible (too big); ignore error
	a.Insert(key(2), 64)        // 4 slots of 128
	if got := occupancy(a); got != 4.0/128 {
		t.Errorf("occupancy = %f", got)
	}
}

func TestLastNSetBits(t *testing.T) {
	cases := []struct {
		v    uint16
		n    int
		want uint16
	}{
		{0b11111111, 3, 0b111},
		{0b10101010, 2, 0b1010},
		{0b10000000, 1, 0b10000000},
		{0b0, 3, 0b0},
		{0b1111, 0, 0b0},
		{0b1100, 4, 0b1100}, // fewer set bits than n: take what exists
	}
	for _, c := range cases {
		if got := lastNSetBits(c.v, c.n); got != c.want {
			t.Errorf("lastNSetBits(%b, %d) = %b, want %b", c.v, c.n, got, c.want)
		}
	}
}

// Property: under arbitrary insert/evict churn the allocator never
// double-books a slot, never leaks, and placements always satisfy the
// same-index constraint.
func TestQuickAllocatorInvariants(t *testing.T) {
	type op struct {
		Key    uint8
		Size   uint16
		Insert bool
	}
	f := func(ops []op) bool {
		a, err := New(Config{Arrays: 8, Indexes: 8, UnitBytes: 16})
		if err != nil {
			return false
		}
		for _, o := range ops {
			if o.Insert {
				a.Insert(key(int(o.Key)), int(o.Size)%129)
			} else {
				a.Evict(key(int(o.Key)))
			}
		}
		return checkConsistent(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: reorganize after random churn preserves every placement's size
// and keeps the allocator consistent.
func TestQuickReorganizeConsistent(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := New(Config{Arrays: 8, Indexes: 8, UnitBytes: 16})
		for i := 0; i < int(nOps); i++ {
			if rng.Intn(3) > 0 {
				a.Insert(key(rng.Intn(40)), 16+rng.Intn(113))
			} else {
				a.Evict(key(rng.Intn(40)))
			}
		}
		sizes := make(map[netproto.Key]int)
		for _, k := range a.Keys() {
			p, _ := a.Lookup(k)
			sizes[k] = p.Size
		}
		a.Reorganize()
		if len(a.Keys()) != len(sizes) {
			return false
		}
		for k, sz := range sizes {
			p, ok := a.Lookup(k)
			if !ok || p.Size != sz {
				return false
			}
		}
		return checkConsistent(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkConsistent verifies free-bitmap/keyMap agreement and slot accounting.
func checkConsistent(a *Allocator) bool {
	used := make([]uint16, a.indexes)
	total := 0
	for _, k := range a.Keys() {
		p, _ := a.Lookup(k)
		if p.Index < 0 || p.Index >= a.indexes || p.Bitmap == 0 {
			return false
		}
		if used[p.Index]&p.Bitmap != 0 {
			return false // double-booked slot
		}
		used[p.Index] |= p.Bitmap
		total += p.Slots()
	}
	full := uint16(1)<<a.arrays - 1
	for i := 0; i < a.indexes; i++ {
		if used[i]&a.free[i] != 0 {
			return false // slot both used and free
		}
		if used[i]|a.free[i] != full {
			return false // slot neither used nor free (leak)
		}
	}
	return a.freeSlots == a.arrays*a.indexes-total
}

func TestIndexPool(t *testing.T) {
	p := NewIndexPool(3)
	if p.cap != 3 || len(p.used) != 0 {
		t.Fatalf("fresh pool: cap=%d inuse=%d", p.cap, len(p.used))
	}
	a, b, c := p.Alloc(), p.Alloc(), p.Alloc()
	if a != 0 || b != 1 || c != 2 {
		t.Errorf("alloc order = %d,%d,%d", a, b, c)
	}
	if p.Alloc() != -1 {
		t.Error("exhausted pool should return -1")
	}
	p.Free(b)
	if got := p.Alloc(); got != b {
		t.Errorf("freed index should be reused, got %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("double Free should panic")
		}
	}()
	p.Free(99)
}

func TestPolicyString(t *testing.T) {
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" {
		t.Error("policy names wrong")
	}
}

func BenchmarkInsertEvictChurn(b *testing.B) {
	a, _ := New(PaperConfig())
	// Pre-fill to 50% with mixed sizes.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32768; i++ {
		a.Insert(key(i), 16+rng.Intn(113))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key(i % 32768)
		a.Evict(k)
		a.Insert(k, 16+rng.Intn(113))
	}
}

func BenchmarkReorganize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, _ := New(Config{Arrays: 8, Indexes: 4096, UnitBytes: 16})
		rng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 8000; j++ {
			a.Insert(key(j), 16+rng.Intn(113))
		}
		for j := 0; j < 8000; j += 2 {
			a.Evict(key(j))
		}
		b.StartTimer()
		a.Reorganize()
	}
}

// Ablation support: measure occupancy achievable before first failure under
// each policy (used by the bench harness; kept here as a regression test
// that first-fit with bitmap flexibility sustains high occupancy).
func TestPackingEfficiency(t *testing.T) {
	for _, pol := range []Policy{FirstFit, BestFit} {
		a, _ := New(Config{Arrays: 8, Indexes: 256, UnitBytes: 16, Policy: pol})
		rng := rand.New(rand.NewSource(42))
		i := 0
		for {
			if _, err := a.Insert(key(i), 16+rng.Intn(113)); err != nil {
				break
			}
			i++
		}
		if occ := occupancy(a); occ < 0.90 {
			t.Errorf("%v: first-failure occupancy %.2f < 0.90", pol, occ)
		}
	}
}
