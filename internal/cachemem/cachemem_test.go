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

func small(t *testing.T) *Allocator {
	t.Helper()
	a, err := New(Config{Arrays: 8, Indexes: 16, UnitBytes: 16})
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
	p, ok := a.keyMap[key]
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
	if got := a.arrays * a.indexes * a.unit; got != 8<<20 {
		t.Errorf("paper config capacity = %d bytes, want 8 MB", got)
	}
}

func TestInsertEvictRoundTrip(t *testing.T) {
	a := small(t)
	p, err := a.Insert(key(1), 48) // 3 slots
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != 3 {
		t.Errorf("48-byte value should take 3 slots, got %d", p.Slots())
	}
	if len(a.keyMap) != 1 || a.freeSlots != 8*16-3 {
		t.Errorf("Len=%d FreeSlots=%d", len(a.keyMap), a.freeSlots)
	}
	got, ok := a.keyMap[key(1)]
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
	a := small(t)
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
	a := small(t)
	p1, _ := a.Insert(key(1), 16)
	p2, _ := a.Insert(key(2), 16)
	if p1.Index != 0 || p2.Index != 0 {
		t.Errorf("first-fit should pack bin 0: got %d, %d", p1.Index, p2.Index)
	}
	if p1.Bitmap == p2.Bitmap {
		t.Error("two items in one bin must not share slots")
	}
}

func TestCanUpdateInPlace(t *testing.T) {
	a := small(t)
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

func TestLargestFreeBin(t *testing.T) {
	a := small(t)
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
	a := small(t)
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
// same-index constraint; and while fewer items than bins are live, a value
// of up to the array count always fits, so memory never needs reorganizing.
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
		// 16 keys over 8 bins: evictions hit and the allocator refills.
		for _, o := range ops {
			if o.Insert {
				below := len(a.keyMap) < a.indexes
				if _, err := a.Insert(key(int(o.Key%16)), int(o.Size)%129); err == ErrNoSpace && below {
					return false
				}
			} else {
				a.Evict(key(int(o.Key % 16)))
			}
		}
		return checkConsistent(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkConsistent verifies free-bitmap/keyMap agreement and slot accounting.
func checkConsistent(a *Allocator) bool {
	used := make([]uint16, a.indexes)
	total := 0
	for _, p := range a.keyMap {
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

// A regression test that First Fit with bitmap flexibility sustains high
// occupancy: the occupancy at the first failed insert of random sizes.
func TestPackingEfficiency(t *testing.T) {
	a, _ := New(Config{Arrays: 8, Indexes: 256, UnitBytes: 16})
	rng := rand.New(rand.NewSource(42))
	i := 0
	for {
		if _, err := a.Insert(key(i), 16+rng.Intn(113)); err != nil {
			break
		}
		i++
	}
	if occ := occupancy(a); occ < 0.90 {
		t.Errorf("first-failure occupancy %.2f < 0.90", occ)
	}
}
