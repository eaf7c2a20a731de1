package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netcache/internal/rng"
)

func key(i int) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(i))
}

func TestHash64Independence(t *testing.T) {
	k := []byte("some-key")
	h1 := Hash64(k, rng.Seeds[0])
	h2 := Hash64(k, rng.Seeds[1])
	if h1 == h2 {
		t.Error("different seeds should give different hashes")
	}
	if Hash64(k, rng.Seeds[0]) != h1 {
		t.Error("hash must be deterministic")
	}
}

// TestHash64x4MatchesHash64: each lane of the one-pass hash is Hash64 under
// its seed, for random keys of every length up to 40 bytes and random seeds
// as well as the sketch's own.
func TestHash64x4MatchesHash64(t *testing.T) {
	f := func(key []byte, seeds [4]uint64, own bool) bool {
		key = key[:len(key)%41]
		if own {
			seeds = [4]uint64(rng.Seeds[:4])
		}
		h := Hash64x4(key, seeds)
		for i, seed := range seeds {
			if h[i] != Hash64(key, seed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHash64Uniformity(t *testing.T) {
	// Chi-squared-ish sanity: bucket 100k hashes into 64 bins; no bin
	// should deviate more than 25% from the mean.
	const n, bins = 100000, 64
	counts := make([]int, bins)
	for i := 0; i < n; i++ {
		counts[Hash64(key(i), rng.Seeds[0])%bins]++
	}
	mean := float64(n) / bins
	for b, c := range counts {
		if math.Abs(float64(c)-mean) > 0.25*mean {
			t.Errorf("bin %d count %d deviates from mean %.0f", b, c, mean)
		}
	}
}

func TestCountMinBasics(t *testing.T) {
	cm := NewCountMin(4, 1<<16, 16)
	if cm.Rows() != 4 || cm.Width() != 1<<16 {
		t.Fatalf("dims = %d x %d", cm.Rows(), cm.Width())
	}
	// Paper config: 4 x 64K x 16 bit = 512 KB.
	if got := cm.SizeBytes(16); got != 4*65536*2 {
		t.Errorf("SizeBytes = %d", got)
	}
	k := key(1)
	for i := 1; i <= 10; i++ {
		if est := cm.Add(k); est != uint64(i) {
			t.Fatalf("Add #%d estimate = %d", i, est)
		}
	}
	if est := cm.Estimate(k); est != 10 {
		t.Errorf("Estimate = %d, want 10", est)
	}
	if est := cm.Estimate(key(2)); est != 0 {
		t.Errorf("untouched key estimate = %d, want 0", est)
	}
	cm.Reset()
	if est := cm.Estimate(k); est != 0 {
		t.Errorf("after Reset estimate = %d", est)
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(4, 1<<10, 16) // small width to force collisions
	truth := make(map[int]uint64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		k := rng.Intn(5000)
		truth[k]++
		cm.Add(key(k))
	}
	for k, want := range truth {
		if got := cm.Estimate(key(k)); got < want {
			t.Fatalf("key %d: estimate %d < true count %d", k, got, want)
		}
	}
}

func TestCountMinSaturates(t *testing.T) {
	cm := NewCountMin(2, 8, 4) // 4-bit counters saturate at 15
	k := key(3)
	for i := 0; i < 100; i++ {
		cm.Add(k)
	}
	if est := cm.Estimate(k); est != 15 {
		t.Errorf("4-bit counter should saturate at 15, got %d", est)
	}
}

func TestCountMinPanics(t *testing.T) {
	cases := []func(){
		func() { NewCountMin(0, 16, 16) },
		func() { NewCountMin(9, 16, 16) },
		func() { NewCountMin(4, 15, 16) }, // not a power of two
		func() { NewCountMin(4, 16, 0) },
		func() { NewCountMin(4, 16, 65) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBloomBasics(t *testing.T) {
	b := NewBloom(3, 1<<18)
	// Paper config: 3 x 256K x 1 bit = 96 KB.
	if got := b.SizeBytes(); got != 3*(1<<18)/8 {
		t.Errorf("SizeBytes = %d", got)
	}
	k := key(9)
	if b.Contains(k) {
		t.Error("empty filter should not contain anything")
	}
	if !b.AddIfAbsent(k) {
		t.Error("first add should report new")
	}
	if b.AddIfAbsent(k) {
		t.Error("second add should report duplicate")
	}
	if !b.Contains(k) {
		t.Error("added key must be contained")
	}
	b.Reset()
	if b.Contains(k) {
		t.Error("Reset should clear")
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(3, 1<<12)
	for i := 0; i < 2000; i++ {
		b.AddIfAbsent(key(i))
	}
	for i := 0; i < 2000; i++ {
		if !b.Contains(key(i)) {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	// Paper-sized filter with a cycle's worth of hot keys should have a
	// tiny false-positive rate.
	b := NewBloom(3, 1<<18)
	for i := 0; i < 10000; i++ {
		b.AddIfAbsent(key(i))
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if b.Contains(key(1_000_000 + i)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.001 {
		t.Errorf("false positive rate %.4f too high for paper-sized filter", rate)
	}
}

func TestBloomPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewBloom(0, 16) },
		func() { NewBloom(9, 16) },
		func() { NewBloom(3, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSamplerRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		s := NewSampler(rate, 42)
		hits := 0
		const n = 200000
		for i := 0; i < n; i++ {
			if s.Sample() {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-rate) > 0.01 {
			t.Errorf("rate %.2f: observed %.4f", rate, got)
		}
	}
}

func TestSamplerExtremes(t *testing.T) {
	always := NewSampler(1.0, 1)
	for i := 0; i < 1000; i++ {
		if !always.Sample() {
			t.Fatal("rate 1.0 must always sample")
		}
	}
	never := NewSampler(0.0, 1)
	miss := 0
	for i := 0; i < 100000; i++ {
		if never.Sample() {
			miss++
		}
	}
	// threshold 0 still admits r==0, about 1 in 2^32.
	if miss > 1 {
		t.Errorf("rate 0.0 sampled %d times", miss)
	}
	clamped := NewSampler(7, 1)
	if clamped.Rate() != 1 {
		t.Errorf("rate should clamp to 1, got %f", clamped.Rate())
	}
	clamped.SetRate(-3)
	if clamped.Rate() != 0 {
		t.Errorf("rate should clamp to 0, got %f", clamped.Rate())
	}
}

func TestSamplerZeroSeed(t *testing.T) {
	s := NewSampler(0.5, 0)
	// Must not degenerate: expect a mix of outcomes.
	a, b := 0, 0
	for i := 0; i < 1000; i++ {
		if s.Sample() {
			a++
		} else {
			b++
		}
	}
	if a == 0 || b == 0 {
		t.Errorf("zero-seed sampler degenerate: %d/%d", a, b)
	}
}

// Property: CMS estimate is always >= true count (one-sided error), for any
// insertion multiset.
func TestQuickCountMinOneSided(t *testing.T) {
	f := func(keys []uint16) bool {
		cm := NewCountMin(3, 1<<8, 32)
		truth := make(map[uint16]uint64)
		for _, k := range keys {
			truth[k]++
			cm.Add(key(int(k)))
		}
		for k, want := range truth {
			if cm.Estimate(key(int(k))) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bloom filter has no false negatives for any insertion set, and
// AddIfAbsent returns true at most once per distinct key.
func TestQuickBloomProperties(t *testing.T) {
	f := func(keys []uint16) bool {
		b := NewBloom(3, 1<<10)
		seen := make(map[uint16]bool)
		for _, k := range keys {
			fresh := b.AddIfAbsent(key(int(k)))
			if seen[k] && fresh {
				return false // duplicate reported as new
			}
			seen[k] = true
		}
		for k := range seen {
			if !b.Contains(key(int(k))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm := NewCountMin(4, 1<<16, 16)
	k := key(123)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cm.Add(k)
	}
}

func BenchmarkBloomAddIfAbsent(b *testing.B) {
	bl := NewBloom(3, 1<<18)
	k := key(123)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl.AddIfAbsent(k)
	}
}

func BenchmarkSampler(b *testing.B) {
	s := NewSampler(0.25, 99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}
