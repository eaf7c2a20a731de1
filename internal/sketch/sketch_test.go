package sketch

import (
	"encoding/binary"
	"math"
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
			seeds = rng.Seeds
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
	if got := clamped.thr; got != 1<<32 {
		t.Errorf("rate should clamp to 1 (threshold 2^32), got threshold %d", got)
	}
	clamped = NewSampler(-3, 1)
	if got := clamped.thr; got != 0 {
		t.Errorf("rate should clamp to 0, got threshold %d", got)
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

func BenchmarkSampler(b *testing.B) {
	s := NewSampler(0.25, 99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}
