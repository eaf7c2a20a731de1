package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.9); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewZipf(10, -0.1); err == nil {
		t.Error("negative theta should fail")
	}
	if _, err := NewZipf(10, 1.0); err == nil {
		t.Error("theta=1 should fail")
	}
	z, err := NewZipf(1000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if z.N() != 1000 || z.Theta() != 0.99 {
		t.Errorf("accessors: %d %g", z.N(), z.Theta())
	}
}

// massTop is the probability mass of ranks [0, k): the hit ratio of a cache
// holding the k hottest items.
func massTop(z *Zipf, k int) float64 {
	sum := 0.0
	for rank := 0; rank < k; rank++ {
		sum += z.Prob(rank)
	}
	return sum
}

func TestZipfPMFSumsToOne(t *testing.T) {
	for _, theta := range []float64{0, 0.9, 0.95, 0.99} {
		z, _ := NewZipf(5000, theta)
		sum := 0.0
		for i := 0; i < 5000; i++ {
			sum += z.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("theta %.2f: pmf sums to %.12f", theta, sum)
		}
	}
}

func TestZipfProbMonotone(t *testing.T) {
	z, _ := NewZipf(1000, 0.95)
	for i := 1; i < 1000; i++ {
		if z.Prob(i) > z.Prob(i-1) {
			t.Fatalf("pmf not monotone at rank %d", i)
		}
	}
	if z.Prob(-1) != 0 || z.Prob(1000) != 0 {
		t.Error("out-of-range prob should be 0")
	}
}

func TestZipfSampleMatchesPMF(t *testing.T) {
	// Draw 500k samples from Zipf(10000, 0.99) and compare the empirical
	// frequency of the top ranks to the analytic pmf.
	z, _ := NewZipf(10000, 0.99)
	rng := rand.New(rand.NewSource(1))
	const n = 500000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		r := z.SampleRank(rng)
		if r < 0 || r >= 10000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	for _, rank := range []int{0, 1, 10, 100} {
		want := z.Prob(rank)
		got := float64(counts[rank]) / n
		if math.Abs(got-want) > 0.15*want+0.0005 {
			t.Errorf("rank %d: empirical %.5f vs pmf %.5f", rank, got, want)
		}
	}
}

func TestZipfSkewFacebookProperty(t *testing.T) {
	// The paper motivates skew with "10% of items account for 60-90% of
	// queries" (Facebook Memcached); Zipf 0.99 should exhibit that.
	z, _ := NewZipf(100000, 0.99)
	top10pct := massTop(z, 10000)
	if top10pct < 0.6 || top10pct > 0.95 {
		t.Errorf("Zipf 0.99 top-10%% mass = %.2f, expected 0.6-0.95", top10pct)
	}
	// And more skew means more mass at the top.
	z90, _ := NewZipf(100000, 0.90)
	if massTop(z90, 100) >= massTop(z, 100) {
		t.Error("higher theta should concentrate more mass in top ranks")
	}
}

func TestZipfUniformDegenerate(t *testing.T) {
	z, _ := NewZipf(100, 0)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.SampleRank(rng)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("uniform rank %d count %d", i, c)
		}
	}
}

func TestPopularityIdentity(t *testing.T) {
	p := NewPopularity(10)
	for i := 0; i < 10; i++ {
		if p.KeyAt(i) != i || p.RankOf(i) != i {
			t.Fatalf("identity broken at %d", i)
		}
	}
}

func TestHotIn(t *testing.T) {
	p := NewPopularity(10)
	p.HotIn(3)
	// Coldest keys 7,8,9 now hold ranks 0,1,2.
	if p.KeyAt(0) != 7 || p.KeyAt(1) != 8 || p.KeyAt(2) != 9 {
		t.Errorf("top ranks = %d,%d,%d", p.KeyAt(0), p.KeyAt(1), p.KeyAt(2))
	}
	if p.KeyAt(3) != 0 {
		t.Errorf("old hottest should be rank 3, got key %d", p.KeyAt(3))
	}
	if p.RankOf(9) != 2 {
		t.Errorf("RankOf(9) = %d", p.RankOf(9))
	}
}

func TestHotOut(t *testing.T) {
	p := NewPopularity(10)
	p.HotOut(2)
	if p.KeyAt(0) != 2 {
		t.Errorf("rank 0 = key %d, want 2", p.KeyAt(0))
	}
	if p.KeyAt(8) != 0 || p.KeyAt(9) != 1 {
		t.Errorf("old hottest should be at the bottom: %d,%d", p.KeyAt(8), p.KeyAt(9))
	}
}

func TestRandomReplace(t *testing.T) {
	p := NewPopularity(100)
	rng := rand.New(rand.NewSource(5))
	p.RandomReplace(rng, 10, 20)
	// Exactly 10 of the original top-20 keys must have left the top 20.
	left := 0
	for key := 0; key < 20; key++ {
		if p.RankOf(key) >= 20 {
			left++
		}
	}
	if left != 10 {
		t.Errorf("%d hot keys left the top-20, want 10", left)
	}
}

func TestChurnEdgeCases(t *testing.T) {
	p := NewPopularity(5)
	p.HotIn(0)
	p.HotIn(5)
	p.HotOut(0)
	p.HotOut(7)
	rng := rand.New(rand.NewSource(1))
	p.RandomReplace(rng, 10, 5) // n > m clamps; no cold keys → no-op
	for i := 0; i < 5; i++ {
		if p.KeyAt(i) != i {
			t.Errorf("edge-case churn should be no-op, rank %d = %d", i, p.KeyAt(i))
		}
	}
}

// Property: any churn sequence leaves the mapping a permutation with a
// consistent inverse.
func TestQuickPopularityPermutation(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		const n = 64
		p := NewPopularity(n)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			amount := int(op%16) + 1
			switch op % 3 {
			case 0:
				p.HotIn(amount)
			case 1:
				p.HotOut(amount)
			case 2:
				p.RandomReplace(rng, amount, 32)
			}
		}
		seen := make([]bool, n)
		for rank := 0; rank < n; rank++ {
			k := p.KeyAt(rank)
			if k < 0 || k >= n || seen[k] {
				return false
			}
			seen[k] = true
			if p.RankOf(k) != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{}); err == nil {
		t.Error("missing read dist should fail")
	}
	if _, err := NewGenerator(GeneratorConfig{Reads: UniformDist{10}, WriteRatio: 1.5}); err == nil {
		t.Error("ratio > 1 should fail")
	}
	if _, err := NewGenerator(GeneratorConfig{Reads: UniformDist{10}, WriteRatio: 0.5}); err == nil {
		t.Error("writes without write dist should fail")
	}
}

func TestGeneratorWriteRatio(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Reads:      UniformDist{100},
		Writes:     UniformDist{100},
		WriteRatio: 0.3,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	if got := float64(writes) / n; math.Abs(got-0.3) > 0.01 {
		t.Errorf("write ratio %.3f", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	mk := func() *Generator {
		z, _ := NewZipf(1000, 0.99)
		pop := NewPopularity(1000)
		g, _ := NewGenerator(GeneratorConfig{
			Reads: ZipfDist{z, pop}, Seed: 42,
		})
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestZipfDistFollowsPopularity(t *testing.T) {
	z, _ := NewZipf(100, 0.99)
	pop := NewPopularity(100)
	d := ZipfDist{z, pop}
	pop.HotIn(1) // key 99 becomes hottest
	rng := rand.New(rand.NewSource(3))
	counts := make(map[int]int)
	for i := 0; i < 50000; i++ {
		counts[d.Sample(rng)]++
	}
	// Key 99 must now be drawn most often.
	best, bestKey := 0, -1
	for k, c := range counts {
		if c > best {
			best, bestKey = c, k
		}
	}
	if bestKey != 99 {
		t.Errorf("hottest sampled key = %d, want 99", bestKey)
	}
	if got := d.Prob(99); math.Abs(got-z.Prob(0)) > 1e-12 {
		t.Errorf("Prob(99) = %g, want pmf of rank 0 = %g", got, z.Prob(0))
	}
}

func TestUniformDistProb(t *testing.T) {
	d := UniformDist{50}
	if d.Prob(0) != 0.02 || d.Prob(49) != 0.02 {
		t.Error("uniform prob wrong")
	}
	if d.Prob(-1) != 0 || d.Prob(50) != 0 {
		t.Error("out of range prob should be 0")
	}
}

func TestKeyNameRoundTrip(t *testing.T) {
	for _, id := range []int{0, 1, 12345, 1 << 30} {
		if got := KeyID(KeyName(id)); got != id {
			t.Errorf("KeyID(KeyName(%d)) = %d", id, got)
		}
	}
	// Distinct IDs must give distinct keys.
	if KeyName(1) == KeyName(2) {
		t.Error("key collision")
	}
}

func TestValueForCheckValue(t *testing.T) {
	v := ValueFor(7, 128)
	if len(v) != 128 {
		t.Fatalf("len = %d", len(v))
	}
	if !CheckValue(7, v) {
		t.Error("canonical value should verify")
	}
	v[3] ^= 0xFF
	if CheckValue(7, v) {
		t.Error("corrupted value should fail")
	}
	if CheckValue(8, ValueFor(7, 64)) {
		t.Error("wrong id should fail")
	}
	if CheckValue(7, nil) {
		t.Error("empty value should fail")
	}
}

// valueForBytes is ValueFor's definition, byte by byte: the reference
// AppendValue's word loop must match.
func valueForBytes(id, size int) []byte {
	v := make([]byte, size)
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(id)*0x9E3779B97F4A7C15+1)
	for i := range v {
		v[i] = seed[i%8] ^ byte(i)
	}
	return v
}

// TestAppendValueMatchesDefinition covers sizes past 256, where byte(i)
// wraps: a word formula that carried i past 0xFF would differ there.
func TestAppendValueMatchesDefinition(t *testing.T) {
	prefix := []byte("prefix")
	for _, id := range []int{0, 1, 7, 99999, 1 << 40} {
		for size := 0; size <= 300; size++ {
			want := valueForBytes(id, size)
			if got := ValueFor(id, size); !bytes.Equal(got, want) {
				t.Fatalf("ValueFor(%d, %d) = %x, want %x", id, size, got, want)
			}
			got := AppendValue(slices.Clone(prefix), id, size)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("AppendValue(prefix, %d, %d) = %x, want prefix then %x", id, size, got, want)
			}
		}
	}
}

func TestAllocsAppendValue(t *testing.T) {
	buf := make([]byte, 0, 300)
	if n := testing.AllocsPerRun(100, func() { buf = AppendValue(buf[:0], 12345, 300) }); n != 0 {
		t.Errorf("AppendValue into a buffer with room: %v allocs, want 0", n)
	}
}

func TestChurnString(t *testing.T) {
	names := map[Churn]string{
		ChurnNone: "none", ChurnHotIn: "hot-in",
		ChurnRandom: "random", ChurnHotOut: "hot-out",
		Churn(9): "Churn(9)",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d: %q", c, c.String())
		}
	}
}

func TestChurnApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := NewPopularity(20)
	ChurnNone.Apply(pop, rng, 5, 10)
	for i := 0; i < 20; i++ {
		if pop.KeyAt(i) != i {
			t.Fatal("ChurnNone must not mutate")
		}
	}
	ChurnHotIn.Apply(pop, rng, 5, 10)
	if pop.KeyAt(0) != 15 {
		t.Errorf("hot-in top key = %d", pop.KeyAt(0))
	}
}

// The load-imbalance premise of the whole paper: under Zipf skew, the
// hottest partition of a hash-partitioned cluster receives far more than
// 1/N of the load. Validates our analytic machinery before the harness
// builds on it.
func TestSkewCausesImbalance(t *testing.T) {
	const keys, partitions = 100000, 128
	z, _ := NewZipf(keys, 0.99)
	load := make([]float64, partitions)
	for rank := 0; rank < keys; rank++ {
		load[rank%partitions] += z.Prob(rank) // round-robin hash stand-in
	}
	sort.Float64s(load)
	maxLoad := load[partitions-1]
	if maxLoad < 4.0/partitions {
		t.Errorf("max partition load %.4f should be >4x fair share %.4f",
			maxLoad, 1.0/partitions)
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z, _ := NewZipf(1_000_000, 0.99)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.SampleRank(rng)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	z, _ := NewZipf(1_000_000, 0.99)
	pop := NewPopularity(1_000_000)
	g, _ := NewGenerator(GeneratorConfig{
		Reads: ZipfDist{z, pop}, Writes: UniformDist{1_000_000}, WriteRatio: 0.05,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkHotIn(b *testing.B) {
	pop := NewPopularity(1_000_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pop.HotIn(200)
	}
}
