package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value = %d", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should be zero")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1000)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-50500) > 1 {
		t.Errorf("Mean = %f", m)
	}
	if h.Max() != 100000 {
		t.Errorf("Max = %f", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 40000 || p50 > 62000 {
		t.Errorf("p50 = %f, want ~50000", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90000 || p99 > 115000 {
		t.Errorf("p99 = %f, want ~100000", p99)
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(100, 2, 4) // spans [100, 1600)
	h.Observe(1)                 // below min → bucket 0
	h.Observe(1e12)              // above span → last bucket
	h.Observe(math.Inf(1))       // so is +Inf
	if h.Count() != 3 || h.buckets[3] != 2 {
		t.Errorf("Count = %d, last bucket %d; want 3 and 2", h.Count(), h.buckets[3])
	}
	if q := h.Quantile(0); q <= 0 {
		t.Errorf("q0 = %f", q)
	}
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping broken")
	}
}

// Observe's table-lookup bucket index is identical to the two-log formula
// log(v/min)/log(growth) over a sweep of every bucket edge, the 32 floats on
// either side of it, and a geometric sweep across the whole span.
func TestHistogramBucketIndexMatchesTwoLogFormula(t *testing.T) {
	for _, l := range []struct {
		min, growth float64
		buckets     int
	}{
		{100, 1.05, 400}, // NewLatencyHistogram
		{100, 2, 4},
		{1, 4, 8},
		{1, 1.1, 300},
		{0.5, 3, 30},
	} {
		h := NewHistogram(l.min, l.growth, l.buckets)
		want := func(v float64) int {
			if v <= l.min {
				return 0
			}
			return min(int(math.Log(v/l.min)/math.Log(l.growth)), l.buckets-1)
		}
		check := func(v float64) {
			h.Observe(v)
			got := -1
			for i, n := range h.buckets {
				if n != 0 {
					got = i
					h.buckets[i] = 0
				}
			}
			if w := want(v); got != w {
				t.Fatalf("layout %v: Observe(%v) landed in bucket %d, two-log formula says %d", l, v, got, w)
			}
		}
		edge := l.min
		for k := 0; k <= l.buckets+1; k++ {
			for _, e := range []float64{edge, l.min * math.Pow(l.growth, float64(k))} {
				for _, dir := range []float64{math.Inf(1), 0} {
					v := e
					for i := 0; i < 32; i++ {
						check(v)
						v = math.Nextafter(v, dir)
					}
				}
			}
			edge *= l.growth
		}
		const steps = 20000
		for i := 0; i <= steps; i++ {
			check(l.min * math.Pow(l.growth, float64(l.buckets+1)*float64(i)/steps))
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHistogram(0, 2, 4) },
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(1, 2, 0) },
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

// Property: quantile error is bounded by the bucket growth factor.
func TestQuickHistogramQuantileAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLatencyHistogram()
		var vals []float64
		for i := 0; i < 500; i++ {
			v := 100 + rng.Float64()*1e6
			vals = append(vals, v)
			h.Observe(v)
		}
		// Exact p50 from sorted values.
		sorted := append([]float64(nil), vals...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		exact := sorted[len(sorted)/2]
		approx := h.Quantile(0.5)
		return approx >= exact*0.9 && approx <= exact*1.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Errorf("even Gini = %f", g)
	}
	skewed := []float64{100, 0, 0, 0}
	if g := Gini(skewed); g < 0.7 {
		t.Errorf("skewed Gini = %f, want high", g)
	}
	if skewed[0] != 100 {
		t.Error("Gini reordered its argument")
	}
	if Gini([]float64{0, 0}) != 0 {
		t.Error("all-zero Gini should be 0")
	}
}

// An empty load series (no servers reported yet) has no imbalance.
func TestSeriesEmpty(t *testing.T) {
	if Gini(nil) != 0 || Gini([]float64{}) != 0 {
		t.Error("empty series Gini should be 0")
	}
}

// Regression: Quantile used to return a bucket's *upper* edge, so with a
// single observation Quantile(0.99) could exceed Max() by a full growth
// factor. A quantile must never exceed the largest observed value.
func TestQuantileNeverExceedsMax(t *testing.T) {
	// Single observation: the bucket's upper edge lies above the one value.
	h := NewLatencyHistogram()
	h.Observe(500_000)
	if q := h.Quantile(0.99); q > h.Max() {
		t.Errorf("single obs: p99 = %f > Max = %f", q, h.Max())
	}

	// Adversarial layouts: values sitting exactly on bucket edges, repeated
	// identical values, and wide spreads, across several geometries.
	layouts := []struct {
		min, growth float64
		buckets     int
	}{
		{100, 1.05, 400}, {1, 2, 30}, {10, 1.5, 50},
	}
	for _, l := range layouts {
		h := NewHistogram(l.min, l.growth, l.buckets)
		vals := []float64{
			l.min, l.min * l.growth, l.min * l.growth * l.growth,
			l.min * 0.5, // below min → bucket 0
			l.min * math.Pow(l.growth, float64(l.buckets)+3), // beyond span → last bucket
		}
		for _, v := range vals {
			h.Observe(v)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if got := h.Quantile(q); got > h.Max() {
				t.Errorf("layout %+v: Quantile(%g) = %f > Max = %f", l, q, got, h.Max())
			}
		}
	}

	// Repeated identical values: every quantile is exactly that value.
	h2 := NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h2.Observe(777)
	}
	if q := h2.Quantile(0.99); q > 777 {
		t.Errorf("identical values: p99 = %f > 777", q)
	}
}

func TestQuantileNeverExceedsMaxQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewLatencyHistogram()
		n := 0
		for _, r := range raw {
			if r == 0 {
				continue
			}
			h.Observe(float64(r))
			n++
		}
		if n == 0 {
			return true
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			if h.Quantile(q) > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: Observe used to accept v <= 0 — zeros landed in bucket 0 and
// negative values corrupted sum/Mean for every later reader.
func TestObserveRejectsNonPositive(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(1000)
	h.Observe(2000)

	for _, bad := range []float64{0, -1, -1e9, math.NaN()} {
		h.Observe(bad)
	}

	if got := h.Count(); got != 2 {
		t.Errorf("Count = %d, want 2 (non-positive values must not count)", got)
	}
	if got := h.Rejected(); got != 4 {
		t.Errorf("Rejected = %d, want 4", got)
	}
	if m := h.Mean(); m != 1500 {
		t.Errorf("Mean = %f, want 1500 (sum must not be corrupted)", m)
	}
	if q := h.Quantile(0.5); q <= 0 {
		t.Errorf("p50 = %f, want > 0 (bucket 0 must not be polluted)", q)
	}

	h.Reset()
	if h.Rejected() != 0 {
		t.Errorf("Rejected = %d after Reset, want 0", h.Rejected())
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(1, 2, 8)
	h.Observe(1)
	h.Observe(4)
	h.Observe(-1)
	c := h.Clone()
	if c.Count() != 2 || c.Mean() != 2.5 || c.Max() != 4 || c.Rejected() != 1 {
		t.Fatalf("clone = %s rejected=%d, want the original's state", desc(c), c.Rejected())
	}
	// The clone is independent: new observations on either side stay there.
	h.Observe(8)
	c.Observe(2)
	if h.Count() != 3 || c.Count() != 3 || h.Max() != 8 || c.Max() != 4 {
		t.Errorf("clone not independent: h=%s c=%s", desc(h), desc(c))
	}
}

func TestHistogramSubWindow(t *testing.T) {
	h := NewHistogram(1, 2, 16)
	h.Observe(1)
	h.Observe(1000)
	prev := h.Clone()
	// The window's observations: a tight cluster at 4.
	for i := 0; i < 100; i++ {
		h.Observe(4)
	}
	d := h.Sub(prev)
	if d.Count() != 100 {
		t.Fatalf("delta count = %d, want 100", d.Count())
	}
	if got := d.Mean(); got != 4 {
		t.Errorf("delta mean = %g, want 4 (lifetime mean would be polluted by 1 and 1000)", got)
	}
	// Interval p50 must reflect only the window, not the lifetime outlier
	// at 1000. Bucket midpoint estimation allows one growth factor of slop.
	if p50 := d.Quantile(0.5); p50 > 8 {
		t.Errorf("interval p50 = %g, want ~4 (lifetime p50 would see the outliers)", p50)
	}
	// The original is untouched.
	if h.Count() != 102 {
		t.Errorf("Sub mutated the source: count = %d, want 102", h.Count())
	}
}

func TestHistogramSubNilAndSelf(t *testing.T) {
	h := NewHistogram(1, 2, 8)
	h.Observe(2)
	if d := h.Sub(nil); d.Count() != 1 {
		t.Errorf("Sub(nil) count = %d, want full copy (1)", d.Count())
	}
	if d := h.Sub(h); d.Count() != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Errorf("Sub(self) = %s, want empty", desc(d))
	}
}

func TestHistogramSubUnderflow(t *testing.T) {
	h := NewHistogram(1, 2, 8)
	for i := 0; i < 10; i++ {
		h.Observe(4)
	}
	prev := h.Clone()
	h.Reset() // source reset mid-window: counters went backwards
	h.Observe(2)
	d := h.Sub(prev)
	if d.Count() != 1 {
		t.Fatalf("underflow delta count = %d, want 1 (clamped, not wrapped)", d.Count())
	}
	if d.Mean() < 0 || d.Mean() > 2 {
		t.Errorf("underflow delta mean = %g, want clamped into [0,2]", d.Mean())
	}
	// Fully-reset source with nothing new: the delta is empty.
	h.Reset()
	if d := h.Sub(prev); d.Count() != 0 || d.sum != 0 {
		t.Errorf("post-reset delta = count %d sum %g, want 0 0", d.Count(), d.sum)
	}
}

func TestHistogramSubMismatchedLayout(t *testing.T) {
	h := NewHistogram(1, 2, 8)
	h.Observe(2)
	h.Observe(4)
	for _, prev := range []*Histogram{
		NewHistogram(1, 4, 8),  // different growth factor
		NewHistogram(2, 2, 8),  // different min
		NewHistogram(1, 2, 16), // different bucket count
	} {
		prev.Observe(2)
		d := h.Sub(prev)
		// Incomparable buckets: the window restarts from h, nothing subtracted.
		if d.Count() != 2 {
			t.Errorf("mismatched-layout delta count = %d, want 2 (full restart)", d.Count())
		}
	}
}

func TestHistogramSubRejectedPropagation(t *testing.T) {
	h := NewHistogram(1, 2, 8)
	h.Observe(-1)
	h.Observe(-2)
	prev := h.Clone()
	if prev.Rejected() != 2 {
		t.Fatalf("clone rejected = %d, want 2", prev.Rejected())
	}
	h.Observe(-3)
	h.Observe(5)
	if d := h.Sub(prev); d.Rejected() != 1 {
		t.Errorf("delta rejected = %d, want 1 (3 lifetime - 2 in prev)", d.Rejected())
	}
	// Underflowed rejected (source Reset) clamps like the buckets do.
	h.Reset()
	if d := h.Sub(prev); d.Rejected() != 0 {
		t.Errorf("post-reset delta rejected = %d, want 0", d.Rejected())
	}
}

// desc renders a histogram's count, mean and max for failure messages.
func desc(h *Histogram) string {
	return fmt.Sprintf("n=%d mean=%g max=%g", h.Count(), h.Mean(), h.Max())
}

// A layout's lookup tables are built once and shared: after the first
// histogram of a layout, the next allocates only its struct and buckets,
// and Clone and Sub reuse the tables, so a clone buckets every value as
// its original does.
func TestHistogramLayoutShared(t *testing.T) {
	h := NewLatencyHistogram()
	if allocs := testing.AllocsPerRun(100, func() { NewLatencyHistogram() }); allocs != 2 {
		t.Errorf("NewLatencyHistogram allocates %v times once its layout exists, want 2", allocs)
	}
	h.Observe(1000)
	c, d := h.Clone(), h.Sub(nil)
	if c.lay != h.lay || d.lay != h.lay || NewLatencyHistogram().lay != h.lay {
		t.Fatal("a clone, a delta or a second histogram of the layout built its own tables")
	}
	for v := 50.0; v < 1e11; v *= 1.0137 {
		h.Reset()
		c.Reset()
		h.Observe(v)
		c.Observe(v)
		for i := range h.buckets {
			if h.buckets[i] != c.buckets[i] {
				t.Fatalf("Observe(%v): bucket %d holds %d in the histogram, %d in its clone", v, i, h.buckets[i], c.buckets[i])
			}
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewLatencyHistogram()
	var vs [1024]float64
	for i := range vs {
		vs[i] = 500 * math.Pow(1.01, float64(i%512))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vs[i&(len(vs)-1)])
	}
}
