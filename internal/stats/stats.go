// Package stats provides the light measurement utilities the NetCache
// harness and examples use: monotonic counters, windowed rate meters, and a
// fixed-bucket log-scale histogram for latency percentiles (the paper
// reports average and tail latency in microseconds, §7.3).
package stats

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter, safe for concurrent
// use. The zero value is ready.
type Counter struct{ n atomic.Uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram is a log-bucketed histogram of positive values (e.g. latency in
// nanoseconds). Buckets grow by a fixed ratio, giving ~2% relative error
// with the default layout. Safe for concurrent use. The zero value is not
// ready; construct with NewHistogram.
type Histogram struct {
	// rejected counts Observe calls dropped because the value was not a
	// positive number (NaN included). Outside the mutex: rejection must not pay
	// for a lock, and the counter is already atomic.
	rejected Counter

	// lay is the bucket layout with its lookup tables, shared by every
	// histogram of the same layout.
	lay *layout

	mu      sync.Mutex
	buckets []uint64
	count   uint64
	sum     float64
	maxSeen float64
}

// layout is one bucket layout and the tables that find a value's bucket
// without a logarithm. Bucket i > 0 holds v when int(log(v/min)/log(growth))
// is i, the last bucket everything above. A layout is built once, by
// bisection against that formula, so every value lands in the bucket the
// formula gives; it is never written again.
type layout struct {
	layoutKey
	// edges[i], 0 < i < buckets, is the least value the formula puts in
	// bucket i or above: +Inf when no finite value gets there, and at
	// edges[buckets] always.
	edges []float64
	// cells maps a value above min, by its exponent and top mantissa bits
	// (its bits above shift, less base), to the bucket of the cell's lowest
	// value. A cell is narrower than half a bucket, so it holds at most one
	// edge and v lies in that bucket or the next. Values past the last cell
	// land in top, the bucket of the last finite edge.
	cells []int32
	shift uint
	base  uint64
	top   int
}

type layoutKey struct {
	min, growth float64
	buckets     int
}

var layouts = struct {
	sync.Mutex
	m map[layoutKey]*layout
}{m: map[layoutKey]*layout{}}

// layoutOf returns the shared layout of k, building it on first use.
func layoutOf(k layoutKey) *layout {
	layouts.Lock()
	defer layouts.Unlock()
	l := layouts.m[k]
	if l == nil {
		l = newLayout(k)
		layouts.m[k] = l
	}
	return l
}

func newLayout(k layoutKey) *layout {
	l := &layout{layoutKey: k, edges: make([]float64, k.buckets+1)}
	lg := math.Log(k.growth)
	reaches := func(bits uint64, i int) bool {
		return math.Log(math.Float64frombits(bits)/k.min)/lg >= float64(i)
	}
	// Invariant: the value with bits lo is below edge i, the one with hi is
	// not. Bisect from a bracket around min*growth^i when that holds one:
	// from the whole float range, the build takes about four times longer.
	lo, top := math.Float64bits(k.min), math.Float64bits(math.MaxFloat64)
	for i := 1; i <= k.buckets; i++ {
		if i == k.buckets || !reaches(top, i) {
			l.edges[i] = math.Inf(1)
			continue
		}
		hi := top
		const span = 1 << 12 // ulps: far wider than the formula's rounding
		if g := math.Float64bits(k.min * math.Pow(k.growth, float64(i))); g > lo+span && g+span < hi {
			if !reaches(g-span, i) {
				lo = g - span
			}
			if reaches(g+span, i) {
				hi = g + span
			}
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; reaches(mid, i) {
				hi = mid
			} else {
				lo = mid
			}
		}
		l.edges[i] = math.Float64frombits(hi)
		l.top = i
	}
	// Cells of relative width at most (growth-1)/2.
	m := 0
	for m < 52 && math.Ldexp(1, -m) > (k.growth-1)/2 {
		m++
	}
	l.shift = uint(52 - m)
	l.base = math.Float64bits(k.min) >> l.shift
	if l.top == 0 {
		return l
	}
	l.cells = make([]int32, math.Float64bits(l.edges[l.top])>>l.shift-l.base+1)
	b := 0
	for c := range l.cells {
		low := math.Float64frombits((l.base + uint64(c)) << l.shift)
		for b < l.top && l.edges[b+1] <= low {
			b++
		}
		l.cells[c] = int32(b)
	}
	return l
}

// bucket returns the index of the bucket holding v > 0.
func (l *layout) bucket(v float64) int {
	if v <= l.min {
		return 0
	}
	c := math.Float64bits(v)>>l.shift - l.base
	if c >= uint64(len(l.cells)) {
		return l.top
	}
	b := int(l.cells[c])
	if v >= l.edges[b+1] {
		b++
	}
	return b
}

// NewHistogram returns a histogram spanning [min, min*growth^buckets).
// Values below min land in bucket 0; values above the span land in the last
// bucket.
func NewHistogram(min, growth float64, buckets int) *Histogram {
	if !(min > 0) || !(growth > 1) || buckets < 1 {
		panic("stats: bad histogram layout")
	}
	return &Histogram{lay: layoutOf(layoutKey{min, growth, buckets}), buckets: make([]uint64, buckets)}
}

// NewLatencyHistogram returns a histogram suitable for 100 ns – 10 s
// latencies with ~5% resolution.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(100, 1.05, 400)
}

// Observe records one value. Non-positive values (and NaN) are dropped and
// counted in Rejected: a latency of zero or less is a measurement bug, and
// folding a negative v into sum would silently corrupt Mean for every later
// reader.
func (h *Histogram) Observe(v float64) {
	if !(v > 0) { // also catches NaN
		h.rejected.Inc()
		return
	}
	idx := h.lay.bucket(v)
	h.mu.Lock()
	h.buckets[idx]++
	h.count++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	h.mu.Unlock()
}

// Rejected returns how many Observe calls were dropped for carrying a
// non-positive (or NaN) value.
func (h *Histogram) Rejected() uint64 { return h.rejected.Value() }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observed value.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxSeen
}

// Quantile returns the approximate q-quantile (q in [0,1]); 0 when empty.
// The estimate is the geometric midpoint of the bucket holding the target
// observation, clamped to Max(): a reported quantile never exceeds the
// largest value actually observed.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum > target {
			// Geometric midpoint of bucket i, clamped to the observed max.
			return math.Min(h.lay.min*math.Pow(h.lay.growth, float64(i)+0.5), h.maxSeen)
		}
	}
	return h.maxSeen
}

// Reset clears all state.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.maxSeen = 0, 0, 0
	h.rejected.n.Store(0)
}

// Clone returns an independent snapshot copy of h (same layout, same
// contents). The copy is taken under h's lock, so it is a consistent cut;
// the clone itself is a fully functional histogram.
func (h *Histogram) Clone() *Histogram {
	h.mu.Lock()
	c := &Histogram{
		lay:     h.lay,
		buckets: append([]uint64(nil), h.buckets...),
		count:   h.count,
		sum:     h.sum,
		maxSeen: h.maxSeen,
	}
	h.mu.Unlock()
	c.rejected.Add(h.rejected.Value())
	return c
}

// Sub returns the windowed delta h − prev: a histogram holding only the
// observations recorded after prev was captured, so its quantiles are
// interval p50/p99 rather than lifetime ones. prev is normally an earlier
// Clone of the same histogram (the Monitor's use). Rejected counts
// propagate as the same delta.
//
// Robustness over precision at the edges:
//   - nil prev (or a layout mismatch from a histogram swapped between
//     windows — different min/growth/bucket count) subtracts nothing: the
//     bucket arrays are not comparable, so the window restarts from h.
//   - Underflow (prev ahead of h in any bucket, count, sum or rejected —
//     the source was Reset mid-window) clamps to zero rather than wrapping.
//
// The delta's Max() is h's lifetime max: the bucket layout does not record
// when the maximum was observed, so the window inherits the lifetime upper
// bound (quantiles still clamp to it).
func (h *Histogram) Sub(prev *Histogram) *Histogram {
	if prev == nil {
		return h.Clone()
	}
	// Snapshot both sides without holding the two locks together.
	cur := h.Clone()
	old := prev.Clone()
	if cur.lay != old.lay {
		return cur
	}
	var count uint64
	for i := range cur.buckets {
		if cur.buckets[i] >= old.buckets[i] {
			cur.buckets[i] -= old.buckets[i]
		} else {
			cur.buckets[i] = 0
		}
		count += cur.buckets[i]
	}
	// count is rebuilt from the clamped buckets so the two can never
	// disagree after an underflow.
	cur.count = count
	if cur.sum >= old.sum {
		cur.sum -= old.sum
	} else {
		cur.sum = 0
	}
	if count == 0 {
		cur.sum, cur.maxSeen = 0, 0
	}
	if d := old.rejected.Value(); d > 0 {
		if have := cur.rejected.Value(); have >= d {
			cur.rejected.n.Store(have - d)
		} else {
			cur.rejected.n.Store(0)
		}
	}
	return cur
}

// Gini returns the Gini coefficient of ys — the load-imbalance measure used
// to judge how well the cache balances per-server load (0 = perfectly even,
// →1 = concentrated). ys is not modified.
func Gini(ys []float64) float64 {
	n := len(ys)
	if n == 0 {
		return 0
	}
	ys = append([]float64(nil), ys...)
	sort.Float64s(ys)
	var cum, total float64
	for i, y := range ys {
		cum += float64(i+1) * y
		total += y
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}
