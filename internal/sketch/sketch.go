// Package sketch implements the probabilistic data structures behind
// NetCache's query-statistics engine (SOSP'17 §4.4.3, Fig. 7): a Count-Min
// sketch that estimates the frequency of uncached keys, a Bloom filter that
// suppresses duplicate hot-key reports, and the sampling front-end that acts
// as a high-pass filter so 16-bit counters do not overflow.
//
// The same row-update math is executed inside the switch data plane (package
// switchcore) against per-stage register arrays; the standalone types here
// back the controller's bookkeeping, the simulations, and the ablation
// benchmarks, and serve as the reference implementation for property tests.
package sketch

import (
	"math"
	"sync/atomic"

	"netcache/internal/rng"
)

// Hash64 mixes key bytes with a seed into a 64-bit value. Rows of the
// Count-Min sketch and probes of the Bloom filter use distinct seeds, which
// models the independent hardware hash functions of the Tofino ASIC
// ("random XORing of bits of the key field", §6).
func Hash64(key []byte, seed uint64) uint64 {
	h := seed ^ fnvOffset
	for _, c := range key {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return fmix(h)
}

// Hash64x4 is Hash64 of key under each of four seeds, computed in one pass:
// the four lanes' multiply chains are interleaved so they overlap in the
// CPU instead of running one after another. Lane i equals
// Hash64(key, seeds[i]) bit for bit.
func Hash64x4(key []byte, seeds [4]uint64) [4]uint64 {
	h0, h1, h2, h3 := seeds[0]^fnvOffset, seeds[1]^fnvOffset, seeds[2]^fnvOffset, seeds[3]^fnvOffset
	for _, c := range key {
		x := uint64(c)
		h0 = (h0 ^ x) * fnvPrime
		h1 = (h1 ^ x) * fnvPrime
		h2 = (h2 ^ x) * fnvPrime
		h3 = (h3 ^ x) * fnvPrime
	}
	return [4]uint64{fmix(h0), fmix(h1), fmix(h2), fmix(h3)}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fmix is the murmur3 finalizer that spreads FNV's weak high bits.
func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// CountMin is a Count-Min sketch with saturating counters. The paper's
// configuration is 4 rows of 64K 16-bit slots (§6); NewCountMin defaults the
// counter width to 16 bits to match.
type CountMin struct {
	rows  int
	width int
	max   uint64 // saturation ceiling per counter
	data  []uint64
}

// NewCountMin returns a rows×width sketch with counterBits-wide saturating
// counters. rows must be 1..8 and width a power of two.
func NewCountMin(rows, width, counterBits int) *CountMin {
	if rows < 1 || rows > len(rng.Seeds) {
		panic("sketch: CountMin rows must be 1..8")
	}
	if width <= 0 || width&(width-1) != 0 {
		panic("sketch: CountMin width must be a power of two")
	}
	if counterBits < 1 || counterBits > 64 {
		panic("sketch: CountMin counter width must be 1..64 bits")
	}
	maxVal := ^uint64(0)
	if counterBits < 64 {
		maxVal = uint64(1)<<counterBits - 1
	}
	return &CountMin{rows: rows, width: width, max: maxVal, data: make([]uint64, rows*width)}
}

// Rows returns the number of hash rows.
func (c *CountMin) Rows() int { return c.rows }

// Width returns the number of slots per row.
func (c *CountMin) Width() int { return c.width }

// SizeBytes returns the memory footprint charged for resource accounting,
// assuming counters are stored at their logical width.
func (c *CountMin) SizeBytes(counterBits int) int {
	return c.rows * c.width * counterBits / 8
}

// Index returns the slot index of key in the given row.
func (c *CountMin) Index(key []byte, row int) int {
	return int(Hash64(key, rng.Seeds[row]) & uint64(c.width-1))
}

// Add increments the key's counter in every row (saturating) and returns the
// new estimate: the minimum across rows, the classic Count-Min read.
func (c *CountMin) Add(key []byte) uint64 {
	est := ^uint64(0)
	for r := 0; r < c.rows; r++ {
		slot := &c.data[r*c.width+c.Index(key, r)]
		if *slot < c.max {
			*slot++
		}
		if *slot < est {
			est = *slot
		}
	}
	return est
}

// Estimate returns the current estimate for key without modifying state.
func (c *CountMin) Estimate(key []byte) uint64 {
	est := ^uint64(0)
	for r := 0; r < c.rows; r++ {
		v := c.data[r*c.width+c.Index(key, r)]
		if v < est {
			est = v
		}
	}
	return est
}

// Reset zeroes all counters; the controller does this on every statistics
// refresh cycle (every second in the paper's experiments).
func (c *CountMin) Reset() {
	for i := range c.data {
		c.data[i] = 0
	}
}

// Bloom is a Bloom filter. The paper's configuration is 3 arrays of 256K
// 1-bit slots (§6), i.e. k=3 probes over m=3*256K bits arranged as one bit
// array per probe (a partitioned Bloom filter, which is what per-stage
// register arrays force).
type Bloom struct {
	probes int
	width  int // bits per partition, power of two
	bits   []uint64
}

// NewBloom returns a partitioned Bloom filter with the given number of
// probes (1..8) and bits per partition (power of two).
func NewBloom(probes, width int) *Bloom {
	if probes < 1 || probes > len(rng.Seeds) {
		panic("sketch: Bloom probes must be 1..8")
	}
	if width <= 0 || width&(width-1) != 0 {
		panic("sketch: Bloom width must be a power of two")
	}
	return &Bloom{probes: probes, width: width, bits: make([]uint64, (probes*width+63)/64)}
}

// Width returns bits per partition.
func (b *Bloom) Width() int { return b.width }

// SizeBytes returns the filter's memory footprint.
func (b *Bloom) SizeBytes() int { return b.probes * b.width / 8 }

// Index returns the bit index of key within partition p (relative to the
// partition).
func (b *Bloom) Index(key []byte, p int) int {
	// Invert the hash relative to CountMin rows so the two structures are
	// independent even for identical seeds.
	return int(Hash64(key, ^rng.Seeds[p]) & uint64(b.width-1))
}

func (b *Bloom) bit(p, idx int) (word int, mask uint64) {
	pos := p*b.width + idx
	return pos / 64, uint64(1) << (pos % 64)
}

// Contains reports whether key may have been added (false positives
// possible, false negatives not).
func (b *Bloom) Contains(key []byte) bool {
	for p := 0; p < b.probes; p++ {
		w, m := b.bit(p, b.Index(key, p))
		if b.bits[w]&m == 0 {
			return false
		}
	}
	return true
}

// AddIfAbsent inserts key and reports whether it was (possibly) new: true
// means at least one probe bit was previously clear, so the key had not been
// reported before. This is the exact data-plane sequence NetCache uses to
// report each hot key to the controller only once per cycle.
func (b *Bloom) AddIfAbsent(key []byte) bool {
	wasNew := false
	for p := 0; p < b.probes; p++ {
		w, m := b.bit(p, b.Index(key, p))
		if b.bits[w]&m == 0 {
			wasNew = true
			b.bits[w] |= m
		}
	}
	return wasNew
}

// Reset clears the filter.
func (b *Bloom) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
}

// Sampler is the statistics front-end: it admits each query independently
// with a configurable probability, acting as a high-pass filter so that
// infrequent keys rarely reach the Count-Min sketch and 16-bit counters
// suffice (§4.4.3). The controller tunes the rate at runtime.
//
// The implementation is a splitmix64 output function over an atomically
// advanced counter, compared against a 32-bit threshold — the same
// constant-time decision a hardware RNG makes, with no lock and no shared
// cache line mutated beyond one fetch-and-add, so concurrent packets never
// contend. Called from a single goroutine the sequence is a pure function of
// the seed and the call count, keeping deterministic tests deterministic.
type Sampler struct {
	ctr  atomic.Uint64 // splitmix64 counter stream, advanced per call
	thr  atomic.Uint64 // admit when the 32-bit draw < thr; in [0, 1<<32]
	rate atomic.Uint64 // Float64bits of the configured rate
}

// NewSampler returns a sampler admitting queries with the given probability
// in [0,1]. seed must be nonzero for a well-mixed sequence; 0 is replaced.
func NewSampler(rate float64, seed uint64) *Sampler {
	s := &Sampler{}
	if seed == 0 {
		seed = 0x853C49E6748FEA9B
	}
	s.ctr.Store(seed)
	s.SetRate(rate)
	return s
}

// SetRate updates the sampling probability (clamped to [0,1]). Safe to call
// while Sample runs concurrently.
func (s *Sampler) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s.rate.Store(math.Float64bits(rate))
	s.thr.Store(uint64(rate * float64(uint64(1)<<32)))
}

// Rate returns the configured sampling probability.
func (s *Sampler) Rate() float64 { return math.Float64frombits(s.rate.Load()) }

// Sample reports whether this query is admitted to the statistics engine.
func (s *Sampler) Sample() bool {
	return rng.NextAtomic(&s.ctr)>>32 < s.thr.Load()
}
