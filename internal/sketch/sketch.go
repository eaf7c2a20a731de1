// Package sketch holds the hashing and sampling primitives of NetCache's
// query-statistics engine (SOSP'17 §4.4.3, Fig. 7): the seeded hash that
// indexes the Count-Min rows and Bloom partitions, and the sampling
// front-end that acts as a high-pass filter so 16-bit counters do not
// overflow.
//
// The sketch and the filter themselves are register arrays of the switch
// data plane (package switchcore); kvstore and the facade use Hash64 for
// their own bucket and key hashing.
package sketch

import (
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

// Sampler is the statistics front-end: it admits each query independently
// with a configurable probability, acting as a high-pass filter so that
// infrequent keys rarely reach the Count-Min sketch and 16-bit counters
// suffice (§4.4.3). The rate is fixed when the sampler is made.
//
// The implementation is a splitmix64 output function over an atomically
// advanced counter, compared against a 32-bit threshold — the same
// constant-time decision a hardware RNG makes, with no lock and no shared
// cache line mutated beyond one fetch-and-add, so concurrent packets never
// contend. Called from a single goroutine the sequence is a pure function of
// the seed and the call count, keeping deterministic tests deterministic.
type Sampler struct {
	ctr atomic.Uint64 // splitmix64 counter stream, advanced per call
	thr uint64        // admit when the 32-bit draw < thr; in [0, 1<<32]
}

// NewSampler returns a sampler admitting queries with the given probability,
// clamped to [0,1]. seed must be nonzero for a well-mixed sequence; 0 is
// replaced.
func NewSampler(rate float64, seed uint64) *Sampler {
	if seed == 0 {
		seed = 0x853C49E6748FEA9B
	}
	rate = min(max(rate, 0), 1)
	s := &Sampler{thr: uint64(rate * float64(uint64(1)<<32))}
	s.ctr.Store(seed)
	return s
}

// Sample reports whether this query is admitted to the statistics engine.
func (s *Sampler) Sample() bool {
	return rng.NextAtomic(&s.ctr)>>32 < s.thr
}
