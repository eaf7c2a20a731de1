// Package workload generates the query workloads of the NetCache evaluation
// (SOSP'17 §7.1): Zipf-distributed key popularity with parameters 0.9, 0.95
// and 0.99, uniform workloads, mixed read/write streams, and the three
// dynamic popularity-churn patterns borrowed from SwitchKV — hot-in, random
// and hot-out.
//
// The Zipf sampler uses the bounded-domain inversion approximation of Gray
// et al., "Quickly Generating Billion-Record Synthetic Databases" (SIGMOD
// 1994) — the same technique the paper cites for its client [18] — which,
// unlike math/rand's Zipf, supports skew parameters below 1.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^theta. Rank 0 is the most popular. theta == 0 degenerates to
// uniform. Not safe for concurrent use with a shared *rand.Rand.
type Zipf struct {
	n     int
	theta float64

	zetan, zeta2 float64
	alpha, eta   float64
}

// NewZipf returns a sampler over [0, n) with skew theta in [0, 1). The
// evaluation's workloads use theta of 0.9, 0.95 and 0.99.
func NewZipf(n int, theta float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf needs positive n, got %d", n)
	}
	if theta < 0 || theta >= 1 {
		return nil, fmt.Errorf("workload: zipf theta must be in [0,1), got %g", theta)
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z, nil
}

// zeta computes the generalized harmonic number H_{n,theta}.
func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// N returns the domain size.
func (z *Zipf) N() int { return z.n }

// Theta returns the skew parameter.
func (z *Zipf) Theta() float64 { return z.theta }

// SampleRank draws a rank in [0, n); rank 0 is hottest.
func (z *Zipf) SampleRank(rng *rand.Rand) int {
	if z.theta == 0 {
		return rng.Intn(z.n)
	}
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// Prob returns the exact probability mass of the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank < 0 || rank >= z.n {
		return 0
	}
	if z.theta == 0 {
		return 1 / float64(z.n)
	}
	return 1 / (math.Pow(float64(rank+1), z.theta) * z.zetan)
}

// Popularity maps popularity ranks to key IDs and supports the three
// dynamic-workload mutations of §7.1. A fresh Popularity is the identity
// mapping: rank i is key i.
type Popularity struct {
	perm []int // rank -> key
	inv  []int // key -> rank
}

// NewPopularity returns the identity rank→key mapping over n keys.
func NewPopularity(n int) *Popularity {
	p := &Popularity{perm: make([]int, n), inv: make([]int, n)}
	for i := range p.perm {
		p.perm[i] = i
		p.inv[i] = i
	}
	return p
}

// N returns the key count.
func (p *Popularity) N() int { return len(p.perm) }

// KeyAt returns the key holding the given popularity rank.
func (p *Popularity) KeyAt(rank int) int { return p.perm[rank] }

// RankOf returns the popularity rank of a key.
func (p *Popularity) RankOf(key int) int { return p.inv[key] }

// HotIn moves the n coldest keys to the top of the popularity ranks, pushing
// every other key down — the paper's most radical change ("the system needs
// to immediately put the N keys to the cache").
func (p *Popularity) HotIn(n int) {
	if n <= 0 || n >= len(p.perm) {
		return
	}
	rotated := make([]int, 0, len(p.perm))
	rotated = append(rotated, p.perm[len(p.perm)-n:]...)
	rotated = append(rotated, p.perm[:len(p.perm)-n]...)
	p.perm = rotated
	p.rebuild()
}

// HotOut moves the n hottest keys to the bottom of the popularity ranks,
// promoting everyone else — the mildest change.
func (p *Popularity) HotOut(n int) {
	if n <= 0 || n >= len(p.perm) {
		return
	}
	rotated := make([]int, 0, len(p.perm))
	rotated = append(rotated, p.perm[n:]...)
	rotated = append(rotated, p.perm[:n]...)
	p.perm = rotated
	p.rebuild()
}

// RandomReplace picks n distinct ranks uniformly from the top m and swaps
// each with a random rank in [m, N) — the moderate change: n hot keys leave
// the hot set, n cold keys enter it.
func (p *Popularity) RandomReplace(rng *rand.Rand, n, m int) {
	if m > len(p.perm) {
		m = len(p.perm)
	}
	if n > m {
		n = m
	}
	if len(p.perm)-m <= 0 || n <= 0 {
		return
	}
	hot := rng.Perm(m)[:n]
	for _, hr := range hot {
		cr := m + rng.Intn(len(p.perm)-m)
		p.perm[hr], p.perm[cr] = p.perm[cr], p.perm[hr]
	}
	p.rebuild()
}

func (p *Popularity) rebuild() {
	for rank, key := range p.perm {
		p.inv[key] = rank
	}
}
