// Package rng is the repo's one splitmix64: the seeded, math/rand-free
// generator behind every reproducible random decision (chaos scenarios,
// simnet fault draws, the statistics sampler, client backoff jitter), plus
// the table of well-spread 64-bit constants the switch's sketch and
// netproto.HashKey hash with.
// Streams are stable across Go versions, so a seed printed by a failing
// run replays the same decisions.
package rng

import "sync/atomic"

// Seeds are well-spread odd 64-bit constants: the switch's four Count-Min
// rows hash with them, netproto.HashKey with the first two. Seeds[0] is the
// golden-ratio increment every splitmix64 stream here advances by.
var Seeds = [4]uint64{gamma, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5}

const gamma = 0x9E3779B97F4A7C15

// Mix is the splitmix64 output function: a bijective scramble of x.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Next advances the stream whose state is *s and returns its next output.
func Next(s *uint64) uint64 {
	*s += gamma
	return Mix(*s)
}

// NextAtomic is Next over a counter shared between goroutines: one
// fetch-and-add, no lock, each caller drawing a distinct output.
func NextAtomic(s *atomic.Uint64) uint64 { return Mix(s.Add(gamma)) }
