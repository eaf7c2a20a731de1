package rng

import (
	"sync/atomic"
	"testing"
)

// The first outputs for seed 42, as produced by the four hand-copied
// splitmix64 steps this package replaced (chaos, sketch, simnet, client).
// Every chaos seed, golden timeline and fault schedule in the repo depends
// on this stream staying bit-identical.
var seed42 = []uint64{
	0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394,
}

func TestStreamPinned(t *testing.T) {
	s := uint64(42)
	var a atomic.Uint64
	a.Store(42)
	for i, want := range seed42 {
		if got := Next(&s); got != want {
			t.Errorf("Next #%d = %#x, want %#x", i, got, want)
		}
		if got := NextAtomic(&a); got != want {
			t.Errorf("NextAtomic #%d = %#x, want %#x", i, got, want)
		}
	}
	if got := Mix(42 + Seeds[0]); got != seed42[0] {
		t.Errorf("Mix(seed+gamma) = %#x, want %#x", got, seed42[0])
	}
}

// The seed table is the former sketch.rowSeeds; its first four entries were
// duplicated as switchcore.cmsSeeds. Changing one silently remaps every
// sketch row.
func TestSeedsPinned(t *testing.T) {
	want := [8]uint64{
		0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5,
		0x85EBCA77C2B2AE63, 0x2545F4914F6CDD1D, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53,
	}
	if Seeds != want {
		t.Errorf("Seeds = %#x, want %#x", Seeds, want)
	}
}
