// Package cachemem implements the switch-memory management of NetCache
// (SOSP'17 §4.4.2, Algorithm 2): placing variable-length values into the
// fixed register arrays of the switch data plane.
//
// The data plane stores values in A register arrays (one per stage), each
// with S slots of unit bytes. A cached item occupies one or more slots, all
// at the *same index* across different arrays — that is the hardware
// constraint that turns placement into a bin-packing problem where bin i is
// the set of slots with index i across all arrays. The allocator hands out
// (index, bitmap) placements: the bitmap says which arrays hold the item's
// slots, and the single index locates them (Fig. 6b).
//
// Eviction frees the item's slots; insertion runs First Fit over the bins
// (Algorithm 2). Memory never needs reorganizing: the switch has at least as
// many bins as key indexes, so while a key index is free some bin is wholly
// free, and any value up to the array count fits it.
package cachemem

import (
	"fmt"
	"math/bits"

	"netcache/internal/netproto"
)

// Placement locates a cached item in the value register arrays.
type Placement struct {
	// Index is the slot index shared by all of the item's arrays.
	Index int
	// Bitmap has bit a set if array a holds one of the item's slots.
	Bitmap uint16
	// Size is the value size in bytes the placement was made for.
	Size int
}

// Slots returns the number of register slots the placement occupies.
func (p Placement) Slots() int { return bits.OnesCount16(p.Bitmap) }

// Allocator manages the slot inventory. It is not safe for concurrent use;
// the controller owns it and serializes access.
type Allocator struct {
	arrays  int
	indexes int
	unit    int

	// free[i] has bit a set if slot i of array a is free (Algorithm 2's
	// mem array, with 1 = available).
	free []uint16

	keyMap map[netproto.Key]Placement

	freeSlots int
	// firstFree is a scan hint: no bin below it has free slots.
	firstFree int
}

// Config sizes an Allocator.
type Config struct {
	// Arrays is the number of value register arrays (stages); at most 16.
	Arrays int
	// Indexes is the number of slots per array.
	Indexes int
	// UnitBytes is the slot granularity (16 in the prototype).
	UnitBytes int
}

// PaperConfig returns the prototype's dimensions: 8 stages × 64K slots ×
// 16 bytes = 8 MB, values up to 128 bytes (§6).
func PaperConfig() Config {
	return Config{Arrays: 8, Indexes: 65536, UnitBytes: 16}
}

// New returns an empty allocator.
func New(cfg Config) (*Allocator, error) {
	if cfg.Arrays < 1 || cfg.Arrays > 16 {
		return nil, fmt.Errorf("cachemem: arrays must be 1..16, got %d", cfg.Arrays)
	}
	if cfg.Indexes < 1 {
		return nil, fmt.Errorf("cachemem: indexes must be positive, got %d", cfg.Indexes)
	}
	if cfg.UnitBytes < 1 {
		return nil, fmt.Errorf("cachemem: unit bytes must be positive, got %d", cfg.UnitBytes)
	}
	a := &Allocator{
		arrays:  cfg.Arrays,
		indexes: cfg.Indexes,
		unit:    cfg.UnitBytes,
		free:    make([]uint16, cfg.Indexes),
		keyMap:  make(map[netproto.Key]Placement),
	}
	full := uint16(1)<<cfg.Arrays - 1
	for i := range a.free {
		a.free[i] = full
	}
	a.freeSlots = cfg.Arrays * cfg.Indexes
	return a, nil
}

// SlotsFor returns how many slots a value of the given size needs.
func (a *Allocator) SlotsFor(valueSize int) int {
	return (valueSize + a.unit - 1) / a.unit
}

// Errors returned by Insert.
var (
	ErrAlreadyCached = fmt.Errorf("cachemem: key already cached")
	ErrNoSpace       = fmt.Errorf("cachemem: no bin has enough free slots")
	ErrTooBig        = fmt.Errorf("cachemem: value exceeds array capacity")
	ErrEmptyValue    = fmt.Errorf("cachemem: value size must be positive")
)

// Insert places a value of valueSize bytes and returns the placement
// (Algorithm 2, Insert). It fails with ErrNoSpace when no single bin has
// enough free slots, even if the total free space would suffice; with fewer
// items than bins that cannot happen.
func (a *Allocator) Insert(key netproto.Key, valueSize int) (Placement, error) {
	if _, dup := a.keyMap[key]; dup {
		return Placement{}, ErrAlreadyCached
	}
	if valueSize <= 0 {
		return Placement{}, ErrEmptyValue
	}
	n := a.SlotsFor(valueSize)
	if n > a.arrays {
		return Placement{}, ErrTooBig
	}

	bin := -1
	for i := a.firstFree; i < a.indexes; i++ {
		if bits.OnesCount16(a.free[i]) >= n {
			bin = i
			break
		}
	}
	if bin < 0 {
		return Placement{}, ErrNoSpace
	}

	bitmap := lastNSetBits(a.free[bin], n)
	a.free[bin] &^= bitmap
	a.freeSlots -= n
	p := Placement{Index: bin, Bitmap: bitmap, Size: valueSize}
	a.keyMap[key] = p
	a.advanceHint()
	return p, nil
}

// Adopt records an externally determined placement for key, consuming its
// slots — the recovery path of a controller rebuilding its allocator from
// the entries already installed in a warm switch. It fails if the key is
// already tracked, the placement is out of range, or any of its slots is
// occupied.
func (a *Allocator) Adopt(key netproto.Key, p Placement) error {
	if _, dup := a.keyMap[key]; dup {
		return ErrAlreadyCached
	}
	if p.Index < 0 || p.Index >= a.indexes || p.Bitmap == 0 || int(p.Bitmap) >= 1<<a.arrays {
		return fmt.Errorf("cachemem: adopt placement (index %d, bitmap %#x) out of range", p.Index, p.Bitmap)
	}
	if a.free[p.Index]&p.Bitmap != p.Bitmap {
		return fmt.Errorf("cachemem: adopt placement (index %d, bitmap %#x) overlaps occupied slots", p.Index, p.Bitmap)
	}
	a.free[p.Index] &^= p.Bitmap
	a.freeSlots -= p.Slots()
	a.keyMap[key] = p
	a.advanceHint()
	return nil
}

// Evict frees the slots of key (Algorithm 2, Evict) and reports whether the
// key was cached.
func (a *Allocator) Evict(key netproto.Key) bool {
	p, ok := a.keyMap[key]
	if !ok {
		return false
	}
	a.free[p.Index] |= p.Bitmap
	a.freeSlots += p.Slots()
	delete(a.keyMap, key)
	if p.Index < a.firstFree {
		a.firstFree = p.Index
	}
	return true
}

func (a *Allocator) advanceHint() {
	for a.firstFree < a.indexes && a.free[a.firstFree] == 0 {
		a.firstFree++
	}
}

// lastNSetBits returns a bitmap containing the n lowest set bits of v
// (Algorithm 2 line 15 takes "the last n 1 bits").
func lastNSetBits(v uint16, n int) uint16 {
	var out uint16
	for n > 0 && v != 0 {
		low := v & (^v + 1) // lowest set bit
		out |= low
		v &^= low
		n--
	}
	return out
}

// IndexPool hands out small integer indexes from a fixed range — NetCache
// uses one per cached key to address the per-key counter and cache-status
// (validity) register slots (§4.4.4).
type IndexPool struct {
	free []int
	used map[int]bool
	cap  int
}

// NewIndexPool returns a pool over [0, n).
func NewIndexPool(n int) *IndexPool {
	p := &IndexPool{free: make([]int, 0, n), used: make(map[int]bool, n), cap: n}
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, i) // pop order 0,1,2,...
	}
	return p
}

// Alloc returns a free index, or -1 if the pool is exhausted.
func (p *IndexPool) Alloc() int {
	if len(p.free) == 0 {
		return -1
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.used[idx] = true
	return idx
}

// Reserve marks a specific index as allocated — the recovery counterpart of
// Alloc, used when rebuilding state from a switch whose entries already hold
// indexes. It reports whether the index was free.
func (p *IndexPool) Reserve(idx int) bool {
	if idx < 0 || idx >= p.cap || p.used[idx] {
		return false
	}
	for i, v := range p.free {
		if v == idx {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.used[idx] = true
			return true
		}
	}
	return false
}

// Free returns idx to the pool; freeing an unallocated index panics, as it
// indicates controller state corruption.
func (p *IndexPool) Free(idx int) {
	if !p.used[idx] {
		panic(fmt.Sprintf("cachemem: Free of unallocated index %d", idx))
	}
	delete(p.used, idx)
	p.free = append(p.free, idx)
}
