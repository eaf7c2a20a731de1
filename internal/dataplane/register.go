package dataplane

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Register is a stateful register array owned by exactly one stage of one
// gress. The data plane reads and writes it at line rate; the control plane
// reads and writes it through the switch driver (§4.4.2).
//
// Slot widths of 1–64 bits are stored bit-packed; 128-bit slots (the value
// slots of NetCache) are stored as two 64-bit words each. A register array
// may be accessed at most once per packet, and at most
// MaxRegisterAccessBytes per access — the ASIC timing constraints that shape
// the NetCache design.
//
// Every narrow access is individually atomic, standing in for the per-stage
// ALU of the ASIC: a read-modify-write on one slot can never observe or
// produce a torn value, no matter how many packets are in flight. Arrays
// whose slot width divides 64 (all of NetCache's counter-shaped arrays) use
// lock-free compare-and-swap on the containing word; odd widths fall back to
// a per-register mutex. A 128-bit slot is two atomic words, each loaded and
// stored on its own, with no lock: the value stages only ever read or
// overwrite a whole slot, and the program keeps a reader from racing a
// writer of the same slot. Multi-slot invariants (e.g. "valid bit implies
// consistent value slots") are the program's to enforce, just as on hardware
// — see switchcore's per-key locks.
type Register struct {
	name     string
	gress    Gress
	slots    int
	slotBits int

	// exactly one of the two backings is non-nil
	words []uint64        // slotBits <= 64, bit-packed
	wide  []atomic.Uint64 // slotBits == 128: slot i is wide[2i] (bytes 0-7), wide[2i+1]

	// lockfree is true when a slot can never span two words (slotBits
	// divides 64), enabling single-word CAS access.
	lockfree bool
	mu       sync.Mutex // serializes narrow-slot access when !lockfree

	stage int // assigned at compile time, -1 before
	id    int // index in the program's register list (per-packet access marks)
}

// RegisterSpec declares a register array in a Program.
type RegisterSpec struct {
	Name     string
	Gress    Gress
	Slots    int
	SlotBits int // 1..64, or 128
}

func newRegister(spec RegisterSpec) (*Register, error) {
	if spec.Slots <= 0 {
		return nil, fmt.Errorf("dataplane: register %q needs positive slot count", spec.Name)
	}
	ok := spec.SlotBits >= 1 && spec.SlotBits <= 64 || spec.SlotBits == 128
	if !ok {
		return nil, fmt.Errorf("dataplane: register %q slot width %d unsupported (1-64 or 128 bits)", spec.Name, spec.SlotBits)
	}
	r := &Register{
		name:     spec.Name,
		gress:    spec.Gress,
		slots:    spec.Slots,
		slotBits: spec.SlotBits,
		stage:    -1,
	}
	if spec.SlotBits == 128 {
		r.wide = make([]atomic.Uint64, spec.Slots*2)
	} else {
		totalBits := spec.Slots * spec.SlotBits
		r.words = make([]uint64, (totalBits+63)/64)
		r.lockfree = 64%spec.SlotBits == 0
	}
	return r, nil
}

// Name returns the register array's name.
func (r *Register) Name() string { return r.name }

// Slots returns the number of slots.
func (r *Register) Slots() int { return r.slots }

// SizeBytes returns the SRAM the array consumes.
func (r *Register) SizeBytes() int { return (r.slots*r.slotBits + 7) / 8 }

// Stage returns the stage index the array was placed in, or -1 if the
// program has not been compiled.
func (r *Register) Stage() int { return r.stage }

// loadSlot extracts slot idx from an already-loaded word pair. off+slotBits
// may exceed 64 only on the mutex path.
func (r *Register) loadWordIdx(idx int) (word, off int) {
	bitPos := idx * r.slotBits
	return bitPos / 64, bitPos % 64
}

// Get returns the value of slot idx for arrays of width <= 64 bits.
func (r *Register) Get(idx int) uint64 {
	r.checkIdx(idx)
	if r.words == nil {
		panic(fmt.Sprintf("dataplane: Get on 128-bit register %q; use GetBytes", r.name))
	}
	if r.lockfree {
		word, off := r.loadWordIdx(idx)
		return atomic.LoadUint64(&r.words[word]) >> off & r.mask()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(idx)
}

func (r *Register) getLocked(idx int) uint64 {
	bitPos := idx * r.slotBits
	word, off := bitPos/64, bitPos%64
	mask := r.mask()
	v := r.words[word] >> off
	if off+r.slotBits > 64 {
		v |= r.words[word+1] << (64 - off)
	}
	return v & mask
}

// Set stores v into slot idx, truncating to the slot width.
func (r *Register) Set(idx int, v uint64) {
	r.checkIdx(idx)
	if r.words == nil {
		panic(fmt.Sprintf("dataplane: Set on 128-bit register %q; use SetBytes", r.name))
	}
	if r.lockfree {
		word, off := r.loadWordIdx(idx)
		mask := r.mask()
		v &= mask
		for {
			old := atomic.LoadUint64(&r.words[word])
			new := old&^(mask<<off) | v<<off
			if atomic.CompareAndSwapUint64(&r.words[word], old, new) {
				return
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setLocked(idx, v)
}

func (r *Register) setLocked(idx int, v uint64) {
	bitPos := idx * r.slotBits
	word, off := bitPos/64, bitPos%64
	mask := r.mask()
	v &= mask
	r.words[word] = r.words[word]&^(mask<<off) | v<<off
	if off+r.slotBits > 64 {
		hiBits := r.slotBits - (64 - off)
		hiMask := uint64(1)<<hiBits - 1
		r.words[word+1] = r.words[word+1]&^hiMask | v>>(64-off)
	}
}

// update applies fn to slot idx as one atomic read-modify-write — the
// stage-ALU primitive. fn may be retried and must be pure.
func (r *Register) update(idx int, fn func(old uint64) uint64) (old, new uint64) {
	r.checkIdx(idx)
	if r.words == nil {
		panic(fmt.Sprintf("dataplane: update on 128-bit register %q", r.name))
	}
	mask := r.mask()
	if r.lockfree {
		word, off := r.loadWordIdx(idx)
		for {
			w := atomic.LoadUint64(&r.words[word])
			old = w >> off & mask
			new = fn(old) & mask
			if atomic.CompareAndSwapUint64(&r.words[word], w, w&^(mask<<off)|new<<off) {
				return old, new
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old = r.getLocked(idx)
	new = fn(old) & mask
	r.setLocked(idx, new)
	return old, new
}

// AddSat adds delta to slot idx with saturation at the slot's maximum —
// the semantics of the ASIC's counter ALU (a 16-bit counter sticks at 0xFFFF
// rather than wrapping, §4.4.3). The whole operation is atomic.
func (r *Register) AddSat(idx int, delta uint64) uint64 {
	maxVal := r.mask()
	_, new := r.update(idx, func(cur uint64) uint64 {
		if cur > maxVal-delta {
			return maxVal
		}
		return cur + delta
	})
	return new
}

// GetBytes copies slot idx of a 128-bit array into dst and returns the number
// of bytes copied (always 16).
func (r *Register) GetBytes(idx int, dst []byte) int {
	r.checkIdx(idx)
	if r.wide == nil {
		panic(fmt.Sprintf("dataplane: GetBytes on narrow register %q; use Get", r.name))
	}
	var slot [16]byte
	binary.LittleEndian.PutUint64(slot[:8], r.wide[2*idx].Load())
	binary.LittleEndian.PutUint64(slot[8:], r.wide[2*idx+1].Load())
	return copy(dst, slot[:])
}

// SetBytes stores src (up to 16 bytes, zero-padded) into slot idx of a
// 128-bit array.
func (r *Register) SetBytes(idx int, src []byte) {
	r.checkIdx(idx)
	if r.wide == nil {
		panic(fmt.Sprintf("dataplane: SetBytes on narrow register %q; use Set", r.name))
	}
	if len(src) > 16 {
		panic(fmt.Sprintf("dataplane: SetBytes %d bytes exceeds 16-byte slot of %q", len(src), r.name))
	}
	var slot [16]byte
	copy(slot[:], src)
	r.wide[2*idx].Store(binary.LittleEndian.Uint64(slot[:8]))
	r.wide[2*idx+1].Store(binary.LittleEndian.Uint64(slot[8:]))
}

// Reset zeroes every slot. The controller uses this to clear statistics
// arrays periodically (§4.4.3). Concurrent data-plane updates may land
// before or after individual words — the same fuzziness a hardware register
// sweep has.
func (r *Register) Reset() {
	for i := range r.words {
		atomic.StoreUint64(&r.words[i], 0)
	}
	for i := range r.wide {
		r.wide[i].Store(0)
	}
}

func (r *Register) mask() uint64 {
	if r.slotBits == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<r.slotBits - 1
}

func (r *Register) checkIdx(idx int) {
	if idx < 0 || idx >= r.slots {
		panic(fmt.Sprintf("dataplane: register %q index %d out of range [0,%d)", r.name, idx, r.slots))
	}
}
