// Package kvstore is the storage-layer in-memory key-value store NetCache
// servers run behind the shim (SOSP'17 §6 uses a "simple (not optimized)"
// store built on the TommyDS C library; this package is its from-scratch Go
// equivalent).
//
// The store is a sharded open-addressed hash table with per-shard locking.
// Shards emulate the per-core sharding the paper relies on for high
// concurrency (§1, §6: "per-core sharding with Receive Side Scaling"): a
// key's shard is a pure function of the key, as RSS makes it a pure function
// of the flow. Every mutation stamps a monotonically increasing version used
// as the value version number (SEQ) of the cache-coherence protocol.
//
// A shard's table is a linear-probing array of slots, each holding the key
// as two words and a pointer to an immutable box: the version and the value
// inline, one pointer-free allocation per write. A write publishes a fresh
// box; a delete leaves a tombstone; an insert writes the key words, then
// publishes the box. Reads take no lock: GetAppend loads the box pointer,
// compares the key words, and re-loads the pointer, retrying if it changed.
// A box is never reused while a reader holds it, so an unchanged pointer
// means the key words belonged to that box. A table that grow replaces is
// never written again, so a reader still probing it sees a past state, not a
// torn one. Every shared word is accessed atomically, which keeps the read
// clean under the race detector.
//
// A bulk load calls Grow with the number of keys it will add, so each shard
// reaches its final size in one rehash instead of doubling its way there.
package kvstore

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"netcache/internal/netproto"
	"netcache/internal/sketch"
)

const (
	initialSlots  = 64
	maxLoadFactor = 0.75 // live plus tombstoned slots, as a share of the table

	// maxReadAttempts bounds the optimistic read loop before falling back
	// to the shard lock — liveness under pathological writer churn.
	maxReadAttempts = 8
)

// box is one immutable (version, value) snapshot. It holds no pointers, so
// the garbage collector never scans it.
type box struct {
	version uint64
	n       uint8
	data    [netproto.MaxValueSize]byte
}

func (b *box) value() []byte { return b.data[:b.n] }

// tombstone marks a deleted slot: probes continue past it, inserts reuse it.
var tombstone = new(box)

type slot struct {
	k0, k1 atomic.Uint64
	box    atomic.Pointer[box] // nil: never used
}

type shard struct {
	mu    sync.RWMutex
	slots atomic.Pointer[[]slot] // power-of-two length
	n     int                    // live keys
	used  int                    // live keys plus tombstones
	// version is the monotonic per-shard version source.
	version uint64
}

// Store is a sharded in-memory key-value store. The zero value is not
// usable; construct with New.
type Store struct {
	shards  []shard
	mask    uint64
	len     atomic.Int64
	retries atomic.Uint64
}

// New returns a store with the given number of shards (rounded up to a power
// of two, minimum 1). One shard per served CPU core matches the paper's
// deployment model.
func New(nShards int) *Store {
	n := 1
	for n < nShards {
		n <<= 1
	}
	s := &Store{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		t := make([]slot, initialSlots)
		s.shards[i].slots.Store(&t)
	}
	return s
}

// Len returns the number of stored items.
func (s *Store) Len() int { return int(s.len.Load()) }

// ReadRetries returns the number of optimistic read attempts that had to be
// repeated (or fell through to the shard lock) because a writer replaced
// the box the read was checking.
func (s *Store) ReadRetries() uint64 { return s.retries.Load() }

// hash is the key's one hash: its high word picks the shard, its low bits
// the first probe slot.
func hash(key netproto.Key) uint64 {
	return sketch.Hash64(key[:], 0xE703_7ED1_A0B4_28DB)
}

// shardOf returns the index of the shard serving the key with hash h — the
// RSS emulation.
func (s *Store) shardOf(h uint64) int { return int((h >> 32) & s.mask) }

func words(key netproto.Key) (uint64, uint64) {
	return binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])
}

func (sl *slot) key() (k netproto.Key) {
	binary.LittleEndian.PutUint64(k[:8], sl.k0.Load())
	binary.LittleEndian.PutUint64(k[8:], sl.k1.Load())
	return k
}

// find probes t for the key with hash h and words k0, k1 and returns its
// slot and the box it loaded there, or a nil slot on a miss. The probe ends
// at a never-used slot; the load factor keeps one in every table.
func find(t []slot, h, k0, k1 uint64) (*slot, *box) {
	mask := uint64(len(t) - 1)
	for i := h; ; i++ {
		sl := &t[i&mask]
		b := sl.box.Load()
		if b == nil {
			return nil, nil
		}
		if b != tombstone && sl.k0.Load() == k0 && sl.k1.Load() == k1 {
			return sl, b
		}
	}
}

// Get returns the value and version of key. The returned slice is a copy;
// callers may retain it.
func (s *Store) Get(key netproto.Key) (value []byte, version uint64, ok bool) {
	return s.GetAppend(key, nil)
}

// GetAppend appends key's value to dst and returns the extended slice with
// the value's version. On a miss it returns dst unchanged. The common case
// takes no lock: the probe retries when a writer reused the slot it was
// reading, falling back to the read lock after maxReadAttempts.
func (s *Store) GetAppend(key netproto.Key, dst []byte) (value []byte, version uint64, ok bool) {
	h := hash(key)
	sh := &s.shards[s.shardOf(h)]
	k0, k1 := words(key)
	var b *box
	for attempt := 1; ; attempt++ {
		var sl *slot
		if sl, b = find(*sh.slots.Load(), h, k0, k1); sl == nil || sl.box.Load() == b {
			break // the key words read belong to b
		}
		s.retries.Add(1)
		if attempt == maxReadAttempts {
			sh.mu.RLock()
			_, b = find(*sh.slots.Load(), h, k0, k1)
			sh.mu.RUnlock()
			break
		}
	}
	if b == nil {
		return dst, 0, false
	}
	// The box is immutable, so the copy needs no validation.
	return append(dst, b.value()...), b.version, true
}

// newBox copies value into a fresh box. A value longer than
// netproto.MaxValueSize is a caller bug: no frame can carry one.
func newBox(value []byte, version uint64) *box {
	if len(value) > netproto.MaxValueSize {
		panic("kvstore: value longer than netproto.MaxValueSize")
	}
	b := &box{version: version, n: uint8(len(value))}
	copy(b.data[:], value)
	return b
}

// putLocked publishes b under key, assuming the shard lock is held: in the
// key's slot if it is stored, else in the first tombstone or never-used
// slot of its probe sequence, key words first so no reader matches the key
// before its box is there. One walk finds both: it remembers the first
// tombstone and ends at the key or at a never-used slot.
func (s *Store) putLocked(sh *shard, h uint64, key netproto.Key, b *box) {
	t := *sh.slots.Load()
	k0, k1 := words(key)
	var free *slot
	for i := h; ; i++ {
		sl := &t[i&uint64(len(t)-1)]
		old := sl.box.Load()
		if old == nil {
			if free == nil {
				free = sl
				sh.used++
			}
			break
		}
		if old == tombstone {
			if free == nil {
				free = sl
			}
		} else if sl.k0.Load() == k0 && sl.k1.Load() == k1 {
			sl.box.Store(b)
			return
		}
	}
	free.k0.Store(k0)
	free.k1.Store(k1)
	free.box.Store(b)
	sh.n++
	s.len.Add(1)
	if float64(sh.used) > maxLoadFactor*float64(len(t)) {
		sh.grow()
	}
}

// Put stores value under key (value is copied) and returns the new version.
// Versions from one shard are strictly increasing, so two writes to the same
// key are always ordered.
func (s *Store) Put(key netproto.Key, value []byte) (version uint64) {
	h := hash(key)
	sh := &s.shards[s.shardOf(h)]
	b := newBox(value, 0)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.version++
	b.version = sh.version
	s.putLocked(sh, h, key, b)
	return sh.version
}

// PutAt installs a copy of value under key with an externally assigned
// version — the replication path, where a backup must preserve the
// primary's version so versions stay comparable across the pair. The
// install is unconditional: ordering between replicated writes is the
// caller's job (the server's per-key replication stamp), and the key's
// current version may come from a foreign, incomparable counter, e.g. a
// rejoined ex-primary whose shard counter ran ahead of the new primary's.
// The shard's version source is bumped to at least version so local Puts
// never reuse or undercut it.
func (s *Store) PutAt(key netproto.Key, value []byte, version uint64) {
	h := hash(key)
	sh := &s.shards[s.shardOf(h)]
	b := newBox(value, version)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.version = max(sh.version, version)
	s.putLocked(sh, h, key, b)
}

// BumpVersion advances the version source of key's shard to at least
// version without touching data. A backup applying a replicated delete uses
// it so the tombstone's version can never be reissued to a later local write
// after promotion.
func (s *Store) BumpVersion(key netproto.Key, version uint64) {
	sh := &s.shards[s.shardOf(hash(key))]
	sh.mu.Lock()
	sh.version = max(sh.version, version)
	sh.mu.Unlock()
}

// Delete removes key and returns the deletion version; ok is false if the
// key was absent.
func (s *Store) Delete(key netproto.Key) (version uint64, ok bool) {
	h := hash(key)
	sh := &s.shards[s.shardOf(h)]
	k0, k1 := words(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sl, _ := find(*sh.slots.Load(), h, k0, k1)
	if sl == nil {
		return 0, false
	}
	sl.box.Store(tombstone)
	sh.n--
	s.len.Add(-1)
	sh.version++
	return sh.version, true
}

// Range calls fn for every item until fn returns false. The iteration holds
// one shard lock at a time; values passed to fn must not be retained.
func (s *Store) Range(fn func(key netproto.Key, value []byte, version uint64) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		t := *sh.slots.Load()
		for j := range t {
			if b := t[j].box.Load(); b != nil && b != tombstone && !fn(t[j].key(), b.value(), b.version) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Grow sizes every shard so that n more keys fit without a rehash, as
// bytes.Buffer.Grow does for bytes. A shard's share of n keys depends on
// their hashes, which Grow does not see, so each shard makes room for its
// even share plus eight standard deviations of it; a shard that still draws
// more grows as usual. A bulk load calls it before its first Put.
func (s *Store) Grow(n int) {
	share := (n + len(s.shards) - 1) / len(s.shards)
	if len(s.shards) > 1 {
		share += 8*int(math.Sqrt(float64(share))) + 8
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		size := len(*sh.slots.Load())
		if float64(sh.used+share) > maxLoadFactor*float64(size) {
			for float64(sh.n+share) > maxLoadFactor*float64(size) {
				size *= 2
			}
			sh.rehash(size)
		}
		sh.mu.Unlock()
	}
}

// grow makes room after an insert filled the shard's table: it doubles the
// table, or rehashes it at its size when tombstones make up most of the used
// slots. Caller holds the shard lock.
func (sh *shard) grow() {
	size := len(*sh.slots.Load())
	if 2*sh.n > sh.used {
		size *= 2
	}
	sh.rehash(size)
}

// rehash moves the shard's live keys into a new table of size slots, which
// drops the tombstones. Caller holds the shard lock. The old table is never
// written again.
func (sh *shard) rehash(size int) {
	old := *sh.slots.Load()
	t := make([]slot, size)
	mask := uint64(size - 1)
	for j := range old {
		b := old[j].box.Load()
		if b == nil || b == tombstone {
			continue
		}
		i := hash(old[j].key())
		for t[i&mask].box.Load() != nil {
			i++
		}
		sl := &t[i&mask]
		sl.k0.Store(old[j].k0.Load())
		sl.k1.Store(old[j].k1.Load())
		sl.box.Store(b)
	}
	sh.used = sh.n
	sh.slots.Store(&t)
}
