// Package kvstore is the storage-layer in-memory key-value store NetCache
// servers run behind the shim (SOSP'17 §6 uses a "simple (not optimized)"
// store built on the TommyDS C library; this package is its from-scratch Go
// equivalent).
//
// The store is a sharded chained hash table with per-shard locking. Shards
// emulate the per-core sharding the paper relies on for high concurrency
// (§1, §6: "per-core sharding with Receive Side Scaling"): a key's shard is
// a pure function of the key, as RSS makes it a pure function of the flow.
// Every mutation stamps a monotonically increasing version used as the value
// version number (SEQ) of the cache-coherence protocol.
//
// Reads are optimistic, in the MemC3/libcuckoo lineage the paper cites as
// related work: a per-shard seqlock lets GetAppend walk the chain without
// taking the shard lock. Writers still serialize on the shard mutex; only
// structural mutations (unlink, rehash) bump the sequence, so in-place value
// updates never force readers to retry. Every shared field a reader touches
// is an atomic pointer to immutable data, which keeps the optimistic path
// clean under the race detector and makes a torn read impossible — a
// sequence mismatch only ever means "retry", never "undefined behavior".
package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"netcache/internal/netproto"
	"netcache/internal/sketch"
)

const (
	initialBuckets = 64
	maxLoadFactor  = 0.75

	// maxReadAttempts bounds the optimistic read loop before falling back
	// to the shard lock — liveness under pathological writer churn.
	maxReadAttempts = 8
	// maxChainWalk bounds one optimistic chain traversal. A reader racing a
	// rehash can wander across chains; the sequence check catches the wrong
	// answer, but only the step bound catches a transient cycle.
	maxChainWalk = 1 << 12
)

// versioned is one immutable (value, version) snapshot. Writers publish a
// fresh box on every update; readers load the pointer once and get both
// fields consistent by construction.
type versioned struct {
	data    []byte
	version uint64
}

type entry struct {
	key  netproto.Key
	val  atomic.Pointer[versioned]
	next atomic.Pointer[entry]
}

type shard struct {
	mu sync.RWMutex
	// seq is the seqlock generation: odd while a structural writer
	// (unlink or rehash) is in progress. Readers snapshot it before the
	// walk and revalidate after.
	seq     atomic.Uint64
	buckets atomic.Pointer[[]atomic.Pointer[entry]]
	n       int
	version uint64 // monotonic per-shard version source
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
		b := make([]atomic.Pointer[entry], initialBuckets)
		s.shards[i].buckets.Store(&b)
	}
	return s
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Len returns the number of stored items.
func (s *Store) Len() int { return int(s.len.Load()) }

// ReadRetries returns the number of optimistic read attempts that had to be
// repeated (or fell through to the shard lock) because a structural writer
// was active.
func (s *Store) ReadRetries() uint64 { return s.retries.Load() }

// ShardOf returns the shard index serving key — the RSS emulation used by
// the server agent to pick a queue.
func (s *Store) ShardOf(key netproto.Key) int {
	return int(sketch.Hash64(key[:], 0xA076_1D64_78BD_642F) & s.mask)
}

func bucketHash(key netproto.Key) uint64 {
	return sketch.Hash64(key[:], 0xE703_7ED1_A0B4_28DB)
}

// Get returns the value and version of key. The returned slice is a copy;
// callers may retain it.
func (s *Store) Get(key netproto.Key) (value []byte, version uint64, ok bool) {
	return s.GetAppend(key, nil)
}

// GetAppend appends key's value to dst and returns the extended slice with
// the value's version. On a miss it returns dst unchanged. The common case
// takes no lock: the chain walk runs under the shard seqlock and retries on
// interference, falling back to the read lock after maxReadAttempts.
func (s *Store) GetAppend(key netproto.Key, dst []byte) (value []byte, version uint64, ok bool) {
	sh := &s.shards[s.ShardOf(key)]
	h := bucketHash(key)
	for attempt := 0; attempt < maxReadAttempts; attempt++ {
		seq := sh.seq.Load()
		if seq&1 != 0 {
			s.retries.Add(1)
			continue
		}
		bkts := *sh.buckets.Load()
		var box *versioned
		overrun := false
		steps := 0
		for e := bkts[h&uint64(len(bkts)-1)].Load(); e != nil; e = e.next.Load() {
			if steps++; steps > maxChainWalk {
				overrun = true
				break
			}
			if e.key == key {
				box = e.val.Load()
				break
			}
		}
		if overrun || sh.seq.Load() != seq {
			s.retries.Add(1)
			continue
		}
		if box == nil {
			return dst, 0, false
		}
		// box.data is immutable, so the copy can happen after validation.
		return append(dst, box.data...), box.version, true
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	bkts := *sh.buckets.Load()
	for e := bkts[h&uint64(len(bkts)-1)].Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			box := e.val.Load()
			return append(dst, box.data...), box.version, true
		}
	}
	return dst, 0, false
}

// putLocked installs (value, version) under key, assuming the shard lock is
// held and the version source already advanced. value is copied.
func (s *Store) putLocked(sh *shard, key netproto.Key, value []byte, version uint64) {
	box := &versioned{data: append([]byte(nil), value...), version: version}
	bkts := *sh.buckets.Load()
	idx := bucketHash(key) & uint64(len(bkts)-1)
	for e := bkts[idx].Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			// In-place update: publishing the new box is atomic, so
			// concurrent optimistic readers need no retry.
			e.val.Store(box)
			return
		}
	}
	// Head insert: the node is fully built before the bucket pointer
	// publishes it, so this too is invisible-or-complete to readers.
	e := &entry{key: key}
	e.val.Store(box)
	e.next.Store(bkts[idx].Load())
	bkts[idx].Store(e)
	sh.n++
	s.len.Add(1)
	if float64(sh.n) > maxLoadFactor*float64(len(bkts)) {
		sh.grow()
	}
}

// Put stores value under key (value is copied) and returns the new version.
// Versions from one shard are strictly increasing, so two writes to the same
// key are always ordered.
func (s *Store) Put(key netproto.Key, value []byte) (version uint64) {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.version++
	s.putLocked(sh, key, value, sh.version)
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
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.version < version {
		sh.version = version
	}
	s.putLocked(sh, key, value, version)
}

// BumpVersion advances the version source of key's shard to at least
// version without touching data. A backup applying a replicated delete uses
// it so the tombstone's version can never be reissued to a later local write
// after promotion.
func (s *Store) BumpVersion(key netproto.Key, version uint64) {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	if sh.version < version {
		sh.version = version
	}
	sh.mu.Unlock()
}

// Delete removes key and returns the deletion version; ok is false if the
// key was absent.
func (s *Store) Delete(key netproto.Key) (version uint64, ok bool) {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bkts := *sh.buckets.Load()
	idx := bucketHash(key) & uint64(len(bkts)-1)
	var prev *entry
	for e := bkts[idx].Load(); e != nil; e = e.next.Load() {
		if e.key == key {
			// Unlinking re-routes a chain a reader may be walking:
			// announce the structural change through the seqlock.
			sh.seq.Add(1)
			if prev == nil {
				bkts[idx].Store(e.next.Load())
			} else {
				prev.next.Store(e.next.Load())
			}
			sh.seq.Add(1)
			sh.n--
			s.len.Add(-1)
			sh.version++
			return sh.version, true
		}
		prev = e
	}
	return 0, false
}

// Range calls fn for every item until fn returns false. The iteration holds
// one shard lock at a time; values passed to fn must not be retained.
func (s *Store) Range(fn func(key netproto.Key, value []byte, version uint64) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		bkts := *sh.buckets.Load()
		for b := range bkts {
			for e := bkts[b].Load(); e != nil; e = e.next.Load() {
				box := e.val.Load()
				if !fn(e.key, box.data, box.version) {
					sh.mu.RUnlock()
					return
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// grow doubles the shard's bucket array, relinking the existing entry nodes.
// Caller holds the shard lock; the whole rehash runs inside one seqlock
// window since readers mid-walk would otherwise follow next pointers across
// chains.
func (sh *shard) grow() {
	old := *sh.buckets.Load()
	nb := make([]atomic.Pointer[entry], 2*len(old))
	mask := uint64(len(nb) - 1)
	sh.seq.Add(1)
	for i := range old {
		for e := old[i].Load(); e != nil; {
			next := e.next.Load()
			idx := bucketHash(e.key) & mask
			e.next.Store(nb[idx].Load())
			nb[idx].Store(e)
			e = next
		}
	}
	sh.buckets.Store(&nb)
	sh.seq.Add(1)
}

// Stats describes the store's internal shape, for diagnostics.
type Stats struct {
	Shards       int
	Items        int
	Buckets      int
	MaxChain     int
	LoadFactor   float64
	ItemsByShard []int
}

// Stats returns a consistent-enough snapshot (shard locks taken one at a
// time).
func (s *Store) Stats() Stats {
	st := Stats{Shards: len(s.shards), ItemsByShard: make([]int, len(s.shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		bkts := *sh.buckets.Load()
		st.Items += sh.n
		st.Buckets += len(bkts)
		st.ItemsByShard[i] = sh.n
		for b := range bkts {
			chain := 0
			for e := bkts[b].Load(); e != nil; e = e.next.Load() {
				chain++
			}
			if chain > st.MaxChain {
				st.MaxChain = chain
			}
		}
		sh.mu.RUnlock()
	}
	if st.Buckets > 0 {
		st.LoadFactor = float64(st.Items) / float64(st.Buckets)
	}
	return st
}

// String summarizes the stats.
func (st Stats) String() string {
	return fmt.Sprintf("kvstore: %d items, %d shards, %d buckets, load %.2f, max chain %d",
		st.Items, st.Shards, st.Buckets, st.LoadFactor, st.MaxChain)
}
