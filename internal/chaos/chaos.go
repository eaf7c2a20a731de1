// Package chaos is the fault-injection torture harness: one seeded
// scenario engine (engine.go) that drives a mixed Get/Put/Delete workload
// through a deployment while the fabric duplicates, reorders, corrupts and
// partitions traffic and components crash, restart and reboot — and checks
// that the NetCache coherence story (§4.3) survives all of it. Run (single
// rack), RunMultiRack (leaf-spine) and RunFailover (replicated rack) each
// build a deployment and a scenario table and hand both to the engine.
//
// The oracle is per-key and single-writer: every key is owned by exactly
// one client, values encode (key, version), and versions are issued
// monotonically. Three invariants are checked:
//
//  1. Freshness — a read never returns a version older than the last
//     write acknowledged before the read was issued, and never a version
//     that was not issued.
//  2. Durability — once the faults stop and crashed components recover, no
//     acknowledged write has been lost.
//  3. Convergence — the rack settles into a cache-coherent steady state:
//     repeated reads agree with each other and with the owning server's
//     store.
//
// The scenario — fault timeline, crash points, op mix — is derived
// entirely from the seed, so a failing run is reproducible. The goroutine
// interleaving is not (and must not need to be): the invariants hold under
// any scheduling.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"netcache/internal/client"
	"netcache/internal/rng"
)

// Report is the outcome of a chaos run.
type Report struct {
	Seed uint64
	// Events is the scenario timeline — derived from the seed only, so
	// two runs with the same seed produce identical Events.
	Events []string
	// Violations holds every invariant breach observed. Empty means the
	// run passed.
	Violations []string

	Ops, Timeouts uint64
	// FaultFreeTimeouts counts the timeouts among ops issued by phases the
	// scenario declares fault-free; a healthy deployment has none.
	FaultFreeTimeouts uint64
	// Fault-fabric activity, proving the scenario exercised the fabric.
	Duplicated, Reordered, CorruptInjected, PartitionDropped, LossDropped, DownDropped uint64
	// Delivery accounting, inputs to the end-of-run conservation laws.
	Delivered, Unattached uint64
	// Lifecycle activity.
	ServerCrashes, SwitchReboots, ControllerRestarts int
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// prng is a scenario's seeded decision stream: the state of an rng.Next
// sequence, independent of math/rand so timelines are stable across Go
// versions.
type prng uint64

func (r *prng) next() uint64 { return rng.Next((*uint64)(r)) }

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// rate draws a fault probability in [lo, hi).
func (r *prng) rate(lo, hi float64) float64 {
	return lo + (hi-lo)*(float64(r.next()>>11)/(1<<53))
}

// def fills a zero-or-negative size with its default.
func def(v *int, d int) {
	if *v <= 0 {
		*v = d
	}
}

// opKind records what a given oracle version was.
type opKind uint8

const (
	opPut opKind = iota + 1
	opDelete
)

// keyOracle tracks the ground truth for one key under its single writer.
type keyOracle struct {
	mu        sync.Mutex
	acked     uint64
	maxIssued uint64
	kinds     map[uint64]opKind
}

func newOracle() *keyOracle { return &keyOracle{kinds: make(map[uint64]opKind)} }

// issue reserves the next version for a write or delete.
func (o *keyOracle) issue(k opKind) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.maxIssued++
	o.kinds[o.maxIssued] = k
	return o.maxIssued
}

// ack records that version v was acknowledged to the writer.
func (o *keyOracle) ack(v uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if v > o.acked {
		o.acked = v
	}
}

// floor returns the last acked version; reads snapshot it before issuing.
func (o *keyOracle) floor() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.acked
}

// checkRead validates a completed read against the oracle. floor is the
// acked version snapshotted before the read was issued. Returns "" when the
// observation is explainable, else a violation description.
func (o *keyOracle) checkRead(kid int, floor uint64, val []byte, err error, valueSize int) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err != nil {
		if errors.Is(err, client.ErrNotFound) {
			if floor == 0 {
				return "" // nothing acked yet: absence is fine
			}
			for v, k := range o.kinds {
				if k == opDelete && v >= floor {
					return "" // a delete at/above the floor explains it
				}
			}
			return fmt.Sprintf("key %d: NotFound but no delete at or above acked version %d", kid, floor)
		}
		return "" // timeout or transport error: no observation to judge
	}
	gotKid, ver, ok := parseValue(val)
	if !ok || gotKid != kid {
		return fmt.Sprintf("key %d: unparseable or cross-key value %q", kid, val)
	}
	k, issued := o.kinds[ver]
	if !issued || k != opPut {
		return fmt.Sprintf("key %d: read version %d that was never written", kid, ver)
	}
	if ver < floor {
		return fmt.Sprintf("key %d: stale read — version %d older than acked %d", kid, ver, floor)
	}
	if want := encodeValue(kid, ver, valueSize); string(val) != string(want) {
		return fmt.Sprintf("key %d: value bytes %q do not match issued write %d", kid, val, ver)
	}
	return ""
}

// encodeValue builds the canonical value bytes for (key, version).
func encodeValue(kid int, ver uint64, size int) []byte {
	head := fmt.Sprintf("%d|%d|", kid, ver)
	if len(head) >= size {
		return []byte(head)
	}
	return append([]byte(head), strings.Repeat("x", size-len(head))...)
}

// parseValue inverts encodeValue.
func parseValue(val []byte) (kid int, ver uint64, ok bool) {
	parts := strings.SplitN(string(val), "|", 3)
	if len(parts) != 3 {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &kid); err != nil {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &ver); err != nil {
		return 0, 0, false
	}
	return kid, ver, true
}
