// Adaptive retransmission: a per-destination RTT estimator in the
// Jacobson/Karn style (RFC 6298), exponential backoff with deterministic
// seeded jitter.
//
// The paper leaves reliable transmission of UDP Get queries to the client
// (§4.1: SEQ "can be used as a sequence number for reliable transmissions").
// A fixed per-attempt timeout is not enough: on a fabric whose RTT is a few
// microseconds, every lost frame costs a full 2ms timeout, which collapsed
// the rack's throughput ~40x under a modest fault mix of loss, duplication
// and reordering. The estimator keeps the retransmission timer proportional
// to the path the client actually observes.
package client

import (
	"sync"
	"time"
)

// Policy tunes the adaptive retransmission path. The zero value adapts
// with the defaults below. Setting RTOFloor to Config.Timeout pins every
// attempt's RTO there: the ceiling is then that same value, so neither the
// estimate nor backoff can move it, and only jitter is added.
type Policy struct {
	// RTOFloor clamps the adaptive RTO from below, absorbing scheduling
	// noise the estimator cannot see. Zero means 200µs.
	RTOFloor time.Duration
	// Seed seeds the client's splitmix64 jitter stream. The client mixes
	// its own address in, so clients sharing a seed draw distinct but
	// reproducible sequences. Jitter never reads the clock or the global
	// math/rand state: a seeded run is replayable.
	Seed uint64

	// spinUnder is the poll-mode threshold: a first attempt's wait shorter
	// than this polls the call's reply flag in a yielding busy-loop
	// instead of parking on the call's wake channel and a runtime timer
	// (retransmissions always park). Parked-timer wakeups
	// cost ~1ms on stock kernels (timer slack + HZ quantization), which
	// would round every sub-millisecond RTO up to the millisecond scale —
	// the reason the paper's testbed clients run poll-mode DPDK rather
	// than interrupt I/O. A poll that reaches its deadline parks once, for
	// pollGrace, before the attempt counts as lost. Zero means
	// defaultSpinUnder; negative disables polling entirely, which only
	// in-package tests ask for.
	spinUnder time.Duration
}

// Policy defaults and the fixed shape of the adaptive path, exported so
// harnesses can report what they measured. The RTO (including backoff) is
// clamped from above by DefaultRTOCeil, raised to Config.Timeout or the
// floor when either is larger; backoff stops after DefaultBackoffMax
// doublings; every wait adds a deterministic pseudo-random fraction of the
// RTO in [0, DefaultJitterFrac), de-synchronizing retransmission storms.
const (
	DefaultRTOFloor   = 200 * time.Microsecond
	DefaultRTOCeil    = 100 * time.Millisecond
	DefaultBackoffMax = 6
	DefaultJitterFrac = 0.1
)

// defaultSpinUnder is the poll-mode threshold (Policy.spinUnder).
const defaultSpinUnder = 2 * time.Millisecond

// normalize fills policy defaults.
func (p Policy) normalize() Policy {
	if p.RTOFloor <= 0 {
		p.RTOFloor = DefaultRTOFloor
	}
	if p.spinUnder == 0 {
		p.spinUnder = defaultSpinUnder
	} else if p.spinUnder < 0 {
		p.spinUnder = 0
	}
	return p
}

// rtoEstimator tracks smoothed RTT state for one destination (RFC 6298 /
// Jacobson): SRTT ← 7/8·SRTT + 1/8·R, RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT−R|,
// RTO = clamp(SRTT + 4·RTTVAR) doubled per backoff step. Karn's rule is
// enforced by the caller: only replies to never-retransmitted attempts
// reach Observe, so a retransmission's ambiguous RTT cannot corrupt the
// estimate.
type rtoEstimator struct {
	mu sync.Mutex

	initial     time.Duration
	floor, ceil time.Duration

	hasSRTT bool
	srtt    time.Duration
	rttvar  time.Duration
	backoff int
	samples uint64
}

// newEstimator starts an estimator at the per-attempt timeout, which also
// lifts the ceiling when it is above DefaultRTOCeil.
func newEstimator(timeout time.Duration, p Policy) *rtoEstimator {
	ceil := max(DefaultRTOCeil, timeout, p.RTOFloor)
	return &rtoEstimator{
		initial: clampDur(timeout, p.RTOFloor, ceil),
		floor:   p.RTOFloor,
		ceil:    ceil,
	}
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Observe feeds one clean (Karn-admissible) RTT sample and resets backoff —
// a fresh unambiguous sample proves the path is live at this RTT.
func (e *rtoEstimator) Observe(rtt time.Duration) {
	if rtt < 0 {
		rtt = 0
	}
	e.mu.Lock()
	if e.hasSRTT {
		// RFC 6298 order: RTTVAR first (it uses the previous SRTT).
		dev := e.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		e.rttvar += (dev - e.rttvar) / 4
		e.srtt += (rtt - e.srtt) / 8
	} else {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.hasSRTT = true
	}
	e.backoff = 0
	e.samples++
	e.mu.Unlock()
}

// TimedOut records one retransmission timeout: the next RTO doubles, up to
// the backoff cap (Karn: the backed-off timer persists until a clean sample
// arrives).
func (e *rtoEstimator) TimedOut() {
	e.mu.Lock()
	if e.backoff < DefaultBackoffMax {
		e.backoff++
	}
	e.mu.Unlock()
}

// RTO returns the current retransmission timeout: the estimate (or the
// initial RTO before any sample), shifted by the backoff, clamped to
// [floor, ceil].
func (e *rtoEstimator) RTO() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rtoLocked()
}

func (e *rtoEstimator) rtoLocked() time.Duration {
	base := e.initial
	if e.hasSRTT {
		base = clampDur(e.srtt+4*e.rttvar, e.floor, e.ceil)
	}
	// Doubling stops at the ceiling, so it never overflows.
	for i := 0; i < e.backoff && base < e.ceil; i++ {
		base *= 2
	}
	return clampDur(base, e.floor, e.ceil)
}

// EstimatorState is a read-only snapshot of one destination's estimator,
// exposed for harnesses, tests and debugging.
type EstimatorState struct {
	SRTT, RTTVar, RTO time.Duration
	Backoff           int
	Samples           uint64
}

func (e *rtoEstimator) snapshot() EstimatorState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EstimatorState{
		SRTT:    e.srtt,
		RTTVar:  e.rttvar,
		RTO:     e.rtoLocked(),
		Backoff: e.backoff,
		Samples: e.samples,
	}
}
