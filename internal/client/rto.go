// Retransmission schedule: exponential backoff from a fixed floor, capped
// at the per-attempt timeout, with deterministic seeded jitter.
//
// The paper leaves reliable transmission of UDP Get queries to the client
// (§4.1: SEQ "can be used as a sequence number for reliable transmissions").
// A fixed per-attempt timeout is not enough: on a fabric whose RTT is a few
// microseconds, every lost frame costs a full 2ms timeout, which collapsed
// the rack's throughput ~40x under a modest fault mix of loss, duplication
// and reordering. Starting each query at a floor near the path's RTT and
// doubling per retransmission keeps a loss cheap without starving a slow
// path. The schedule needs no state: backoff belongs to the call, not to
// the destination.
package client

import "time"

// Policy tunes the retransmission schedule. The zero value uses the
// defaults below. Setting RTOFloor to Config.Timeout pins every attempt's
// RTO there, and only jitter is added.
type Policy struct {
	// RTOFloor is the first attempt's RTO; each retransmission doubles it,
	// up to Config.Timeout. It should sit above the path's RTT and the
	// host's scheduling noise. Zero means 200µs.
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

// Policy defaults, exported so harnesses can report what they measured.
// Every wait adds a deterministic pseudo-random fraction of the RTO in
// [0, DefaultJitterFrac), de-synchronizing retransmission storms.
const (
	DefaultRTOFloor   = 200 * time.Microsecond
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

// rto is attempt's retransmission timeout before jitter: the floor doubled
// once per earlier attempt, capped at Config.Timeout, which New raises to
// the floor when it is below.
func (c *Client) rto(attempt int) time.Duration {
	d, ceil := c.cfg.Policy.RTOFloor, c.cfg.Timeout
	for ; attempt > 0 && d < ceil; attempt-- {
		d *= 2
	}
	return min(d, ceil)
}
