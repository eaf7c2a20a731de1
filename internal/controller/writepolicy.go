package controller

import (
	"netcache/internal/netproto"
	"netcache/internal/switchcore"
)

// Adaptive write policy — the operational principle of §7.3 turned into a
// mechanism: "For write-heavy workloads with highly-skewed writes, the
// switch cache should be disabled to avoid the extra overhead for
// maintaining cache coherence."
//
// Each controller cycle compares the data plane's write-triggered
// invalidations against the hits it served. When invalidations dominate for
// several consecutive cycles, caching is costing more coherence work than
// it saves: the controller flushes the cache and pauses insertions for a
// cooldown, then re-enables and re-learns. The zero value disables the
// policy (the paper's manual-operator default).

// disableRatio is the invalidations-per-hit level considered
// write-dominated: the Fig. 10d crossover corresponds to roughly one
// invalidation per served hit.
const disableRatio = 1.0

// WritePolicy configures adaptive cache disabling.
type WritePolicy struct {
	// Enable turns the policy on.
	Enable bool
	// WindowCycles is how many consecutive write-dominated cycles
	// trigger the disable. Zero means 3.
	WindowCycles int
	// CooldownCycles is how long caching stays off before re-enabling.
	// Zero means 10.
	CooldownCycles int
}

func (p WritePolicy) withDefaults() WritePolicy {
	if p.WindowCycles <= 0 {
		p.WindowCycles = 3
	}
	if p.CooldownCycles <= 0 {
		p.CooldownCycles = 10
	}
	return p
}

// writePolicyState is the controller's runtime view of the policy.
type writePolicyState struct {
	cfg  WritePolicy
	last switchcore.LoadSignals

	hotCycles int // consecutive write-dominated cycles
	cooldown  int // remaining disabled cycles
	disabled  bool
}

// CachingDisabled reports whether the write policy currently has the cache
// turned off.
func (c *Controller) CachingDisabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wp.disabled
}

// applyWritePolicy evaluates one cycle's signals. It returns true when
// caching is currently disabled (the caller then skips inserts). Called
// from Tick, outside c.mu.
func (c *Controller) applyWritePolicy() bool {
	if !c.cfg.WritePolicy.Enable {
		return false
	}
	now := c.cfg.Switch.ReadLoadSignals()

	c.mu.Lock()
	st := &c.wp
	st.cfg = c.cfg.WritePolicy.withDefaults()
	dHits := now.Hits - st.last.Hits
	dInv := now.Invalidations - st.last.Invalidations
	st.last = now

	if st.disabled {
		st.cooldown--
		if st.cooldown > 0 {
			c.mu.Unlock()
			return true
		}
		// Cooldown over: re-enable and let the heavy-hitter reports
		// rebuild the cache.
		st.disabled = false
		st.hotCycles = 0
		c.Metrics.CacheReenabled.Inc()
		c.mu.Unlock()
		return false
	}

	writeDominated := len(c.entries) > 0 &&
		float64(dInv) > disableRatio*float64(dHits)
	if !writeDominated {
		st.hotCycles = 0
		c.mu.Unlock()
		return false
	}
	st.hotCycles++
	if st.hotCycles < st.cfg.WindowCycles {
		c.mu.Unlock()
		return false
	}

	// Disable: flush everything and start the cooldown.
	st.disabled = true
	st.cooldown = st.cfg.CooldownCycles
	st.hotCycles = 0
	for _, key := range append([]netproto.Key(nil), c.order...) {
		if e, ok := c.entries[key]; ok {
			c.evictLocked(e)
		}
	}
	c.Metrics.CacheDisabled.Inc()
	c.mu.Unlock()
	return true
}
