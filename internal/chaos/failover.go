package chaos

import (
	"errors"
	"fmt"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/rack"
	"netcache/internal/simnet"
)

// The failover scenario's replicated rack: failoverServers servers (enough
// that losing a primary and later its promoted backup still leaves the
// other partitions intact) and the detector's death threshold.
const (
	failoverServers = 4
	heartbeatMisses = 3
)

// FailoverReport is the outcome of a replicated-tier chaos run: the engine's
// Report plus what only this scenario measures.
type FailoverReport struct {
	Report
	// PostFailoverTimeouts is Report.FaultFreeTimeouts under the name the
	// failover experiment reports: timeouts in the fault-free phases after
	// a completed failover — any is a violation (the tier claims
	// availability without the crashed node).
	PostFailoverTimeouts uint64
	// HotReads is the number of reads of the pre-cached hot key that
	// succeeded while its primary was dead; every one of them must, since
	// the switch keeps serving it through the switchover.
	HotReads uint64
	// ColdTimeouts counts observed timeouts on uncached keys of the dead
	// partition during the detection window (proving the window exists).
	ColdTimeouts uint64
	// AvailabilityReads counts reads on healthy partitions that completed
	// during the detection window.
	AvailabilityReads uint64

	// DetectTicks is the number of controller ticks from crash to the
	// partition's route flip; FailoverLatency and FailbackLatency the
	// wall-clock crash→flip windows of the two injected failures.
	DetectTicks      int
	FailoverLatency  time.Duration
	FailbackLatency  time.Duration
	Failovers        uint64
	Deaths           uint64
	Rejoins          uint64
	ResyncCopied     uint64
	ReplicateGiveUps uint64
}

// RunFailover executes one seeded failover chaos scenario against a
// replicated rack and reports what happened. The lifecycle is the table in
// failover.scenario: replicated steady state under loss, a permanent primary
// crash and its detection window, fault-free service from the promoted
// backup, rejoin and resync, then the promoted node dies too and the
// partition fails back — with a full durability check after each failure.
func RunFailover(seed uint64) (*FailoverReport, error) {
	rn, sc, rep, err := buildFailover(seed)
	if err != nil {
		return nil, err
	}
	err = rn.run(sc)
	rep.PostFailoverTimeouts = rep.FaultFreeTimeouts
	return rep, err
}

// buildFailover assembles the replicated rack, the engine over it and the
// scenario table.
func buildFailover(seed uint64) (*runner, scenario, *FailoverReport, error) {
	rep := &FailoverReport{Report: Report{Seed: seed}}
	r, rn, err := newRackRunner(seed, failoverServers, heartbeatMisses, &rep.Report)
	if err != nil {
		return nil, scenario{}, nil, err
	}
	f := &failover{rack: r, rn: rn, report: rep}
	return rn, f.scenario(), rep, nil
}

// failover is what the failover table's steps share.
type failover struct {
	rack   *rack.Rack
	rn     *runner
	report *FailoverReport
	hotKid int // pre-cached, read-only key homed at the crash target
}

func (f *failover) homeIndex(kid int) int {
	return int(f.rack.Partition(f.rn.keys[kid])) - 1
}

// scenario derives the failover lifecycle from the seed. The crashes are
// permanent, and the durability checks must hold as the failure left
// things: the table never calls settle, so nothing restarts the dead. Each
// converge follows a heal and two controller cycles (quiesce), so a read
// that a cycle leaves stale after the failure (window C) fails its check.
func (f *failover) scenario() scenario {
	r, rn := f.rack, f.rn
	// The hot key is seed-chosen; its home partition is the crash target,
	// so the run always exercises "hot keys keep serving through failover".
	g := prng(f.report.Seed)
	f.hotKid = g.intn(numKeys)
	crashTarget := f.homeIndex(f.hotKid)
	promoted := (crashTarget + 1) % failoverServers
	home := rack.ServerAddr(crashTarget)

	// The hot key is never written after warmup, so its cache entry stays
	// valid for the whole run; once the promoted node is dead too, neither
	// are the keys homed at it.
	hotOnly := map[int]bool{f.hotKid: true}
	noPromoted := map[int]bool{f.hotKid: true}
	for kid := 0; kid < numKeys; kid++ {
		if f.homeIndex(kid) == promoted {
			noPromoted[kid] = true
		}
	}

	quiesce := step{do: act(func() {
		rn.heal()
		r.Tick()
		r.Tick()
	})}

	sc := scenario{
		header: fmt.Sprintf("scenario: crash-target=s%d promoted=s%d hot-key=%d", crashTarget, promoted, f.hotKid),
		precache: func() error {
			if err := r.Controller.InsertKey(rn.keys[f.hotKid]); err != nil {
				return fmt.Errorf("chaos failover: pre-cache hot key: %w", err)
			}
			for kid := 0; kid < numKeys && r.Controller.Len() < cacheSize/2; kid += 5 {
				if kid == f.hotKid {
					continue
				}
				if err := r.Controller.InsertKey(rn.keys[kid]); err != nil {
					return fmt.Errorf("chaos failover: pre-cache key %d: %w", kid, err)
				}
			}
			rn.event("warmup: %d keys written, %d pre-cached", numKeys, r.Controller.Len())
			return nil
		},
	}
	sc.phases = []phase{{
		// Replicated steady state under light loss — the replicate exchange
		// and the cache-update path both ride their retry machinery. Then
		// the primary dies, permanently, and the detection window is probed
		// until the partition flips.
		salt:     0xA5A5A5A5A5A5A5A5,
		readOnly: hotOnly,
		install:  []fault{{port: promoted, dir: simnet.FromSwitch, rule: simnet.FaultRule{Loss: g.rate(0.05, 0.15)}}},
		after: []step{
			{label: "phase 1: replicated workload under loss done"},
			{fmt.Sprintf("phase 2: crash server %d (no restart)", crashTarget), act(func() { r.CrashServer(crashTarget) })},
			{do: act(func() {
				f.report.FailoverLatency, f.report.DetectTicks = f.awaitFailover(crashTarget, home, true)
				rn.event("phase 2: partition failed over after %d ticks", f.report.DetectTicks)
			})},
		},
	}, {
		// Fault-free workload against the failed-over rack — the
		// availability oracle. Writes everywhere (the dead node's partition
		// is served by the promoted backup; partitions that lost their
		// backup have been detached and write through unreplicated). Then
		// the crashed node returns with its (stale) store, rejoins as backup
		// and catches up through the versioned resync.
		salt: 0x5A5A5A5A5A5A5A5A, readOnly: hotOnly, faultFree: true,
		after: []step{
			quiesce,
			{"phase 3: post-failover workload and durability check done", act(rn.converge)},
			{fmt.Sprintf("phase 4: restart server %d", crashTarget), act(func() { r.RestartServer(crashTarget, false) })},
			{do: act(func() { f.awaitReadyBackup(home) })},
		},
	}, {
		// With the rejoined backup caught up, the promoted node dies too —
		// also permanently. The partition must fail back to the original
		// with every acked write (including the outage-era ones it missed)
		// intact.
		salt: 0x3C3C3C3C3C3C3C3C, readOnly: hotOnly, faultFree: true,
		after: []step{
			{label: "phase 4: rejoined, resynced, workload done"},
			{fmt.Sprintf("phase 5: crash promoted server %d (no restart)", promoted), act(func() { r.CrashServer(promoted) })},
			{do: act(func() {
				f.report.FailbackLatency, _ = f.awaitFailover(promoted, home, false)
				if primary, _, _, _ := r.Controller.ReplicaState(home); primary != home {
					rn.violate("partition did not fail back to rejoined server %d (primary=%v)", crashTarget, primary)
				}
			})},
		},
	}, {
		salt: 0x6969696969696969, readOnly: noPromoted, faultFree: true,
		after: []step{
			quiesce,
			{"phase 5: failed back, final durability check done", act(rn.converge)},
			{do: act(func() {
				m := &r.Controller.Metrics
				f.report.Failovers = m.Failovers.Value()
				f.report.Deaths = m.Deaths.Value()
				f.report.Rejoins = m.Rejoins.Value()
				f.report.ResyncCopied = m.ResyncCopied.Value()
				for _, srv := range r.Servers {
					f.report.ReplicateGiveUps += srv.Metrics.ReplicateGiveUps.Value()
				}
			})},
		},
	}}
	return sc
}

// awaitFailover ticks the controller until the partition homed at home is
// served by a node other than deadIdx, probing availability along the way.
// It returns the crash→flip wall-clock latency and tick count.
func (f *failover) awaitFailover(deadIdx int, home netproto.Addr, probeCold bool) (time.Duration, int) {
	r, rn := f.rack, f.rn
	cli := r.Client(0)
	deadAddr := rack.ServerAddr(deadIdx)
	start := time.Now()
	ticks := 0
	for ; ticks < 10*heartbeatMisses; ticks++ {
		// The pre-cached hot key answers from the switch no matter which
		// server is dead: its value slot was never touched by the crash.
		if _, err := rn.get(cli, f.hotKid); err != nil {
			rn.violate("hot key read failed during switchover (tick %d): %v", ticks, err)
		} else {
			f.report.HotReads++
		}
		// Healthy partitions keep answering while the detector works: a
		// key whose current serving primary is neither the fresh corpse
		// nor a declared-dead node must read cleanly.
		for kid := 0; kid < numKeys; kid++ {
			serving := r.Controller.CurrentPrimary(rn.keys[kid])
			if serving == deadAddr || r.Controller.NodeDead(serving) {
				continue
			}
			// NotFound is a legal outcome (the key may be deleted);
			// only a timeout breaks the availability claim. The oracle
			// check inside get still vets the observation.
			if _, err := rn.get(cli, kid); errors.Is(err, client.ErrTimeout) {
				rn.violate("healthy partition read timed out during switchover: key %d", kid)
			} else {
				f.report.AvailabilityReads++
			}
			break
		}
		// Cold keys of the dead partition time out until the flip: the
		// detection window is real, not instantaneous.
		if probeCold && ticks == 0 {
			for kid := 0; kid < numKeys; kid++ {
				if kid != f.hotKid && f.homeIndex(kid) == deadIdx && !r.Controller.Cached(rn.keys[kid]) {
					if _, err := rn.get(cli, kid); errors.Is(err, client.ErrTimeout) {
						f.report.ColdTimeouts++
					}
					break
				}
			}
		}
		r.Tick()
		if p, _, _, ok := r.Controller.ReplicaState(home); ok && p != deadAddr && r.Controller.NodeDead(deadAddr) {
			return time.Since(start), ticks + 1
		}
	}
	rn.violate("partition homed at %v never failed over from dead server %d", home, deadIdx)
	return time.Since(start), ticks
}

// awaitReadyBackup ticks until addr is a caught-up backup of its home
// partition (bounded).
func (f *failover) awaitReadyBackup(addr netproto.Addr) {
	for i := 0; i < 200; i++ {
		if _, backup, ready, ok := f.rack.Controller.ReplicaState(addr); ok && ready && backup == addr {
			return
		}
		f.rack.Tick()
	}
	f.rn.violate("rejoined server %d never became a ready backup", int(addr)-1)
}
