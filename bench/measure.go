package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/workload"
)

// window says when a run ends: after ops operations, or, when dur is set,
// once dur has passed. Op counts make counters comparable across commits;
// durations are what the driver's contract asks for.
type window struct {
	ops int
	dur time.Duration
}

func (w window) scaled(f float64) window {
	return window{ops: int(float64(w.ops) * f), dur: time.Duration(float64(w.dur) * f)}
}

// sliceStat is one tenth of a window.
type sliceStat struct {
	ops, gets, failed int
	wall              time.Duration
	stolen            time.Duration // CPU time the hypervisor took from this VM
	get, put          quantiles
	late              quantiles // open loop: how far behind schedule each send was
}

// quantiles summarizes one slice's latency samples, in microseconds.
type quantiles struct {
	n             int
	p50, p90, p99 float64
}

func summarize(ns []uint32) quantiles {
	if len(ns) == 0 {
		return quantiles{}
	}
	slices.Sort(ns)
	at := func(q float64) float64 { return float64(ns[int(q*float64(len(ns)-1))]) / 1e3 }
	return quantiles{n: len(ns), p50: at(0.50), p90: at(0.90), p99: at(0.99)}
}

// runStats is what one window measured.
type runStats struct {
	slices  []sliceStat
	ops     int
	gets    int
	failed  int
	wall    time.Duration
	delta   counters
	cpu     time.Duration // user+system CPU of the process over the window
	mallocs uint64
	rssMB   float64
	frames  float64 // UDP: frames through the switch per datagram on the host
}

// add accumulates another window's ops and wall time (the rest is per window).
func (rs *runStats) add(o runStats) {
	rs.ops += o.ops
	rs.gets += o.gets
	rs.failed += o.failed
	rs.wall += o.wall
}

// loop is the single generator goroutine driving one client connection.
type loop struct {
	d    *deployment
	cl   *client.Client
	g    *generator
	tr   *tracer // nil on untraced runs
	base time.Time

	issue func()
	n     int // ops issued; drives inline ticks and latency sampling

	// current slice
	ops, gets, failed  int
	getNs, putNs, late []uint32
	now                time.Duration // last clock read, for the slice deadline

	// open loop
	interval time.Duration
	nextDue  time.Duration

	batch []netproto.Key
	ids   []int
}

func newLoop(d *deployment, g *generator, tr *tracer) *loop {
	// A slice keeps at most this many latency samples of a kind, so the
	// buffers never grow mid-run; past it the slice's later ops go untimed.
	const sampleCap = 1 << 18
	l := &loop{d: d, cl: d.cl, g: g, tr: tr, base: time.Now()}
	l.getNs = make([]uint32, 0, sampleCap)
	l.putNs = make([]uint32, 0, sampleCap)
	l.late = make([]uint32, 0, sampleCap)
	l.setMode(d.spec.window, d.spec.rateKops)
	return l
}

// setMode picks how ops are issued: blocking one at a time, GetBatch
// windows, or blocking on a fixed arrival schedule.
func (l *loop) setMode(window int, rateKops float64) {
	switch {
	case rateKops > 0:
		l.interval = time.Duration(float64(time.Millisecond) / rateKops)
		l.issue = l.issueOpen
	case window > 1:
		l.batch = make([]netproto.Key, window)
		l.ids = make([]int, window)
		l.issue = l.issueBatch
	default:
		l.issue = l.issueBlocking
	}
}

func (l *loop) clock() time.Duration {
	l.now = time.Since(l.base)
	return l.now
}

func sample(buf *[]uint32, d time.Duration) {
	if len(*buf) < cap(*buf) {
		*buf = append(*buf, uint32(min(d, 1<<32-1)))
	}
}

func (l *loop) count(c failClass, get bool) {
	l.ops++
	if get {
		l.gets++
	}
	if c != ok {
		l.failed++
	}
}

// afterOp runs the inline controller cycle of the simnet workloads.
func (l *loop) afterOp() {
	l.n++
	if !l.d.spec.udp && l.n%simTickEvery == 0 {
		s := l.tr.begin(spanTick)
		l.d.tick()
		l.tr.end(s)
	}
}

// issueBlocking sends one Get or Put and waits for its reply. Every
// latencyEvery-th op is timed.
func (l *loop) issueBlocking() {
	root := l.tr.begin(spanOp)
	q := l.g.stream.Next()
	key := workload.KeyName(q.Key)
	timed := l.n%latencyEvery == 0
	var c failClass
	if q.Write {
		value := l.g.nextValue(q.Key)
		var t0 time.Duration
		if timed {
			t0 = l.clock()
		}
		call := l.tr.begin(spanClientPut)
		err := l.cl.Put(key, value)
		l.tr.end(call)
		if timed {
			sample(&l.putNs, l.clock()-t0)
		}
		c = l.g.checkPut(q.Key, err)
	} else {
		var t0 time.Duration
		if timed {
			t0 = l.clock()
		}
		call := l.tr.begin(spanClientGet)
		v, err := l.cl.Get(key)
		l.tr.end(call)
		if timed {
			sample(&l.getNs, l.clock()-t0)
		}
		c = l.g.checkGet(q.Key, v, err)
	}
	l.count(c, !q.Write)
	l.afterOp()
	l.tr.endOp(root)
}

// issueBatch keeps one GetBatch window in flight. A latency sample is the
// time until the last reply of the window: what a pipelining caller waits.
func (l *loop) issueBatch() {
	for i := range l.batch {
		l.ids[i] = l.g.stream.Next().Key
		l.batch[i] = workload.KeyName(l.ids[i])
	}
	t0 := l.clock()
	values, errs := l.cl.GetBatch(l.batch)
	sample(&l.getNs, l.clock()-t0)
	for i, id := range l.ids {
		l.count(l.g.checkGet(id, values[i], errs[i]), true)
		l.afterOp()
	}
}

// issueOpen sends one blocking Get at its scheduled time, busy-waiting
// until then, and times it from the schedule, not from the actual send: a
// stall delays every later arrival and each of them pays for it.
func (l *loop) issueOpen() {
	id := l.g.stream.Next().Key
	key := workload.KeyName(id)
	due := l.nextDue
	l.nextDue += l.interval
	now := l.clock()
	for now < due {
		now = l.clock()
	}
	sample(&l.late, now-due)
	v, err := l.cl.Get(key)
	sample(&l.getNs, l.clock()-due)
	l.count(l.g.checkGet(id, v, err), true)
	l.afterOp()
}

// run measures one window in equal slices and returns what happened.
func (l *loop) run(w window) runStats {
	var rs runStats
	before := l.d.read()
	dgBefore := udpDatagramsSent()
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	runtime.ReadMemStats(&ms0)

	start := l.clock()
	l.nextDue = start
	for s := 0; s < numSlices; s++ {
		stolen := cpuStolen()
		sliceStart := l.clock() - l.tr.paused()
		l.ops, l.gets, l.failed = 0, 0, 0
		l.getNs, l.putNs, l.late = l.getNs[:0], l.putNs[:0], l.late[:0]
		if w.dur > 0 {
			deadline := start + w.dur*time.Duration(s+1)/numSlices
			// The clock is read on timed ops only; between them the
			// last reading stands in, at most latencyEvery ops old.
			for l.now < deadline {
				l.issue()
			}
		} else {
			target := w.ops * (s + 1) / numSlices
			for rs.ops+l.ops < target {
				l.issue()
			}
		}
		st := sliceStat{ops: l.ops, gets: l.gets, failed: l.failed, wall: l.clock() - l.tr.paused() - sliceStart}
		st.stolen = cpuStolen() - stolen
		st.get, st.put, st.late = summarize(l.getNs), summarize(l.putNs), summarize(l.late)
		rs.slices = append(rs.slices, st)
		rs.ops += st.ops
		rs.gets += st.gets
		rs.failed += st.failed
		rs.wall += st.wall
	}

	runtime.ReadMemStats(&ms1)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	rs.delta = l.d.read().sub(before)
	rs.cpu = time.Duration(ru1.Utime.Nano()+ru1.Stime.Nano()) - time.Duration(ru0.Utime.Nano()+ru0.Stime.Nano())
	rs.mallocs = ms1.Mallocs - ms0.Mallocs
	rs.rssMB = float64(ru1.Maxrss) / 1024 // Linux reports KiB
	if dg := udpDatagramsSent() - dgBefore; l.d.spec.udp && dg > 0 {
		rs.frames = float64(rs.delta.rxFrames+rs.delta.txFrames) / float64(dg)
	}
	return rs
}

// warmUp lets the controller fill the cache organically. On simnet that is
// a fixed op count; on UDP the daemon's own 1 s cycle decides, so it runs
// until the cache size stands still for two cycles, or maxDur.
func (l *loop) warmUp(ops int, maxDur time.Duration) {
	if l.d.spec.rateKops > 0 {
		// The scheduled rate would take minutes to report the hot keys.
		l.setMode(1, 0)
		defer l.setMode(l.d.spec.window, l.d.spec.rateKops)
	}
	if !l.d.spec.udp {
		for l.n < ops {
			l.issue()
		}
		return
	}
	const cycle = time.Second
	last, still := -1, 0
	for start := l.clock(); still < 2 && l.clock()-start < maxDur; {
		for end := l.clock() + min(cycle, maxDur); l.clock() < end; {
			l.issue()
		}
		if n := l.d.cacheLen(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v (at least two values)
// as Python's statistics.quantiles(v, n=4) gives them, which is how the
// driver computes a spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return q3 - q1
}

// disturbed reports whether the hypervisor ran something else on this VM's
// CPUs for more than 1 % of the slice (steal time in /proc/stat): the slice
// then measured the host, not the rack.
func (s sliceStat) disturbed() bool {
	return s.stolen > s.wall*time.Duration(runtime.NumCPU())/100
}

// perSlice maps f over the undisturbed slices, or over all of them when
// fewer than three are undisturbed.
func perSlice(rs runStats, f func(sliceStat) float64) []float64 {
	var clean, all []float64
	for _, s := range rs.slices {
		all = append(all, f(s))
		if !s.disturbed() {
			clean = append(clean, f(s))
		}
	}
	if len(clean) >= 3 {
		return clean
	}
	return all
}

// kops is a slice's correct ops per wall-second, in thousands.
func (s sliceStat) kops() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.ops-s.failed) / s.wall.Seconds() / 1e3
}
