package simnet

import (
	"sync"
	"sync/atomic"
	"testing"

	"netcache/internal/dataplane"
)

// loopSwitch is a trivial Switch: it forwards every frame to the port given
// by the frame's first byte.
type loopSwitch struct{ processed int }

func (s *loopSwitch) ProcessAppend(frame []byte, _ int, out []dataplane.Emitted) ([]dataplane.Emitted, error) {
	s.processed++
	if len(frame) == 0 {
		return out, nil
	}
	return append(out, dataplane.Emitted{Port: int(frame[0]), Frame: frame}), nil
}

func TestDeliveryToHandler(t *testing.T) {
	sw := &loopSwitch{}
	n := New(sw)
	var got [][]byte
	n.Attach(3, func(f []byte) { got = append(got, f) })
	if err := n.Inject([]byte{3, 42}, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][1] != 42 {
		t.Fatalf("delivered = %v", got)
	}
	if n.Delivered.Value() != 1 {
		t.Errorf("Delivered = %d", n.Delivered.Value())
	}
}

func TestUnattachedCounted(t *testing.T) {
	n := New(&loopSwitch{})
	n.Inject([]byte{9}, 0)
	if n.Unattached.Value() != 1 {
		t.Errorf("Unattached = %d", n.Unattached.Value())
	}
}

func TestLossInjection(t *testing.T) {
	sw := &loopSwitch{}
	n := New(sw)
	delivered := 0
	n.Attach(1, func([]byte) { delivered++ })
	n.SetFault(1, FromSwitch, FaultRule{Loss: 1})
	for i := 0; i < 100; i++ {
		n.Inject([]byte{1}, 0)
	}
	if delivered != 0 {
		t.Errorf("loss 1.0 delivered %d frames", delivered)
	}
	if n.LossDropped.Value() != 100 {
		t.Errorf("LossDropped = %d", n.LossDropped.Value())
	}
	n.SetFault(1, FromSwitch, FaultRule{}) // clear
	n.Inject([]byte{1}, 0)
	if delivered != 1 {
		t.Error("clearing loss should restore delivery")
	}
}

func TestPartialLossRate(t *testing.T) {
	sw := &loopSwitch{}
	n := New(sw)
	delivered := 0
	n.Attach(1, func([]byte) { delivered++ })
	n.SetFault(1, FromSwitch, FaultRule{Loss: 0.5})
	const total = 10000
	for i := 0; i < total; i++ {
		n.Inject([]byte{1}, 0)
	}
	if delivered < 4500 || delivered > 5500 {
		t.Errorf("50%% loss delivered %d/%d", delivered, total)
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	n := New(&loopSwitch{})
	n.Attach(0, func([]byte) {})
	for i, fn := range []func(){
		func() { n.Attach(0, func([]byte) {}) },
		func() { n.Attach(-1, func([]byte) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestReentrantHandler(t *testing.T) {
	// A handler that injects a response, like a storage server.
	sw := &loopSwitch{}
	n := New(sw)
	var final []byte
	n.Attach(1, func(f []byte) {
		n.Inject([]byte{2, f[1] + 1}, 1)
	})
	n.Attach(2, func(f []byte) { final = f })
	n.Inject([]byte{1, 10}, 0)
	if final == nil || final[1] != 11 {
		t.Fatalf("reentrant delivery = %v", final)
	}
}

// atomicSwitch forwards to the port in the frame's first byte, counting
// traversals atomically so concurrent Injects can share it.
type atomicSwitch struct{ processed atomic.Int64 }

func (s *atomicSwitch) ProcessAppend(frame []byte, _ int, out []dataplane.Emitted) ([]dataplane.Emitted, error) {
	s.processed.Add(1)
	return append(out, dataplane.Emitted{Port: int(frame[0]), Frame: frame}), nil
}

// Concurrent Inject: every frame is delivered exactly once, and no endpoint
// ever runs its handler from two goroutines at the same time (per-port
// serialization).
func TestConcurrentInject(t *testing.T) {
	sw := &atomicSwitch{}
	n := New(sw)
	var delivered atomic.Int64
	var inHandler atomic.Int32
	n.Attach(1, func([]byte) {
		if inHandler.Add(1) != 1 {
			t.Error("handler entered concurrently")
		}
		delivered.Add(1)
		inHandler.Add(-1)
	})
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Inject([]byte{1}, 0); err != nil {
					t.Errorf("inject: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := delivered.Load(); got != goroutines*per {
		t.Errorf("delivered = %d, want %d", got, goroutines*per)
	}
	if n.Unattached.Value() != 0 {
		t.Errorf("Unattached = %d", n.Unattached.Value())
	}
}

// A single producer's frames to one port arrive in injection order even when
// the handler re-enters and other ports carry traffic.
func TestPerPortOrdering(t *testing.T) {
	sw := &atomicSwitch{}
	n := New(sw)
	var got []byte
	n.Attach(1, func(f []byte) { got = append(got, f[1]) })
	for i := 0; i < 100; i++ {
		n.Inject([]byte{1, byte(i)}, 0)
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("frame %d arrived out of order (seq %d)", i, b)
		}
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d/100", len(got))
	}
}

// Loss injection stays contention-free and statistically sound when frames
// race: the splitmix draw never locks, and the aggregate rate holds.
func TestConcurrentLoss(t *testing.T) {
	sw := &atomicSwitch{}
	n := New(sw)
	var delivered atomic.Int64
	n.Attach(1, func([]byte) { delivered.Add(1) })
	n.SetFault(1, FromSwitch, FaultRule{Loss: 0.5})
	const goroutines, per = 4, 2500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Inject([]byte{1}, 0)
			}
		}()
	}
	wg.Wait()
	d := delivered.Load()
	if d < 4500 || d > 5500 {
		t.Errorf("50%% loss delivered %d/%d", d, goroutines*per)
	}
	if uint64(d)+n.LossDropped.Value() != goroutines*per {
		t.Errorf("delivered %d + dropped %d != %d", d, n.LossDropped.Value(), goroutines*per)
	}
}

func TestDuplicateInjection(t *testing.T) {
	n := New(&loopSwitch{})
	delivered := 0
	n.Attach(1, func([]byte) { delivered++ })
	n.SetFault(1, FromSwitch, FaultRule{Dup: 1.0})
	for i := 0; i < 10; i++ {
		n.Inject([]byte{1}, 0)
	}
	if delivered != 20 {
		t.Errorf("dup 1.0 delivered %d frames, want 20", delivered)
	}
	if n.Duplicated.Value() != 10 {
		t.Errorf("Duplicated = %d, want 10", n.Duplicated.Value())
	}
}

func TestCorruptInjection(t *testing.T) {
	n := New(&loopSwitch{})
	var got [][]byte
	n.Attach(1, func(f []byte) { got = append(got, f) })
	n.SetFault(0, ToSwitch, FaultRule{Corrupt: 1.0})
	orig := []byte{1, 10, 20, 30, 40}
	want := append([]byte(nil), orig...)
	n.Inject(orig, 0)
	if n.CorruptInjected.Value() != 1 {
		t.Fatalf("CorruptInjected = %d", n.CorruptInjected.Value())
	}
	if string(orig) != string(want) {
		t.Error("corruption mutated the caller's buffer")
	}
	// The loopSwitch forwards whatever arrives; at least one byte of the
	// delivered frame must differ (a corrupted first byte may reroute or
	// strand the frame, so tolerate zero deliveries).
	for _, f := range got {
		same := len(f) == len(orig)
		if same {
			for i := range f {
				if f[i] != orig[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("delivered frame identical to original despite corrupt 1.0")
		}
	}
}

func TestReorderHoldsAndReleases(t *testing.T) {
	n := New(&loopSwitch{})
	var got []byte
	n.Attach(1, func(f []byte) { got = append(got, f[1]) })
	// Hold the first frame(s); depth 2 means release after 2 passing frames.
	n.SetFault(1, FromSwitch, FaultRule{Reorder: 1.0, ReorderDepth: 2})
	for i := 0; i < 6; i++ {
		n.Inject([]byte{1, byte(i)}, 0)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("delivered %d/6 frames after Flush: %v", len(got), got)
	}
	if n.Reordered.Value() == 0 {
		t.Error("Reordered counter never advanced")
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Errorf("reorder 1.0 delivered frames in order: %v", got)
	}
	seen := map[byte]bool{}
	for _, b := range got {
		seen[b] = true
	}
	if len(seen) != 6 {
		t.Errorf("frames lost or duplicated by reorder: %v", got)
	}
}

func TestFlushReleasesHeldFrames(t *testing.T) {
	n := New(&loopSwitch{})
	delivered := 0
	n.Attach(1, func([]byte) { delivered++ })
	n.SetFault(1, FromSwitch, FaultRule{Reorder: 1.0, ReorderDepth: 8})
	n.Inject([]byte{1}, 0)
	if delivered != 0 {
		t.Fatalf("frame should be held, delivered %d", delivered)
	}
	n.ClearFaults()
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("Flush delivered %d frames, want 1", delivered)
	}
}

func TestPartition(t *testing.T) {
	n := New(&loopSwitch{})
	delivered := 0
	n.Attach(1, func([]byte) { delivered++ })
	n.SetPartitioned([]int{0}, []int{1}, true)
	n.Inject([]byte{1}, 0)
	if delivered != 0 {
		t.Fatal("partitioned traffic was delivered")
	}
	if n.PartitionDropped.Value() != 1 {
		t.Errorf("PartitionDropped = %d", n.PartitionDropped.Value())
	}
	// Unrelated ports are unaffected.
	n.Inject([]byte{1}, 2)
	if delivered != 1 {
		t.Error("traffic from an unpartitioned port was dropped")
	}
	n.SetPartitioned([]int{0}, []int{1}, false)
	n.Inject([]byte{1}, 0)
	if delivered != 2 {
		t.Error("healed partition still drops")
	}
}

func TestPortDown(t *testing.T) {
	n := New(&loopSwitch{})
	delivered := 0
	n.Attach(1, func([]byte) { delivered++ })
	n.SetPortDown(0, true) // injecting side down
	n.Inject([]byte{1}, 0)
	n.SetPortDown(0, false)
	n.SetPortDown(1, true) // receiving side down
	n.Inject([]byte{1}, 0)
	if delivered != 0 {
		t.Fatalf("down port delivered %d frames", delivered)
	}
	if n.DownDropped.Value() != 2 {
		t.Errorf("DownDropped = %d, want 2", n.DownDropped.Value())
	}
	n.SetPortDown(1, false)
	n.Inject([]byte{1}, 0)
	if delivered != 1 {
		t.Error("restored port still drops")
	}
}

// The same seed, rules, and frame sequence draw the same fault schedule.
func TestFaultDeterminism(t *testing.T) {
	run := func() []byte {
		n := New(&loopSwitch{})
		var got []byte
		n.Attach(1, func(f []byte) { got = append(got, f[1]) })
		n.SetFault(1, FromSwitch, FaultRule{Loss: 0.3, Dup: 0.2, Reorder: 0.2})
		n.Reseed(12345)
		for i := 0; i < 200; i++ {
			n.Inject([]byte{1, byte(i)}, 0)
		}
		n.ClearFaults()
		n.Flush()
		return got
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("two seeded runs diverged:\n%v\n%v", a, b)
	}
}

// A rule's fault schedule depends only on the seed and its own frames:
// traffic through another faulted port, interleaved in any amount, and an
// earlier rule on the same port+direction do not move which frames it hits.
func TestFaultStreamPerPortDir(t *testing.T) {
	run := func(crossTraffic int) []byte {
		n := New(&loopSwitch{})
		n.Reseed(99)
		var got []byte
		n.Attach(1, func(f []byte) { got = append(got, f[1]) })
		n.Attach(2, func([]byte) {})
		n.SetFault(2, FromSwitch, FaultRule{Loss: 0.5, Corrupt: 0.5})
		n.SetFault(1, FromSwitch, FaultRule{Dup: 0.5})
		for i := 0; i < crossTraffic; i++ {
			n.Inject([]byte{1, 0xff}, 0)
		}
		got = got[:0]
		n.SetFault(1, FromSwitch, FaultRule{Loss: 0.3})
		for i := 0; i < 100; i++ {
			for j := 0; j < crossTraffic; j++ {
				n.Inject([]byte{2, byte(j)}, 0)
			}
			n.Inject([]byte{1, byte(i)}, 0)
		}
		return got
	}
	want := run(0)
	if len(want) == 0 || len(want) == 100 {
		t.Fatalf("loss 0.3 delivered %d of 100 frames", len(want))
	}
	for _, cross := range []int{1, 3} {
		if got := run(cross); string(got) != string(want) {
			t.Errorf("cross traffic %d moved the schedule:\n%v\n%v", cross, got, want)
		}
	}
}

func TestPortDirDown(t *testing.T) {
	n := New(&loopSwitch{})
	delivered := 0
	n.Attach(1, func([]byte) { delivered++ })

	// Only the injecting half of port 0 is down: its frames vanish, but the
	// switch still emits toward it and other ports are untouched.
	n.SetPortDirDown(0, ToSwitch, true)
	n.Inject([]byte{1}, 0)
	if delivered != 0 {
		t.Fatalf("ToSwitch-down port injected %d frames", delivered)
	}
	n.Inject([]byte{1}, 2) // unaffected port still reaches 1
	if delivered != 1 {
		t.Fatal("unrelated port was affected by a directional fault")
	}
	n.SetPortDirDown(0, ToSwitch, false)

	// Only the emitting half of port 1 is down: injections get in but
	// nothing is delivered out of port 1.
	n.SetPortDirDown(1, FromSwitch, true)
	n.Inject([]byte{1}, 0)
	if delivered != 1 {
		t.Fatal("FromSwitch-down port still delivered")
	}
	// The opposite direction of the same port keeps working: port 1 can
	// still inject toward others.
	got2 := 0
	n.Attach(2, func([]byte) { got2++ })
	n.Inject([]byte{2}, 1)
	if got2 != 1 {
		t.Fatal("ToSwitch half of a FromSwitch-down port was blocked")
	}
	if n.DownDropped.Value() != 2 {
		t.Errorf("DownDropped = %d, want 2", n.DownDropped.Value())
	}

	// Healing one direction restores it without touching the other.
	n.SetPortDirDown(1, FromSwitch, false)
	n.Inject([]byte{1}, 0)
	if delivered != 2 {
		t.Error("healed direction still drops")
	}
}

// Every fault mutator keeps the clean-fabric flag in step: the frame injected
// right after a mutator returns sees the fault it installed, and the frame
// after clearing it takes the clean path again.
func TestCleanFlagFollowsEveryMutator(t *testing.T) {
	for _, tc := range []struct {
		name       string
		set, clear func(n *Net)
		dropped    func(n *Net) uint64
	}{
		{"SetFault",
			func(n *Net) { n.SetFault(1, FromSwitch, FaultRule{Loss: 1}) },
			func(n *Net) { n.SetFault(1, FromSwitch, FaultRule{}) },
			func(n *Net) uint64 { return n.LossDropped.Value() }},
		{"SetPartitioned",
			func(n *Net) { n.SetPartitioned([]int{0}, []int{1}, true) },
			func(n *Net) { n.SetPartitioned([]int{0}, []int{1}, false) },
			func(n *Net) uint64 { return n.PartitionDropped.Value() }},
		{"SetPortDirDown",
			func(n *Net) { n.SetPortDirDown(0, ToSwitch, true) },
			func(n *Net) { n.SetPortDirDown(0, ToSwitch, false) },
			func(n *Net) uint64 { return n.DownDropped.Value() }},
		{"ClearFaults",
			func(n *Net) {
				n.SetFault(0, ToSwitch, FaultRule{Loss: 1})
				n.SetPartitioned([]int{0}, []int{1}, true)
				n.SetPortDirDown(1, FromSwitch, true)
			},
			func(n *Net) { n.ClearFaults() },
			func(n *Net) uint64 { return n.LossDropped.Value() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(&loopSwitch{})
			delivered := 0
			n.Attach(1, func([]byte) { delivered++ })
			step := func(stage string, wantClean bool, wantDelivered int) {
				t.Helper()
				n.Inject([]byte{1}, 0)
				if got := n.clean.Load(); got != wantClean {
					t.Fatalf("%s: clean = %v, want %v", stage, got, wantClean)
				}
				if delivered != wantDelivered {
					t.Fatalf("%s: delivered %d frames, want %d", stage, delivered, wantDelivered)
				}
			}
			step("fresh", true, 1)
			tc.set(n)
			step("after set", false, 1)
			if tc.dropped(n) != 1 {
				t.Errorf("drop counter = %d, want 1", tc.dropped(n))
			}
			tc.clear(n)
			step("after clear", true, 2)
		})
	}
}
