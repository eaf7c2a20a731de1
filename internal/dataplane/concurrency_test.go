package dataplane

import (
	"sync"
	"testing"
)

// countProgram builds a tiny program whose single ingress action bumps slot 0
// of a 64-bit register and forwards to port 0.
func countProgram(t *testing.T) (*Pipeline, *Register) {
	t.Helper()
	p := NewProgram("count")
	f := p.Field("f", 8)
	reg := p.Register(RegisterSpec{Name: "ctr", Gress: Ingress, Slots: 4, SlotBits: 64})
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 4,
		Registers: []*Register{reg},
	})
	tab.Action("bump", func(ctx *Ctx, data []uint64) {
		ctx.RegAdd(reg, 0, 1)
		ctx.EgressPort = 0
	})
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.Set(f, uint64(raw[0]))
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return append(out, ctx.Raw...) })
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEntry([]uint64{1}, "bump", nil); err != nil {
		t.Fatal(err)
	}
	return pl, reg
}

// Process from many goroutines: every packet and every register bump must be
// accounted for exactly once.
func TestConcurrentProcess(t *testing.T) {
	pl, reg := countProgram(t)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out, err := pl.ProcessAppend([]byte{1}, 0, nil)
				if err != nil || len(out) != 1 {
					t.Errorf("Process = %v, %v", out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const want = goroutines * per
	if got := reg.Get(0); got != want {
		t.Errorf("register count = %d, want %d", got, want)
	}
	st := pl.Stats()
	if st.RxPackets != want || st.TxPackets != want {
		t.Errorf("Rx/Tx = %d/%d, want %d", st.RxPackets, st.TxPackets, want)
	}
	var pipeSum uint64
	for _, v := range st.ByEgressPipe {
		pipeSum += v
	}
	if pipeSum != want {
		t.Errorf("ByEgressPipe sum = %d, want %d", pipeSum, want)
	}
}

// Narrow slots share a 64-bit word; concurrent updates to neighboring slots
// must not tear each other (the per-word CAS path).
func TestRegisterPackedSlotsConcurrent(t *testing.T) {
	r, err := newRegister(RegisterSpec{Name: "packed", Gress: Ingress, Slots: 8, SlotBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	const per = 200 // < 255: no saturation
	var wg sync.WaitGroup
	for slot := 0; slot < 8; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.AddSat(slot, 1)
			}
		}(slot)
	}
	wg.Wait()
	for slot := 0; slot < 8; slot++ {
		if got := r.Get(slot); got != per {
			t.Errorf("slot %d = %d, want %d (torn neighbor update)", slot, got, per)
		}
	}
}

// AddSat under contention must saturate exactly, never wrap.
func TestRegisterSaturationConcurrent(t *testing.T) {
	r, err := newRegister(RegisterSpec{Name: "sat", Gress: Ingress, Slots: 4, SlotBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				r.AddSat(0, 7)
			}
		}()
	}
	wg.Wait()
	if got := r.Get(0); got != 0xFFFF {
		t.Errorf("saturated counter = %#x, want 0xFFFF", got)
	}
}

// Control-plane table mutation concurrent with lookups: copy-on-write states
// mean every packet sees a complete snapshot and inserts never stall or
// corrupt traffic. The race detector guards the implementation; the
// assertions guard the accounting.
func TestTableMutationDuringLookups(t *testing.T) {
	pl, _ := countProgram(t)
	tab := pl.Program().tableByName["t"]

	stop := make(chan struct{})
	var mutations int
	go func() {
		defer close(stop)
		for i := 0; i < 300; i++ {
			key := uint64(2 + i%2) // keys 2,3: never queried
			if err := tab.AddEntry([]uint64{key}, "bump", nil); err != nil {
				t.Errorf("AddEntry: %v", err)
				return
			}
			if _, err := tab.DeleteEntry([]uint64{key}); err != nil {
				t.Errorf("DeleteEntry: %v", err)
				return
			}
			mutations++
		}
	}()

	var processed int
	for {
		select {
		case <-stop:
			if mutations != 300 {
				t.Fatalf("mutations = %d, want 300", mutations)
			}
			if tx := pl.Stats().TxPackets; tx != uint64(processed) {
				t.Fatalf("transmitted %d, want the %d processed", tx, processed)
			}
			return
		default:
			out, err := pl.ProcessAppend([]byte{1}, 0, nil)
			if err != nil || len(out) != 1 {
				t.Fatalf("Process during mutation = %v, %v", out, err)
			}
			processed++
		}
	}
}
