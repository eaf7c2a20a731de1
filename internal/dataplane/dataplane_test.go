package dataplane

import (
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// testProgram builds a minimal forwarding program: parse a 2-byte "dst"
// field, look it up in an ingress route table that sets the egress port, and
// count packets per destination in an egress register.
func testProgram(t *testing.T) (*Program, *Table, *Register, FieldID) {
	t.Helper()
	p := NewProgram("test")
	dst := p.Field("dst", 16)
	port := p.Field("port_meta", 16)

	counter := p.Register(RegisterSpec{Name: "cnt", Gress: Egress, Slots: 16, SlotBits: 32})

	route := p.TableBuild(TableSpec{
		Name: "route", Gress: Ingress,
		MatchFields: []FieldID{dst}, Kind: MatchExact,
		Size: 64, ActionDataWords: 1,
	})
	route.Action("fwd", func(ctx *Ctx, data []uint64) {
		ctx.Set(port, data[0])
		ctx.EgressPort = int(data[0])
	})
	route.Action("drop", func(ctx *Ctx, data []uint64) { ctx.Drop() })
	if err := route.SetDefault("drop", nil); err != nil {
		t.Fatal(err)
	}

	count := p.TableBuild(TableSpec{
		Name: "count", Gress: Egress,
		MatchFields: []FieldID{dst}, Kind: MatchExact,
		Size: 64, ActionDataWords: 1, Registers: []*Register{counter},
	})
	count.Action("bump", func(ctx *Ctx, data []uint64) {
		ctx.RegAdd(counter, int(data[0]), 1)
	})

	p.SetParser(func(raw []byte, ctx *Ctx) error {
		if len(raw) < 2 {
			return errShort
		}
		ctx.Set(dst, uint64(binary.BigEndian.Uint16(raw)))
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte {
		return append(out, ctx.Raw...)
	})
	return p, count, counter, dst
}

type shortErr struct{}

func (shortErr) Error() string { return "short" }

var errShort = shortErr{}

func smallChip() ChipConfig {
	c := TofinoLike()
	c.Pipes = 2
	c.PortsPerPipe = 8
	return c
}

func pkt(dst uint16) []byte {
	return binary.BigEndian.AppendUint16(nil, dst)
}

func TestCompileAndForward(t *testing.T) {
	p, count, counter, _ := testProgram(t)
	pl, rep, err := Compile(p, smallChip())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if rep.TotalSRAM() == 0 {
		t.Error("expected nonzero SRAM usage")
	}

	route := p.tableByName["route"]
	if err := route.AddEntry([]uint64{7}, "fwd", []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := count.AddEntry([]uint64{7}, "bump", []uint64{5}); err != nil {
		t.Fatal(err)
	}

	out, err := pl.ProcessAppend(pkt(7), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 3 {
		t.Fatalf("expected 1 packet on port 3, got %+v", out)
	}
	if got := counter.Get(5); got != 1 {
		t.Errorf("counter slot 5 = %d, want 1", got)
	}

	// Unrouted destination hits the drop default.
	out, err = pl.ProcessAppend(pkt(9), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("expected drop, got %+v", out)
	}
	st := pl.Stats()
	if st.RxPackets != 2 || st.TxPackets != 1 || st.PipeDrops != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPathClassCounts: packets a compiled path counts (CountCompiled) add
// into the pipeline counters as the interpreter would have counted the same
// packets, and a compiled path's digest is counted and delivered like an
// action's.
func TestPathClassCounts(t *testing.T) {
	p, _, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	route := p.tableByName["route"]
	if err := route.AddEntry([]uint64{7}, "fwd", []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.ProcessAppend(pkt(7), 0, nil); err != nil { // interpreted, to port 3
		t.Fatal(err)
	}
	pl.CountCompiled(0, 3, false)  // pipe 0
	pl.CountCompiled(5, 12, false) // pipe 1
	pl.CountCompiled(15, 9, true)  // pipe 1, mirrored
	var got []byte
	report := []byte("hot")
	pl.Digest(report)
	report[0] = 'x' // the payload was copied
	pl.DrainDigests(func(d []byte) { got = d })
	st := pl.Stats()
	want := Counters{RxPackets: 4, TxPackets: 4, Mirrored: 1, Digests: 1, ByEgressPipe: []uint64{2, 2}}
	if !reflect.DeepEqual(st, want) || string(got) != "hot" {
		t.Errorf("stats %+v digest %q, want %+v and \"hot\"", st, got, want)
	}
}

func TestParserExceptionDrops(t *testing.T) {
	p, _, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	out, err := pl.ProcessAppend([]byte{0x1}, 0, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("short packet: out=%v err=%v", out, err)
	}
	if st := pl.Stats(); st.ParseDrops != 1 {
		t.Errorf("ParseDrops = %d, want 1", st.ParseDrops)
	}
}

func TestBadInputPort(t *testing.T) {
	p, _, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.ProcessAppend(pkt(1), 999, nil); err == nil {
		t.Error("expected error for out-of-range port")
	}
}

func TestTableEntryManagement(t *testing.T) {
	p, _, _, _ := testProgram(t)
	if _, _, err := Compile(p, smallChip()); err != nil {
		t.Fatal(err)
	}
	route := p.tableByName["route"]

	if err := route.AddEntry([]uint64{1}, "nosuch", nil); err == nil {
		t.Error("unknown action should fail")
	}
	if err := route.AddEntry([]uint64{1, 2}, "fwd", []uint64{0}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := route.AddEntry([]uint64{1}, "fwd", []uint64{0, 1}); err == nil {
		t.Error("excess action data should fail")
	}
	for i := 0; i < 64; i++ {
		if err := route.AddEntry([]uint64{uint64(i)}, "fwd", []uint64{0}); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if err := route.AddEntry([]uint64{100}, "fwd", []uint64{0}); err == nil {
		t.Error("table overflow should fail")
	}
	// Overwrite in place is allowed even when full.
	if err := route.AddEntry([]uint64{5}, "fwd", []uint64{1}); err != nil {
		t.Errorf("overwrite: %v", err)
	}
	ok, err := route.DeleteEntry([]uint64{5})
	if err != nil || !ok {
		t.Errorf("delete existing: ok=%v err=%v", ok, err)
	}
	ok, err = route.DeleteEntry([]uint64{5})
	if err != nil || ok {
		t.Errorf("delete absent: ok=%v err=%v", ok, err)
	}
	if route.Len() != 63 {
		t.Errorf("Len = %d, want 63", route.Len())
	}
}

func TestTernaryMatch(t *testing.T) {
	p := NewProgram("tern")
	f := p.Field("bits", 8)
	hit := p.Field("hit", 8)
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchTernary, Size: 8, ActionDataWords: 1,
	})
	tab.Action("mark", func(ctx *Ctx, data []uint64) {
		ctx.Set(hit, data[0])
		ctx.EgressPort = 0
	})
	tab.Action("pass", func(ctx *Ctx, data []uint64) { ctx.EgressPort = 0 })
	if err := tab.SetDefault("pass", nil); err != nil {
		t.Fatal(err)
	}
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.Set(f, uint64(raw[0]))
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte {
		return append(out, byte(ctx.Get(hit)))
	})
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}

	// Two overlapping entries: specific (prio 10) and wildcard (prio 1).
	if err := tab.AddTernary([]uint64{0b1010}, []uint64{0b1111}, 10, "mark", []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddTernary([]uint64{0b0010}, []uint64{0b0010}, 1, "mark", []uint64{1}); err != nil {
		t.Fatal(err)
	}

	out, _ := pl.ProcessAppend([]byte{0b1010}, 0, nil)
	if out[0].Frame[0] != 2 {
		t.Errorf("specific entry should win: got mark %d", out[0].Frame[0])
	}
	out, _ = pl.ProcessAppend([]byte{0b0110}, 0, nil)
	if out[0].Frame[0] != 1 {
		t.Errorf("wildcard entry should match: got mark %d", out[0].Frame[0])
	}
	out, _ = pl.ProcessAppend([]byte{0b0100}, 0, nil)
	if out[0].Frame[0] != 0 {
		t.Errorf("no entry should match: got mark %d", out[0].Frame[0])
	}
}

func TestGatePredication(t *testing.T) {
	p := NewProgram("gate")
	f := p.Field("f", 8)
	enabled := p.Field("en", 1)
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 4,
		When: []Cond{{Field: enabled, Values: []uint64{1}}},
	})
	tab.Action("nop", func(ctx *Ctx, data []uint64) {})
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.Set(f, uint64(raw[0]))
		ctx.Set(enabled, uint64(raw[1]))
		ctx.EgressPort = 0
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return append(out, ctx.Raw...) })
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEntry([]uint64{1}, "nop", nil); err != nil {
		t.Fatal(err)
	}
	if _, tr, _ := pl.ProcessTraced([]byte{1, 0}, 0); len(tr) != 1 || !tr[0].Skipped {
		t.Errorf("gated-off table should not be consulted: %v", tr)
	}
	if _, tr, _ := pl.ProcessTraced([]byte{1, 1}, 0); len(tr) != 1 || tr[0].Skipped || !tr[0].Matched {
		t.Errorf("gated-on table should hit: %v", tr)
	}
}

// A gateway holds when every condition does, and a condition when its field
// is one of the listed constants; a field value of 64 or more matches none.
func TestGatewayConditions(t *testing.T) {
	p := NewProgram("gateway")
	op := p.Field("op", 8)
	flag := p.Field("flag", 1)
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{op},
		Kind: MatchExact, Size: 1,
		When: []Cond{{Field: op, Values: []uint64{2, 5, 63}}, {Field: flag, Values: []uint64{1}}},
	})
	tab.Action("count", func(ctx *Ctx, data []uint64) {})
	if err := tab.SetDefault("count", nil); err != nil {
		t.Fatal(err)
	}
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.Set(op, uint64(raw[0]))
		ctx.Set(flag, uint64(raw[1]))
		ctx.EgressPort = 0
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return append(out, ctx.Raw...) })
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op, flag byte
		runs     bool
	}{
		{2, 1, true}, {5, 1, true}, {63, 1, true},
		{5, 0, false}, {3, 1, false}, {0, 1, false}, {64, 1, false}, {66, 1, false}, {255, 1, false},
	} {
		_, tr, err := pl.ProcessTraced([]byte{tc.op, tc.flag}, 0)
		if err != nil || len(tr) != 1 {
			t.Fatalf("op=%d flag=%d: trace %v, %v", tc.op, tc.flag, tr, err)
		}
		if ran := !tr[0].Skipped; ran != tc.runs {
			t.Errorf("op=%d flag=%d: table ran=%v, want %v", tc.op, tc.flag, ran, tc.runs)
		}
	}
}

func TestGatewayConstantLimit(t *testing.T) {
	p := NewProgram("wide")
	f := p.Field("f", 8)
	defer func() {
		if recover() == nil {
			t.Error("a gateway constant of 64 should panic")
		}
	}()
	p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 1,
		When: []Cond{{Field: f, Values: []uint64{64}}},
	})
}

func TestCompileRejectsOversizeTable(t *testing.T) {
	p := NewProgram("big")
	f := p.Field("f", 64)
	tab := p.TableBuild(TableSpec{
		Name: "huge", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 10_000_000,
	})
	tab.Action("nop", func(ctx *Ctx, data []uint64) {})
	p.SetParser(func(raw []byte, ctx *Ctx) error { return nil })
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	if _, _, err := Compile(p, smallChip()); err == nil {
		t.Fatal("10M-entry table should not fit any stage")
	} else if !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCompileRejectsSplitRegister(t *testing.T) {
	p := NewProgram("split")
	f := p.Field("f", 8)
	r := p.Register(RegisterSpec{Name: "r", Gress: Ingress, Slots: 4, SlotBits: 32})
	t1 := p.TableBuild(TableSpec{
		Name: "t1", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 4, Registers: []*Register{r},
	})
	t1.Action("nop", func(ctx *Ctx, data []uint64) {})
	// t2 depends on t1 (must be a later stage) but also needs r, which is
	// homed in t1's stage — impossible on real hardware.
	t2 := p.TableBuild(TableSpec{
		Name: "t2", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 4, Registers: []*Register{r}, After: []*Table{t1},
	})
	t2.Action("nop", func(ctx *Ctx, data []uint64) {})
	p.SetParser(func(raw []byte, ctx *Ctx) error { return nil })
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	if _, _, err := Compile(p, smallChip()); err == nil {
		t.Fatal("register needed in two stages should not compile")
	}
}

func TestCompileRejectsUnusedRegister(t *testing.T) {
	p := NewProgram("unused")
	f := p.Field("f", 8)
	p.Register(RegisterSpec{Name: "orphan", Gress: Ingress, Slots: 4, SlotBits: 8})
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 4,
	})
	tab.Action("nop", func(ctx *Ctx, data []uint64) {})
	p.SetParser(func(raw []byte, ctx *Ctx) error { return nil })
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	if _, _, err := Compile(p, smallChip()); err == nil || !strings.Contains(err.Error(), "not accessed") {
		t.Fatalf("orphan register should fail compile, got %v", err)
	}
}

func TestCompileRejectsWideRegisterAccess(t *testing.T) {
	cfg := smallChip()
	cfg.MaxRegisterAccessBytes = 8 // narrower chip generation
	p := NewProgram("wide")
	f := p.Field("f", 8)
	r := p.Register(RegisterSpec{Name: "wide", Gress: Egress, Slots: 4, SlotBits: 128})
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Egress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 4, Registers: []*Register{r},
	})
	tab.Action("nop", func(ctx *Ctx, data []uint64) {})
	p.SetParser(func(raw []byte, ctx *Ctx) error { return nil })
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	if _, _, err := Compile(p, cfg); err == nil || !strings.Contains(err.Error(), "access width") {
		t.Fatalf("want access-width error, got %v", err)
	}
}

func TestCompileDependencyOrdering(t *testing.T) {
	p := NewProgram("dep")
	f := p.Field("f", 8)
	mk := func(name string, after ...*Table) *Table {
		tab := p.TableBuild(TableSpec{
			Name: name, Gress: Ingress, MatchFields: []FieldID{f},
			Kind: MatchExact, Size: 4, After: after,
		})
		tab.Action("nop", func(ctx *Ctx, data []uint64) {})
		return tab
	}
	a := mk("a")
	b := mk("b", a)
	c := mk("c", b)
	d := mk("d") // independent: may share stage 0 with a
	p.SetParser(func(raw []byte, ctx *Ctx) error { return nil })
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	if _, _, err := Compile(p, smallChip()); err != nil {
		t.Fatal(err)
	}
	if !(a.Stage() < b.Stage() && b.Stage() < c.Stage()) {
		t.Errorf("dependency stages: a=%d b=%d c=%d", a.Stage(), b.Stage(), c.Stage())
	}
	if d.Stage() != 0 {
		t.Errorf("independent table should pack into stage 0, got %d", d.Stage())
	}
}

func TestSingleAccessEnforced(t *testing.T) {
	p := NewProgram("dbl")
	f := p.Field("f", 8)
	r := p.Register(RegisterSpec{Name: "r", Gress: Ingress, Slots: 4, SlotBits: 32})
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 4, Registers: []*Register{r},
	})
	tab.Action("dbl", func(ctx *Ctx, data []uint64) {
		ctx.RegAdd(r, 0, 1)
		ctx.RegAdd(r, 1, 1) // second access: must panic
	})
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.Set(f, uint64(raw[0]))
		ctx.EgressPort = 0
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEntry([]uint64{1}, "dbl", nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("double register access should panic")
		}
	}()
	pl.ProcessAppend([]byte{1}, 0, nil)
}

func TestDigestDelivery(t *testing.T) {
	p := NewProgram("dig")
	f := p.Field("f", 8)
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Ingress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 4,
	})
	tab.Action("report", func(ctx *Ctx, data []uint64) {
		ctx.Digest([]byte{byte(ctx.Get(f))})
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
	if err := tab.AddEntry([]uint64{9}, "report", nil); err != nil {
		t.Fatal(err)
	}
	var got []byte
	pl.ProcessAppend([]byte{9}, 0, nil)
	pl.DrainDigests(func(b []byte) { got = append(got, b...) })
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("digest = %v", got)
	}
	if st := pl.Stats(); st.Digests != 1 {
		t.Errorf("digest counter = %d", st.Digests)
	}
}

// TestDigestQueueBound: an undrained queue holds digestQueueCap digests and
// drops the rest, each drop counted once; a drain returns what it held,
// oldest first, and leaves the queue empty.
func TestDigestQueueBound(t *testing.T) {
	p, _, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5
	for i := 0; i < digestQueueCap+extra; i++ {
		pl.Digest([]byte{byte(i)})
	}
	if st := pl.Stats(); st.Digests != digestQueueCap+extra || st.DigestsDropped != extra {
		t.Errorf("Digests %d DigestsDropped %d, want %d and %d",
			st.Digests, st.DigestsDropped, digestQueueCap+extra, extra)
	}
	n := 0
	pl.DrainDigests(func(d []byte) {
		if d[0] != byte(n) {
			t.Fatalf("digest %d = %d, want %d", n, d[0], byte(n))
		}
		n++
	})
	if n != digestQueueCap {
		t.Errorf("drained %d digests, want %d", n, digestQueueCap)
	}
	pl.DrainDigests(func([]byte) { t.Error("second drain found a digest") })
}

func TestMirrorOverridesPort(t *testing.T) {
	p := NewProgram("mir")
	f := p.Field("f", 8)
	tab := p.TableBuild(TableSpec{
		Name: "t", Gress: Egress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 4,
		ActionDataWords: 1,
	})
	tab.Action("mirror", func(ctx *Ctx, data []uint64) { ctx.Mirror(int(data[0])) })
	ing := p.TableBuild(TableSpec{
		Name: "fwd", Gress: Ingress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 4,
	})
	ing.Action("to1", func(ctx *Ctx, data []uint64) { ctx.EgressPort = 1 })
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.Set(f, uint64(raw[0]))
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return append(out, ctx.Raw...) })
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	ing.AddEntry([]uint64{5}, "to1", nil)
	tab.AddEntry([]uint64{5}, "mirror", []uint64{7})
	out, _ := pl.ProcessAppend([]byte{5}, 0, nil)
	if len(out) != 1 || out[0].Port != 7 {
		t.Fatalf("mirror should emit on port 7, got %+v", out)
	}
	st := pl.Stats()
	if st.Mirrored != 1 {
		t.Errorf("Mirrored = %d", st.Mirrored)
	}
	// The original egress pipe (of port 1) was still consumed.
	if st.ByEgressPipe[0] != 1 {
		t.Errorf("ByEgressPipe = %v", st.ByEgressPipe)
	}
}

func TestRegisterBitPacking(t *testing.T) {
	r, err := newRegister(RegisterSpec{Name: "r", Slots: 1000, SlotBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r.Set(i, uint64(i*7))
	}
	for i := 0; i < 1000; i++ {
		if got := r.Get(i); got != uint64(i*7)&0xFFFF {
			t.Fatalf("slot %d = %d, want %d", i, got, i*7)
		}
	}
}

func TestRegisterOneBit(t *testing.T) {
	r, err := newRegister(RegisterSpec{Name: "bloom", Slots: 256, SlotBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Set(3, 1)
	r.Set(200, 1)
	if r.Get(3) != 1 || r.Get(200) != 1 || r.Get(4) != 0 {
		t.Error("1-bit slots misbehave")
	}
	if r.SizeBytes() != 32 {
		t.Errorf("256 1-bit slots should cost 32 bytes, got %d", r.SizeBytes())
	}
	r.Reset()
	if r.Get(3) != 0 {
		t.Error("Reset should clear bits")
	}
}

func TestRegisterSaturation(t *testing.T) {
	for _, bits := range []int{8, 16, 32} {
		r, _ := newRegister(RegisterSpec{Name: "c", Slots: 8, SlotBits: bits})
		max := r.mask()
		r.Set(5, max-1)
		if v := r.AddSat(5, 1); v != max {
			t.Errorf("%d bits: AddSat to max = %d", bits, v)
		}
		if v := r.AddSat(5, 1); v != max {
			t.Errorf("%d bits: AddSat at max should saturate, got %d", bits, v)
		}
		if v := r.AddSat(5, 100); v != max {
			t.Errorf("%d bits: AddSat big delta should saturate, got %d", bits, v)
		}
		if r.Get(4) != 0 || r.Get(6) != 0 {
			t.Errorf("%d bits: AddSat touched a neighbor slot", bits)
		}
	}
}

// Swap is an atomic test-and-set: of many goroutines setting one Bloom bit,
// exactly one sees it clear.
func TestRegisterSwapConcurrent(t *testing.T) {
	r, _ := newRegister(RegisterSpec{Name: "bloom", Slots: 64, SlotBits: 1})
	var fresh atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.Swap(9, 1) == 0 {
				fresh.Add(1)
			}
		}()
	}
	wg.Wait()
	if fresh.Load() != 1 || r.Get(9) != 1 || r.Get(8) != 0 {
		t.Errorf("%d goroutines saw the bit clear, want 1", fresh.Load())
	}
}

func TestRegister128(t *testing.T) {
	r, _ := newRegister(RegisterSpec{Name: "v", Slots: 8, SlotBits: 128})
	r.SetBytes(2, []byte("hello"))
	var buf [16]byte
	r.GetBytes(2, buf[:])
	if string(buf[:5]) != "hello" || buf[5] != 0 {
		t.Errorf("slot 2 = %v", buf)
	}
	// Overwrite with shorter value zero-pads.
	r.SetBytes(2, []byte("hi"))
	r.GetBytes(2, buf[:])
	if string(buf[:2]) != "hi" || buf[2] != 0 {
		t.Errorf("overwrite = %v", buf)
	}
}

func TestRegisterSpecValidation(t *testing.T) {
	if _, err := newRegister(RegisterSpec{Name: "x", Slots: 0, SlotBits: 8}); err == nil {
		t.Error("zero slots should fail")
	}
	if _, err := newRegister(RegisterSpec{Name: "x", Slots: 1, SlotBits: 100}); err == nil {
		t.Error("100-bit slots should fail")
	}
	if _, err := newRegister(RegisterSpec{Name: "x", Slots: 1, SlotBits: 0}); err == nil {
		t.Error("0-bit slots should fail")
	}
	// A slot whose width does not divide 64 could span two words, so no
	// single-word atomic could update it.
	for _, bits := range []int{12, 48} {
		if _, err := newRegister(RegisterSpec{Name: "x", Slots: 1, SlotBits: bits}); err == nil {
			t.Errorf("%d-bit slots should fail", bits)
		}
	}
}

// Property: bit-packed registers behave like a plain slice for any sequence
// of sets.
func TestQuickRegisterEquivalence(t *testing.T) {
	f := func(ops []struct {
		Idx uint16
		Val uint64
	}, bitsSel uint8) bool {
		widths := []int{1, 2, 4, 8, 16, 32, 64}
		bits := widths[int(bitsSel)%len(widths)]
		const slots = 128
		r, err := newRegister(RegisterSpec{Name: "q", Slots: slots, SlotBits: bits})
		if err != nil {
			return false
		}
		ref := make([]uint64, slots)
		mask := ^uint64(0)
		if bits < 64 {
			mask = uint64(1)<<bits - 1
		}
		for _, op := range ops {
			idx := int(op.Idx) % slots
			r.Set(idx, op.Val)
			ref[idx] = op.Val & mask
		}
		for i := 0; i < slots; i++ {
			if r.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChipConfigValidate(t *testing.T) {
	if err := TofinoLike().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TofinoLike()
	bad.Pipes = 0
	if bad.Validate() == nil {
		t.Error("zero pipes should fail")
	}
	bad = TofinoLike()
	bad.ClockHz = 0
	if bad.Validate() == nil {
		t.Error("zero clock should fail")
	}
}

func TestChipThroughputModel(t *testing.T) {
	c := TofinoLike()
	if c.ChipPPS() < 4e9 {
		t.Errorf("Tofino-like chip should exceed 4 BQPS (paper §7.2), got %g", c.ChipPPS())
	}
	// One pipe's capacity is its clock: the bound when all traffic
	// concentrates on one egress pipe.
	if c.ClockHz < 1e9 {
		t.Errorf("egress pipe should sustain ~1 BQPS (paper §4.4.4), got %g", c.ClockHz)
	}
	if c.PipeOfPort(0) != 0 || c.PipeOfPort(c.PortsPerPipe) != 1 {
		t.Error("PipeOfPort mapping wrong")
	}
}

func TestResourceReportString(t *testing.T) {
	p, _, _, _ := testProgram(t)
	_, rep, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "route") || !strings.Contains(s, "cnt") {
		t.Errorf("report should mention placed objects:\n%s", s)
	}
}

func BenchmarkProcessForward(b *testing.B) {
	p := NewProgram("bench")
	dst := p.Field("dst", 16)
	route := p.TableBuild(TableSpec{
		Name: "route", Gress: Ingress, MatchFields: []FieldID{dst},
		Kind: MatchExact, Size: 1024, ActionDataWords: 1,
	})
	route.Action("fwd", func(ctx *Ctx, data []uint64) { ctx.EgressPort = int(data[0]) })
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.Set(dst, uint64(binary.BigEndian.Uint16(raw)))
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return append(out, ctx.Raw...) })
	pl, _, err := Compile(p, TofinoLike())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		route.AddEntry([]uint64{uint64(i)}, "fwd", []uint64{uint64(i % 16)})
	}
	frame := pkt(77)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.ProcessAppend(frame, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAccessors(t *testing.T) {
	p, count, counter, _ := testProgram(t)
	if p.Name() != "test" || len(p.fields) != 2 {
		t.Errorf("program accessors: %q %d", p.Name(), len(p.fields))
	}
	if count.Name() != "count" || count.Gress() != Egress || count.Kind() != MatchExact || count.Size() != 64 {
		t.Error("table accessors wrong")
	}
	if r, ok := p.regByName["cnt"]; !ok || r != counter {
		t.Error("register lookup by name broken")
	}
	if _, ok := p.regByName["nope"]; ok {
		t.Error("absent register found")
	}
	if got := len(p.Tables(Ingress)); got != 1 {
		t.Errorf("ingress tables = %d", got)
	}
	if got := len(p.Tables(Egress)); got != 1 {
		t.Errorf("egress tables = %d", got)
	}
	if MatchExact.String() != "exact" || MatchTernary.String() != "ternary" {
		t.Error("match kind names")
	}
	if Ingress.String() != "ingress" || Egress.String() != "egress" {
		t.Error("gress names")
	}
	_, rep, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTCAM() != 0 {
		t.Errorf("exact-only program consumed TCAM: %d", rep.TotalTCAM())
	}
}

func TestChipConfigValidateTable(t *testing.T) {
	mut := func(f func(*ChipConfig)) ChipConfig {
		c := TofinoLike()
		f(&c)
		return c
	}
	bad := []ChipConfig{
		mut(func(c *ChipConfig) { c.StagesPerGress = 0 }),
		mut(func(c *ChipConfig) { c.PortsPerPipe = 0 }),
		mut(func(c *ChipConfig) { c.SRAMPerStage = 0 }),
		mut(func(c *ChipConfig) { c.TCAMPerStage = -1 }),
		mut(func(c *ChipConfig) { c.MaxRegisterAccessBytes = 0 }),
		mut(func(c *ChipConfig) { c.MaxActionDataBits = 0 }),
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestCompileRequiresParserDeparser(t *testing.T) {
	p := NewProgram("noparse")
	f := p.Field("f", 8)
	tab := p.TableBuild(TableSpec{Name: "t", Gress: Ingress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 1})
	tab.Action("nop", func(*Ctx, []uint64) {})
	if _, _, err := Compile(p, smallChip()); err == nil {
		t.Error("missing parser/deparser should fail")
	}
}

func TestCompileTwicePanicsOrErrors(t *testing.T) {
	p, _, _, _ := testProgram(t)
	if _, _, err := Compile(p, smallChip()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Compile(p, smallChip()); err == nil {
		t.Error("second compile should fail")
	}
}

func TestCrossGressDependencyFails(t *testing.T) {
	p := NewProgram("xgress")
	f := p.Field("f", 8)
	ing := p.TableBuild(TableSpec{Name: "ing", Gress: Ingress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 1})
	ing.Action("nop", func(*Ctx, []uint64) {})
	eg := p.TableBuild(TableSpec{Name: "eg", Gress: Egress, MatchFields: []FieldID{f}, Kind: MatchExact, Size: 1,
		After: []*Table{ing}})
	eg.Action("nop", func(*Ctx, []uint64) {})
	p.SetParser(func([]byte, *Ctx) error { return nil })
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	if _, _, err := Compile(p, smallChip()); err == nil {
		t.Error("cross-gress dependency should fail compile")
	}
}

func TestActionDataTooWideFails(t *testing.T) {
	cfg := smallChip()
	p := NewProgram("wideaction")
	f := p.Field("f", 8)
	tab := p.TableBuild(TableSpec{Name: "t", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 1, ActionDataWords: 4}) // 256 bits > 64-bit chip limit
	tab.Action("nop", func(*Ctx, []uint64) {})
	p.SetParser(func([]byte, *Ctx) error { return nil })
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return out })
	if _, _, err := Compile(p, cfg); err == nil {
		t.Error("oversized action data should fail compile")
	}
}
