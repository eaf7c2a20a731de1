package dataplane

import (
	"strings"
	"testing"
)

func TestProcessTracedRecordsTables(t *testing.T) {
	p, count, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	route, _ := p.TableByName("route")
	if err := route.AddEntry([]uint64{7}, "fwd", []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := count.AddEntry([]uint64{7}, "bump", []uint64{0}); err != nil {
		t.Fatal(err)
	}

	out, tr, err := pl.ProcessTraced(pkt(7), 0)
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	s := tr.String()
	if !strings.Contains(s, "route: hit -> fwd") {
		t.Errorf("trace missing route hit:\n%s", s)
	}
	if !strings.Contains(s, "count: hit -> bump") {
		t.Errorf("trace missing count hit:\n%s", s)
	}
	if !strings.Contains(s, "ingress[0]") || !strings.Contains(s, "egress[0]") {
		t.Errorf("trace missing gress/stage labels:\n%s", s)
	}
}

func TestProcessTracedMissAndDrop(t *testing.T) {
	p, _, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	// No route entry: the route default "drop" runs.
	out, tr, err := pl.ProcessTraced(pkt(9), 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("expected drop: out=%v err=%v", out, err)
	}
	s := tr.String()
	if !strings.Contains(s, "route: miss -> default drop") {
		t.Errorf("trace should show the default action:\n%s", s)
	}
	// The egress count table never ran.
	if strings.Contains(s, "count:") {
		t.Errorf("dropped packet should not reach egress:\n%s", s)
	}
}

func TestProcessTracedGateSkip(t *testing.T) {
	p := NewProgram("gate-trace")
	f := p.Field("f", 8)
	tab := p.TableBuild(TableSpec{
		Name: "gated", Gress: Ingress, MatchFields: []FieldID{f},
		Kind: MatchExact, Size: 4,
		When: []Cond{{Field: f, Values: []uint64{1}}}, // the parser leaves f at 0
	})
	tab.Action("nop", func(ctx *Ctx, data []uint64) {})
	p.SetParser(func(raw []byte, ctx *Ctx) error {
		ctx.EgressPort = 0
		return nil
	})
	p.SetDeparser(func(ctx *Ctx, out []byte) []byte { return append(out, ctx.Raw...) })
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := pl.ProcessTraced([]byte{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "gated: skipped") {
		t.Errorf("trace should show the gate skip:\n%s", tr)
	}
}

func TestProcessTracedBadPort(t *testing.T) {
	p, _, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.ProcessTraced(pkt(1), 999); err == nil {
		t.Error("bad port should error")
	}
}

func TestUntracedProcessUnaffected(t *testing.T) {
	// The trace hook must not leak into ordinary Process calls that share
	// the pooled contexts.
	p, _, _, _ := testProgram(t)
	pl, _, err := Compile(p, smallChip())
	if err != nil {
		t.Fatal(err)
	}
	route, _ := p.TableByName("route")
	route.AddEntry([]uint64{7}, "fwd", []uint64{3})
	if _, _, err := pl.ProcessTraced(pkt(7), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := pl.Process(pkt(7), 0); err != nil {
			t.Fatal(err)
		}
	}
}
