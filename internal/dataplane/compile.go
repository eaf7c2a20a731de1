package dataplane

import (
	"fmt"
	"strings"
)

// StageUsage records the resources one stage consumes after compilation.
type StageUsage struct {
	Gress     Gress
	Index     int
	SRAM      int // bytes of SRAM consumed (tables + registers)
	TCAM      int // bytes of TCAM consumed
	Tables    []string
	Registers []string
}

// ResourceReport summarizes a compiled program's footprint, the artifact
// behind the paper's "less than 50% of on-chip memory" claim (§6).
type ResourceReport struct {
	Config ChipConfig
	Stages []StageUsage
}

// TotalSRAM returns SRAM bytes consumed across all stages of one pipe.
func (r ResourceReport) TotalSRAM() int {
	n := 0
	for _, s := range r.Stages {
		n += s.SRAM
	}
	return n
}

// TotalTCAM returns TCAM bytes consumed across all stages of one pipe.
func (r ResourceReport) TotalTCAM() int {
	n := 0
	for _, s := range r.Stages {
		n += s.TCAM
	}
	return n
}

// SRAMFraction returns consumed SRAM as a fraction of the pipe's budget.
func (r ResourceReport) SRAMFraction() float64 {
	budget := r.Config.SRAMPerStage * r.Config.StagesPerGress * 2 // ingress + egress
	if budget == 0 {
		return 0
	}
	return float64(r.TotalSRAM()) / float64(budget)
}

// String renders a human-readable per-stage table.
func (r ResourceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "resource report (per pipe, %d+%d stages):\n",
		r.Config.StagesPerGress, r.Config.StagesPerGress)
	for _, s := range r.Stages {
		if s.SRAM == 0 && s.TCAM == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s stage %2d: SRAM %7d/%d TCAM %6d/%d  tables=%v registers=%v\n",
			s.Gress, s.Index, s.SRAM, r.Config.SRAMPerStage,
			s.TCAM, r.Config.TCAMPerStage, s.Tables, s.Registers)
	}
	fmt.Fprintf(&b, "  total SRAM %.1f%% of chip pipe budget\n", 100*r.SRAMFraction())
	return b.String()
}

// step is one table of a gress walk, with the table's gateway.
type step struct {
	when  []gateCond
	stage int
	table *Table
}

// newGress flattens the per-stage table lists of one gress into its walk:
// stage order, declaration order within a stage. The gateways are slices of
// one contiguous array, so the walk decides whether a table runs without
// touching the Table.
func newGress(stages [][]*Table) []step {
	var steps []step
	var conds []gateCond
	for s, tables := range stages {
		for _, t := range tables {
			steps = append(steps, step{stage: s, table: t})
			conds = append(conds, t.gate...)
		}
	}
	for i := range steps {
		n := len(steps[i].table.gate)
		steps[i].when, conds = conds[:n:n], conds[n:]
	}
	return steps
}

// Compile lays the program's tables and register arrays onto the chip's
// stages. It fails if a table graph cannot satisfy its dependencies within
// StagesPerGress stages, if any stage overflows its SRAM/TCAM budget, if a
// register array would be needed by tables in two different stages, or if a
// register slot exceeds the per-packet access width. On success it returns
// the executable Pipeline and the resource report.
//
// The placement algorithm is the greedy in-order packing real P4 compilers
// start from: tables are visited in declaration order; each is placed in the
// earliest stage that is (a) strictly after every table it depends on,
// (b) no earlier than the home stage of any register it shares with an
// already-placed table, and (c) has budget left.
func Compile(p *Program, cfg ChipConfig) (*Pipeline, ResourceReport, error) {
	var report ResourceReport
	if err := cfg.Validate(); err != nil {
		return nil, report, err
	}
	if p.parser == nil || p.deparser == nil {
		return nil, report, fmt.Errorf("dataplane: program %q needs parser and deparser", p.name)
	}
	if p.compiled {
		return nil, report, fmt.Errorf("dataplane: program %q already compiled", p.name)
	}
	report.Config = cfg

	type budget struct{ sram, tcam int }
	mkBudgets := func() []budget {
		b := make([]budget, cfg.StagesPerGress)
		for i := range b {
			b[i] = budget{cfg.SRAMPerStage, cfg.TCAMPerStage}
		}
		return b
	}
	budgets := map[Gress][]budget{Ingress: mkBudgets(), Egress: mkBudgets()}
	placed := map[Gress][][]*Table{
		Ingress: make([][]*Table, cfg.StagesPerGress),
		Egress:  make([][]*Table, cfg.StagesPerGress),
	}

	// Registers must fit the per-packet access width.
	for _, r := range p.registers {
		if (r.slotBits+7)/8 > cfg.MaxRegisterAccessBytes {
			return nil, report, fmt.Errorf(
				"dataplane: register %q slot (%d bits) exceeds per-packet access width %d bytes",
				r.name, r.slotBits, cfg.MaxRegisterAccessBytes)
		}
	}

	for _, t := range p.tables {
		if t.spec.ActionDataWords*64 > cfg.MaxActionDataBits {
			return nil, report, fmt.Errorf(
				"dataplane: table %q action data %d bits exceeds chip limit %d",
				t.spec.Name, t.spec.ActionDataWords*64, cfg.MaxActionDataBits)
		}
		g := t.spec.Gress
		minStage := 0
		for _, dep := range t.spec.After {
			if dep.spec.Gress != g {
				return nil, report, fmt.Errorf(
					"dataplane: table %q depends on %q in a different gress",
					t.spec.Name, dep.spec.Name)
			}
			if dep.stage < 0 {
				return nil, report, fmt.Errorf(
					"dataplane: table %q depends on %q which is declared later",
					t.spec.Name, dep.spec.Name)
			}
			if dep.stage+1 > minStage {
				minStage = dep.stage + 1
			}
		}
		// A register already homed by an earlier table pins this table
		// to that exact stage.
		pinned := -1
		for _, r := range t.spec.Registers {
			if r.gress != g {
				return nil, report, fmt.Errorf(
					"dataplane: table %q (%s) accesses register %q (%s)",
					t.spec.Name, g, r.name, r.gress)
			}
			if r.stage >= 0 {
				if pinned >= 0 && pinned != r.stage {
					return nil, report, fmt.Errorf(
						"dataplane: table %q needs registers in stages %d and %d",
						t.spec.Name, pinned, r.stage)
				}
				pinned = r.stage
			}
		}

		cost := t.costBytes()
		ok := false
		for s := minStage; s < cfg.StagesPerGress; s++ {
			if pinned >= 0 && s != pinned {
				if pinned < minStage {
					return nil, report, fmt.Errorf(
						"dataplane: table %q register home stage %d conflicts with dependency stage %d",
						t.spec.Name, pinned, minStage)
				}
				continue
			}
			b := &budgets[g][s]
			regCost := 0
			for _, r := range t.spec.Registers {
				if r.stage < 0 {
					regCost += r.SizeBytes()
				}
			}
			switch t.spec.Kind {
			case MatchExact:
				if b.sram < cost+regCost {
					continue
				}
				b.sram -= cost + regCost
			case MatchTernary:
				if b.tcam < cost || b.sram < regCost {
					continue
				}
				b.tcam -= cost
				b.sram -= regCost
			}
			t.stage = s
			for _, r := range t.spec.Registers {
				if r.stage < 0 {
					r.stage = s
				}
			}
			placed[g][s] = append(placed[g][s], t)
			ok = true
			break
		}
		if !ok {
			return nil, report, fmt.Errorf(
				"dataplane: table %q (%s, %d bytes) does not fit: no stage >= %d has budget",
				t.spec.Name, g, cost, minStage)
		}
	}

	// Registers never referenced by a table are a program bug.
	for _, r := range p.registers {
		if r.stage < 0 {
			return nil, report, fmt.Errorf(
				"dataplane: register %q is not accessed by any table", r.name)
		}
	}

	// Build the usage report.
	for _, g := range []Gress{Ingress, Egress} {
		for s := 0; s < cfg.StagesPerGress; s++ {
			u := StageUsage{
				Gress: g,
				Index: s,
				SRAM:  cfg.SRAMPerStage - budgets[g][s].sram,
				TCAM:  cfg.TCAMPerStage - budgets[g][s].tcam,
			}
			for _, t := range placed[g][s] {
				u.Tables = append(u.Tables, t.spec.Name)
			}
			for _, r := range p.registers {
				if r.gress == g && r.stage == s {
					u.Registers = append(u.Registers, r.name)
				}
			}
			report.Stages = append(report.Stages, u)
		}
	}

	p.compiled = true
	pl := newPipeline(p, cfg, newGress(placed[Ingress]), newGress(placed[Egress]))
	return pl, report, nil
}
