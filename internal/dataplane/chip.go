// Package dataplane models a programmable switch ASIC of the kind NetCache
// (SOSP'17) targets: a Barefoot Tofino-like chip with multiple ingress and
// egress pipes, each a fixed sequence of match-action stages that own
// dedicated SRAM/TCAM for tables and stateful register arrays (§4.4.1,
// Fig. 5 of the paper).
//
// The package is a *substitute substrate* for the physical Tofino the paper
// used (see DESIGN.md): programs are expressed as graphs of match-action
// tables and register arrays, a compiler lays them onto stages and rejects
// programs that exceed per-stage resource budgets, and every packet is
// processed by executing the compiled pipeline — so per-packet semantics are
// real. Line-rate throughput is an architectural property of the chip model:
// once a program fits, each pipe forwards one packet per clock cycle
// regardless of what the program does, which is exactly the invariant behind
// the flat curves of Figure 9 in the paper.
//
// Control flow between tables is gateway predication (TableSpec.When): a
// table runs only when each of its conditions holds, and a condition tests
// one PHV field against constants below 64 — what a Tofino gateway compares
// before the stage's lookup, so opcodes and flag bits, not arbitrary code.
// A table whose gateway fails is skipped without being entered.
package dataplane

import "fmt"

// Gress selects the half of a pipe a table or register lives in.
type Gress uint8

const (
	// Ingress tables run before the traffic manager.
	Ingress Gress = iota
	// Egress tables run after the traffic manager, on the pipe that owns
	// the chosen egress port.
	Egress
)

// String returns "ingress" or "egress".
func (g Gress) String() string {
	if g == Ingress {
		return "ingress"
	}
	return "egress"
}

// ChipConfig describes the fixed hardware resources of the modeled ASIC.
// The zero value is not usable; start from TofinoLike.
type ChipConfig struct {
	// Pipes is the number of pipeline pairs (each pipe has an ingress and
	// an egress half).
	Pipes int
	// StagesPerGress is the number of match-action stages available to
	// each of the ingress and egress halves of a pipe.
	StagesPerGress int
	// PortsPerPipe is the number of front-panel ports attached to each
	// pipe.
	PortsPerPipe int

	// SRAMPerStage is the SRAM budget of one stage in bytes, shared by
	// exact-match tables and register arrays.
	SRAMPerStage int
	// TCAMPerStage is the TCAM budget of one stage in bytes, used by
	// ternary-match tables.
	TCAMPerStage int
	// MaxRegisterAccessBytes caps how many bytes a single register array
	// can read or write per packet per stage — the constraint that forces
	// NetCache to spread large values across stages (§4.4.2).
	MaxRegisterAccessBytes int
	// MaxActionDataBits caps the action data one table match may produce.
	MaxActionDataBits int

	// ClockHz is the pipeline clock. A compiled pipe forwards one packet
	// per cycle, so ClockHz is also the per-pipe packet rate; the chip
	// rate is Pipes*ClockHz.
	ClockHz float64
}

// TofinoLike returns a configuration matching the switch used in the paper's
// prototype: a 6.5 Tbps, 4-pipe chip whose egress pipe sustains 1 BQPS and
// whose aggregate exceeds 4 BQPS (§4.4.4, §7.2), with 12 stages per gress
// and per-stage memories sized so that the NetCache program consumes less
// than 50% of on-chip memory (§6).
func TofinoLike() ChipConfig {
	return ChipConfig{
		Pipes:                  4,
		StagesPerGress:         12,
		PortsPerPipe:           16,
		SRAMPerStage:           1 << 21, // 2 MiB: tables + register arrays
		TCAMPerStage:           1 << 17, // 128 KiB
		MaxRegisterAccessBytes: 16,      // one 16-byte slot per array per packet
		MaxActionDataBits:      64,
		ClockHz:                1.05e9,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c ChipConfig) Validate() error {
	switch {
	case c.Pipes <= 0:
		return fmt.Errorf("dataplane: config needs at least one pipe, got %d", c.Pipes)
	case c.StagesPerGress <= 0:
		return fmt.Errorf("dataplane: config needs at least one stage, got %d", c.StagesPerGress)
	case c.PortsPerPipe <= 0:
		return fmt.Errorf("dataplane: config needs at least one port per pipe, got %d", c.PortsPerPipe)
	case c.SRAMPerStage <= 0 || c.TCAMPerStage < 0:
		return fmt.Errorf("dataplane: non-positive memory budgets")
	case c.MaxRegisterAccessBytes <= 0:
		return fmt.Errorf("dataplane: MaxRegisterAccessBytes must be positive")
	case c.MaxActionDataBits <= 0:
		return fmt.Errorf("dataplane: MaxActionDataBits must be positive")
	case c.ClockHz <= 0:
		return fmt.Errorf("dataplane: ClockHz must be positive")
	}
	return nil
}

// NumPorts returns the total number of front-panel ports.
func (c ChipConfig) NumPorts() int { return c.Pipes * c.PortsPerPipe }

// PipeOfPort maps a front-panel port to the pipe that owns it.
func (c ChipConfig) PipeOfPort(port int) int { return port / c.PortsPerPipe }

// ChipPPS returns the aggregate packets-per-second capacity of the chip.
func (c ChipConfig) ChipPPS() float64 { return float64(c.Pipes) * c.ClockHz }

// PipePPS returns the packets-per-second capacity of one pipe — the bound
// that applies when all traffic concentrates on one egress pipe (§4.4.4).
func (c ChipConfig) PipePPS() float64 { return c.ClockHz }
