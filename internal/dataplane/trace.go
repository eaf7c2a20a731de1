package dataplane

import (
	"fmt"
	"strings"
)

// TraceEvent records one table execution during a traced ProcessAppend call — the
// equivalent of a switch OS's packet-trace debugging facility.
type TraceEvent struct {
	Gress   Gress
	Stage   int
	Table   string
	Skipped bool // gate predicated the table off
	Matched bool // an installed entry matched (false: default action ran)
	Action  string
}

// String renders one event compactly.
func (e TraceEvent) String() string {
	switch {
	case e.Skipped:
		return fmt.Sprintf("%s[%d] %s: skipped", e.Gress, e.Stage, e.Table)
	case e.Matched:
		return fmt.Sprintf("%s[%d] %s: hit -> %s", e.Gress, e.Stage, e.Table, e.Action)
	case e.Action != "":
		return fmt.Sprintf("%s[%d] %s: miss -> default %s", e.Gress, e.Stage, e.Table, e.Action)
	default:
		return fmt.Sprintf("%s[%d] %s: miss (no default)", e.Gress, e.Stage, e.Table)
	}
}

// Trace is the table-by-table history of one packet.
type Trace []TraceEvent

// String renders the whole trace, one event per line.
func (tr Trace) String() string {
	var b strings.Builder
	for _, e := range tr {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ProcessTraced is ProcessAppend with per-table tracing: it returns the emitted
// packets plus the execution history. Slower than ProcessAppend; intended for
// debugging and tests, not the data path. Like ProcessAppend, it is safe for
// concurrent callers (the trace covers only its own packet).
func (pl *Pipeline) ProcessTraced(raw []byte, inPort int) ([]Emitted, Trace, error) {
	var trace Trace
	out, err := pl.process(raw, inPort, nil, &trace)
	return out, trace, err
}
