package dataplane

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// FieldID names a packet-header field or per-packet metadata container (a
// PHV container in ASIC terms). Fields are at most 64 bits; wider quantities
// (such as NetCache's 128-bit key) are split across several fields, just as
// real PHV containers are concatenated for wide matches.
type FieldID int

// ActionFunc is the body of a match action. It receives the packet context
// and the action data configured on the matching entry. It runs inside the
// stage that owns the table, so it may touch only register arrays placed in
// that stage; placement is validated at compile time.
type ActionFunc func(ctx *Ctx, data []uint64)

// MatchKind selects the matching discipline of a table.
type MatchKind uint8

const (
	// MatchExact is a hash-based exact match (SRAM).
	MatchExact MatchKind = iota
	// MatchTernary is a masked match with priorities (TCAM).
	MatchTernary
)

// String names the match kind.
func (m MatchKind) String() string {
	if m == MatchExact {
		return "exact"
	}
	return "ternary"
}

// Program is the logical description of a data-plane program: fields,
// tables, and register arrays, plus parser and deparser hooks. It is built
// once, compiled against a ChipConfig, and then driven by a Pipeline.
type Program struct {
	name   string
	fields []fieldDef

	tables    []*Table
	registers []*Register

	tableByName map[string]*Table
	regByName   map[string]*Register

	parser   func(raw []byte, ctx *Ctx) error
	deparser func(ctx *Ctx, out []byte) []byte

	compiled bool
}

type fieldDef struct {
	name string
	bits int
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{
		name:        name,
		tableByName: make(map[string]*Table),
		regByName:   make(map[string]*Register),
	}
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Field declares a header or metadata field of the given width (1–64 bits)
// and returns its ID. Redeclaring a name panics: programs are static.
func (p *Program) Field(name string, bits int) FieldID {
	if bits < 1 || bits > 64 {
		panic(fmt.Sprintf("dataplane: field %q width %d out of range 1-64", name, bits))
	}
	for _, f := range p.fields {
		if f.name == name {
			panic(fmt.Sprintf("dataplane: field %q redeclared", name))
		}
	}
	p.fields = append(p.fields, fieldDef{name, bits})
	return FieldID(len(p.fields) - 1)
}

// NumFields returns the number of declared fields.
func (p *Program) NumFields() int { return len(p.fields) }

// Register declares a stateful register array and returns its handle.
func (p *Program) Register(spec RegisterSpec) *Register {
	if _, dup := p.regByName[spec.Name]; dup {
		panic(fmt.Sprintf("dataplane: register %q redeclared", spec.Name))
	}
	r, err := newRegister(spec)
	if err != nil {
		panic(err)
	}
	r.id = len(p.registers)
	p.registers = append(p.registers, r)
	p.regByName[spec.Name] = r
	return r
}

// SetParser installs the function that maps a raw packet into the PHV. A
// parser returning an error drops the packet before any table executes,
// mirroring a parser exception.
func (p *Program) SetParser(fn func(raw []byte, ctx *Ctx) error) { p.parser = fn }

// SetDeparser installs the function that reassembles the output packet from
// the PHV; it appends to out and returns the extended slice.
func (p *Program) SetDeparser(fn func(ctx *Ctx, out []byte) []byte) { p.deparser = fn }

// TableSpec declares a match-action table.
type TableSpec struct {
	Name  string
	Gress Gress
	// MatchFields are matched in order; for exact tables their
	// concatenation is the lookup key.
	MatchFields []FieldID
	Kind        MatchKind
	// Size is the maximum number of entries; it determines the SRAM/TCAM
	// cost charged at compile time.
	Size int
	// ActionDataWords is how many 64-bit action-data words each entry
	// carries (charged against MaxActionDataBits).
	ActionDataWords int
	// Registers lists the register arrays the table's actions access.
	// The compiler co-locates them with the table's stage and rejects
	// programs where one array would be needed in two stages.
	Registers []*Register
	// After forces this table into a strictly later stage than the given
	// tables (a data dependency). Independent tables may share a stage.
	After []*Table
	// When is the table's gateway: the table runs for a packet only when
	// every condition holds (none: always). It models a Tofino gateway,
	// which compares PHV fields with constants (e.g. "only NetCache reads
	// reach the sample table"). Conditions are tested in order, so the one
	// that fails most often goes first.
	When []Cond
}

// Cond is one gateway condition: it holds when the value of Field is one of
// Values. Values must be below 64 — gateways test opcodes and flag bits, and
// the interpreter compiles a condition to a 64-bit membership mask.
type Cond struct {
	Field  FieldID
	Values []uint64
}

// gateCond is a compiled Cond: bit v of mask is set for each value v.
type gateCond struct {
	field FieldID
	mask  uint64
}

// TableBuild declares a table in the program. Tables execute in declaration
// order within their gress (subject to stage placement); declaration order
// is the control flow.
func (p *Program) TableBuild(spec TableSpec) *Table {
	if _, dup := p.tableByName[spec.Name]; dup {
		panic(fmt.Sprintf("dataplane: table %q redeclared", spec.Name))
	}
	if spec.Size <= 0 {
		panic(fmt.Sprintf("dataplane: table %q needs positive size", spec.Name))
	}
	if len(spec.MatchFields) == 0 && spec.Kind == MatchExact {
		panic(fmt.Sprintf("dataplane: exact table %q needs match fields", spec.Name))
	}
	t := &Table{
		spec:    spec,
		actions: make(map[string]ActionFunc),
		stage:   -1,
	}
	for _, c := range spec.When {
		g := gateCond{field: c.Field}
		for _, v := range c.Values {
			if v >= 64 {
				panic(fmt.Sprintf("dataplane: table %q gateway constant %d is not below 64", spec.Name, v))
			}
			g.mask |= 1 << v
		}
		t.gate = append(t.gate, g)
	}
	st := &tableState{}
	if spec.Kind == MatchExact {
		st.exact = make([]map[exactKey]*Entry, exactShards)
		for i := range st.exact {
			st.exact[i] = map[exactKey]*Entry{}
		}
	}
	st.refreshSmall()
	t.state.Store(st)
	p.tables = append(p.tables, t)
	p.tableByName[spec.Name] = t
	return t
}

// TableByName looks up a declared table; ok is false if absent.
func (p *Program) TableByName(name string) (t *Table, ok bool) {
	t, ok = p.tableByName[name]
	return
}

// RegisterByName looks up a declared register array; ok is false if absent.
func (p *Program) RegisterByName(name string) (r *Register, ok bool) {
	r, ok = p.regByName[name]
	return
}

// Tables returns the declared tables of one gress in execution order.
func (p *Program) Tables(g Gress) []*Table {
	var out []*Table
	for _, t := range p.tables {
		if t.spec.Gress == g {
			out = append(out, t)
		}
	}
	return out
}

// exactKey is the concatenated match key of an exact table. Up to four
// 64-bit fields are supported, which covers a 128-bit key plus metadata.
type exactKey [4]uint64

// Entry is one installed table entry.
type Entry struct {
	// Match holds the matched field values in MatchFields order. For
	// ternary entries Mask holds the per-field care bits.
	Match [4]uint64
	Mask  [4]uint64
	// Priority orders ternary entries; higher wins.
	Priority int
	// Action names the registered action to run.
	Action string
	// Data is the per-entry action data.
	Data []uint64

	fn ActionFunc
}

// exactShards is the copy-on-write granularity of exact-match tables: the
// key space is hash-split into this many independent maps so a control-plane
// insert clones 1/exactShards of the table instead of all of it.
const exactShards = 64

// tableState is the immutable installed-entry snapshot of a table. The data
// plane reads it through an atomic pointer (RCU-style); control-plane
// mutators build a new state and swap the pointer, so lookups never block on
// driver updates and never observe a half-applied change.
type tableState struct {
	exact   []map[exactKey]*Entry // exactShards maps; nil for ternary tables
	ternary []*Entry              // kept sorted by descending priority
	def     *Entry                // default action, may be nil
	count   int                   // installed entries

	// small is the flat linear-scan index of an exact table with at most
	// smallTableMax entries (nil when the table is larger or ternary).
	// Most tables on the cached-Get path — op dispatch, routing, the
	// value-stage preamble — hold a handful of entries at most, and a
	// comparison scan over an array beats hashing the key and walking a
	// map bucket for every one of them. Rebuilt by mutators; the data
	// plane picks whichever index the snapshot carries.
	small []smallEntry
}

// smallEntry pairs an exact key with its entry for linear scanning.
type smallEntry struct {
	k exactKey
	e *Entry
}

// smallTableMax is the entry count up to which an exact table is scanned
// linearly instead of through its shard maps.
const smallTableMax = 8

// refreshSmall rebuilds st.small from the shard maps. Call after mutating
// exact entries, before publishing the state.
func (st *tableState) refreshSmall() {
	st.small = nil
	if st.exact == nil || st.count > smallTableMax {
		return
	}
	small := make([]smallEntry, 0, st.count)
	for _, shard := range st.exact {
		for k, e := range shard {
			small = append(small, smallEntry{k: k, e: e})
		}
	}
	st.small = small
}

// find resolves an exact key against the snapshot: nil when no installed
// entry matches (always, for a ternary table).
func (st *tableState) find(k exactKey) *Entry {
	if st.small != nil {
		for i := range st.small {
			if st.small[i].k == k {
				return st.small[i].e
			}
		}
		return nil
	}
	if st.exact == nil {
		return nil
	}
	return st.exact[shardOf(k)][k]
}

// shardOf hashes an exact key onto a shard.
func shardOf(k exactKey) int {
	h := (k[0] ^ k[2]) * 0x9E3779B97F4A7C15
	h ^= (k[1] ^ k[3]) * 0xC2B2AE3D27D4EB4F
	return int(h >> 58)
}

// clone copies the state shallowly, duplicating only the exact shard that is
// about to change (-1: none) so installed *Entry values stay shared.
func (st *tableState) clone(dirtyShard int) *tableState {
	ns := &tableState{def: st.def, count: st.count}
	if st.exact != nil {
		ns.exact = append([]map[exactKey]*Entry(nil), st.exact...)
		if dirtyShard >= 0 {
			m := make(map[exactKey]*Entry, len(st.exact[dirtyShard])+1)
			for k, v := range st.exact[dirtyShard] {
				m[k] = v
			}
			ns.exact[dirtyShard] = m
		}
	}
	ns.ternary = st.ternary
	ns.small = st.small // still valid unless exact entries change (refreshSmall)
	return ns
}

// Table is a match-action table. Entry management (AddEntry/DeleteEntry) is
// the control-plane interface; Lookup/execute is the data-plane interface.
// Lookups are lock-free against an immutable snapshot; mutators serialize on
// an internal mutex and publish a new snapshot atomically (the switch-driver
// semantics of an ASIC table update: traffic keeps flowing, every packet
// sees either the old or the new table, never a mix).
type Table struct {
	spec    TableSpec
	actions map[string]ActionFunc // fixed after program build
	gate    []gateCond            // spec.When compiled

	state atomic.Pointer[tableState]
	ctlMu sync.Mutex // serializes mutators (COW writers)

	stage int

	hits, misses atomic.Uint64
}

// Name returns the table name.
func (t *Table) Name() string { return t.spec.Name }

// Gress returns the table's gress.
func (t *Table) Gress() Gress { return t.spec.Gress }

// Kind returns the table's match kind.
func (t *Table) Kind() MatchKind { return t.spec.Kind }

// Size returns the table's configured capacity.
func (t *Table) Size() int { return t.spec.Size }

// Stage returns the stage the compiler placed the table in, or -1.
func (t *Table) Stage() int { return t.stage }

// Len returns the number of installed entries.
func (t *Table) Len() int { return t.state.Load().count }

// Hits and Misses report data-plane lookup statistics.
func (t *Table) Hits() uint64 { return t.hits.Load() }

// Misses reports the number of lookups that fell through to the default.
func (t *Table) Misses() uint64 { return t.misses.Load() }

// ProbeExact resolves an exact-match lookup for the given field values
// without running any action and without touching the hit/miss statistics —
// the read side of a program-compiled fast path that consults a table before
// committing to handle the packet outside the interpreter. Returns nil when
// no entry matches; the default action is not consulted. Only meaningful on
// MatchExact tables. The probe reads the same immutable snapshot apply uses,
// so it is safe against concurrent control-plane updates.
func (t *Table) ProbeExact(match ...uint64) *Entry {
	var k exactKey
	copy(k[:], match)
	return t.state.Load().find(k)
}

// NoteHit records an entry-matched traversal performed by a fast path that
// resolved this table outside apply, keeping Hits truthful for tables the
// packet logically traversed.
func (t *Table) NoteHit() { t.hits.Add(1) }

// NoteMiss records a default-action traversal performed by a fast path.
func (t *Table) NoteMiss() { t.misses.Add(1) }

// Action registers a named action implementation on the table.
func (t *Table) Action(name string, fn ActionFunc) *Table {
	if _, dup := t.actions[name]; dup {
		panic(fmt.Sprintf("dataplane: table %q action %q redeclared", t.spec.Name, name))
	}
	t.actions[name] = fn
	return t
}

// SetDefault installs the default action run on a lookup miss.
func (t *Table) SetDefault(action string, data []uint64) error {
	fn, ok := t.actions[action]
	if !ok {
		return fmt.Errorf("dataplane: table %q has no action %q", t.spec.Name, action)
	}
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	ns := t.state.Load().clone(-1)
	ns.def = &Entry{Action: action, Data: data, fn: fn}
	t.state.Store(ns)
	return nil
}

// AddEntry installs an exact-match entry. match holds one value per match
// field. It fails when the table is full or the action is unknown; it
// overwrites an existing entry with the same key (the driver semantics used
// for in-place updates).
func (t *Table) AddEntry(match []uint64, action string, data []uint64) error {
	if t.spec.Kind != MatchExact {
		return fmt.Errorf("dataplane: AddEntry on ternary table %q", t.spec.Name)
	}
	k, err := t.key(match)
	if err != nil {
		return err
	}
	fn, ok := t.actions[action]
	if !ok {
		return fmt.Errorf("dataplane: table %q has no action %q", t.spec.Name, action)
	}
	if len(data) > t.spec.ActionDataWords {
		return fmt.Errorf("dataplane: table %q entry carries %d action words, spec allows %d",
			t.spec.Name, len(data), t.spec.ActionDataWords)
	}
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	st := t.state.Load()
	sh := shardOf(k)
	_, exists := st.exact[sh][k]
	if !exists && st.count >= t.spec.Size {
		return fmt.Errorf("dataplane: table %q full (%d entries)", t.spec.Name, t.spec.Size)
	}
	e := &Entry{Action: action, Data: data, fn: fn}
	copy(e.Match[:], match)
	ns := st.clone(sh)
	ns.exact[sh][k] = e
	if !exists {
		ns.count++
	}
	ns.refreshSmall()
	t.state.Store(ns)
	return nil
}

// DeleteEntry removes an exact-match entry; it reports whether one existed.
func (t *Table) DeleteEntry(match []uint64) (bool, error) {
	if t.spec.Kind != MatchExact {
		return false, fmt.Errorf("dataplane: DeleteEntry on ternary table %q", t.spec.Name)
	}
	k, err := t.key(match)
	if err != nil {
		return false, err
	}
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	st := t.state.Load()
	sh := shardOf(k)
	if _, ok := st.exact[sh][k]; !ok {
		return false, nil
	}
	ns := st.clone(sh)
	delete(ns.exact[sh], k)
	ns.count--
	ns.refreshSmall()
	t.state.Store(ns)
	return true, nil
}

// AddTernary installs a masked entry with the given priority.
func (t *Table) AddTernary(match, mask []uint64, priority int, action string, data []uint64) error {
	if t.spec.Kind != MatchTernary {
		return fmt.Errorf("dataplane: AddTernary on exact table %q", t.spec.Name)
	}
	if len(match) != len(t.spec.MatchFields) || len(mask) != len(match) {
		return fmt.Errorf("dataplane: table %q ternary entry arity mismatch", t.spec.Name)
	}
	fn, ok := t.actions[action]
	if !ok {
		return fmt.Errorf("dataplane: table %q has no action %q", t.spec.Name, action)
	}
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	st := t.state.Load()
	if len(st.ternary) >= t.spec.Size {
		return fmt.Errorf("dataplane: table %q full (%d entries)", t.spec.Name, t.spec.Size)
	}
	e := &Entry{Priority: priority, Action: action, Data: data, fn: fn}
	copy(e.Match[:], match)
	copy(e.Mask[:], mask)
	ns := st.clone(-1)
	ns.ternary = append(append([]*Entry(nil), st.ternary...), e)
	sort.SliceStable(ns.ternary, func(i, j int) bool {
		return ns.ternary[i].Priority > ns.ternary[j].Priority
	})
	ns.count = len(ns.ternary)
	t.state.Store(ns)
	return nil
}

// ForEach visits every installed (non-default) entry against a consistent
// snapshot: match values in MatchFields order, the action name, and the
// action data. The callback must not mutate the table.
func (t *Table) ForEach(fn func(match []uint64, action string, data []uint64)) {
	st := t.state.Load()
	n := len(t.spec.MatchFields)
	for _, shard := range st.exact {
		for _, e := range shard {
			fn(e.Match[:n], e.Action, e.Data)
		}
	}
	for _, e := range st.ternary {
		fn(e.Match[:n], e.Action, e.Data)
	}
}

// Reset removes every installed entry, keeping the default action — the
// driver-visible effect of a device power cycle on match RAM.
func (t *Table) Reset() {
	t.ctlMu.Lock()
	defer t.ctlMu.Unlock()
	st := t.state.Load()
	ns := &tableState{def: st.def}
	if st.exact != nil {
		ns.exact = make([]map[exactKey]*Entry, len(st.exact))
		for i := range ns.exact {
			ns.exact[i] = map[exactKey]*Entry{}
		}
	}
	ns.refreshSmall()
	t.state.Store(ns)
}

func (t *Table) key(match []uint64) (exactKey, error) {
	var k exactKey
	if len(match) != len(t.spec.MatchFields) {
		return k, fmt.Errorf("dataplane: table %q expects %d match values, got %d",
			t.spec.Name, len(t.spec.MatchFields), len(match))
	}
	if len(match) > len(k) {
		return k, fmt.Errorf("dataplane: table %q match wider than %d fields", t.spec.Name, len(k))
	}
	copy(k[:], match)
	return k, nil
}

// apply executes the table on a packet whose gateway passed: lookup, then
// the matched entry's action or, on a miss, the default.
func (t *Table) apply(ctx *Ctx) {
	st := t.state.Load()
	var e *Entry
	if t.spec.Kind == MatchExact {
		var k exactKey
		for i, f := range t.spec.MatchFields {
			k[i] = ctx.phv[f]
		}
		e = st.find(k)
	} else {
	cands:
		for _, cand := range st.ternary {
			for i, f := range t.spec.MatchFields {
				if ctx.phv[f]&cand.Mask[i] != cand.Match[i]&cand.Mask[i] {
					continue cands
				}
			}
			e = cand
			break
		}
	}
	matched := e != nil
	if matched {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
		e = st.def
	}
	if ctx.trace != nil {
		ev := TraceEvent{Gress: t.spec.Gress, Stage: t.stage, Table: t.spec.Name, Matched: matched}
		if e != nil {
			ev.Action = e.Action
		}
		*ctx.trace = append(*ctx.trace, ev)
	}
	if e != nil {
		e.fn(ctx, e.Data)
	}
}

// matchBytes is the SRAM/TCAM key width charged per entry.
func (t *Table) matchBytes() int {
	bits := 0
	for range t.spec.MatchFields {
		bits += 64 // charged at container width, like real PHV packing
	}
	return (bits + 7) / 8
}

// costBytes is the memory charged for the full table at capacity: per entry,
// the match key plus action data plus a pointer/overhead word.
func (t *Table) costBytes() int {
	per := t.matchBytes() + t.spec.ActionDataWords*8 + 8
	return per * t.spec.Size
}
