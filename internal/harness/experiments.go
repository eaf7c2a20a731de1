package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// Table is the output of one experiment: a numeric grid with named columns,
// printable in the same layout the paper's figures report.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]float64
	Notes   []string
}

// Add appends a row; the arity must match Columns.
func (t *Table) Add(row ...float64) {
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("harness: table %s row arity %d != %d columns", t.ID, len(row), len(t.Columns)))
	}
	t.Rows = append(t.Rows, row)
}

// Col returns the values of the named column.
func (t *Table) Col(name string) []float64 {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("harness: table %s has no column %q", t.ID, name))
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r[idx]
	}
	return out
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for ri, row := range t.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := formatCell(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%*s ", widths[i], c)
	}
	fmt.Fprintln(w)
	for _, row := range cells {
		for ci, s := range row {
			fmt.Fprintf(w, "%*s ", widths[ci], s)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Fcsv renders the table as CSV (one file-worth per experiment), for
// feeding plotting tools.
func (t *Table) Fcsv(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = formatCell(v)
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

func formatCell(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Experiment regenerates one figure of the paper.
type Experiment struct {
	ID    string
	Title string
	// Run produces the table. quick trades precision for runtime (used
	// by tests); the bench harness passes false.
	Run func(quick bool) (*Table, error)
}

// Experiments returns the full registry, one entry per table/figure of the
// evaluation (§7) in paper order, followed by the extensions.
func Experiments() []Experiment {
	return []Experiment{
		{"fig9a", "Switch throughput vs. value size (snake test)", Fig9a},
		{"fig9b", "Switch throughput vs. cache size (snake test)", Fig9b},
		{"fig10a", "System throughput vs. skew, NoCache vs. NetCache", Fig10a},
		{"fig10b", "Per-server throughput breakdown", Fig10b},
		{"fig10c", "Average latency vs. throughput", Fig10c},
		{"fig10d", "Throughput vs. write ratio", Fig10d},
		{"fig10e", "Throughput vs. cache size", Fig10e},
		{"fig10f", "Scalability across racks", Fig10f},
		{"fig11a", "Dynamic workload: hot-in", Fig11a},
		{"fig11b", "Dynamic workload: random", Fig11b},
		{"fig11c", "Dynamic workload: hot-out", Fig11c},
		{"resources", "Switch resource usage (§6)", Resources},
		{"xval", "Packet-level cross-validation of the capacity model", XVal},
		{"balance", "Load balance analytics: per-server load with the cache on vs off", BalanceBench},
		{"fig10c-sim", "Simulated latency distribution vs throughput", Fig10cSim},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fig9a sweeps the value size through the snake test. The paper measures a
// flat 2.24 BQPS for values up to 128 bytes; the flatness is reproduced
// structurally (every size compiles and runs within the same pipeline), and
// the modeled rate is the same generator-bound constant.
func Fig9a(quick bool) (*Table, error) {
	t := &Table{
		ID: "fig9a", Title: "throughput vs value size",
		Columns: []string{"value_bytes", "modeled_BQPS", "measured_Mpps", "verified"},
		Notes: []string{
			"paper: flat 2.24 BQPS, generator-bound (2 x 35 MQPS x 32 snake traversals)",
			"measured_Mpps is this Go process's pipeline rate (scaled substrate)",
		},
	}
	queries := 1500
	if quick {
		queries = 200
	}
	for _, vs := range []int{32, 64, 96, 128} {
		res, err := RunSnake(SnakeConfig{
			ValueSize: vs, CacheItems: 512, Queries: queries, UpdateEvery: 8,
		})
		if err != nil {
			return nil, err
		}
		t.Add(float64(vs), res.ModeledQPS/1e9, res.MeasuredPPS/1e6, float64(res.Verified))
	}
	return t, nil
}

// Fig9b sweeps the cache size through the snake test; the paper's line is
// flat up to the 64K-item capacity.
func Fig9b(quick bool) (*Table, error) {
	t := &Table{
		ID: "fig9b", Title: "throughput vs cache size",
		Columns: []string{"cache_items", "modeled_BQPS", "measured_Mpps", "verified"},
		Notes: []string{
			"paper: flat 2.24 BQPS up to 64K items of 128-byte values",
		},
	}
	sizes := []int{64, 256, 1024}
	queries := 1000
	if !quick {
		sizes = append(sizes, 8192, 65536)
		queries = 1500
	}
	for _, cs := range sizes {
		res, err := RunSnake(SnakeConfig{
			ValueSize: 128, CacheItems: cs, Queries: queries, UpdateEvery: 8,
		})
		if err != nil {
			return nil, err
		}
		t.Add(float64(cs), res.ModeledQPS/1e9, res.MeasuredPPS/1e6, float64(res.Verified))
	}
	return t, nil
}

// Fig10a compares saturated throughput with and without the cache across
// skew levels, including the cache/server split the paper stacks.
func Fig10a(bool) (*Table, error) {
	t := &Table{
		ID: "fig10a", Title: "throughput vs skew (BQPS)",
		Columns: []string{"theta", "nocache", "netcache", "cache_part", "server_part", "speedup"},
		Notes: []string{
			"paper: NoCache drops to 15.6% of uniform at zipf-0.99;",
			"NetCache improves throughput 3.6x / 6.5x / 10x at zipf 0.9 / 0.95 / 0.99",
		},
	}
	for _, theta := range []float64{0, 0.9, 0.95, 0.99} {
		m := PaperRack(theta)
		nc := m.StaticThroughput(false)
		wc := m.StaticThroughput(true)
		t.Add(theta, nc.TotalQPS/1e9, wc.TotalQPS/1e9,
			wc.CacheQPS/1e9, wc.ServerQPS/1e9, wc.TotalQPS/nc.TotalQPS)
	}
	return t, nil
}

// Fig10b reports each server's load at saturation, sorted, for the three
// NoCache skews and the cached zipf-0.99 case.
func Fig10b(bool) (*Table, error) {
	t := &Table{
		ID: "fig10b", Title: "per-server throughput at saturation (MQPS)",
		Columns: []string{"server", "noc_z090", "noc_z095", "noc_z099", "netcache_z099"},
		Notes: []string{
			"paper: skewed without the cache, near-uniform with it",
			"rows sorted by load per column, as the paper's bars effectively are",
		},
	}
	cols := make([][]float64, 0, 4)
	for _, theta := range []float64{0.9, 0.95, 0.99} {
		res := PaperRack(theta).StaticThroughput(false)
		cols = append(cols, sorted(res.PerServerQPS))
	}
	res := PaperRack(0.99).StaticThroughput(true)
	cols = append(cols, sorted(res.PerServerQPS))
	for i := 0; i < len(cols[0]); i++ {
		t.Add(float64(i), cols[0][i]/1e6, cols[1][i]/1e6, cols[2][i]/1e6, cols[3][i]/1e6)
	}
	return t, nil
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// Fig10c traces average latency against offered throughput.
func Fig10c(bool) (*Table, error) {
	t := &Table{
		ID: "fig10c", Title: "average latency vs throughput",
		Columns: []string{"load_BQPS", "nocache_us", "netcache_us"},
		Notes: []string{
			"paper: NoCache ~15us, saturating at 0.2 BQPS; NetCache 11-12us steady to 2 BQPS",
			"-1 marks saturation (queries queue without bound)",
		},
	}
	m := PaperRack(0.99)
	for _, load := range []float64{0.05e9, 0.1e9, 0.15e9, 0.2e9, 0.3e9, 0.5e9, 1e9, 1.5e9, 2e9, 2.4e9} {
		noc := m.AvgLatency(load, false)
		nc := m.AvgLatency(load, true)
		t.Add(load/1e9, usOrSaturated(noc), usOrSaturated(nc))
	}
	return t, nil
}

func usOrSaturated(sec float64) float64 {
	if sec > 1 { // effectively infinite
		return -1
	}
	return sec * 1e6
}

// Fig10d sweeps the write ratio for uniform and skewed writes.
func Fig10d(bool) (*Table, error) {
	t := &Table{
		ID: "fig10d", Title: "throughput vs write ratio (BQPS)",
		Columns: []string{"write_ratio", "nc_uniformW", "noc_uniformW", "nc_skewedW", "noc_skewedW"},
		Notes: []string{
			"paper: uniform writes degrade NetCache linearly toward the NoCache meeting point;",
			"skewed writes erase the benefit near ratio 0.2 and sit slightly below NoCache beyond",
		},
	}
	for _, w := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0} {
		uni := WriteWorkload{Rack: PaperRack(0.99), WriteRatio: w}
		skw := uni
		skw.SkewedWrites = true
		t.Add(w, uni.Throughput(true)/1e9, uni.Throughput(false)/1e9,
			skw.Throughput(true)/1e9, skw.Throughput(false)/1e9)
	}
	return t, nil
}

// Fig10e sweeps the cache size at two skew levels (log-scale x in the
// paper).
func Fig10e(bool) (*Table, error) {
	t := &Table{
		ID: "fig10e", Title: "throughput vs cache size (BQPS)",
		Columns: []string{"cache_items", "z090_total", "z090_servers", "z099_total", "z099_servers"},
		Notes: []string{
			"paper: ~1000 items balance 128 nodes (server part reaches the uniform 1.28 BQPS);",
			"returns diminish on the log-scale axis; the z0.9/z0.99 curves cross",
		},
	}
	for _, c := range []int{10, 30, 100, 300, 1000, 3000, 10000, 30000, 65536} {
		m90 := PaperRack(0.9)
		m90.CacheSize = c
		m99 := PaperRack(0.99)
		m99.CacheSize = c
		r90 := m90.StaticThroughput(true)
		r99 := m99.StaticThroughput(true)
		t.Add(float64(c), r90.TotalQPS/1e9, r90.ServerQPS/1e9, r99.TotalQPS/1e9, r99.ServerQPS/1e9)
	}
	return t, nil
}

// Fig10f scales the fabric to 32 racks under the three deployments
// (scaleout.go).
func Fig10f(bool) (*Table, error) {
	t := &Table{
		ID: "fig10f", Title: "scalability across racks (BQPS)",
		Columns: []string{"racks", "servers", "nocache", "leaf_cache", "leaf_spine_cache"},
		Notes: []string{
			"paper: NoCache flat; Leaf-Cache limited at tens of racks; Leaf-Spine grows with servers",
		},
	}
	for _, racks := range []int{1, 2, 4, 8, 16, 32} {
		c := paperScaleOut(racks)
		t.Add(float64(racks), float64(racks*c.ServersPerRack),
			c.throughput(noCache)/1e9, c.throughput(leafCache)/1e9, c.throughput(leafSpineCache)/1e9)
	}
	return t, nil
}

// Fig11a runs the hot-in dynamic emulation.
func Fig11a(quick bool) (*Table, error) { return dynamicFig("fig11a", workload.ChurnHotIn, quick) }

// Fig11b runs the random-replacement dynamic emulation.
func Fig11b(quick bool) (*Table, error) { return dynamicFig("fig11b", workload.ChurnRandom, quick) }

// Fig11c runs the hot-out dynamic emulation.
func Fig11c(quick bool) (*Table, error) { return dynamicFig("fig11c", workload.ChurnHotOut, quick) }

func dynamicFig(id string, churn workload.Churn, quick bool) (*Table, error) {
	cfg := PaperDynamic(churn)
	if quick {
		cfg.Ticks = 25
		cfg.InitialRate = 15000
		cfg.PartitionCapacity = 300
	}
	res, err := RunDynamic(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: id, Title: fmt.Sprintf("dynamic workload (%s), served queries per tick", churn),
		Columns: []string{"tick", "offered", "served", "avg10", "cache_hits", "loss_pct"},
		Notes: []string{
			"paper fig11: hot-in dips each change then recovers within a second;",
			"random dips shallowly; hot-out stays steady",
		},
	}
	avg := res.Avg10()
	for i, tk := range res.Ticks {
		t.Add(float64(tk.Tick), float64(tk.Offered), float64(tk.Served),
			avg[i], float64(tk.CacheHits), 100*tk.LossRate)
	}
	return t, nil
}

// Resources compiles the paper-scale program and reports the on-chip
// footprint (§6 claims <50% of the Tofino's memory).
func Resources(bool) (*Table, error) {
	sw, err := switchcore.New(switchcore.PaperConfig())
	if err != nil {
		return nil, err
	}
	rep := sw.ResourceReport()
	t := &Table{
		ID: "resources", Title: "on-chip resource usage, paper-scale program",
		Columns: []string{"sram_bytes", "tcam_bytes", "sram_pct_of_pipe"},
		Notes:   strings.Split(strings.TrimRight(rep.String(), "\n"), "\n"),
	}
	t.Add(float64(rep.TotalSRAM()), float64(rep.TotalTCAM()), 100*rep.SRAMFraction())
	return t, nil
}
