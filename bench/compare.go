package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// compareMain implements `bench compare A.jsonl B.jsonl`: A and B are -out
// files, each a set of runs of one commit. Every end-to-end metric of every
// workload is one row, judged by its bound in BENCHMARK.json.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := readBenchmarkFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	fmt.Printf("%-24s %-17s %12s %12s %9s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B vs A", "spread", "bound", "verdict")
	worse := false
	for _, r := range compareRuns(spec, a, b) {
		fmt.Printf("%-24s %-17s %12.4f %12.4f %+8.1f%% %7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.change, 100*r.spread, 100*r.bound, r.verdict)
		worse = worse || r.verdict == "worse"
	}
	fmt.Println("B vs A is the change of the median as a share of A's median, positive when B is worse;")
	fmt.Println("spread is the wider of the two sets' interquartile ranges as a share of its median.")
	if worse {
		return 1
	}
	return 0
}

type rowKey struct{ workload, metric string }

// readRuns collects the untraced runs' metric values per workload and metric.
func readRuns(path string) (map[rowKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[rowKey][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		for name, m := range r.Metrics {
			k := rowKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, sc.Err()
}

type compareRow struct {
	workload, metric string
	a, b             float64 // medians
	change, spread   float64
	bound            float64
	verdict          string
}

func compareRuns(spec *benchmarkFile, a, b map[rowKey][]float64) []compareRow {
	var rows []compareRow
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[rowKey{w.Name, m.Name}], b[rowKey{w.Name, m.Name}]
			r := compareRow{workload: w.Name, metric: m.Name, bound: m.Bound, verdict: "missing"}
			if len(va) > 0 && len(vb) > 0 {
				r.a, r.b = median(va), median(vb)
				r.change = (r.b - r.a) / r.a
				if m.Better == "higher" {
					r.change = -r.change
				}
				r.spread = math.Max(relSpread(va), relSpread(vb))
				switch {
				case math.IsNaN(r.spread) || r.spread > m.Bound:
					r.verdict = "unresolved"
				case r.change > m.Bound:
					r.verdict = "worse"
				default:
					r.verdict = "ok"
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// relSpread is the distance between the first and third quartile as a share
// of the median. NaN for fewer than two values.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return math.NaN()
	}
	return iqr(v) / median(v)
}
