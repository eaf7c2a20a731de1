package main

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"netcache/internal/client"
	"netcache/internal/workload"
)

// testOptions runs a workload at 1/100 scale with one build instead of five.
func testOptions() *options { return &options{seed: 1, scale: 0.01, builds: 1} }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsSmall runs every workload, measured and traced, at 1/100
// scale: nothing may fail the oracle, and the names that come out must be
// the names BENCHMARK.json promises.
func TestWorkloadsSmall(t *testing.T) {
	spec, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	wantNames := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
			}
			m[d.Name] = d.Unit
		}
		return m
	}
	if got, want := wantNames(endToEnd), wantNames(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end metrics: benchmark %v, BENCHMARK.json %v", got, want)
	}
	if got, want := wantNames(perLayer), wantNames(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer metrics: benchmark %v, BENCHMARK.json %v", got, want)
	}

	o := testOptions()
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q has characters outside [A-Za-z0-9_.-]", w.Name)
		}
		reports, err := runWorkload(&workloads[i], o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(reports) != 2 {
			t.Fatalf("%s: %d reports, want measured and traced", w.Name, len(reports))
		}
		for j, want := range [][]metricDef{endToEnd, perLayer} {
			r := reports[j]
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("%s trace=%d: attempted %d failed %d correct %v: %v", w.Name, r.Trace, r.Attempted, r.Failed, r.Correct, r.Fails)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, r.Trace, len(r.Metrics), len(want))
			}
			for _, d := range want {
				m, found := r.Metrics[d.Name]
				if !found || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v)", w.Name, r.Trace, d.Name, m, found)
				}
				if r.Trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
		// The layers a transport does not have must read zero on it.
		for name, m := range reports[1].Metrics {
			if !workloads[i].udp && strings.HasPrefix(name, "udptrans.") && m.Value != 0 {
				t.Errorf("%s: %s = %v on simnet", w.Name, name, m.Value)
			}
		}
	}
}

// TestSimRunRepeats: a simnet workload has no timers, so one seed gives the
// same ops, the same cache hits and the same load on every server.
func TestSimRunRepeats(t *testing.T) {
	o := testOptions()
	o.trace = "0"
	var infos []map[string]any
	for i := 0; i < 2; i++ {
		reports, err := runWorkload(&workloads[0], o)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, reports[0].Info)
	}
	for _, k := range []string{"ops", "cache_hits", "server_ops"} {
		if !reflect.DeepEqual(infos[0][k], infos[1][k]) {
			t.Errorf("%s differs between two runs of seed 1: %v vs %v", k, infos[0][k], infos[1][k])
		}
	}
}

func TestOracle(t *testing.T) {
	g, err := newGenerator(&workloads[2], 1)
	if err != nil {
		t.Fatal(err)
	}
	const id = 42
	pristine := workload.ValueFor(id, valueSize)
	if c := g.classifyGet(id, pristine, nil); c != ok {
		t.Fatalf("loaded dataset value classed %s", failNames[c])
	}
	// The written form is the pattern with a version in front.
	v1 := bytes.Clone(g.nextValue(id))
	if !bytes.Equal(v1[8:], pristine[8:]) {
		t.Fatal("written value does not keep the ValueFor pattern")
	}
	if c := g.classifyGet(id, v1, nil); c != ok {
		t.Errorf("version sent but not yet acknowledged classed %s", failNames[c])
	}
	g.checkPut(id, nil)
	v2 := bytes.Clone(g.nextValue(id))
	g.checkPut(id, nil)

	corrupt := bytes.Clone(v2)
	corrupt[100] ^= 0x40
	future := bytes.Clone(v2)
	future[7] += 5
	for _, tc := range []struct {
		name  string
		value []byte
		err   error
		want  failClass
	}{
		{"current version", v2, nil, ok},
		{"corrupted reply", corrupt, nil, failWrongValue},
		{"short reply", v2[:64], nil, failWrongValue},
		{"version never written", future, nil, failWrongValue},
		{"older than the acknowledged version", v1, nil, failStale},
		{"dataset value after an acknowledged Put", pristine, nil, failStale},
		{"not found", nil, client.ErrNotFound, failNotFound},
		{"timeout", nil, client.ErrTimeout, failTimeout},
		{"any other error", nil, errors.New("boom"), failTimeout},
	} {
		if c := g.classifyGet(id, tc.value, tc.err); c != tc.want {
			t.Errorf("%s: classed %s, want %s", tc.name, failNames[c], failNames[tc.want])
		}
	}
	if c := g.checkGet(id, corrupt, nil); c != failWrongValue || g.failed() != 1 {
		t.Errorf("a corrupted reply must count as failed: class %s, failed %d", failNames[c], g.failed())
	}
}

func TestCompare(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]; median 13.5.
	v := []float64{46, 1, 2, 4, 37, 7, 11, 29, 16, 22}
	if got, want := relSpread(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	spec := &benchmarkFile{EndToEnd: []metricDef{
		{Name: "throughput_kops", Better: "higher", Bound: 0.1},
		{Name: "get_p50_us", Better: "lower", Bound: 0.1},
		{Name: "get_p99_us", Better: "lower", Bound: 0.25},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	a := map[rowKey][]float64{
		{"w", "throughput_kops"}: {100, 101, 99, 100},
		{"w", "get_p50_us"}:      {10, 10.1, 9.9, 10},
		{"w", "get_p99_us"}:      {10, 30, 50, 70},
	}
	b := map[rowKey][]float64{
		{"w", "throughput_kops"}: {80, 81, 79, 80}, // 20 % lower: worse
		{"w", "get_p50_us"}:      {10.5, 10.4, 10.6, 10.5},
		{"w", "get_p99_us"}:      {10, 30, 50, 70},
	}
	want := []string{"worse", "ok", "unresolved"}
	for i, r := range compareRuns(spec, a, b) {
		if r.verdict != want[i] {
			t.Errorf("%s: verdict %s, want %s (%+v)", r.metric, r.verdict, want[i], r)
		}
	}
}
