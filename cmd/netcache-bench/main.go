// Command netcache-bench regenerates the NetCache paper's evaluation
// (SOSP'17 §7): one table per figure, printed in the order of the paper.
//
// Usage:
//
//	netcache-bench [-exp all|fig9a|...|resources] [-quick] [-list]
//
// Figure 9 and 11 experiments execute real packets through the compiled
// switch pipeline; Figure 10 experiments evaluate the calibrated capacity
// models (see DESIGN.md and EXPERIMENTS.md for the methodology and the
// paper-vs-measured record).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"netcache/internal/harness"
	_ "netcache/internal/queuesim" // registers the fig10c-sim latency experiment
	"netcache/internal/telemetry"
	_ "netcache/internal/topo" // registers the fig10f scalability model
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	quick := flag.Bool("quick", false, "trade precision for runtime")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "table", "output format: table or csv")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /snapshot, /debug/pprof on this HTTP address while experiments run (empty disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.Parse()
	if *telemetryAddr != "" {
		ts := telemetry.New(telemetry.Config{})
		bound, err := ts.Start(*telemetryAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netcache-bench: %v\n", err)
			os.Exit(1)
		}
		defer ts.Close()
		harness.Telemetry = ts
		fmt.Fprintf(os.Stderr, "netcache-bench: telemetry on http://%v/metrics (the balance experiment attaches its racks while it runs)\n", bound)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer func() {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			pprof.Lookup("mutex").WriteTo(f, 0)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocations into the profile
			pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	run := func(e harness.Experiment) error {
		start := time.Now()
		tb, err := e.Run(*quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", tb.ID, tb.Title)
			tb.Fcsv(os.Stdout)
			fmt.Println()
			return nil
		}
		tb.Fprint(os.Stdout)
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if *exp == "all" {
		for _, e := range harness.Experiments() {
			if err := run(e); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	e, ok := harness.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
