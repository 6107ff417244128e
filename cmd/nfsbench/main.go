// Command nfsbench regenerates the paper's evaluation artifacts and runs
// declarative scenarios.
//
// Usage:
//
//	nfsbench -list                  # print the scenario registry
//	nfsbench -run table1            # one registry scenario by name
//	nfsbench -run table1,table3     # several
//	nfsbench -run all               # every registry scenario
//	nfsbench -dump figure2          # emit a scenario spec as JSON
//	nfsbench -dump table1 > t.json; vi t.json   # e.g. a smaller file_mb
//	nfsbench -validate t.json       # parse + validate without running
//	nfsbench -scenario t.json       # run an edited spec
//	nfsbench -run figure1 -trace t.json -probes p.csv
//	nfsbench -fuzz 200 -seed 7      # seed-driven scenario fuzzing; on a
//	                                # failure prints the shrunk spec and
//	                                # exits 1
//	nfsbench -run figure2 -j 8      # sweep cells across 8 workers
//	nfsbench -j 1 ...               # force the sequential engine
//
// Every named experiment — the paper's tables and figures included — is
// a registry spec run by the scenario engine and printed by
// Result.Render. -j sets the worker-pool size for sweep cells, registry
// scenarios and fuzz runs (default GOMAXPROCS). Every output byte is
// identical at any -j: cells are independent sims gathered in
// deterministic order, and only the wall-time lines (which report real
// time) differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// traceOut and probesOut are the -trace / -probes destinations; either
// being set forces the observe plane on for every scenario runSpec
// executes (when several scenarios run, the last one's artifacts win).
var traceOut, probesOut string

func main() {
	run := flag.String("run", "", "registry scenarios to run (tableN, figureN, scale, crash, ...), comma separated, or 'all'")
	list := flag.Bool("list", false, "list the scenario registry and exit")
	dump := flag.String("dump", "", "print the named scenario's spec as JSON and exit")
	scenarioFile := flag.String("scenario", "", "run a scenario spec from a JSON file")
	validate := flag.String("validate", "", "parse and validate a scenario spec file without running it")
	fuzz := flag.Int("fuzz", 0, "run N fuzzed scenarios against the durability and leak invariants")
	seed := flag.Int64("seed", 1, "fuzzing campaign seed (with -fuzz)")
	jobs := flag.Int("j", 0, "worker-pool size for sweep cells, registry scenarios and fuzz runs (default GOMAXPROCS; 1 forces the sequential engine)")
	flag.StringVar(&traceOut, "trace", "", "write a Chrome trace_event JSON file for scenario runs (view in chrome://tracing or ui.perfetto.dev); forces the observe plane on")
	flag.StringVar(&probesOut, "probes", "", "write the periodic probe time-series as CSV for scenario runs; forces the observe plane on")
	flag.Parse()
	scenario.SetWorkers(*jobs)
	wall := time.Now()

	switch {
	case *fuzz > 0:
		runFuzz(*fuzz, *seed)
		return
	case *list:
		listScenarios()
		return
	case *dump != "":
		dumpScenario(*dump)
		return
	case *validate != "":
		validateScenarioFile(*validate)
		return
	case *scenarioFile != "":
		runScenarioFile(*scenarioFile)
		return
	}
	if *run == "" {
		*run = "all"
	}

	var names []string
	if *run == "all" {
		for _, e := range scenario.Registry() {
			names = append(names, e.Name)
		}
	} else {
		for _, n := range strings.Split(*run, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	specs := make([]scenario.Spec, len(names))
	for i, n := range names {
		spec, ok := scenario.Lookup(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "nfsbench: no scenario named %q; known names: %s\n",
				n, strings.Join(knownNames(), ", "))
			os.Exit(2)
		}
		specs[i] = spec
	}
	runRegistryScenarios(names, specs)
	fmt.Printf("nfsbench: total wall time %.2f s\n", time.Since(wall).Seconds())
}

// runRegistryScenarios executes the registry scenarios, concurrently when
// the worker pool allows: each scenario renders into its own buffer and
// the buffers print in the order named (registry order for "all"), so
// the transcript is byte-identical to the sequential loop (wall-time
// lines aside). The -trace/-probes artifact path keeps the sequential
// loop — its last-scenario-wins file semantics are inherently ordered.
func runRegistryScenarios(names []string, specs []scenario.Spec) {
	workers := scenario.Workers()
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 || traceOut != "" || probesOut != "" {
		for _, spec := range specs {
			runSpec(spec)
		}
		return
	}
	outs := make([]string, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				_, outs[i], errs[i] = execSpec(specs[i])
			}
		}()
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: %s: %v\n", names[i], errs[i])
			os.Exit(1)
		}
		fmt.Print(outs[i])
	}
}

// knownNames lists every runnable name, sorted.
func knownNames() []string {
	var names []string
	for _, e := range scenario.Registry() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

func listScenarios() {
	for _, e := range scenario.Registry() {
		fmt.Printf("%-14s %s\n", e.Name, e.Description)
	}
}

func dumpScenario(name string) {
	spec, ok := scenario.Lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "nfsbench: no scenario named %q (try -list)\n", name)
		os.Exit(2)
	}
	blob, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

func runScenarioFile(path string) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %v\n", err)
		os.Exit(1)
	}
	spec, err := scenario.Decode(blob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %s: %v\n", path, err)
		os.Exit(1)
	}
	runSpec(spec)
}

// validateScenarioFile parses and validates a spec file without running
// it: decode errors (unknown fields, malformed JSON) and typed validation
// errors print with the offending spec path, and the exit status is
// nonzero on any problem — the CI-able lint for hand-edited specs.
func validateScenarioFile(path string) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %v\n", err)
		os.Exit(1)
	}
	spec, err := scenario.Decode(blob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %s: %v\n", path, err)
		os.Exit(1)
	}
	cells := len(spec.Cells)
	if cells == 0 {
		cells = 1
	}
	fmt.Printf("%s: spec %q valid (%d cells, workload %s)\n", path, spec.Name, cells, spec.Workload.Kind)
}

// runFuzz executes a fuzzing campaign. On a failure the minimal
// reproducing spec prints as runnable JSON (feed it back through
// -scenario) and the exit status is 1.
func runFuzz(runs int, seed int64) {
	failure := scenario.Fuzz(scenario.FuzzConfig{
		Runs: runs,
		Seed: seed,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if failure != nil {
		fmt.Fprintln(os.Stderr, failure.String())
		// Persist the repro with its observability artifacts: the shrunken
		// spec as runnable JSON, plus the instrumented replay's span trace
		// and probe time-series (partial when the replay panics).
		writeRepro("fuzz-repro.json", []byte(failure.JSON()+"\n"))
		writeRepro("fuzz-repro.trace.json", failure.TraceJSON)
		writeRepro("fuzz-repro.series.csv", failure.SeriesCSV)
		os.Exit(1)
	}
	fmt.Printf("fuzz: %d runs, seed %d: all clean (durability and block accounting held)\n", runs, seed)
}

func writeRepro(name string, blob []byte) {
	if len(blob) == 0 {
		return
	}
	if err := os.WriteFile(name, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: write %s: %v\n", name, err)
		return
	}
	fmt.Fprintf(os.Stderr, "nfsbench: wrote %s\n", name)
}

// execSpec runs one scenario and renders its full report — the result
// table, the per-cell wall times, and the wall+sim summary — into a
// string, so concurrent scenario runs can buffer output and print in
// deterministic order.
func execSpec(spec scenario.Spec) (*scenario.Result, string, error) {
	if traceOut != "" || probesOut != "" {
		o := scenario.Observe{}
		if spec.Observe != nil {
			o = *spec.Observe
		}
		if traceOut != "" {
			o.Trace = true
		}
		if probesOut != "" {
			o.Probes = true
		}
		o.Histograms = true
		spec.Observe = &o
	}
	wall := time.Now()
	res, err := scenario.Run(spec)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintln(&b, res.Render())
	var simTotal sim.Duration
	for _, c := range res.Cells {
		simTotal += c.SimTime
	}
	if len(res.Cells) > 1 {
		for _, c := range res.Cells {
			fmt.Fprintf(&b, "  cell %-28s %8.3f s wall\n", c.Label, c.Wall.Seconds())
		}
	}
	fmt.Fprintf(&b, "%s: %.2f s wall, %.2f s simulated (%d cells, %d workers)\n",
		spec.Name, time.Since(wall).Seconds(), simTotal.Seconds(), len(res.Cells), scenario.Workers())
	return res, b.String(), nil
}

func runSpec(spec scenario.Spec) {
	res, out, err := execSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(out)
	if traceOut != "" {
		var traces []*obs.Trace
		for i := range res.Cells {
			if t := res.Cells[i].Trace; t != nil {
				traces = append(traces, t)
			}
		}
		writeArtifact(traceOut, func(f *os.File) error { return obs.WriteTraces(f, traces) })
	}
	if probesOut != "" {
		var series []*obs.TimeSeries
		for i := range res.Cells {
			if s := res.Cells[i].Series; s != nil {
				series = append(series, s)
			}
		}
		writeArtifact(probesOut, func(f *os.File) error { return obs.WriteSeriesCSV(f, series) })
	}
}

func writeArtifact(path string, emit func(*os.File) error) {
	f, err := os.Create(path)
	if err == nil {
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("nfsbench: wrote %s\n", path)
}
