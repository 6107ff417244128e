// Command perfbench is the repository benchmark. It runs one workload —
// a set of registry scenarios — through scenario.RunWorkers on one
// simulation worker, measures it from outside (host timing, heap, Go
// memory statistics, a CPU profile charged to layers), checks the
// simulated outputs, and prints every metric with its unit, clock and
// window, ending with one JSON line.
//
//	bash perfbench/run.sh --workload laddis --seed 0 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from tracing-off passes;
// --trace 1 reports the per-layer metrics from passes with the observe
// plane and a CPU profile on, beside tracing-off passes for the
// overhead. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// The fewest measured passes a run makes, whatever its time budget, so
// every reported host figure is a median of at least three (end to end)
// or two (per layer) passes.
const (
	minPassesEndToEnd = 3
	minPassesPerLayer = 2
)

type options struct {
	workload workload
	seed     int64
	seconds  float64
}

// profileDir holds the CPU profiles of --trace 1 runs while they are
// merged; run.sh puts the build there too.
const profileDir = ".bench_build/profiles"

func main() {
	name := flag.String("workload", "", "workload to run: copy, laddis or bridgedsat")
	seed := flag.Int64("seed", 0, "shift added to every registry seed (0 runs the registry's own seeds)")
	seconds := flag.Float64("seconds", 30, "host seconds to spend measuring")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced, profiled run")
	passMode := flag.String("pass", "", "internal: run one full|setup|traced pass and print its summary")
	profile := flag.String("profile", "", "internal: CPU profile path for --pass")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload copy|laddis|bridgedsat, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); n < 2 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(2)
	}
	if *passMode != "" {
		if err := passMain(w, *seed, *passMode, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds}
	var rep report
	var err error
	if *traceOn == 0 {
		rep, err = endToEnd(opt)
	} else {
		rep, err = perLayer(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// report is one run's outcome.
type report struct {
	workload string
	seed     int64
	passes   int
	values   map[string]float64
	catalog  []metric
	ops      opCount
	problems []string // failed correctness checks
	notes    []string // extra lines for the human-readable table
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print(out *os.File) {
	fmt.Fprintf(out, "perfbench %s seed=%d passes=%d\n", r.workload, r.seed, r.passes)
	fmt.Fprintf(out, "%-24s %14s %-6s %-5s %-8s\n", "metric", "value", "unit", "clock", "window")
	metrics := map[string]map[string]any{}
	for _, m := range r.catalog {
		v := r.values[m.name]
		fmt.Fprintf(out, "%-24s %14.6g %-6s %-5s %-8s\n", m.name, v, m.unit, m.clock, m.window)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.ops.attempted,
		"failed":    r.ops.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic("perfbench: marshal result: " + err.Error())
	}
	fmt.Fprintln(out, string(line))
}

// keepGoing reports whether another iteration fits the time budget,
// judging by the mean iteration so far.
func keepGoing(done, min int, start time.Time, budget float64) bool {
	if done < min {
		return true
	}
	spent := time.Since(start)
	return spent+spent/time.Duration(done) <= time.Duration(budget*float64(time.Second))
}

// passCheck collects a run's pass summaries: output check failures, and
// simulated columns that differ from the first pass of the same kind.
type passCheck struct {
	r      *report
	digest map[string]string
}

func (c *passCheck) add(kind string, s passSummary) {
	if s.Problem != "" {
		c.r.fail("%s pass: %s", kind, s.Problem)
	}
	if ref, ok := c.digest[kind]; !ok {
		c.digest[kind] = s.Digest
	} else if ref != s.Digest {
		c.r.fail("%s pass: simulated columns differ from the first %s pass", kind, kind)
	}
}

// endToEnd alternates full passes with setup-only passes (measured phase
// cut to the validator minimum) until the budget is spent, and reports
// the medians.
func endToEnd(opt options) (report, error) {
	r := report{workload: opt.workload.name, seed: opt.seed, values: map[string]float64{}, catalog: endToEndMetrics}
	check := passCheck{r: &r, digest: map[string]string{}}
	var walls, setups, heaps []float64
	start := time.Now()
	for i := 0; keepGoing(i, minPassesEndToEnd, start, opt.seconds); i++ {
		p, err := spawnPass(opt, modeFull, "")
		if err != nil {
			return r, err
		}
		check.add(modeFull, p)
		s, err := spawnPass(opt, modeSetup, "")
		if err != nil {
			return r, err
		}
		check.add(modeSetup, s)
		walls = append(walls, p.WallS)
		setups = append(setups, s.WallS)
		heaps = append(heaps, p.PeakHeapMB)
		r.ops = opCount{p.Attempted, p.Failed}
		r.passes++
	}
	r.values["wall_s"] = median(walls)
	r.values["setup_s"] = median(setups)
	r.values["peak_heap_mb"] = median(heaps)
	r.values["op_ok_ratio"] = 1 - r.ops.failRatio()
	r.notes = append(r.notes,
		"wall_s per pass: "+fmtList(walls),
		"setup_s per pass: "+fmtList(setups),
		"peak_heap_mb per pass: "+fmtList(heaps))
	return r, nil
}

// perLayer alternates tracing-off passes with traced passes, each traced
// pass under its own CPU profile, then charges the merged profile to
// layers. Host layer seconds are per traced pass.
func perLayer(opt options) (report, error) {
	r := report{workload: opt.workload.name, seed: opt.seed, values: map[string]float64{}, catalog: perLayerMetrics}
	check := passCheck{r: &r, digest: map[string]string{}}
	dir := filepath.Join(profileDir, fmt.Sprintf("%s-%d-%d", opt.workload.name, opt.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	var plainWalls, tracedWalls, allocs, mallocs, gcs []float64
	var profiles []string
	var traced passSummary // any traced pass: their simulated columns are identical
	start := time.Now()
	for i := 0; keepGoing(i, minPassesPerLayer, start, opt.seconds); i++ {
		p, err := spawnPass(opt, modeFull, "")
		if err != nil {
			return r, err
		}
		check.add(modeFull, p)
		prof := filepath.Join(dir, fmt.Sprintf("cpu%d.pprof", i))
		t, err := spawnPass(opt, modeTraced, prof)
		if err != nil {
			return r, err
		}
		check.add(modeTraced, t)
		profiles = append(profiles, prof)
		traced = t
		r.ops = opCount{p.Attempted, p.Failed}
		plainWalls = append(plainWalls, p.WallS)
		tracedWalls = append(tracedWalls, t.WallS)
		allocs = append(allocs, p.AllocMB)
		mallocs = append(mallocs, p.Mallocs)
		gcs = append(gcs, p.GCs)
		r.passes++
	}
	if check.digest[modeFull] != check.digest[modeTraced] {
		r.fail("traced run's simulated columns differ from the tracing-off run's")
	}
	for k, v := range traced.Sim {
		r.values[k] = v
	}
	if d, n := r.values["trace.dropped"], r.values["trace.events"]; d > 0 {
		r.notes = append(r.notes, fmt.Sprintf("trace dropped %.0f of %.0f spans (%.2f%%): span-based figures are partial",
			d, d+n, 100*d/(d+n)))
	}
	r.values["alloc_mb"] = median(allocs)
	r.values["mallocs"] = median(mallocs)
	r.values["gc_cycles"] = median(gcs)
	r.values["trace_overhead_s"] = median(tracedWalls) - median(plainWalls)

	text, err := pprofTraces(profiles)
	if err != nil {
		return r, err
	}
	table, err := parseTraces(text)
	if err != nil {
		return r, err
	}
	if err := table.check(); err != nil {
		r.fail("%v", err)
	}
	n := float64(len(profiles))
	for _, l := range layerOrder {
		r.values[hostMetricName(l)] = table.seconds[l] / n
	}
	r.values["profile.total_s"] = table.total / n
	r.notes = append(r.notes, traced.Detail...)
	r.notes = append(r.notes, layerLines(table)...)
	r.notes = append(r.notes,
		"wall_s per tracing-off pass: "+fmtList(plainWalls),
		"wall_s per traced pass: "+fmtList(tracedWalls))
	return r, nil
}

// pprofTraces renders the merged profiles with the toolchain's pprof.
func pprofTraces(profiles []string) (string, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.String())
	}
	return string(out), nil
}

func hostMetricName(layer string) string {
	switch layer {
	case layerGC:
		return "runtime.gc_s"
	case layerSched:
		return "runtime.sched_s"
	case layerRuntime:
		return "runtime.other_s"
	}
	return layer + ".host_s"
}

// layerLines renders the layer table in layerOrder, so runs line up.
func layerLines(t layerTable) []string {
	lines := []string{fmt.Sprintf("layer table (CPU profile, all traced passes): total %.3fs, pprof header %.3fs", t.total, t.header)}
	for _, l := range layerOrder {
		s := t.seconds[l]
		lines = append(lines, fmt.Sprintf("  %-16s %8.3fs %6.2f%%", l, s, 100*s/math.Max(t.total, 1e-9)))
	}
	return lines
}

func fmtList(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}
