package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Layer buckets of the CPU profile. Every sample lands in exactly one, so
// the table sums to the profile total.
const (
	layerGC       = "runtime.gc"    // GC background workers, no repo frame
	layerSched    = "runtime.sched" // scheduler / goroutine handoff, no repo frame
	layerRuntime  = "runtime.other" // anything else without a repo frame
	layerRepoRest = "repo_other"    // repro/internal packages not named below
)

// layerOf maps a repro/internal package to its layer bucket.
var layerOf = map[string]string{
	"client":   "client",
	"server":   "server",
	"core":     "core",
	"nvram":    "nvram",
	"disk":     "disk",
	"ufs":      "ufs",
	"netsim":   "netsim",
	"sim":      "sim",
	"xdr":      "wire",
	"oncrpc":   "wire",
	"nfsproto": "wire",
	"workload": "workload",
	"openload": "openload",
	"scenario": "scenario",
	"rig":      "assembly",
	"cluster":  "assembly",
	"obs":      "obs",
	"block":    "block",
	"stats":    "stats",
}

// layerOrder is the table's row order.
var layerOrder = []string{
	"client", "server", "core", "nvram", "disk", "ufs", "netsim", "sim", "wire",
	"workload", "openload", "scenario", "assembly", "obs", "block", "stats",
	layerRepoRest, layerGC, layerSched, layerRuntime,
}

// gcRoots are the goroutine entry points of the collector's background
// work (marking, sweeping, scavenging, finalizers).
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.forcegchelper":  true,
	"runtime.runfinq":        true,
}

// schedFrames are the scheduler's goroutine park/handoff frames.
var schedFrames = map[string]bool{
	"runtime.mcall":        true,
	"runtime.park_m":       true,
	"runtime.schedule":     true,
	"runtime.findRunnable": true,
	"runtime.execute":      true,
	"runtime.gogo":         true,
	"runtime.goexit0":      true,
	"runtime.gosched_m":    true,
	"runtime.goschedImpl":  true,
	"runtime.gopark":       true,
	"runtime.goready":      true,
	"runtime.ready":        true,
	"runtime.wakep":        true,
	"runtime.startm":       true,
	"runtime.stopm":        true,
}

const repoPrefix = "repro/internal/"

// attribute returns the layer a sample's stack (innermost frame first)
// is charged to: the innermost repro/internal frame's package, else the
// GC, scheduler or remaining-runtime bucket.
func attribute(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if l, ok := layerOf[pkg]; ok {
				return l
			}
			return layerRepoRest
		}
	}
	for _, fn := range stack {
		if gcRoots[fn] {
			return layerGC
		}
	}
	for _, fn := range stack {
		if schedFrames[fn] {
			return layerSched
		}
	}
	return layerRuntime
}

// layerTable is CPU time per layer parsed from `go tool pprof -traces`.
type layerTable struct {
	seconds map[string]float64
	total   float64 // sum over every sample
	header  float64 // the report's "Total samples" figure
}

const traceSeparator = "-----------+"

// parseTraces reads `go tool pprof -traces` text and charges every
// sample to its layer.
func parseTraces(text string) (layerTable, error) {
	t := layerTable{seconds: map[string]float64{}}
	var value float64
	var stack []string
	inSample := false
	flush := func() {
		if inSample && len(stack) > 0 {
			t.seconds[attribute(stack)] += value
			t.total += value
		}
		stack, inSample = stack[:0], false
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	seenSeparator := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			flush()
			seenSeparator = true
			continue
		}
		if !seenSeparator {
			if _, after, ok := strings.Cut(line, "Total samples = "); ok {
				v, err := parseDuration(strings.Fields(after)[0])
				if err != nil {
					return t, fmt.Errorf("pprof header %q: %w", line, err)
				}
				t.header = v
			}
			continue
		}
		// Label lines carry "key:" in the 10-column value field.
		if len(line) > 10 && line[10] == ':' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !inSample {
			if len(fields) < 2 {
				return t, fmt.Errorf("pprof sample line %q: want value and frame", line)
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return t, fmt.Errorf("pprof sample line %q: %w", line, err)
			}
			value, inSample = v, true
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return t, err
	}
	return t, nil
}

// parseDuration reads pprof's scaled time labels ("10ms", "1.50s"); its
// time units are ns, us, ms, s and hrs.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  time.Duration
	}{{"hrs", time.Hour}, {"ns", time.Nanosecond}, {"us", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale.Seconds(), nil
		}
	}
	return 0, fmt.Errorf("unknown time unit in %q", s)
}

// check verifies the table against the report's own total. The header
// prints at most three significant digits, so agreement is to 1%.
func (t layerTable) check() error {
	if t.total <= 0 {
		return fmt.Errorf("profile holds no samples")
	}
	if d := t.total - t.header; d > t.header*0.01 || -d > t.header*0.01 {
		return fmt.Errorf("layer table sums to %.3fs, profile total is %.3fs", t.total, t.header)
	}
	return nil
}
