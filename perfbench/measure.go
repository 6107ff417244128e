package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/scenario"
)

// Pass modes: a tracing-off pass, the same with every measured phase cut
// to the validator minimum, and a pass with the observe plane on.
const (
	modeFull   = "full"
	modeSetup  = "setup"
	modeTraced = "traced"
)

// passSummary is what one pass reports to the orchestrating process.
type passSummary struct {
	WallS      float64            `json:"wall_s"`       // summed host time of the scenario.RunWorkers calls
	PeakHeapMB float64            `json:"peak_heap_mb"` // peak heap in use, sampled
	AllocMB    float64            `json:"alloc_mb"`     // bytes allocated
	Mallocs    float64            `json:"mallocs"`      // heap objects allocated
	GCs        float64            `json:"gcs"`          // completed GC cycles
	Digest     string             `json:"digest"`       // SHA-256 of the simulated columns
	Problem    string             `json:"problem"`      // failed output check, empty when none
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	Sim        map[string]float64 `json:"sim"`    // simMetrics of the pass
	Detail     []string           `json:"detail"` // per-scenario figures
}

// heapSampleEvery is the heap sampler's period: short against a GC cycle
// of this program, long enough that sampling costs no measurable time.
const heapSampleEvery = 2 * time.Millisecond

// heapSampler tracks the peak of the heap in use (live and not yet swept
// objects) from a goroutine that stop ends and waits for.
type heapSampler struct {
	quit chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-s.quit:
				read()
				s.peak <- peak
				return
			}
		}
	}()
	return s
}

// stop ends the sampler and returns the peak it saw.
func (s *heapSampler) stop() uint64 {
	close(s.quit)
	return <-s.peak
}

// runPass runs specs one after another on one simulation worker and
// summarizes the pass. Only the scenario calls are timed, and with
// profile set only they run under the CPU profile written there; traced
// cells' spans are summarized afterwards.
func runPass(specs []scenario.Spec, profile string) (passSummary, error) {
	var sum passSummary
	stopProfile := func() error { return nil }
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return sum, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return sum, fmt.Errorf("start CPU profile: %w", err)
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	var results []*scenario.Result
	var wall time.Duration
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()
	for _, spec := range specs {
		t0 := time.Now()
		res, err := scenario.RunWorkers(spec, 1)
		wall += time.Since(t0)
		if err != nil {
			sampler.stop()
			stopProfile()
			return sum, fmt.Errorf("run %s: %w", spec.Name, err)
		}
		results = append(results, res)
	}
	peak := sampler.stop()
	if err := stopProfile(); err != nil {
		return sum, fmt.Errorf("write CPU profile: %w", err)
	}
	runtime.ReadMemStats(&after)

	var spans *spanStats
	for _, res := range results {
		if res.Spec.Observe == nil {
			continue
		}
		if spans == nil {
			spans = &spanStats{}
		}
		for i := range res.Cells {
			spans.addCell(&res.Cells[i])
		}
	}
	sum.WallS = wall.Seconds()
	sum.PeakHeapMB = float64(peak) / (1 << 20)
	sum.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	sum.Mallocs = float64(after.Mallocs - before.Mallocs)
	sum.GCs = float64(after.NumGC - before.NumGC)
	digest := sha256.Sum256(simColumns(results))
	sum.Digest = hex.EncodeToString(digest[:])
	if err := checkResults(results); err != nil {
		sum.Problem = err.Error()
	}
	ops := passOps(results)
	sum.Attempted, sum.Failed = ops.attempted, ops.failed
	sum.Sim = simMetrics(results, spans)
	sum.Detail = details(results)
	return sum, nil
}

// passMain runs one pass in this process and prints its summary as JSON.
func passMain(w workload, seed int64, mode, profile string) error {
	var observe *scenario.Observe
	switch mode {
	case modeFull, modeSetup:
	case modeTraced:
		observe = tracedObserve()
	default:
		return fmt.Errorf("unknown pass mode %q", mode)
	}
	specs, err := w.specs(seed, observe, mode == modeSetup)
	if err != nil {
		return err
	}
	sum, err := runPass(specs, profile)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(sum)
}

// spawnPass runs one pass in a fresh child process, so every pass starts
// from an empty heap and nothing a finished simulation leaves behind
// carries into the next.
func spawnPass(opt options, mode, profile string) (passSummary, error) {
	var sum passSummary
	self, err := os.Executable()
	if err != nil {
		return sum, err
	}
	args := []string{"--workload", opt.workload.name, "--seed", fmt.Sprint(opt.seed), "--pass", mode}
	if profile != "" {
		args = append(args, "--profile", profile)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sum, fmt.Errorf("%s pass: %w", mode, err)
	}
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&sum); err != nil {
		return sum, fmt.Errorf("%s pass: decode summary: %w", mode, err)
	}
	return sum, nil
}
