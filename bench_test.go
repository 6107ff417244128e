// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation section (see DESIGN.md's per-experiment index).
// Each benchmark starts from the registry spec of its experiment
// (scenario.Lookup), runs the full simulated sweep per iteration and
// reports the paper's headline metrics as custom benchmark outputs, so
//
//	go test -bench=Table1 -benchmem
//
// reproduces Table 1's shape. The -short forms use a smaller copy size
// and coarser, shorter LADDIS sweeps; steady-state rates are unchanged.
package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lookup returns the named registry spec.
func lookup(tb testing.TB, name string) scenario.Spec {
	spec, ok := scenario.Lookup(name)
	if !ok {
		tb.Fatalf("%s not registered", name)
	}
	return spec
}

// builds splits a sweep's cells by server build — the "std-" cells and
// the "wg-" cells — keeping sweep order within each.
func builds(res *scenario.Result) (std, wg []scenario.CellResult) {
	for _, c := range res.Cells {
		if strings.HasPrefix(c.Label, "wg-") {
			wg = append(wg, c)
		} else {
			std = append(std, c)
		}
	}
	return std, wg
}

// copyMB picks the transfer size: the paper's 10MB normally, 2MB under
// -short.
func copyMB(b *testing.B) int {
	if testing.Short() {
		return 2
	}
	return 10
}

// benchCopyTable runs one full table per iteration and reports the
// paper's key cells as metrics.
func benchCopyTable(b *testing.B, name string) {
	spec := lookup(b, name)
	spec.Workload.Copy.FileMB = copyMB(b)
	b.ReportAllocs()
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		res = scenario.MustRun(spec)
	}
	wo, wi := builds(res)
	last := len(wo) - 1
	b.ReportMetric(wo[0].ClientKBps, "std0biod-KB/s")
	b.ReportMetric(wo[last].ClientKBps, "stdMaxbiod-KB/s")
	b.ReportMetric(wi[0].ClientKBps, "wg0biod-KB/s")
	b.ReportMetric(wi[last].ClientKBps, "wgMaxbiod-KB/s")
	b.ReportMetric(wi[last].CPUPercent, "wgMaxbiod-cpu%")
	b.ReportMetric(wo[last].DiskTps, "std-disk-t/s")
	b.ReportMetric(wi[last].DiskTps, "wg-disk-t/s")
	b.Logf("\n%s", res.Render())
}

func BenchmarkTable1EthernetCopy(b *testing.B)     { benchCopyTable(b, "table1") }
func BenchmarkTable2EthernetPresto(b *testing.B)   { benchCopyTable(b, "table2") }
func BenchmarkTable3FDDICopy(b *testing.B)         { benchCopyTable(b, "table3") }
func BenchmarkTable4FDDIPresto(b *testing.B)       { benchCopyTable(b, "table4") }
func BenchmarkTable5FDDIStripe(b *testing.B)       { benchCopyTable(b, "table5") }
func BenchmarkTable6FDDIPrestoStripe(b *testing.B) { benchCopyTable(b, "table6") }

// diskOps counts the disk-lane events of a Figure 1 log.
func diskOps(log *trace.Log) int {
	n := 0
	for k, v := range log.Summary(0, 1<<62) {
		if strings.HasPrefix(k, "disk:") {
			n += v
		}
	}
	return n
}

// BenchmarkFigure1Timeline regenerates the traffic timelines of Figure 1
// and reports the disk-operation reduction the figure illustrates.
func BenchmarkFigure1Timeline(b *testing.B) {
	spec := lookup(b, "figure1")
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		res = scenario.MustRun(spec)
	}
	stdOps, wgOps := diskOps(res.Cells[0].TraceLog), diskOps(res.Cells[1].TraceLog)
	b.ReportMetric(float64(stdOps), "std-disk-ops")
	b.ReportMetric(float64(wgOps), "wg-disk-ops")
	b.ReportMetric(float64(stdOps)/float64(wgOps), "reduction-x")
}

// shortFigure coarsens a LADDIS figure sweep for -short: every other
// offered load, both server builds of it, with a 4 s measured phase.
func shortFigure(spec scenario.Spec) scenario.Spec {
	var half []scenario.Cell
	for i, c := range spec.Cells {
		// LADDISSweep emits a (std, wg) pair per load; keep odd loads.
		if i/2%2 == 1 {
			half = append(half, c)
		}
	}
	spec.Cells = half
	spec.Workload.LADDIS.Measure = 4 * sim.Second
	return spec
}

// capacity reads a LADDIS curve the SPEC SFS 1.0 way: the highest
// achieved ops/s whose average latency is at or below capMs, and that
// latency.
func capacity(curve []scenario.CellResult, capMs float64) (opsPerSec, latencyAt float64) {
	for _, p := range curve {
		if p.AvgLatencyMs <= capMs && p.AchievedOpsPerSec > opsPerSec {
			opsPerSec = p.AchievedOpsPerSec
			latencyAt = p.AvgLatencyMs
		}
	}
	return opsPerSec, latencyAt
}

// benchFigure sweeps one LADDIS figure and reports both builds' capacity
// at a 50 ms average response time.
func benchFigure(b *testing.B, name string) {
	spec := lookup(b, name)
	if testing.Short() {
		spec = shortFigure(spec)
	}
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		res = scenario.MustRun(spec)
	}
	wo, wi := builds(res)
	capW, latW := capacity(wo, 50)
	capG, latG := capacity(wi, 50)
	b.ReportMetric(capW, "std-cap-ops/s")
	b.ReportMetric(capG, "wg-cap-ops/s")
	b.ReportMetric(latW, "std-lat-ms")
	b.ReportMetric(latG, "wg-lat-ms")
	if capW > 0 {
		b.ReportMetric(100*(capG-capW)/capW, "cap-delta-%")
	}
	b.Logf("\n%s", res.Render())
}

func BenchmarkFigure2LADDIS(b *testing.B)       { benchFigure(b, "figure2") }
func BenchmarkFigure3LADDISPresto(b *testing.B) { benchFigure(b, "figure3") }

// ablation is one variant of a §6 design-choice study: a 2MB FDDI copy
// at 7 biods (table3's configuration) under the given gathering policy
// (nil = the standard server), on the plain or Presto build, with nfsds
// daemons.
type ablation struct {
	label  string
	presto bool
	policy *core.Config
	nfsds  int
}

// paperPolicy is the paper's gathering policy on FDDI, edited by each
// ablation.
func paperPolicy(presto bool, edit func(*core.Config)) *core.Config {
	cfg := core.DefaultConfig(presto, hw.FDDI().Procrastinate)
	if edit != nil {
		edit(&cfg)
	}
	return &cfg
}

// ablations are the design choices the paper discusses, one study each:
// reply order (§6.7: FIFO vs the abandoned LIFO), the procrastination
// interval (§6.6, derived empirically), the [SIVA93] first-write latency
// device (§6.6), the mbuf hunter (§6.5, which matters most under NVRAM)
// and gathering with a single nfsd (§6.1).
func ablations() map[string][]ablation {
	var procrastinate []ablation
	for _, ms := range []int{0, 1, 2, 5, 8, 12, 20} {
		cfg := core.DefaultConfig(false, sim.Duration(ms)*sim.Millisecond)
		if ms == 0 {
			cfg.MaxProcrastinations = 0
		}
		procrastinate = append(procrastinate, ablation{fmt.Sprintf("procrastinate %dms", ms), false, &cfg, 8})
	}
	noHunter := func(c *core.Config) { c.MbufHunter = false }
	return map[string][]ablation{
		"ReplyOrder": {
			{"FIFO replies (paper)", false, paperPolicy(false, nil), 8},
			{"LIFO replies (abandoned)", false, paperPolicy(false, func(c *core.Config) { c.LIFOReplies = true }), 8},
		},
		"Procrastination": procrastinate,
		"FirstWriteLatency": {
			{"procrastinate (paper)", false, paperPolicy(false, nil), 8},
			{"first-write latency [SIVA93]", false, paperPolicy(false, func(c *core.Config) { c.FirstWriteLatency = true }), 8},
			{"standard server", false, nil, 8},
		},
		"HunterPlain": {
			{"mbuf hunter on (paper)", false, paperPolicy(false, nil), 8},
			{"mbuf hunter off", false, paperPolicy(false, noHunter), 8},
		},
		"HunterPresto": {
			{"mbuf hunter on (paper)", true, paperPolicy(true, nil), 8},
			{"mbuf hunter off", true, paperPolicy(true, noHunter), 8},
		},
		"OneNfsd": {
			{"8 nfsds", false, paperPolicy(false, nil), 8},
			{"1 nfsd", false, paperPolicy(false, nil), 1},
		},
	}
}

// runAblation runs one variant as a single-cell edit of table3.
func runAblation(tb testing.TB, a ablation) scenario.CellResult {
	spec := lookup(tb, "table3")
	spec.Workload.Copy.FileMB = 2
	spec.Topology.Servers.Presto = a.presto
	spec.Topology.Servers.GatherOverride = a.policy
	spec.Topology.Servers.Nfsds = a.nfsds
	seed, biods, gathering := int64(313), 7, a.policy != nil
	spec.Cells = []scenario.Cell{{Label: a.label, Seed: &seed, Biods: &biods, Gathering: &gathering}}
	return scenario.MustRun(spec).Cells[0]
}

func meanBatch(g core.Stats) float64 {
	if g.Gathers == 0 {
		return 0
	}
	return float64(g.GatheredWrites) / float64(g.Gathers)
}

func benchAblation(b *testing.B, study string) {
	variants := ablations()[study]
	cells := make([]scenario.CellResult, len(variants))
	for i := 0; i < b.N; i++ {
		for j, a := range variants {
			cells[j] = runAblation(b, a)
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "  %-32s %10s %8s %10s %10s\n", "", "KB/s", "cpu %", "disk t/s", "batch")
	for i, c := range cells {
		b.ReportMetric(c.ClientKBps, fmt.Sprintf("variant%d-KB/s", i))
		fmt.Fprintf(&out, "  %-32s %10.0f %8.1f %10.0f %10.2f\n",
			c.Label, c.ClientKBps, c.CPUPercent, c.DiskTps, meanBatch(c.Gather))
	}
	b.Logf("%s\n%s", study, out.String())
}

func BenchmarkAblationReplyOrder(b *testing.B)        { benchAblation(b, "ReplyOrder") }
func BenchmarkAblationProcrastination(b *testing.B)   { benchAblation(b, "Procrastination") }
func BenchmarkAblationFirstWriteLatency(b *testing.B) { benchAblation(b, "FirstWriteLatency") }
func BenchmarkAblationHunterPlain(b *testing.B)       { benchAblation(b, "HunterPlain") }
func BenchmarkAblationHunterPresto(b *testing.B)      { benchAblation(b, "HunterPresto") }
func BenchmarkAblationOneNfsd(b *testing.B)           { benchAblation(b, "OneNfsd") }

// TestAblationOneNfsdStillGathers verifies §6.1: the detached-reply
// architecture gathers optimally with a single nfsd.
func TestAblationOneNfsdStillGathers(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs are long")
	}
	variants := ablations()["OneNfsd"]
	if len(variants) != 2 {
		t.Fatalf("variants = %d", len(variants))
	}
	one := runAblation(t, variants[1])
	if mb := meanBatch(one.Gather); mb < 2 {
		t.Fatalf("single nfsd failed to gather: batch %.2f (§6.1 claims it can)", mb)
	}
}

func TestLADDISCurveCapacity(t *testing.T) {
	point := func(ops, ms float64) scenario.CellResult {
		return scenario.CellResult{Metrics: scenario.Metrics{AchievedOpsPerSec: ops, AvgLatencyMs: ms}}
	}
	ops, lat := capacity([]scenario.CellResult{point(100, 10), point(200, 40), point(250, 90)}, 50)
	if ops != 200 || lat != 40 {
		t.Fatalf("capacity = %v @ %v", ops, lat)
	}
}

// BenchmarkScaleSweep runs the clients × servers grid (1/2/4 clients
// against 1/2 sharded servers, both server builds) and reports each
// cell's achieved throughput and mean response time. Under -short the
// measured phase is halved; the cells stay deterministic at their seeds.
func BenchmarkScaleSweep(b *testing.B) {
	spec := lookup(b, "scale")
	if testing.Short() {
		spec.Workload.LADDIS.Measure = 2 * sim.Second
	}
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		res = scenario.MustRun(spec)
	}
	for _, c := range res.Cells {
		b.ReportMetric(c.AchievedOpsPerSec, c.Label+"-ops/s")
		b.ReportMetric(c.AvgLatencyMs, c.Label+"-ms")
	}
	b.Logf("\n%s", res.Render())
}

// BenchmarkScenarioFaultSweeps runs the two registry scenarios only the
// declarative API can express — the partial-cluster crash under LADDIS
// load and the multi-node flapping storm — and reports their headline
// columns (the storm's lost-byte count must stay 0).
func BenchmarkScenarioFaultSweeps(b *testing.B) {
	partial, storm := lookup(b, "partialcrash"), lookup(b, "flapstorm")
	var pres, sres *scenario.Result
	for i := 0; i < b.N; i++ {
		pres = scenario.MustRun(partial)
		sres = scenario.MustRun(storm)
	}
	for _, c := range pres.Cells {
		b.ReportMetric(c.AchievedOpsPerSec, c.Label+"-ops/s")
		b.ReportMetric(c.P95LatencyMs, c.Label+"-p95ms")
		b.ReportMetric(float64(c.RebootsSeen), c.Label+"-reboots-seen")
	}
	for _, c := range sres.Cells {
		b.ReportMetric(float64(c.Crashes), "storm-"+c.Label+"-crashes")
		b.ReportMetric(float64(c.LostBytes), "storm-"+c.Label+"-lost-B")
	}
	b.Logf("\n%s%s", pres.Render(), sres.Render())
}

// BenchmarkCrashRecovery runs the crash/recovery durability experiment
// with gathering on, without and with Presto, and reports the checker's
// verdict: acked bytes, lost bytes (the contract demands 0), recovery
// time and the client-observed outage cost.
func BenchmarkCrashRecovery(b *testing.B) {
	spec := lookup(b, "crash")
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		res = scenario.MustRun(spec)
	}
	plain, presto := res.Cells[0], res.Cells[1]
	b.ReportMetric(float64(plain.Durability.AckedBytes)/1024, "plain-acked-KB")
	b.ReportMetric(float64(plain.Durability.LostBytes), "plain-lost-B")
	b.ReportMetric(plain.Durability.MeanRecoveryMs, "plain-recovery-ms")
	b.ReportMetric(float64(plain.Retransmissions), "plain-retrans")
	b.ReportMetric(float64(presto.Durability.AckedBytes)/1024, "presto-acked-KB")
	b.ReportMetric(float64(presto.Durability.LostBytes), "presto-lost-B")
	b.ReportMetric(presto.Durability.MeanRecoveryMs, "presto-recovery-ms")
	b.ReportMetric(float64(presto.Durability.RecoveredNVRAMBlocks), "presto-replayed-blocks")
	b.Logf("\n%s", res.Render())
}

// Parallel-harness benchmarks: the same work at worker-pool sizes 1 and
// GOMAXPROCS. The metric columns must be identical between the Seq and
// Par variants of each pair (the engine's byte-identity contract); only
// ns/op may move, and only with real cores to spread across.

// figure2EngineSpec is the figure2 LADDIS sweep, the multi-cell sweep
// timed sequential vs parallel, coarsened under -short like
// benchFigure's.
func figure2EngineSpec(b *testing.B) scenario.Spec {
	spec := lookup(b, "figure2")
	if testing.Short() {
		spec = shortFigure(spec)
	}
	return spec
}

func benchFigure2Engine(b *testing.B, workers int) {
	spec := figure2EngineSpec(b)
	b.ReportAllocs()
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = scenario.RunWorkers(spec, workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ops float64
	for _, c := range res.Cells {
		ops += c.AchievedOpsPerSec
	}
	b.ReportMetric(float64(len(res.Cells)), "cells")
	b.ReportMetric(ops, "agg-ops/s")
}

func BenchmarkFigure2EngineSequential(b *testing.B) { benchFigure2Engine(b, 1) }
func BenchmarkFigure2EngineParallel(b *testing.B) {
	benchFigure2Engine(b, runtime.GOMAXPROCS(0))
}

// fuzzBatchRuns sizes the benchmarked campaign: every generated spec is
// a small faulted stream sim, and the fixed (seed, runs) prefix is known
// clean, so the whole batch is timed (no early exit).
func fuzzBatchRuns(b *testing.B) int {
	if testing.Short() {
		return 25
	}
	return 100
}

func benchFuzzBatch(b *testing.B, workers int) {
	runs := fuzzBatchRuns(b)
	b.ReportAllocs()
	var failed float64
	for i := 0; i < b.N; i++ {
		if f := scenario.Fuzz(scenario.FuzzConfig{Runs: runs, Seed: 1, Workers: workers}); f != nil {
			failed = 1
			b.Errorf("fuzz batch found a failure:\n%s", f)
		}
	}
	b.ReportMetric(float64(runs), "runs")
	b.ReportMetric(failed, "failed")
}

func BenchmarkFuzzBatchSequential(b *testing.B) { benchFuzzBatch(b, 1) }
func BenchmarkFuzzBatchParallel(b *testing.B) {
	benchFuzzBatch(b, runtime.GOMAXPROCS(0))
}
