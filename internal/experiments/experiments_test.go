package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRunCopySmall(t *testing.T) {
	spec := Table1Spec()
	spec.FileMB = 1
	res := RunCopy(spec, 3, true)
	if res.ClientKBps <= 0 || res.Elapsed <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Gather.Writes != 128 {
		t.Fatalf("gather writes = %d, want 128 (1MB/8K)", res.Gather.Writes)
	}
}

func TestRenderTableShape(t *testing.T) {
	spec := Table1Spec()
	spec.FileMB = 1
	spec.Biods = []int{0, 3}
	tbl := RunCopyTable(spec)
	out := tbl.Render()
	for _, want := range []string{
		"Table 1", "Without Write Gathering", "With Write Gathering",
		"client write speed (KB/sec.)", "server cpu util. (%)",
		"server disk (KB/sec)", "server disk (trans/sec)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableSpecsComplete(t *testing.T) {
	specs := TableSpecs()
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6"} {
		if _, ok := specs[id]; !ok {
			t.Fatalf("missing spec %s", id)
		}
	}
	if !specs["table2"].Presto || specs["table2"].Net.Name != "Ethernet" {
		t.Fatal("table2 misconfigured")
	}
	if specs["table5"].StripeDisks != 3 || len(specs["table5"].Biods) != 7 {
		t.Fatal("table5 misconfigured")
	}
}

func TestFigure1ProducesTimeline(t *testing.T) {
	out, log := RunFigure1(Figure1Config{Gathering: true, FileKB: 160, Biods: 4, Seed: 3})
	if !strings.Contains(out, "Gathering Server") {
		t.Fatalf("title missing:\n%.200s", out)
	}
	sum := log.Summary(0, 1<<62)
	if sum["client:8K"] == 0 {
		t.Fatal("no client writes in trace")
	}
	disk := 0
	for k, v := range sum {
		if strings.HasPrefix(k, "disk:") {
			disk += v
		}
	}
	if disk == 0 {
		t.Fatal("no disk ops in trace")
	}
}

func TestFigure1GatheringReducesDiskOps(t *testing.T) {
	_, std := RunFigure1(Figure1Config{Gathering: false, FileKB: 160, Biods: 4, Seed: 3})
	_, wg := RunFigure1(Figure1Config{Gathering: true, FileKB: 160, Biods: 4, Seed: 3})
	count := func(l interface {
		Summary(a, b sim.Time) map[string]int
	}) int {
		n := 0
		for k, v := range l.Summary(0, 1<<62) {
			if strings.HasPrefix(k, "disk:") {
				n += v
			}
		}
		return n
	}
	sOps, gOps := count(std), count(wg)
	if gOps >= sOps {
		t.Fatalf("gathering disk ops %d not below standard %d", gOps, sOps)
	}
	// Figure 1's point: roughly 3N -> N.
	if float64(sOps) < 2*float64(gOps) {
		t.Fatalf("reduction below 2x: %d vs %d", sOps, gOps)
	}
}

func TestLADDISPointRuns(t *testing.T) {
	spec := Figure2Spec()
	spec.Clients = 2
	spec.Procs = 4
	spec.Measure = 2 * sim.Second
	pt := RunLADDISPoint(spec, 100, true)
	if pt.AchievedOpsPerSec <= 0 || pt.AvgLatencyMs <= 0 {
		t.Fatalf("point = %+v", pt)
	}
	if pt.Errors != 0 {
		t.Fatalf("errors = %d", pt.Errors)
	}
}

func TestLADDISCurveCapacity(t *testing.T) {
	c := &LADDISCurve{Points: []LADDISPoint{
		{AchievedOpsPerSec: 100, AvgLatencyMs: 10},
		{AchievedOpsPerSec: 200, AvgLatencyMs: 40},
		{AchievedOpsPerSec: 250, AvgLatencyMs: 90},
	}}
	ops, lat := c.Capacity(50)
	if ops != 200 || lat != 40 {
		t.Fatalf("capacity = %v @ %v", ops, lat)
	}
}

func TestAblationOneNfsdStillGathers(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs are long")
	}
	rows := AblationOneNfsd()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	one := rows[1]
	if one.MeanBatch < 2 {
		t.Fatalf("single nfsd failed to gather: batch %.2f (§6.1 claims it can)", one.MeanBatch)
	}
}

func TestAblationRenderer(t *testing.T) {
	out := RenderAblation("T", []AblationResult{{Label: "x", ClientKBps: 100}})
	if !strings.Contains(out, "T") || !strings.Contains(out, "x") {
		t.Fatalf("render: %s", out)
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := Table3Spec()
	spec.FileMB = 1
	a := RunCopy(spec, 7, true)
	b := RunCopy(spec, 7, true)
	if a.ClientKBps != b.ClientKBps || a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic experiment: %v vs %v", a, b)
	}
}

// TestCaptureFigure1 converts the Figure-1 timeline into a replayable op
// capture: one record per client write send, sorted, starting at zero —
// the artifact `nfstrace -capture` hands to the openload replay path.
func TestCaptureFigure1(t *testing.T) {
	tr, err := CaptureFigure1(DefaultFigure1(false))
	if err != nil {
		t.Fatal(err)
	}
	// 256KB sequential file in 8K writes: 32 sends.
	if len(tr.Ops) != 32 {
		t.Fatalf("captured %d ops, want 32", len(tr.Ops))
	}
	if tr.Ops[0].At != 0 {
		t.Errorf("capture does not start at zero: %v", tr.Ops[0].At)
	}
	offs := map[uint32]bool{}
	for i, r := range tr.Ops {
		if r.Op != "write" || r.N != 8*1024 {
			t.Errorf("op %d: got %s/%d bytes, want a write/8192", i, r.Op, r.N)
		}
		if i > 0 && r.At < tr.Ops[i-1].At {
			t.Errorf("op %d arrives before op %d", i, i-1)
		}
		offs[r.Off] = true
	}
	if len(offs) != 32 {
		t.Errorf("captured %d distinct offsets, want 32 (one per 8K block)", len(offs))
	}
	if tr.Duration() <= 0 {
		t.Error("capture spans no time")
	}
}
