package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestRunCopySmall(t *testing.T) {
	res := copyCell(t, "table1", 1, 3, true)
	if res.ClientKBps <= 0 || res.Elapsed <= 0 {
		t.Fatalf("result = %+v", res.Metrics)
	}
	if res.Gather.Writes != 128 {
		t.Fatalf("gather writes = %d, want 128 (1MB/8K)", res.Gather.Writes)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := copyCell(t, "table3", 1, 7, true)
	b := copyCell(t, "table3", 1, 7, true)
	if a.ClientKBps != b.ClientKBps || a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic experiment: %v vs %v", a.Metrics, b.Metrics)
	}
}

// figure1Small runs the registry's Figure 1 spec (std and wg cells) on a
// 160KB transfer at seed 3.
func figure1Small(t *testing.T) (std, wg CellResult) {
	t.Helper()
	spec, _ := Lookup("figure1")
	spec.Workload.Trace.FileKB = 160
	spec.Seed = 3
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells[0], res.Cells[1]
}

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

func TestFigure1ProducesTimeline(t *testing.T) {
	_, wg := figure1Small(t)
	if !strings.Contains(wg.TraceText, "Gathering Server") {
		t.Fatalf("title missing:\n%.200s", wg.TraceText)
	}
	if wg.TraceLog.Summary(0, 1<<62)["client:8K"] == 0 {
		t.Fatal("no client writes in trace")
	}
	if diskOps(wg.TraceLog) == 0 {
		t.Fatal("no disk ops in trace")
	}
}

func TestFigure1GatheringReducesDiskOps(t *testing.T) {
	std, wg := figure1Small(t)
	sOps, gOps := diskOps(std.TraceLog), diskOps(wg.TraceLog)
	if gOps >= sOps {
		t.Fatalf("gathering disk ops %d not below standard %d", gOps, sOps)
	}
	// Figure 1's point: roughly 3N -> N.
	if float64(sOps) < 2*float64(gOps) {
		t.Fatalf("reduction below 2x: %d vs %d", sOps, gOps)
	}
}

func TestLADDISPointRuns(t *testing.T) {
	spec, _ := Lookup("figure2")
	spec.Topology.Clients[0].Count = 2
	spec.Workload.LADDIS.Procs = 4
	spec.Workload.LADDIS.Measure = 2 * sim.Second
	spec.Cells = []Cell{LADDISCell(spec.Seed, 100, true)}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Cells[0]
	if pt.AchievedOpsPerSec <= 0 || pt.AvgLatencyMs <= 0 {
		t.Fatalf("point = %+v", pt.Metrics)
	}
	if pt.Errors != 0 {
		t.Fatalf("errors = %d", pt.Errors)
	}
}

// TestCaptureFigure1 converts the Figure-1 timeline into a replayable op
// capture: one record per client write send, sorted, starting at zero —
// the artifact `nfstrace -capture` hands to the openload replay path.
func TestCaptureFigure1(t *testing.T) {
	tr, err := CaptureFigure1(false, 4)
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
