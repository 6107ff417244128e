package scenario

import (
	"testing"

	"repro/internal/sim"
)

// scaleCell runs one cell of the registry's scale grid with a 1 s
// measured phase: nclients LADDIS clients sharded across nservers.
func scaleCell(t *testing.T, nclients, nservers int, gathering bool) CellResult {
	t.Helper()
	spec, _ := Lookup("scale")
	spec.Workload.LADDIS.Measure = 1 * sim.Second
	spec.Cells = []Cell{ScaleCell(spec.Seed, nclients, nservers, gathering)}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells[0]
}

// TestScaleSweepSmoke runs one grid cell end to end (the CI smoke): two
// clients sharded across two servers with gathering on must move load on
// every shard without errors.
func TestScaleSweepSmoke(t *testing.T) {
	cell := scaleCell(t, 2, 2, true)
	if cell.AchievedOpsPerSec <= 0 {
		t.Fatalf("cell achieved no throughput: %+v", cell.Metrics)
	}
	if cell.Errors != 0 {
		t.Fatalf("cell had %d op errors", cell.Errors)
	}
	if cell.AvgLatencyMs <= 0 {
		t.Fatalf("cell recorded no latency: %+v", cell.Metrics)
	}
	t.Logf("%s: %.1f ops/s, %.2f ms avg, cpu %.1f%%/%.1f%%",
		cell.Label, cell.AchievedOpsPerSec, cell.AvgLatencyMs,
		cell.CPUPercent, cell.CPUMaxPercent)
}

// TestScaleCellDeterministic: the same cell at the same seed reports
// byte-identical metrics.
func TestScaleCellDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism re-run is covered by the full sweep benchmarks")
	}
	a := scaleCell(t, 2, 1, true)
	b := scaleCell(t, 2, 1, true)
	if a.Metrics != b.Metrics {
		t.Fatalf("scale cell not deterministic:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

// TestCrashRecoveryDurability is the acceptance gate: zero acked-write
// loss with gathering on, with and without Presto (the registry's crash
// cells).
func TestCrashRecoveryDurability(t *testing.T) {
	spec, _ := Lookup("crash")
	if testing.Short() {
		spec.Faults.Crashes[0].Count = 1
		spec.Workload.Stream.FileMB = 1
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		d := c.Durability
		if d.LostBytes != 0 {
			t.Fatalf("%s: %d acked bytes lost (%s)", c.Label, d.LostBytes, d.FirstLoss)
		}
		if d.Crashes == 0 || d.Reboots != d.Crashes {
			t.Fatalf("%s: crashes=%d reboots=%d", c.Label, d.Crashes, d.Reboots)
		}
		if d.AckedWrites == 0 {
			t.Fatalf("%s: empty journal", c.Label)
		}
		if c.RebootsSeen == 0 {
			t.Errorf("%s: clients never detected the reboot", c.Label)
		}
	}
	t.Logf("\n%s", res.Render())
}
