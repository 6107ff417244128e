package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/scenario"
	laddisw "repro/internal/workload"
)

func TestCapacityAtPicksHighestWithinLimit(t *testing.T) {
	// figure2's standard-build curve at the registry seeds.
	curve := []curvePoint{
		{207.9, 18.27}, {397.9, 28.90}, {498.9, 51.73}, {593.7, 58.55},
		{614.0, 71.51}, {606.8, 94.55}, {609.8, 91.55}, {570.5, 110.00},
	}
	if got := capacityAt(curve, 50); got != 397.9 {
		t.Errorf("capacity = %v, want 397.9", got)
	}
	// A later, faster point back under the limit still counts, and a
	// point exactly at the limit meets it.
	curve = []curvePoint{{400, 10}, {900, 60}, {800, 50}, {1000, 49.9}}
	if got := capacityAt(curve, 50); got != 1000 {
		t.Errorf("capacity = %v, want 1000", got)
	}
	if got := capacityAt([]curvePoint{{500, 51}}, 50); got != 0 {
		t.Errorf("capacity with no point under the limit = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{398, 1052}); math.Abs(got-math.Sqrt(398*1052)) > 1e-9 {
		t.Errorf("geomean = %v", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8,4) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
	if got := geomean([]float64{5, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := quantile(sorted, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(sorted, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestOpAccounting(t *testing.T) {
	copySpec := scenario.Spec{Workload: scenario.Workload{Kind: scenario.KindCopy, Copy: &scenario.CopyWorkload{FileMB: 10}}}
	if got := cellOps(copySpec, 0, &scenario.CellResult{}); got != (opCount{attempted: 1280}) {
		t.Errorf("copy ops = %+v, want 1280 attempted 8K writes", got)
	}

	open := scenario.Spec{Workload: scenario.Workload{Kind: scenario.KindOpenload, Openload: &scenario.OpenloadWorkload{}}}
	cr := &scenario.CellResult{OpenloadClients: []scenario.OpenloadClient{
		{Offered: 100, Completed: 90, Shed: 6, Expired: 4, Errors: 2},
		{Offered: 50, Completed: 50},
	}}
	cr.Errors = 2
	got := cellOps(open, 0, cr)
	if got != (opCount{attempted: 150, failed: 12}) {
		t.Errorf("open-loop ops = %+v, want 150 attempted, 12 failed (6 shed + 4 expired + 2 errors)", got)
	}
	if r := got.failRatio(); math.Abs(r-0.08) > 1e-12 {
		t.Errorf("fail ratio = %v, want 0.08", r)
	}

	laddis := scenario.Spec{Workload: scenario.Workload{Kind: scenario.KindLADDIS, LADDIS: &scenario.LADDISWorkload{}}}
	lc := &scenario.CellResult{}
	lc.Errors = 1
	lc.ClientResults = append(lc.ClientResults, laddisw.LADDISResult{PerOp: map[string]int{"lookup": 30, "write": 10}}, laddisw.LADDISResult{PerOp: map[string]int{"read": 20}})
	if got := cellOps(laddis, 0, lc); got != (opCount{attempted: 60, failed: 1}) {
		t.Errorf("laddis ops = %+v, want 60 attempted, 1 failed", got)
	}

	if r := (opCount{}).failRatio(); r != 0 {
		t.Errorf("fail ratio of nothing = %v, want 0", r)
	}
}

func TestCheckResultsCatchesBrokenAccounting(t *testing.T) {
	open := scenario.Spec{Workload: scenario.Workload{Kind: scenario.KindOpenload, Openload: &scenario.OpenloadWorkload{}}}
	res := &scenario.Result{Name: "x", Spec: open, Cells: []scenario.CellResult{{
		Label:           "c",
		OpenloadClients: []scenario.OpenloadClient{{Offered: 10, Completed: 8, Shed: 1}},
	}}}
	if checkResults([]*scenario.Result{res}) == nil {
		t.Error("an arrival missing from completed+shed+expired passed the check")
	}
	res.Cells[0].OpenloadClients[0].Expired = 1
	if err := checkResults([]*scenario.Result{res}); err != nil {
		t.Error(err)
	}
	res.Cells[0].Durability = &scenario.Durability{Checked: true, UnaccountedRefs: 3}
	if checkResults([]*scenario.Result{res}) == nil {
		t.Error("leaked block references passed the check")
	}
}

func TestShiftSeedsZeroIsRegistry(t *testing.T) {
	for _, w := range workloads {
		specs, err := w.specs(0, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			reg, _ := scenario.Lookup(w.scenarios[i])
			a, _ := json.Marshal(spec)
			b, _ := json.Marshal(reg)
			if string(a) != string(b) {
				t.Errorf("%s/%s: seed 0 does not run the registry spec", w.name, reg.Name)
			}
		}
	}
	spec, _ := scenario.Lookup("figure2")
	shifted := shiftSeeds(spec, 5)
	if shifted.Seed != spec.Seed+5 || shifted.Workload.LADDIS.Seed != spec.Workload.LADDIS.Seed+5 ||
		*shifted.Cells[3].Seed != *spec.Cells[3].Seed+5 {
		t.Error("shiftSeeds missed a seed")
	}
	if *spec.Cells[3].Seed == *shifted.Cells[3].Seed {
		t.Error("shiftSeeds mutated the original spec")
	}
}

// BENCHMARK.json names exactly the metrics this program prints, with the
// same units.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEndMetrics)
	same("per_layer", bench.PerLayer, perLayerMetrics)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}
