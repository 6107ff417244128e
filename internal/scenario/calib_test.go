package scenario

import "testing"

// copyTable runs a registry copy table at fileMB and splits its cells
// into the standard-server half and the gathering half (CopySweep's
// order), each in biod order.
func copyTable(t *testing.T, name string, fileMB int) (wo, wi []CellResult) {
	t.Helper()
	spec, _ := Lookup(name)
	spec.Workload.Copy.FileMB = fileMB
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	n := len(res.Cells) / 2
	return res.Cells[:n], res.Cells[n:]
}

// copyCell runs one cell of a registry copy table at fileMB.
func copyCell(t *testing.T, name string, fileMB, biods int, gathering bool) CellResult {
	t.Helper()
	spec, _ := Lookup(name)
	spec.Workload.Copy.FileMB = fileMB
	spec.Cells = []Cell{CopyCell(biods, gathering)}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells[0]
}

// TestCalibrationTable1Shape checks the qualitative shape of Table 1
// against the paper: without gathering throughput is flat and
// spindle-bound (~165-205 KB/s band); with gathering it scales with biods
// and the 15-biod case is several times faster; disk transactions per
// second drop sharply; 0 biods loses modestly.
func TestCalibrationTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are long")
	}
	// A smaller file than the paper's 10MB: same steady-state rates.
	wo, wi := copyTable(t, "table1", 4)
	last := len(wo) - 1
	// Flat without gathering: 15-biod within 35% of 0-biod.
	if wo[last].ClientKBps > wo[0].ClientKBps*1.35 {
		t.Errorf("no-gather curve not flat: %v vs %v", wo[0].ClientKBps, wo[last].ClientKBps)
	}
	// Gathering at 15 biods at least 2x the standard server.
	if wi[last].ClientKBps < 2*wo[last].ClientKBps {
		t.Errorf("gathering gain too small: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	// Zero-biod penalty: gathering slower but not catastrophically.
	if wi[0].ClientKBps >= wo[0].ClientKBps {
		t.Errorf("0-biod gathering should lose: %v vs %v", wi[0].ClientKBps, wo[0].ClientKBps)
	}
	// Disk transaction rate collapses with gathering at high biods.
	if wi[last].DiskTps > 0.6*wo[last].DiskTps {
		t.Errorf("disk trans/s did not drop: %v vs %v", wi[last].DiskTps, wo[last].DiskTps)
	}
}

func TestCalibrationTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are long")
	}
	wo, wi := copyTable(t, "table2", 4)
	last := len(wo) - 1
	// Presto without gathering is much faster than plain disk (compare
	// against the known plain-disk band, ~200 KB/s).
	if wo[last].ClientKBps < 500 {
		t.Errorf("Presto no-gather too slow: %v", wo[last].ClientKBps)
	}
	// With gathering: lower CPU per unit of work at modest throughput cost.
	cpuPerKB := func(r CellResult) float64 { return r.CPUPercent / r.ClientKBps }
	if cpuPerKB(wi[2]) >= cpuPerKB(wo[2]) {
		t.Errorf("gathering did not improve CPU efficiency under Presto: %v vs %v",
			cpuPerKB(wi[2]), cpuPerKB(wo[2]))
	}
	if wi[last].ClientKBps > wo[last].ClientKBps {
		t.Logf("note: gathering beat standard under Presto (paper shows a modest loss)")
	}
}

// TestCalibrationTable3Shape: FDDI, plain disk. Paper: without gathering
// the curve is utterly flat (~207-209 KB/s, spindle-bound); with gathering
// it scales to ~1085 KB/s at 15 biods (5x), with low CPU throughout.
func TestCalibrationTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are long")
	}
	wo, wi := copyTable(t, "table3", 4)
	last := len(wo) - 1
	if wo[last].ClientKBps > wo[0].ClientKBps*1.25 {
		t.Errorf("FDDI no-gather curve not flat: %v -> %v", wo[0].ClientKBps, wo[last].ClientKBps)
	}
	if wi[last].ClientKBps < 3*wo[last].ClientKBps {
		t.Errorf("FDDI gathering gain < 3x: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	if wi[0].ClientKBps >= wo[0].ClientKBps {
		t.Errorf("0-biod gathering should lose: %v vs %v", wi[0].ClientKBps, wo[0].ClientKBps)
	}
}

// TestCalibrationTable4Shape: FDDI + Presto. Paper: without gathering the
// client runs at near raw-device speed (~1.9 MB/s) flat; gathering matches
// it at >=3 biods while halving CPU; at 0 biods gathering halves speed.
func TestCalibrationTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are long")
	}
	wo, wi := copyTable(t, "table4", 4)
	last := len(wo) - 1
	// Much faster than plain-disk FDDI (~210).
	if wo[last].ClientKBps < 800 {
		t.Errorf("Presto FDDI no-gather too slow: %v", wo[last].ClientKBps)
	}
	// Gathering catches up at high biod counts (within 25%).
	if wi[last].ClientKBps < 0.75*wo[last].ClientKBps {
		t.Errorf("gathering at 15 biods too slow: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	// And saves CPU.
	if wi[last].CPUPercent >= wo[last].CPUPercent {
		t.Errorf("gathering did not save CPU: %v vs %v", wi[last].CPUPercent, wo[last].CPUPercent)
	}
}

// TestCalibrationTable5Shape: FDDI + 3-disk stripe. Paper: without
// gathering ~200-313 KB/s; with gathering it keeps scaling with biods
// (1618 KB/s at 23 biods, 5x) because striping lifts the spindle ceiling.
func TestCalibrationTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are long")
	}
	wo, wi := copyTable(t, "table5", 4)
	last := len(wo) - 1
	if wi[last].ClientKBps < 3*wo[last].ClientKBps {
		t.Errorf("stripe gathering gain < 3x: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
	// The stripe must beat the single-disk gathering ceiling (Table 3 tops
	// out near the single spindle's sequential bandwidth).
	single := copyCell(t, "table3", 10, 23, true)
	if wi[last].ClientKBps <= single.ClientKBps {
		t.Errorf("stripe (%v) did not beat single disk (%v)", wi[last].ClientKBps, single.ClientKBps)
	}
	// More biods keep helping with gathering.
	if wi[last].ClientKBps <= wi[2].ClientKBps {
		t.Errorf("gathering stopped scaling: %v -> %v", wi[2].ClientKBps, wi[last].ClientKBps)
	}
}

// TestCalibrationTable6Shape: FDDI + Presto + stripe. Paper: standard hits
// ~3.4-3.5 MB/s; gathering reaches ~3 MB/s (-10-20%) with ~40% less CPU.
func TestCalibrationTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are long")
	}
	wo, wi := copyTable(t, "table6", 4)
	last := len(wo) - 1
	if wo[last].ClientKBps < 1.5*copyCell(t, "table4", 10, 15, false).ClientKBps {
		t.Logf("note: stripe+Presto standard not much faster than single+Presto")
	}
	if wi[last].CPUPercent >= wo[last].CPUPercent {
		t.Errorf("gathering did not save CPU: %v vs %v", wi[last].CPUPercent, wo[last].CPUPercent)
	}
	if wi[last].ClientKBps < 0.6*wo[last].ClientKBps {
		t.Errorf("gathering throughput collapse: %v vs %v", wi[last].ClientKBps, wo[last].ClientKBps)
	}
}
