package scenario

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// settle collects garbage until the goroutine count drops to at most want
// or the deadline passes, and reports the final goroutine count and live
// heap. Exiting process goroutines need a moment to be scheduled.
func settle(want int) (goroutines int, heap uint64) {
	var ms runtime.MemStats
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		goroutines = runtime.NumGoroutine()
		if goroutines <= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return goroutines, ms.HeapAlloc
}

// TestRunReleasesSimulation: a finished cell must free its simulation.
// Every parked process goroutine unwinds when the cell ends, so after a
// run (panicking or not) the goroutine count is back at its baseline and
// the finished assemblies are garbage. Before cells were reclaimed,
// table1 and table2 alone left a few hundred goroutines and ~224 MB live.
// The heap is measured against the test's own starting point, since the
// tests that ran before it in this package keep some memory live.
func TestRunReleasesSimulation(t *testing.T) {
	base, baseHeap := settle(0)
	const heapSlack = 16 << 20

	check := func(what string) {
		t.Helper()
		g, heap := settle(base)
		if g > base {
			t.Errorf("%s: %d goroutines remain, baseline %d", what, g, base)
		}
		if heap > baseHeap+heapSlack {
			t.Errorf("%s: live heap %.1f MB, baseline %.1f MB (slack %d MB)",
				what, float64(heap)/(1<<20), float64(baseHeap)/(1<<20), heapSlack>>20)
		}
	}

	table1, _ := Lookup("table1")
	open := OpenloadSweep(
		OpenloadRig("release-open", "open-loop reclaim rig", false,
			4, 8, 2, ArrivalPoisson, PopZipf, MixLADDIS, sim.Second, 77),
		[]float64{200, 1600})
	for _, workers := range []int{1, 4} {
		for _, spec := range []Spec{table1, open} {
			if _, err := RunWorkers(spec, workers); err != nil {
				t.Fatal(err)
			}
		}
		check("table1 + open loop")
	}

	// A cell that dies from a process panic is reclaimed too.
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("barrier-overrun cell did not panic")
			}
		}()
		RunWorkers(barrierOverrunSpec(), 1)
	}()
	check("panicked cell")
}
