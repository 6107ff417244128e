package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCounterRates(t *testing.T) {
	var c Counter
	c.Add(8192)
	c.Add(8192)
	if c.Ops != 2 || c.Bytes != 16384 {
		t.Fatalf("counter = %+v", c)
	}
	if got := c.OpsPerSec(2 * sim.Second); got != 1 {
		t.Fatalf("OpsPerSec = %v", got)
	}
	if got := c.KBPerSec(sim.Second); got != 16 {
		t.Fatalf("KBPerSec = %v", got)
	}
	if c.OpsPerSec(0) != 0 {
		t.Fatal("zero-interval rate not zero")
	}
}

func TestCounterSub(t *testing.T) {
	a := Counter{Ops: 10, Bytes: 100}
	b := Counter{Ops: 4, Bytes: 30}
	d := a.Sub(b)
	if d.Ops != 6 || d.Bytes != 70 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestUtilizationNested(t *testing.T) {
	var u Utilization
	u.Begin(0)
	u.Begin(sim.Time(10)) // nested
	u.End(sim.Time(20))
	u.End(sim.Time(30)) // closes at 30: busy 0..30
	if got := u.Busy(sim.Time(40)); got != 30 {
		t.Fatalf("Busy = %v", got)
	}
}

func TestUtilizationPercentInterval(t *testing.T) {
	var u Utilization
	u.Begin(0)
	u.End(sim.Time(50))
	u.Reset(sim.Time(100))
	u.Begin(sim.Time(100))
	u.End(sim.Time(150))
	if got := u.Percent(sim.Time(200)); got != 50 {
		t.Fatalf("Percent = %v, want 50", got)
	}
}

func TestUtilizationEndWithoutBeginPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin did not panic")
		}
	}()
	var u Utilization
	u.End(0)
}

func TestLatencyStats(t *testing.T) {
	var l Latency
	for _, d := range []sim.Duration{10, 20, 30, 40, 100} {
		l.Record(d * sim.Millisecond)
	}
	if l.N() != 5 {
		t.Fatalf("N = %d", l.N())
	}
	if got := l.Mean(); got != 40*sim.Millisecond {
		t.Fatalf("Mean = %v", got)
	}
	if got := l.Max(); got != 100*sim.Millisecond {
		t.Fatalf("Max = %v", got)
	}
	// Percentiles are histogram estimates: bounded by the observed range
	// and ordered, not exact order statistics.
	p50, p100 := l.Percentile(50), l.Percentile(100)
	if p50 < 10*sim.Millisecond || p50 > 40*sim.Millisecond {
		t.Fatalf("P50 = %v, want within [10ms, 40ms]", p50)
	}
	if p100 != 100*sim.Millisecond {
		t.Fatalf("P100 = %v, want the clamped max", p100)
	}
	if p50 > p100 {
		t.Fatalf("percentiles not monotone: P50 %v > P100 %v", p50, p100)
	}
}

// TestLatencyConstantMemory is the streaming contract: a million samples
// must not grow the recorder — it has no per-sample storage to grow.
func TestLatencyConstantMemory(t *testing.T) {
	var l Latency
	for i := 0; i < 1_000_000; i++ {
		l.Record(sim.Duration(i % 50000))
	}
	if l.N() != 1_000_000 {
		t.Fatalf("N = %d", l.N())
	}
	if l.Hist().Count != 1_000_000 {
		t.Fatalf("histogram count = %d", l.Hist().Count)
	}
	if m := l.Mean(); m != sim.Duration(24999) && m != sim.Duration(25000) {
		t.Fatalf("Mean = %v", m)
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(95) != 0 || l.Max() != 0 {
		t.Fatal("empty latency stats not zero")
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(samples []uint16, p uint8) bool {
		if len(samples) == 0 {
			return true
		}
		var l Latency
		var max sim.Duration
		for _, s := range samples {
			d := sim.Duration(s)
			l.Record(d)
			if d > max {
				max = d
			}
		}
		pct := float64(p%100) + 1
		v := l.Percentile(pct)
		return v >= 0 && v <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
