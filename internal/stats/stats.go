// Package stats provides the measurement primitives used by every
// experiment: counters, byte/operation rates, latency recorders and
// time-weighted utilization trackers, all in virtual time.
package stats

import "repro/internal/sim"

// Counter is a monotonically increasing event count with an associated byte
// total, suitable for deriving ops/sec and KB/sec over an interval.
type Counter struct {
	Ops   uint64
	Bytes uint64
}

// Add records one operation moving n bytes.
func (c *Counter) Add(n int) {
	c.Ops++
	c.Bytes += uint64(n)
}

// AddOps records n operations with no byte count.
func (c *Counter) AddOps(n int) { c.Ops += uint64(n) }

// OpsPerSec returns the operation rate over elapsed.
func (c *Counter) OpsPerSec(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Ops) / elapsed.Seconds()
}

// KBPerSec returns the byte rate in KB/s (1 KB = 1024 bytes, as the paper
// reports) over elapsed.
func (c *Counter) KBPerSec(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Bytes) / 1024 / elapsed.Seconds()
}

// Sub returns the counter delta c - o.
func (c Counter) Sub(o Counter) Counter {
	return Counter{Ops: c.Ops - o.Ops, Bytes: c.Bytes - o.Bytes}
}

// Utilization accumulates busy time for a device or CPU so that a
// percentage-busy figure can be reported, matching the paper's
// "server cpu util. (%)" rows.
type Utilization struct {
	busy      sim.Duration
	busySince sim.Time
	active    int
	mark      sim.Time // start of current measurement interval
	markBusy  sim.Duration
}

// Begin records the start of a busy period. Nested Begin/End pairs are
// allowed; the tracker counts wall time during which at least one period is
// open (single-server semantics).
func (u *Utilization) Begin(now sim.Time) {
	if u.active == 0 {
		u.busySince = now
	}
	u.active++
}

// End closes the most recent busy period.
func (u *Utilization) End(now sim.Time) {
	if u.active <= 0 {
		panic("stats: Utilization.End without Begin")
	}
	u.active--
	if u.active == 0 {
		u.busy += now.Sub(u.busySince)
	}
}

// AddBusy directly accrues d of busy time (for costs charged in one shot).
func (u *Utilization) AddBusy(d sim.Duration) { u.busy += d }

// Busy reports accumulated busy time, including any open period up to now.
func (u *Utilization) Busy(now sim.Time) sim.Duration {
	b := u.busy
	if u.active > 0 {
		b += now.Sub(u.busySince)
	}
	return b
}

// Reset marks the start of a fresh measurement interval at now.
func (u *Utilization) Reset(now sim.Time) {
	u.mark = now
	u.markBusy = u.Busy(now)
}

// Percent reports utilization (0–100) over the interval [Reset, now].
func (u *Utilization) Percent(now sim.Time) float64 {
	elapsed := now.Sub(u.mark)
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(u.Busy(now)-u.markBusy) / float64(elapsed)
}

// Latency streams response-time samples into constant memory: an exact
// sum and count back the mean, an exact running max backs Max, and a
// log-scale Histogram backs percentile estimates. No per-sample record
// is kept, so 100x10 sweep grids and thousand-seed fuzz campaigns hold
// the same memory per worker as a single cell.
type Latency struct {
	n    int64
	sum  sim.Duration
	max  sim.Duration
	hist Histogram
}

// Record adds one sample. Negative durations clamp to zero.
func (l *Latency) Record(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	l.n++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.hist.Record(int64(d))
}

// N reports the number of samples.
func (l *Latency) N() int { return int(l.n) }

// Mean reports the average sample, or 0 with no samples. It is exact
// (integer sum over count), not a histogram estimate.
func (l *Latency) Mean() sim.Duration {
	if l.n == 0 {
		return 0
	}
	return l.sum / sim.Duration(l.n)
}

// Percentile estimates the p-th percentile (0 < p <= 100) from the
// histogram: linear interpolation within the covering log-scale bucket,
// clamped to the observed min/max.
func (l *Latency) Percentile(p float64) sim.Duration {
	if l.n == 0 {
		return 0
	}
	return sim.Duration(l.hist.Quantile(p / 100))
}

// Max reports the largest sample, exactly.
func (l *Latency) Max() sim.Duration { return l.max }

// Hist exposes the underlying histogram for merging into roll-ups.
func (l *Latency) Hist() *Histogram { return &l.hist }
