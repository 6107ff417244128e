package main

import (
	"math"
	"sort"
)

// capacityLimitMs is SPEC SFS 1.0's response-time limit: capacity is read
// off a throughput/latency curve at a 50 ms mean response.
const capacityLimitMs = 50

// curvePoint is one offered-load cell of a closed-loop LADDIS sweep.
type curvePoint struct {
	achievedOps float64 // achieved ops/s over the measured phase
	meanMs      float64 // mean response, ms
}

// capacityAt returns the highest achieved ops/s among points whose mean
// response is at most limitMs, or 0 when no point meets the limit.
func capacityAt(points []curvePoint, limitMs float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.meanMs <= limitMs && p.achievedOps > best {
			best = p.achievedOps
		}
	}
	return best
}

// geomean is the geometric mean of xs. It is 0 for an empty list or when
// any value is not positive, so a missing or zero figure is never hidden
// inside a mean.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty list.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted (ascending) values:
// the smallest value with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// opCount is the operation accounting of one cell or one workload pass.
// An operation fails when it returns an error or, on open-loop cells,
// when its arrival is shed at a full backlog or expires before issue.
type opCount struct {
	attempted uint64
	failed    uint64
}

func (c *opCount) add(o opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
}

// failRatio is failed over attempted operations (0 when none attempted).
func (c opCount) failRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
