package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// workload is one benchmark input: registry scenarios run in order, one
// simulation worker, on the seeds derived from the benchmark seed.
type workload struct {
	name      string
	scenarios []string
}

var workloads = []workload{
	{"copy", []string{"table1", "table2", "table3", "table4", "table5", "table6"}},
	{"laddis", []string{"figure2", "figure3"}},
	{"bridgedsat", []string{"bridgedsat"}},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// laddisLatencyRate is the offered rate (ops/s) at which laddis latency is
// read: a cell of both figure2 and figure3, below every build's knee.
const laddisLatencyRate = 400

// tracedObserve is the traced run's observe plane: every instrument on,
// with a span buffer large enough that bridgedsat's setup storm is kept
// whole (trace.dropped reports any overflow).
func tracedObserve() *scenario.Observe {
	return &scenario.Observe{Trace: true, Probes: true, Histograms: true, TraceMaxEvents: 4_000_000}
}

// specs returns the workload's scenario specs with every seed shifted by
// seed (0 runs the registry's own seeds) and the given observe plane.
// With cut set, each measured phase is cut to the validator's minimum,
// so a run times the assembly build and pre-barrier setup alone.
func (w workload) specs(seed int64, observe *scenario.Observe, cut bool) ([]scenario.Spec, error) {
	var specs []scenario.Spec
	for _, name := range w.scenarios {
		spec, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: scenario %q is not in the registry", w.name, name)
		}
		spec = shiftSeeds(spec, seed)
		if cut {
			spec = cutMeasured(spec)
		}
		spec.Observe = observe
		specs = append(specs, spec)
	}
	return specs, nil
}

// shiftSeeds adds by to every seed the spec carries: the base seed, the
// per-cell seeds and the workload generator seeds.
func shiftSeeds(spec scenario.Spec, by int64) scenario.Spec {
	spec.Seed += by
	if l := spec.Workload.LADDIS; l != nil {
		c := *l
		c.Seed += by
		spec.Workload.LADDIS = &c
	}
	if o := spec.Workload.Openload; o != nil {
		c := *o
		c.Seed += by
		spec.Workload.Openload = &c
	}
	cells := make([]scenario.Cell, len(spec.Cells))
	for i, c := range spec.Cells {
		if c.Seed != nil {
			s := *c.Seed + by
			c.Seed = &s
		}
		cells[i] = c
	}
	spec.Cells = cells
	return spec
}

// cutMeasured shrinks the measured phase to the smallest the validator
// accepts: 1 ns for LADDIS and open-loop windows, 1 MB for copies.
func cutMeasured(spec scenario.Spec) scenario.Spec {
	switch {
	case spec.Workload.Copy != nil:
		c := *spec.Workload.Copy
		c.FileMB = 1
		spec.Workload.Copy = &c
	case spec.Workload.LADDIS != nil:
		c := *spec.Workload.LADDIS
		c.Measure = 1
		spec.Workload.LADDIS = &c
	case spec.Workload.Openload != nil:
		c := *spec.Workload.Openload
		c.Measure = 1
		spec.Workload.Openload = &c
	}
	return spec
}

// gathering reports whether cell i of spec runs the write-gathering build.
func gathering(spec scenario.Spec, i int) bool {
	if i < len(spec.Cells) && spec.Cells[i].Gathering != nil {
		return *spec.Cells[i].Gathering
	}
	return false
}

func buildName(wg bool) string {
	if wg {
		return "wg"
	}
	return "std"
}

// checkResults verifies the invariants every pass must hold, whatever
// the seed: each copy moved its whole file, each open-loop client
// accounts for every arrival, and each durability-audited cell lost no
// acked byte and leaked no block reference.
func checkResults(results []*scenario.Result) error {
	for _, res := range results {
		for i, cr := range res.Cells {
			where := fmt.Sprintf("%s/%s", res.Name, cr.Label)
			if c := res.Spec.Workload.Copy; c != nil {
				want := float64(fileMB(res.Spec, i)) * 1024
				got := cr.ClientKBps * cr.Elapsed.Seconds()
				if cr.Elapsed <= 0 || math.Abs(got-want) > want*1e-9 {
					return fmt.Errorf("%s: copied %.3f KB, want %.0f KB", where, got, want)
				}
				if cr.Errors != 0 {
					return fmt.Errorf("%s: copy reported %d errors", where, cr.Errors)
				}
			}
			if res.Spec.Workload.Openload != nil {
				if len(cr.OpenloadClients) == 0 {
					return fmt.Errorf("%s: no open-loop client accounting", where)
				}
				for j, oc := range cr.OpenloadClients {
					if oc.Offered != oc.Completed+oc.Shed+oc.Expired {
						return fmt.Errorf("%s client %d: offered %d != completed %d + shed %d + expired %d",
							where, j, oc.Offered, oc.Completed, oc.Shed, oc.Expired)
					}
				}
			}
			if d := cr.Durability; d != nil && d.Checked {
				if d.LostBytes != 0 || d.UnaccountedRefs != 0 {
					return fmt.Errorf("%s: durability audit lost %d bytes, %d unaccounted refs",
						where, d.LostBytes, d.UnaccountedRefs)
				}
			}
		}
	}
	return nil
}

func fileMB(spec scenario.Spec, i int) int {
	if i < len(spec.Cells) && spec.Cells[i].FileMB != nil {
		return *spec.Cells[i].FileMB
	}
	if mb := spec.Workload.Copy.FileMB; mb > 0 {
		return mb
	}
	return 10
}

// cellOps is one cell's operation accounting over its measured phase:
// 8K WRITEs for a copy, LADDIS ops as issued, open-loop arrivals.
func cellOps(spec scenario.Spec, i int, cr *scenario.CellResult) opCount {
	var c opCount
	switch {
	case spec.Workload.Copy != nil:
		c.attempted = uint64(fileMB(spec, i)) * 1024 / 8
	case spec.Workload.Openload != nil:
		for _, oc := range cr.OpenloadClients {
			c.attempted += oc.Offered
			c.failed += oc.Shed + oc.Expired
		}
	default:
		for _, res := range cr.ClientResults {
			for _, n := range res.PerOp {
				c.attempted += uint64(n)
			}
		}
	}
	c.failed += uint64(cr.Errors)
	return c
}

// passOps sums the operation accounting of every cell of a pass.
func passOps(results []*scenario.Result) opCount {
	var total opCount
	for _, res := range results {
		for i := range res.Cells {
			total.add(cellOps(res.Spec, i, &res.Cells[i]))
		}
	}
	return total
}

// simColumns serializes every simulated column of a pass — the uniform
// metric columns, exact elapsed and simulated extents, gather, fabric,
// open-loop and durability detail — so two passes can be compared byte
// for byte. Histogram quantiles exist only when the observe plane turns
// histograms on, so they are left out of closed-loop cells.
func simColumns(results []*scenario.Result) []byte {
	type row struct {
		Scenario string
		Cell     scenario.CellResult
	}
	var rows []row
	for _, res := range results {
		for _, cr := range res.Cells {
			if res.Spec.Workload.Openload == nil {
				cr.P50LatencyMs, cr.P90LatencyMs, cr.P99LatencyMs, cr.P999LatencyMs = 0, 0, 0, 0
				cr.OpQuantiles = nil
				clients := append(cr.ClientResults[:0:0], cr.ClientResults...)
				for j := range clients {
					clients[j].Hists = nil
				}
				cr.ClientResults = clients
			}
			rows = append(rows, row{res.Name, cr})
		}
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		panic("perfbench: marshal sim columns: " + err.Error())
	}
	return blob
}

// spanStats summarizes the sim-time spans of traced cells.
type spanStats struct {
	rpcMs       []float64 // client RPC issue-to-completion, ms
	rpcRetrans  int64     // attempts beyond the first
	nfsdN       int64
	nfsdQueueMs float64
	nfsdSvcMs   float64
	drains      int64
	drainMs     float64
	diskBusy    sim.Duration // summed platter busy time
	spindleTime sim.Duration // summed SimTime x spindles
	events      int64
	dropped     int64
}

func argVal(ev *obs.Event, key string) int64 {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// addCell folds one traced cell's spans in. Spans cover the whole cell
// (setup, measured phase and drain).
func (st *spanStats) addCell(cr *scenario.CellResult) {
	t := cr.Trace
	if t == nil {
		return
	}
	st.events += int64(len(t.Events))
	st.dropped += t.Dropped
	spindles := map[string]bool{}
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Phase != 'X' {
			continue
		}
		switch ev.Cat {
		case "rpc":
			st.rpcMs = append(st.rpcMs, ev.Dur.Millis())
			if a := argVal(ev, "attempts"); a > 1 {
				st.rpcRetrans += a - 1
			}
		case "nfs":
			st.nfsdN++
			st.nfsdSvcMs += ev.Dur.Millis()
			st.nfsdQueueMs += sim.Duration(argVal(ev, "queue_us")).Millis()
		case "nvram":
			st.drains++
			st.drainMs += ev.Dur.Millis()
		case "disk":
			st.diskBusy += ev.Dur
			spindles[ev.Proc+"/"+ev.Thread] = true
		}
	}
	st.spindleTime += cr.SimTime * sim.Duration(len(spindles))
}

// simMetrics derives the simulated per-layer and headline figures of one
// pass. spans is nil for an untraced pass (span-based figures read 0).
func simMetrics(results []*scenario.Result, spans *spanStats) map[string]float64 {
	m := map[string]float64{}
	kbps := map[bool][]float64{}
	capacity := map[bool][]float64{}
	p50s, p99s := map[bool][]float64{}, map[bool][]float64{}
	var cells, cpuSum, tpsSum, diskKB, diskTrans float64
	var simTime, measured sim.Duration
	var batchCount int64
	var batchSum, commitP99 float64
	for _, res := range results {
		curve := map[bool][]curvePoint{}
		worst := map[bool]*scenario.CellResult{}
		for i := range res.Cells {
			cr := &res.Cells[i]
			wg := gathering(res.Spec, i)
			cells++
			cpuSum += cr.CPUPercent
			tpsSum += cr.DiskTps
			diskKB += cr.DiskKBps * cr.ElapsedSec
			diskTrans += cr.DiskTps * cr.ElapsedSec
			simTime += cr.SimTime
			measured += cr.Elapsed
			if b := cr.GatherBatch; b != nil {
				batchCount += b.Count
				batchSum += b.Mean * float64(b.Count)
			}
			if c := cr.GatherCommitMs; c != nil && c.P99 > commitP99 {
				commitP99 = c.P99
			}
			m["net.max_util_pct"] = math.Max(m["net.max_util_pct"], cr.NetMaxUtilPct)
			m["bridge.drops"] += float64(cr.BridgeDrops)
			for _, b := range cr.Bridges {
				m["bridge.peak_queue"] = math.Max(m["bridge.peak_queue"], float64(b.PeakQueue))
			}
			m["ol.shed"] += float64(cr.ShedArrivals)
			m["ol.expired"] += float64(cr.ExpiredOps)
			m["ol.peak_queue"] = math.Max(m["ol.peak_queue"], float64(cr.PeakQueue))
			switch {
			case res.Spec.Workload.Copy != nil:
				kbps[wg] = append(kbps[wg], cr.ClientKBps)
			case res.Spec.Workload.LADDIS != nil:
				curve[wg] = append(curve[wg], curvePoint{cr.AchievedOpsPerSec, cr.AvgLatencyMs})
				if cr.OfferedOpsPerSec == laddisLatencyRate {
					p50s[wg] = append(p50s[wg], cr.P50LatencyMs)
					p99s[wg] = append(p99s[wg], cr.P99LatencyMs)
				}
			case res.Spec.Workload.Openload != nil:
				if worst[wg] == nil || cr.P99LatencyMs > worst[wg].P99LatencyMs {
					worst[wg] = cr
				}
			}
		}
		for wg, pts := range curve {
			capacity[wg] = append(capacity[wg], capacityAt(pts, capacityLimitMs))
		}
		for wg, cr := range worst {
			p50s[wg] = append(p50s[wg], cr.P50LatencyMs)
			p99s[wg] = append(p99s[wg], cr.P99LatencyMs)
		}
	}
	for _, wg := range []bool{false, true} {
		b := buildName(wg)
		m["write_kbps."+b] = geomean(kbps[wg])
		m["capacity_ops_s."+b] = geomean(capacity[wg])
		m["p50_ms."+b] = geomean(p50s[wg])
		m["p99_ms."+b] = geomean(p99s[wg])
	}
	m["op_fail_ratio"] = passOps(results).failRatio()
	m["server.cpu_pct"] = cpuSum / cells
	m["disk.trans_per_s"] = tpsSum / cells
	if diskTrans > 0 {
		m["disk.kb_per_trans"] = diskKB / diskTrans
	}
	m["gather.batches"] = float64(batchCount)
	if batchCount > 0 {
		m["gather.batch_mean"] = batchSum / float64(batchCount)
	}
	m["gather.commit_ms.p99"] = commitP99
	m["sim_s"] = simTime.Seconds()
	m["measured_sim_s"] = measured.Seconds()
	if spans != nil {
		sorted := append([]float64(nil), spans.rpcMs...)
		sort.Float64s(sorted)
		m["client.rpc_ms.p50"] = quantile(sorted, 0.50)
		m["client.rpc_ms.p99"] = quantile(sorted, 0.99)
		if n := len(sorted); n > 0 {
			m["client.retrans_per_op"] = float64(spans.rpcRetrans) / float64(n)
		}
		if spans.nfsdN > 0 {
			m["nfsd.queue_ms.mean"] = spans.nfsdQueueMs / float64(spans.nfsdN)
			m["nfsd.service_ms.mean"] = spans.nfsdSvcMs / float64(spans.nfsdN)
		}
		m["nvram.drains"] = float64(spans.drains)
		if spans.drains > 0 {
			m["nvram.drain_ms.mean"] = spans.drainMs / float64(spans.drains)
		}
		if spans.spindleTime > 0 {
			m["disk.busy_pct"] = 100 * float64(spans.diskBusy) / float64(spans.spindleTime)
		}
		m["trace.events"] = float64(spans.events)
		m["trace.dropped"] = float64(spans.dropped)
	}
	return m
}

// details renders the per-scenario figures behind the headline means, in
// the units nfsbench prints, so they can be compared cell for cell.
func details(results []*scenario.Result) []string {
	var lines []string
	for _, res := range results {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:", res.Name)
		curve := map[bool][]curvePoint{}
		for i, cr := range res.Cells {
			switch {
			case res.Spec.Workload.Copy != nil:
				fmt.Fprintf(&b, " %s=%.1fKB/s", cr.Label, cr.ClientKBps)
			case res.Spec.Workload.LADDIS != nil:
				wg := gathering(res.Spec, i)
				curve[wg] = append(curve[wg], curvePoint{cr.AchievedOpsPerSec, cr.AvgLatencyMs})
				if cr.OfferedOpsPerSec == laddisLatencyRate {
					fmt.Fprintf(&b, " %s p50=%.2fms p99=%.2fms", cr.Label, cr.P50LatencyMs, cr.P99LatencyMs)
				}
			default:
				fmt.Fprintf(&b, " %s p50=%.2fms p99=%.2fms achieved=%.1fops/s", cr.Label, cr.P50LatencyMs, cr.P99LatencyMs, cr.AchievedOpsPerSec)
			}
		}
		if len(curve) > 0 {
			fmt.Fprintf(&b, " capacity@%dms std=%.1fops/s wg=%.1fops/s", capacityLimitMs,
				capacityAt(curve[false], capacityLimitMs), capacityAt(curve[true], capacityLimitMs))
		}
		lines = append(lines, b.String())
	}
	return lines
}
