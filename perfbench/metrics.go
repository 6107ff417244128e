package main

// metric is one reported figure: its unit, the clock it is read on (host
// or simulated) and its window — "pass" (one run of every scenario of the
// workload), "cell" (each cell's whole simulated life: setup, measured
// phase and drain) or "measured" (each cell's measured phase only).
type metric struct {
	name   string
	unit   string
	clock  string
	window string
}

// endToEndMetrics are read from tracing-off passes (--trace 0).
var endToEndMetrics = []metric{
	{"wall_s", "s", "host", "pass"},
	{"setup_s", "s", "host", "pass"},
	{"peak_heap_mb", "MB", "host", "pass"},
	{"op_ok_ratio", "ratio", "sim", "measured"},
}

// perLayerMetrics are read from the traced, profiled run (--trace 1).
var perLayerMetrics = []metric{
	// Host self-seconds per layer, per traced pass, from the CPU profile.
	{"client.host_s", "s", "host", "pass"},
	{"server.host_s", "s", "host", "pass"},
	{"core.host_s", "s", "host", "pass"},
	{"nvram.host_s", "s", "host", "pass"},
	{"disk.host_s", "s", "host", "pass"},
	{"ufs.host_s", "s", "host", "pass"},
	{"netsim.host_s", "s", "host", "pass"},
	{"sim.host_s", "s", "host", "pass"},
	{"wire.host_s", "s", "host", "pass"},
	{"workload.host_s", "s", "host", "pass"},
	{"openload.host_s", "s", "host", "pass"},
	{"scenario.host_s", "s", "host", "pass"},
	{"assembly.host_s", "s", "host", "pass"},
	{"obs.host_s", "s", "host", "pass"},
	{"block.host_s", "s", "host", "pass"},
	{"stats.host_s", "s", "host", "pass"},
	{"repo_other.host_s", "s", "host", "pass"},
	{"runtime.gc_s", "s", "host", "pass"},
	{"runtime.sched_s", "s", "host", "pass"},
	{"runtime.other_s", "s", "host", "pass"},
	{"profile.total_s", "s", "host", "pass"},

	// Host counts, from the tracing-off passes of the run.
	{"alloc_mb", "MB", "host", "pass"},
	{"mallocs", "count", "host", "pass"},
	{"gc_cycles", "count", "host", "pass"},
	{"trace_overhead_s", "s", "host", "pass"},

	// Simulated extents and the trace buffer.
	{"sim_s", "s", "sim", "cell"},
	{"measured_sim_s", "s", "sim", "measured"},
	{"trace.events", "count", "sim", "cell"},
	{"trace.dropped", "count", "sim", "cell"},

	// Simulated headline figures (0 where the workload has none).
	{"write_kbps.std", "KB/s", "sim", "measured"},
	{"write_kbps.wg", "KB/s", "sim", "measured"},
	{"capacity_ops_s.std", "ops/s", "sim", "measured"},
	{"capacity_ops_s.wg", "ops/s", "sim", "measured"},
	{"p50_ms.std", "ms", "sim", "measured"},
	{"p50_ms.wg", "ms", "sim", "measured"},
	{"p99_ms.std", "ms", "sim", "measured"},
	{"p99_ms.wg", "ms", "sim", "measured"},
	{"op_fail_ratio", "ratio", "sim", "measured"},

	// Simulated, per modelled layer.
	{"client.rpc_ms.p50", "ms", "sim", "cell"},
	{"client.rpc_ms.p99", "ms", "sim", "cell"},
	{"client.retrans_per_op", "ratio", "sim", "cell"},
	{"nfsd.queue_ms.mean", "ms", "sim", "cell"},
	{"nfsd.service_ms.mean", "ms", "sim", "cell"},
	{"server.cpu_pct", "%", "sim", "measured"},
	{"gather.batch_mean", "count", "sim", "cell"},
	{"gather.batches", "count", "sim", "cell"},
	{"gather.commit_ms.p99", "ms", "sim", "cell"},
	{"disk.trans_per_s", "1/s", "sim", "measured"},
	{"disk.kb_per_trans", "KB", "sim", "measured"},
	{"disk.busy_pct", "%", "sim", "cell"},
	{"nvram.drains", "count", "sim", "cell"},
	{"nvram.drain_ms.mean", "ms", "sim", "cell"},
	{"net.max_util_pct", "%", "sim", "cell"},
	{"bridge.drops", "count", "sim", "cell"},
	{"bridge.peak_queue", "count", "sim", "cell"},
	{"ol.shed", "count", "sim", "measured"},
	{"ol.expired", "count", "sim", "measured"},
	{"ol.peak_queue", "count", "sim", "measured"},
}
