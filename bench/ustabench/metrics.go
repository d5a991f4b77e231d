package main

// The metric catalog. BENCHMARK.json lists the gated end-to-end metrics
// and the per-layer metrics; the harness test checks the two agree.

// metricDef is one metric the harness prints.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated end-to-end metrics: measured with tracing off and
// printed for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"sim_s_per_s", "s/s", "higher"},
	{"cpu_ms_per_cell", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"submit_to_final_p50_s", "s", "lower"},
}

// reported are end-to-end metrics printed only on the workloads they
// describe. They are not in the JSON result: error_rate is 0 on a correct
// run (the result's failed/attempted carry it), machine_slowdown describes
// the machine rather than the program (the gated wall times are divided by
// it), and the others exist on one or two workloads only.
var reported = []metricDef{
	{"error_rate", "frac", "lower"},
	{"machine_slowdown", "x", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"submit_to_final_p90_s", "s", "lower"},
	{"submit_to_last_sample_p50_s", "s", "lower"},
	{"paper_anchor_err_c", "C", "lower"},
}

// layerDef is one per-layer metric of the traced pass, with the module it
// measures and the end-to-end metric and workload it should move.
type layerDef struct {
	metricDef
	layer, moves, workload string
}

var perLayer = []layerDef{
	{metricDef{"scenario.expand_ms", "ms", "lower"}, "internal/scenario", "setup_s", "sweep-local"},
	{metricDef{"core.train_ms", "ms", "lower"}, "internal/core", "submit_to_final_p50_s", "service-interactive"},
	{metricDef{"core.act_ns_p50", "ns", "lower"}, "internal/core", "cpu_ms_per_cell", "sweep-local"},
	{metricDef{"core.act_calls", "count", "lower"}, "internal/core", "cpu_ms_per_cell", "sweep-local"},
	{metricDef{"governor.next_level_ns_p50", "ns", "lower"}, "internal/governor", "cpu_ms_per_cell", "sweep-local"},
	{metricDef{"governor.calls", "count", "lower"}, "internal/governor", "cpu_ms_per_cell", "sweep-local"},
	{metricDef{"fleet.job_ms_p50", "ms", "lower"}, "internal/fleet", "cells_per_s", "sweep-local"},
	{metricDef{"fleet.job_ms_p99", "ms", "lower"}, "internal/fleet", "cells_per_s", "sweep-local"},
	{metricDef{"fleet.busy_frac", "frac", "higher"}, "internal/fleet", "cells_per_s", "sweep-local"},
	{metricDef{"device.self_ns_per_sim_s", "ns", "lower"}, "internal/device", "cpu_ms_per_cell", "sweep-local"},
	{metricDef{"sink.accept_ns_p50", "ns", "lower"}, "internal/sink", "cpu_ms_per_cell", "sweep-local"},
	{metricDef{"sink.samples", "count", "higher"}, "internal/sink", "cpu_ms_per_cell", "sweep-local"},
	{metricDef{"analytics.flatten_ms", "ms", "lower"}, "internal/analytics", "cells_per_s", "sweep-local"},
	{metricDef{"wire.out_bytes_per_sample", "B", "lower"}, "internal/fleet/wire", "cpu_ms_per_cell", "service-population"},
	{metricDef{"wire.write_busy_s", "s", "lower"}, "internal/fleet/wire", "cells_per_s", "service-population"},
	{metricDef{"wire.in_bytes_per_submission", "B", "lower"}, "internal/fleet/wire", "submit_to_final_p50_s", "service-interactive"},
	{metricDef{"wire.conns_per_submission", "count", "lower"}, "internal/fleet/wire", "submit_to_final_p50_s", "service-interactive"},
	{metricDef{"net.items_completed", "count", "higher"}, "internal/fleet/net", "cells_per_s", "service-population"},
	{metricDef{"net.hedges", "count", "lower"}, "internal/fleet/net", "cells_per_s", "service-population"},
	{metricDef{"net.redials", "count", "lower"}, "internal/fleet/net", "cells_per_s", "service-population"},
	{metricDef{"net.useful_item_ratio", "frac", "higher"}, "internal/fleet/net", "cells_per_s", "service-population"},
	{metricDef{"http.submit_ms_p50", "ms", "lower"}, "internal/fleet/net", "submit_to_final_p50_s", "service-interactive"},
	{metricDef{"http.first_frame_ms_p50", "ms", "lower"}, "internal/fleet/net", "submit_to_final_p50_s", "service-interactive"},
	{metricDef{"http.sse_bytes_per_submission", "B", "lower"}, "internal/fleet/net", "cpu_ms_per_cell", "service-population"},
	{metricDef{"http.telemetry_bytes_per_sample", "B", "lower"}, "internal/sink", "sim_s_per_s", "table1-telemetry"},
	{metricDef{"obs.samples_folded", "count", "higher"}, "internal/obs", "cpu_ms_per_cell", "service-population"},
	{metricDef{"obs.final_frame_ms", "ms", "lower"}, "internal/obs", "submit_to_final_p50_s", "service-interactive"},
	{metricDef{"obs.metrics_render_ms", "ms", "lower"}, "internal/obs", "cpu_ms_per_cell", "service-interactive"},
	{metricDef{"durable.wal_bytes_per_cell", "B", "lower"}, "internal/fleet/durable", "cpu_ms_per_cell", "service-population"},
	{metricDef{"durable.recover_ms", "ms", "lower"}, "internal/fleet/durable", "setup_s", "service-population"},
	{metricDef{"runtime.alloc_bytes_per_cell", "B", "lower"}, "runtime", "cpu_ms_per_cell", "service-population"},
	{metricDef{"runtime.gc_cpu_frac", "frac", "lower"}, "runtime", "cpu_ms_per_cell", "service-population"},
	{metricDef{"runtime.heap_live_mb_after", "MB", "lower"}, "runtime", "peak_rss_mb", "service-population"},
	{metricDef{"trace_overhead_frac", "frac", "lower"}, "bench/ustabench", "cells_per_s", "sweep-local"},
}
