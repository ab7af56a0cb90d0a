package main

// metricDef names one reported metric, its unit, and (for per-layer
// metrics) the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the service sees; every workload
// reports all of them from an untraced run.
var endToEnd = []metricDef{
	{"rps", "1/s", ""},
	{"p50_ms", "ms", ""},
	{"p90_ms", "ms", ""},
	{"cpu_us_per_req", "us", ""},
	{"rss_mb", "MB", ""},
	{"setup_s", "s", ""},
	{"rounds_over_width", "ratio", ""},
	{"units_per_comm", "units", ""},
}

// perLayer are the traced run's metrics, with the end-to-end metric each
// should move on which workload (and, in parentheses, where it should stay
// flat). delta-wire is paced, so a cheaper delta shows in its p50_ms and
// cpu_us_per_req; rps moves only when a backlog grows. The set path is not
// in either window: its gated output is the quality probe's
// rounds_over_width and units_per_comm.
var perLayer = []metricDef{
	{"wire.encode_ns", "ns", "cpu_us_per_req -> pair-wire, delta-wire"},
	{"wire.decode_ns", "ns", "cpu_us_per_req -> pair-wire, delta-wire"},
	{"wire.frame_bytes", "bytes", "cpu_us_per_req -> pair-wire, delta-wire"},
	{"serve.queue_wait_us", "us", "p50_ms, p90_ms, cpu_us_per_req -> pair-wire (delta-wire)"},
	{"serve.dispatch_us", "us", "p50_ms, p90_ms, cpu_us_per_req -> pair-wire (delta-wire)"},
	{"serve.write_us", "us", "p50_ms, p90_ms, cpu_us_per_req -> pair-wire (delta-wire)"},
	{"serve.root_self_us", "us", "p50_ms -> pair-wire, delta-wire"},
	{"serve.batch_size_mean", "count", "p50_ms, p90_ms, cpu_us_per_req -> pair-wire (delta-wire)"},
	{"serve.flushes_per_kreq", "count", "p50_ms, p90_ms, cpu_us_per_req -> pair-wire (delta-wire)"},
	{"serve.rejected", "count", "rps, p90_ms -> pair-wire (delta-wire)"},
	{"serve.expired", "count", "rps, p90_ms -> pair-wire (delta-wire)"},
	{"serve.pool_us", "us", "p50_ms -> pair-wire"},
	{"serve.delta_us", "us", "p50_ms -> delta-wire"},
	{"serve.plan_us", "us", "none gated: the set path (see http.plan_p50_us)"},
	{"socket.us", "us", "p50_ms -> the workload's own (client p50 minus its rung)"},
	{"http.codec_us", "us", "none gated: the set path (pair-wire, delta-wire)"},
	{"http.body_bytes", "bytes", "none gated: the set path (pair-wire, delta-wire)"},
	{"http.plan_p50_us", "us", "none gated: client p50 of the quality probe's set plans"},
	{"online.dispatch_us", "us", "cpu_us_per_req, p90_ms -> pair-wire (delta-wire)"},
	{"online.apply_delta_us", "us", "p50_ms, cpu_us_per_req -> delta-wire (pair-wire)"},
	{"padr.run_us", "us", "cpu_us_per_req -> pair-wire (delta-wire)"},
	{"padr.rounds_per_run", "count", "cpu_us_per_req -> pair-wire (delta-wire)"},
	{"padr.apply_us", "us", "p50_ms, cpu_us_per_req -> delta-wire (pair-wire)"},
	{"hybrid.schedule_us", "us", "none gated: the set path (pair-wire, delta-wire)"},
	{"hybrid.batches_mean", "count", "rounds_over_width, units_per_comm -> all"},
	{"hybrid.residual_share", "ratio", "rounds_over_width, units_per_comm -> all"},
	{"hybrid.coloring_share", "ratio", "rounds_over_width, units_per_comm -> all"},
	{"hybrid.exhausted_share", "ratio", "rounds_over_width, units_per_comm -> all"},
	{"delta.fallback_share", "ratio", "p50_ms, cpu_us_per_req -> delta-wire"},
	{"proc.allocs_per_req", "count", "cpu_us_per_req -> all; about 0 on pair-wire (the 0-alloc pin)"},
	{"proc.alloc_bytes_per_req", "bytes", "cpu_us_per_req -> all"},
	{"proc.gc_per_kreq", "count", "cpu_us_per_req -> all"},
	{"proc.ctxsw_per_req", "count", "cpu_us_per_req -> all"},
	{"loadgen.late_max_ms", "ms", "none: run validity"},
	{"loadgen.cpu_us_per_req", "us", "none: run validity"},
	{"p99_ms", "ms", "none: run validity"},
	{"samples", "count", "none: run validity"},
	{"trace.overhead", "ratio", "none: run validity (traced over untraced cpu_us_per_req)"},
	{"host.steal_share", "ratio", "none: run validity (share of the machine's CPU time the hypervisor took in the window)"},
}
