package main

// metricDef names one reported metric and its unit, as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run.
var endToEndMetrics = []metricDef{
	{"points_per_s", "1/s"}, {"ack_p50_ms", "ms"}, {"hoprun_ack_p50_ms", "ms"},
	{"event_lag_p50_ms", "ms"}, {"rss_peak_mb", "MB"}, {"setup_s", "s"}, {"recovery_s", "s"},
}

// perLayerMetrics are printed by every traced run.
var perLayerMetrics = []metricDef{
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.requests", "count"}, {"loadgen.ack_p99_ms", "ms"},
	{"egiserve.request_us_p50", "us"}, {"egiserve.self_us_p50", "us"},
	{"egiserve.rejected", "count"}, {"egiserve.sse_events", "count"},
	{"router.push_us_p50", "us"}, {"router.self_us_p50", "us"}, {"router.lookups", "count"},
	{"manager.push_us_p50", "us"}, {"manager.self_us_p50", "us"},
	{"manager.checkpoints", "count"}, {"manager.checkpoint_ms_p50", "ms"},
	{"manager.events_published", "count"}, {"manager.bytes_per_stream", "bytes"}, {"manager.degraded", "count"},
	{"wal.append_us_p50", "us"}, {"wal.bytes_per_point", "bytes"}, {"wal.snapshot_ms_p50", "ms"},
	{"wal.recover_ms_per_stream", "ms"}, {"wal.fsync_ms_p50", "ms"},
	{"stream.hop_runs", "count"}, {"stream.hop_run_ms_p50", "ms"}, {"stream.hop_run_ms_p99", "ms"},
	{"stream.push_ns_per_point", "ns"}, {"stream.bytes_per_stream", "bytes"},
	{"stream.snapshot_bytes", "bytes"}, {"stream.restore_ms", "ms"}, {"stream.events", "count"},
	{"sax.encode_ms", "ms"}, {"sequitur.induce_ms", "ms"}, {"grammar.density_ms", "ms"},
	{"core.combine_ms", "ms"}, {"core.detect_ms", "ms"}, {"core.stage_gap_pct", "%"},
	{"core.detect_ms_par1", "ms"}, {"sequitur.builder_ns_per_word", "ns"},
	{"go.allocs_per_point", "count"}, {"go.alloc_bytes_per_point", "bytes"}, {"go.gc_cycles", "count"},
	{"ledger.gap_pct", "%"},
}
