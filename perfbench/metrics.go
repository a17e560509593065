package main

// metricDef names one metric and its unit. BENCHMARK.json lists the
// same names; the self-test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndMetrics is what every untraced run reports.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{"setup_s", "s"},
		{"ingest_melem_per_s", "Melem/s"},
		{"ingest_p99_us", "us"},
		{"query_p50_us", "us"},
		{"query_p90_us", "us"},
		{"checkpoint_save_ms", "ms"},
		{"recover_ms", "ms"},
		{"space_kib", "KiB"},
		{"peak_rss_mib", "MiB"},
	}
}

// perLayerMetrics is what every traced run reports; a workload that
// bypasses a layer reports its metrics as 0.
func perLayerMetrics() []metricDef {
	ms := []metricDef{
		{"sharded.writer.calls", "count"},
		{"sharded.writer.buffer_busy_s", "s"},
		{"sharded.writer.flush_busy_s", "s"},
		{"sharded.writer.flush_p99_us", "us"},
		{"sharded.query.calls", "count"},
		{"sharded.query.busy_s", "s"},
		{"sharded.query.p99_us", "us"},
		{"sharded.query.rank_err_ratio", "ratio"},
		{"sharded.elastic.reshard_ms", "ms"},
		{"sharded.elastic.reshard_self_ms", "ms"},
		{"sharded.elastic.drains", "count"},
		{"sharded.elastic.drain_max_ms", "ms"},
		{"sharded.codec.marshal_ms", "ms"},
		{"sharded.codec.marshal_self_ms", "ms"},
		{"sharded.codec.marshal_shard_max_ms", "ms"},
		{"sharded.codec.blob_kib", "KiB"},
		{"checkpoint.write_ms", "ms"},
		{"checkpoint.decode_ms", "ms"},
		{"checkpoint.read_verify_ms", "ms"},
	}
	for _, m := range roster {
		ms = append(ms, metricDef{m.layer + ".update_ns_per_elem", "ns"})
		ms = append(ms, summaryMetrics(m.layer)...)
	}
	ms = append(ms, summaryMetrics(postLayer)...)
	return append(ms,
		metricDef{"runtime.mutex_wait_s", "s"},
		metricDef{"runtime.alloc_mib", "MiB"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.sched_p99_us", "us"},
		metricDef{"driver.late_p99_ms", "ms"},
		metricDef{"driver.ticks", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// summaryMetrics are the paper's query, space and accuracy measurements
// of one roster summary.
func summaryMetrics(layer string) []metricDef {
	return []metricDef{
		{layer + ".query_rebuild_us", "us"},
		{layer + ".query_hit_us", "us"},
		{layer + ".space_kib", "KiB"},
		{layer + ".rank_err_ratio", "ratio"},
	}
}
