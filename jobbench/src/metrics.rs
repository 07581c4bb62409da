//! The benchmark's metric catalogue: names and units, in the order the
//! result line reports them.  `BENCHMARK.json` at the repository root lists
//! the same names (a test keeps the two in step).

/// End-to-end metrics, reported by every workload in an untraced run.
/// An operation is one statement (job-exec, serve-mix) or one
/// CSV-directory-to-saved-snapshot ingest (ingest).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("ops_per_s", "1/s"), ("op_geomean_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload in a traced run.  A layer
/// a workload does not exercise reads 0.  Per-pass figures are per pass of
/// the 113 statements; per-cycle figures per ingest cycle.
pub const PER_LAYER: &[(&str, &str)] = &[
    // qob-storage / qob-stats
    ("storage.snapshot_load_ms", "ms"),
    ("storage.snapshot_bytes", "bytes"),
    ("storage.encoded_bytes", "bytes"),
    ("storage.plain_bytes", "bytes"),
    ("storage.csv_ingest_ms", "ms"),
    ("storage.index_build_ms", "ms"),
    ("storage.snapshot_save_ms", "ms"),
    ("storage.stored_bytes_ratio", "ratio"),
    ("stats.analyze_ms", "ms"),
    // qob-workload / qob-sql
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    // qob-cache
    ("cache.fingerprint_us", "us"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.fence_rejections", "count"),
    // optimizer: qob-cardest / qob-cost / qob-enumerate
    ("optimize.total_ms", "ms"),
    ("optimize.p50_ms", "ms"),
    ("optimize.max_ms", "ms"),
    ("optimize.plan_cost_ratio", "ratio"),
    ("cardest.estimate_calls", "count"),
    ("cardest.estimate_ms", "ms"),
    ("cost.calls", "count"),
    ("cost.ms", "ms"),
    ("enumerate.self_ms", "ms"),
    // qob-exec
    ("exec.execute_ms", "ms"),
    ("exec.operator_busy_ms", "ms"),
    ("exec.parallelism", "ratio"),
    ("exec.morsels", "count"),
    ("exec.intermediate_rows", "count"),
    ("truecard.total_s", "s"),
    ("truecard.query_p50_ms", "ms"),
    ("truecard.query_max_ms", "ms"),
    ("truecard.subexpressions", "count"),
    ("sched.queue_wait_p99_ms", "ms"),
    ("sched.worker_utilization", "ratio"),
    // qob-core session
    ("session.unattributed_ms", "ms"),
    // qob-server
    ("server.parse_us", "us"),
    ("server.bind_us", "us"),
    ("server.optimize_us", "us"),
    ("server.queue_us", "us"),
    ("server.execute_us", "us"),
    ("wire.overhead_p50_ms", "ms"),
    ("wire.overhead_p95_ms", "ms"),
    ("wire.response_bytes", "bytes"),
    // qob-obs: what tracing costs, with both bases
    ("obs.tracing_overhead", "ratio"),
    ("obs.untraced_ops_per_s", "1/s"),
    ("obs.traced_ops_per_s", "1/s"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}
