//! The metric names `lormbench` emits, with their units. `BENCHMARK.json`
//! lists the same names (a test keeps the two in step) and adds the
//! direction and bound of each end-to-end metric.

/// Throughput metric of each system, in `System::ALL` order.
pub const OPS_PER_S: [&str; 4] =
    ["lorm_ops_per_s", "mercury_ops_per_s", "sword_ops_per_s", "maan_ops_per_s"];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    (OPS_PER_S[0], "ops/s"),
    (OPS_PER_S[1], "ops/s"),
    (OPS_PER_S[2], "ops/s"),
    (OPS_PER_S[3], "ops/s"),
    ("answered_share", "ratio"),
    ("heap_peak_mb", "MB"),
];

/// Is a per-layer metric a simulated count (repeats bit for bit, must be
/// identical between two runs of one commit) or a host time?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Derived from simulated counts only.
    Count,
    /// Derived from wall-clock time.
    Time,
}

/// Metric-name prefix of each system, in `System::ALL` order.
pub const SYSTEM_PREFIX: [&str; 4] =
    ["core.lorm_", "baselines.mercury_", "baselines.sword_", "baselines.maan_"];

/// Per-system metrics: `(suffix, unit, kind)`; the last five are measured
/// on `churn_mix` only.
pub const PER_SYSTEM: [(&str, &str, Kind); 10] = [
    ("hops_per_op", "count", Kind::Count),
    ("lookups_per_op", "count", Kind::Count),
    ("visited_per_op", "count", Kind::Count),
    ("pieces_per_op", "count", Kind::Count),
    ("direct_us_per_op", "us", Kind::Time),
    ("place_all_ms", "ms", Kind::Time),
    ("stabilize_ms", "ms", Kind::Time),
    ("join_us", "us", Kind::Time),
    ("leave_us", "us", Kind::Time),
    ("register_us", "us", Kind::Time),
];

/// Per-layer metrics that are not per-system: `(name, unit, kind)`.
pub const PER_LAYER_SHARED: [(&str, &str, Kind); 46] = [
    ("sim.workload_gen_ms", "ms", Kind::Time),
    ("sim.build_lorm_ms", "ms", Kind::Time),
    ("sim.build_mercury_ms", "ms", Kind::Time),
    ("sim.build_sword_ms", "ms", Kind::Time),
    ("sim.build_maan_ms", "ms", Kind::Time),
    ("sim.bed_clone_ms", "ms", Kind::Time),
    ("sim.executor_overhead_share", "ratio", Kind::Time),
    ("sim.shards2_speedup", "ratio", Kind::Time),
    ("baselines.walk_ns_per_step", "ns", Kind::Time),
    ("baselines.walk_steps_per_op", "count", Kind::Count),
    ("chord.route_ns", "ns", Kind::Time),
    ("chord.hops_per_route", "count", Kind::Count),
    ("chord.route_share", "ratio", Kind::Time),
    ("chord.build_ns_per_node", "ns", Kind::Time),
    ("chord.bytes_per_node", "B", Kind::Count),
    ("chord.rebuild_all_state_ms", "ms", Kind::Time),
    ("chord.stabilize_all_ms", "ms", Kind::Time),
    ("cycloid.route_ns", "ns", Kind::Time),
    ("cycloid.hops_per_route", "count", Kind::Count),
    ("cycloid.route_share", "ratio", Kind::Time),
    ("cycloid.cluster_walk_ns_per_step", "ns", Kind::Time),
    ("cycloid.build_ns_per_node", "ns", Kind::Time),
    ("cycloid.bytes_per_node", "B", Kind::Count),
    ("cycloid.rebuild_all_links_ms", "ms", Kind::Time),
    ("resource.directory_match_ns", "ns", Kind::Time),
    ("resource.directory_probes_per_op", "count", Kind::Count),
    ("resource.directory_share", "ratio", Kind::Time),
    ("resource.bulk_load_ms", "ms", Kind::Time),
    ("resource.intersect_ns", "ns", Kind::Time),
    ("resource.plan_order_ns", "ns", Kind::Time),
    ("resource.estimate_ns", "ns", Kind::Time),
    ("resource.planner_share", "ratio", Kind::Time),
    ("resource.pieces_useful_ratio", "ratio", Kind::Count),
    ("resource.adaptive_pieces_ratio", "ratio", Kind::Count),
    ("resource.query_gen_ns", "ns", Kind::Time),
    ("dht-core.cache_route_hit_rate", "ratio", Kind::Count),
    ("dht-core.cache_walk_hit_rate", "ratio", Kind::Count),
    ("dht-core.cache_speedup", "ratio", Kind::Time),
    ("dht-core.summary_merge_ns", "ns", Kind::Time),
    ("dht-core.fault_route_ns", "ns", Kind::Time),
    ("dht-core.fault_retries_per_route", "count", Kind::Count),
    ("trace.residual_share_lorm", "ratio", Kind::Time),
    ("trace.residual_share_mercury", "ratio", Kind::Time),
    ("trace.residual_share_sword", "ratio", Kind::Time),
    ("trace.residual_share_maan", "ratio", Kind::Time),
    ("trace.overhead_share", "ratio", Kind::Time),
];

/// Every per-layer metric as `(name, unit, kind)`: the 40 per-system
/// names, then the shared ones.
pub fn per_layer() -> Vec<(String, &'static str, Kind)> {
    let mut all = Vec::with_capacity(86);
    for prefix in SYSTEM_PREFIX {
        for (suffix, unit, kind) in PER_SYSTEM {
            all.push((format!("{prefix}{suffix}"), unit, kind));
        }
    }
    all.extend(PER_LAYER_SHARED.iter().map(|&(n, u, k)| (n.to_owned(), u, k)));
    all
}

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The reported number (a median where repetitions exist).
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Count or time, for a per-layer metric.
    pub kind: Option<Kind>,
    /// The repetitions behind `value`, when there are several.
    pub samples: Vec<f64>,
    /// How well the repetitions pin `value` down, as a share of it: the
    /// gap between the two fastest repetitions for a best-of-n time, the
    /// interquartile range for a median; 0 without repetitions.
    pub noise: f64,
}
