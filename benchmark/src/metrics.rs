//! The metric tables: every name the benchmark reports, with unit and
//! direction, and for end-to-end metrics the regression bound.
//! `../BENCHMARK.json` carries the same tables for the driver; a unit test
//! (`tests/contract.rs`) fails when the two drift apart.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word BENCHMARK.json uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Reported name.
    pub name: &'static str,
    /// Reported unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one of them; "the operation" is the workload's
/// own (README.md, "End-to-end metrics"): a fresh `hoyan sweep` process on
/// `batch-*`, a cache-hit `reach` on `serve-read`, a `whatif` push on
/// `serve-push`.
///
/// The timing bounds are the driver contract's cap, not ISSUE.md's 0.10:
/// the driver accepts a benchmark only when the ten-seed quartile distance
/// of every metric stays within its bound, and a bound is per metric, so it
/// covers the least steady workload (README.md, "Why the timing bounds are
/// 0.25", quotes the rule and gives the measurements).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("prefixes_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Single-layer numbers from the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    layer("run.threads", "count", Higher),
    // Demoted from the end-to-end table under its own name: the slowest of
    // 3-4 sweeps or pushes cannot hold a bound (README.md).
    layer("op_tail_ms", "ms", Lower),
    // config
    layer("config.load_s", "s", Lower),
    layer("config.parse_s", "s", Lower),
    layer("config.parse_lines_per_s", "1/s", Higher),
    layer("config.bytes", "B", Lower),
    layer("config.snapshot_s", "s", Lower),
    // core.network
    layer("network.build_s", "s", Lower),
    layer("network.devices", "count", Lower),
    layer("network.links", "count", Lower),
    layer("network.sessions", "count", Lower),
    // core.isis
    layer("isis.build_s", "s", Lower),
    layer("isis.bdd_ops", "count", Lower),
    layer("isis.ite_hit_rate", "ratio", Higher),
    layer("isis.spf_runs", "count", Lower),
    layer("isis.peak_nodes", "count", Lower),
    layer("isis.thread_s", "s", Lower),
    // core.verify / core.propagate: the sweep
    layer("sweep.wall_s", "s", Lower),
    layer("sweep.sim_thread_s", "s", Lower),
    layer("sweep.query_thread_s", "s", Lower),
    layer("sweep.shared_base_s", "s", Lower),
    layer("sweep.schedule_s", "s", Lower),
    layer("sweep.families", "count", Lower),
    layer("sweep.prefixes", "count", Higher),
    layer("sweep.propagate_steps", "count", Lower),
    layer("sweep.delivered", "count", Lower),
    layer("sweep.dropped_over_k", "count", Lower),
    layer("sweep.dropped_policy", "count", Lower),
    layer("sweep.sched_batches", "count", Lower),
    layer("sweep.quarantined", "count", Lower),
    // logic.bdd
    layer("sweep.bdd_ops", "count", Lower),
    layer("sweep.ite_hit_rate", "ratio", Higher),
    layer("sweep.gc_runs", "count", Lower),
    layer("sweep.peak_nodes", "count", Lower),
    layer("bdd.kernel_ops_per_s", "1/s", Higher),
    // report rendering / process
    layer("report.render_s", "s", Lower),
    layer("report.bytes", "B", Lower),
    layer("report.fragile_lines", "count", Lower),
    layer("pipeline.drop_s", "s", Lower),
    layer("pipeline.untraced_s", "s", Lower),
    layer("cli.verdict_s", "s", Lower),
    layer("cli.residual_s", "s", Lower),
    // core.serve, timed at the client
    layer("serve.bind_s", "s", Lower),
    layer("serve.hit_p50_us", "us", Lower),
    layer("serve.hit_p99_us", "us", Lower),
    layer("serve.miss_p50_ms", "ms", Lower),
    layer("serve.miss_p90_ms", "ms", Lower),
    layer("serve.equiv_p50_ms", "ms", Lower),
    layer("serve.stats_p50_us", "us", Lower),
    layer("serve.reach_during_push_p50_us", "us", Lower),
    layer("serve.reach_during_push_p99_us", "us", Lower),
    layer("serve.reach_during_push_max_ms", "ms", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.over_budget", "count", Lower),
    // core.snapshot: the push path, replayed in-process
    layer("push.parse_s", "s", Lower),
    layer("push.diff_s", "s", Lower),
    layer("push.model_s", "s", Lower),
    layer("push.isis_s", "s", Lower),
    layer("push.classify_s", "s", Lower),
    layer("push.reverify_s", "s", Lower),
    layer("push.local_s", "s", Lower),
    layer("push.families_recomputed", "count", Lower),
    layer("push.families_reused", "count", Higher),
    layer("push.wide_s", "s", Lower),
    layer("push.wide_recomputed", "count", Lower),
    layer("push.igp_s", "s", Lower),
    layer("push.igp_recomputed", "count", Lower),
    // tracing
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.sum_gap_share", "ratio", Lower),
];
