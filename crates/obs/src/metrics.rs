//! The process-wide metrics registry: named counters, gauges and
//! fixed-bucket histograms, all backed by atomics.
//!
//! Handles are `&'static` references obtained once (hot call sites cache
//! them in a `OnceLock`); recording is a single relaxed atomic RMW, so the
//! registry is safe to leave compiled into release binaries. Metric names
//! are dot-separated `subsystem.metric` strings (see the crate docs for the
//! naming scheme); the export order is always lexicographic, which is what
//! makes the JSON export deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-written-wins (or running-max) instantaneous value.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A histogram over fixed bucket bounds.
///
/// `bounds` are inclusive upper edges; an implicit overflow bucket catches
/// everything above the last bound, so `counts()` has `bounds().len() + 1`
/// entries. Bounds are fixed at registration (first caller wins), keeping
/// the export schema deterministic.
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// A point-in-time copy of a histogram, used by the exporters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket edges.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (one extra overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// A consistent-enough copy for reporting (relaxed reads).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            count: counts.iter().sum(),
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Power-of-two bucket edges `1, 2, 4, …, 2^19` — a good default for counts
/// of iterations, nodes or candidates.
pub const EXP2_BUCKETS: [u64; 20] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288,
];

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        histograms: BTreeMap::new(),
    });
    &REGISTRY
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// The counter registered under `name` (registering it on first use).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut r = lock();
    r.counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::default())))
}

/// The gauge registered under `name` (registering it on first use).
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut r = lock();
    r.gauges
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::default())))
}

/// The histogram registered under `name`. The first caller's `bounds` win;
/// later registrations under the same name reuse the existing buckets.
pub fn histogram(name: &'static str, bounds: &[u64]) -> &'static Histogram {
    let mut r = lock();
    r.histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(bounds))))
}

/// All counters, lexicographically by name.
pub fn counter_values() -> BTreeMap<&'static str, u64> {
    lock().counters.iter().map(|(n, c)| (*n, c.get())).collect()
}

/// All gauges, lexicographically by name.
pub fn gauge_values() -> BTreeMap<&'static str, u64> {
    lock().gauges.iter().map(|(n, g)| (*n, g.get())).collect()
}

/// All histograms, lexicographically by name.
pub fn histogram_values() -> BTreeMap<&'static str, HistogramSnapshot> {
    lock()
        .histograms
        .iter()
        .map(|(n, h)| (*n, h.snapshot()))
        .collect()
}

/// Zeroes every registered metric (names stay registered). Intended for
/// tests and for the bench harness to scope metrics to one measured region.
pub fn reset_metrics() {
    let r = lock();
    for c in r.counters.values() {
        c.reset();
    }
    for g in r.gauges.values() {
        g.reset();
    }
    for h in r.histograms.values() {
        h.reset();
    }
}

/// The canonical metric set every instrumented subsystem reports into.
/// Pre-registering it pins the export schema: `export_json` then always
/// carries the same keys (zero-valued when a subsystem never ran), so
/// exports from different commands and runs are directly diffable.
pub fn register_default_metrics() {
    const COUNTERS: &[&str] = &[
        "bdd.gc_runs",
        "bdd.ite_cache_hits",
        "bdd.ite_cache_misses",
        "bdd.managers",
        "bdd.nodes_created",
        "bdd.nodes_reclaimed",
        "bdd.ops",
        "bdd.shared_imports",
        "bdd.unique_hits",
        "bdd.unique_misses",
        "isis.conditioned_sessions",
        "isis.spf_runs",
        "obs.events_dropped",
        "obs.warnings",
        "propagate.delivered",
        "propagate.dropped_impossible",
        "propagate.dropped_over_k",
        "propagate.dropped_policy",
        "propagate.runs",
        "propagate.steps",
        "racing.checks",
        "racing.flood_capped",
        "racing.slow_path",
        "sat.conflicts",
        "sat.decisions",
        "sat.propagations",
        "sat.restarts",
        "sat.solves",
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.rejected",
        "serve.requests",
        "serve.reverify_dirty",
        "tuner.checks",
        "tuner.localization_candidates",
        "tuner.mismatches",
        "verify.classes",
        "verify.equiv_families_skipped",
        "verify.families",
        "verify.families_over_budget",
        "verify.families_quarantined",
        "verify.families_recomputed",
        "verify.families_reused",
        "verify.prefixes",
        "verify.queries",
        "verify.shared_base_ops",
    ];
    const GAUGES: &[&str] = &[
        "bdd.peak_nodes",
        "bdd.shared_base_nodes",
        "propagate.max_formula_len",
        "verify.fanout_families",
        "verify.fanout_threads",
        "verify.sweep_delivered",
        "verify.sweep_dropped",
        "verify.sweep_max_formula_len",
    ];
    for &name in COUNTERS {
        counter(name);
    }
    for &name in GAUGES {
        gauge(name);
    }
    histogram("propagate.steps_per_run", &EXP2_BUCKETS);
}

/// Caches a metric handle at the call site so the registry lock is taken
/// once per process, not once per record:
///
/// ```
/// let waves = hoyan_obs::metric!(counter "propagate.waves");
/// waves.inc();
/// hoyan_obs::metric!(gauge "bdd.peak_nodes").record_max(42);
/// hoyan_obs::metric!(histogram "propagate.steps_per_run").observe(7);
/// ```
#[macro_export]
macro_rules! metric {
    (counter $name:literal) => {{
        static H: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *H.get_or_init(|| $crate::counter($name))
    }};
    (gauge $name:literal) => {{
        static H: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *H.get_or_init(|| $crate::gauge($name))
    }};
    (histogram $name:literal) => {{
        static H: ::std::sync::OnceLock<&'static $crate::Histogram> = ::std::sync::OnceLock::new();
        *H.get_or_init(|| $crate::histogram($name, &$crate::EXP2_BUCKETS))
    }};
    (histogram $name:literal, $bounds:expr) => {{
        static H: ::std::sync::OnceLock<&'static $crate::Histogram> = ::std::sync::OnceLock::new();
        *H.get_or_init(|| $crate::histogram($name, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("test.metrics.counter");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        assert!(
            std::ptr::eq(c, counter("test.metrics.counter")),
            "same handle"
        );
        let g = gauge("test.metrics.gauge");
        g.set(7);
        g.record_max(3); // lower: no change
        assert_eq!(g.get(), 7);
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper_edge() {
        let h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        // <=1: {0,1}; <=4: {2,4}; <=16: {5,16}; overflow: {17,1000}.
        assert_eq!(s.counts, vec![2, 2, 2, 2]);
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1045);
        assert_eq!(s.bounds, vec![1, 4, 16]);
    }

    #[test]
    fn histogram_extremes_land_in_edge_buckets() {
        let h = Histogram::new(&EXP2_BUCKETS);
        h.observe(0);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1);
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert_eq!(s.counts.len(), EXP2_BUCKETS.len() + 1);
    }

    #[test]
    fn snapshots_are_sorted_by_name() {
        counter("test.metrics.zz").inc();
        counter("test.metrics.aa").inc();
        let names: Vec<&str> = counter_values().keys().copied().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
