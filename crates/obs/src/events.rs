//! The sweep flight recorder: a bounded, lock-cheap buffer of typed events
//! recorded per worker thread and merged deterministically at sweep end.
//!
//! Each worker appends [`Event`]s to a thread-local buffer — no lock, no
//! allocation beyond the buffer's amortized growth — and flushes it into the
//! process-wide log under a mutex once, when the worker exits (see
//! [`flush_thread_events`]). Events are keyed by *unit* (the family index a
//! sweep worker is currently running, installed with [`begin_unit`]) and
//! carry a per-unit sequence number, so [`events_snapshot`] can merge the
//! per-thread buffers into one deterministic timeline by sorting on
//! `(unit, kind rank, seq)` — the thread-join order never shows through.
//!
//! # Determinism contract
//!
//! With timing off (the default) every field of every event is a pure
//! function of the workload: unit ids, sequence numbers and kind payloads
//! (op counts, reclaimed nodes) count *work*. The merged timeline — and
//! everything rendered from it ([`crate::export_chrome_trace`],
//! [`crate::render_attribution`], the `family_cost` export section) — is
//! therefore byte-identical across thread counts. [`set_timing`] opts into
//! wall-clock timestamps and real worker ids, trading determinism for a
//! true parallel timeline.
//!
//! # Bounds and overhead
//!
//! Recording is **disabled by default**; a disarmed event site costs one
//! relaxed atomic load. Armed, a record is a thread-local `Vec` push. Each
//! unit may record at most [`MAX_EVENTS_PER_UNIT`] events; the excess is
//! dropped (newest-first, so the `FamilyStart` anchor always survives) and
//! counted in the `obs.events_dropped` counter. The bound is per *unit*,
//! not per thread, so the drop count is itself deterministic across thread
//! counts.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cap on recorded events per unit (family); the excess is dropped and
/// counted in `obs.events_dropped`.
pub const MAX_EVENTS_PER_UNIT: u32 = 4096;

/// Unit id meaning "no unit installed" — events recorded outside a sweep
/// (e.g. GC runs during model building) land here and sort first.
pub const UNATTRIBUTED_UNIT: u64 = u64::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TIMING: AtomicBool = AtomicBool::new(false);

/// Arms or disarms the flight recorder process-wide.
pub fn set_events_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is armed.
pub fn events_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opts into wall-clock timestamps on events and per-family wall time in
/// cost attribution (the CLI's `--timing`). Off by default so recorded
/// timelines stay deterministic.
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Whether wall-clock timing is on.
pub fn timing() -> bool {
    TIMING.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// What happened at one point of a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A worker claimed a family and is about to simulate it.
    FamilyStart,
    /// A family's simulation and queries finished (possibly in error).
    FamilyEnd {
        /// BDD solver steps the family burned.
        ops: u64,
        /// Peak live nodes above the shared base, terminals included.
        peak_nodes: u64,
    },
    /// A mark-and-sweep GC pass ran inside the family's arena.
    GcRun {
        /// Nodes reclaimed by the pass.
        reclaimed: u64,
    },
    /// A budget poll at a safe point found the family over its caps.
    BudgetBreach,
    /// The family was quarantined (fault, budget breach, or panic).
    Quarantined,
    /// A clean family was replayed from the incremental cache.
    CacheReuse,
}

impl EventKind {
    /// Stable name used by the trace export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::FamilyStart => "family-start",
            EventKind::FamilyEnd { .. } => "family-end",
            EventKind::GcRun { .. } => "gc",
            EventKind::BudgetBreach => "budget-breach",
            EventKind::Quarantined => "quarantined",
            EventKind::CacheReuse => "cache-reuse",
        }
    }

    /// Merge rank: within one unit, start sorts first, mid-flight events
    /// next (in recording order), end after them, and the post-join
    /// quarantine verdict last. Ranks let the main thread append verdict
    /// events without coordinating sequence numbers with the worker that
    /// ran the family.
    fn rank(&self) -> u8 {
        match self {
            EventKind::FamilyStart => 0,
            EventKind::GcRun { .. } | EventKind::BudgetBreach | EventKind::CacheReuse => 1,
            EventKind::FamilyEnd { .. } => 2,
            EventKind::Quarantined => 3,
        }
    }
}

/// One recorded flight-recorder event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The unit of work (family index) the event belongs to.
    pub unit: u64,
    /// Per-unit recording sequence number.
    pub seq: u32,
    /// Worker index that recorded the event (0 when never installed).
    pub worker: u32,
    /// Nanoseconds since the recorder epoch; 0 unless [`set_timing`] is on.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Default)]
struct Recorder {
    buf: Vec<Event>,
    unit: Option<u64>,
    unit_seq: u32,
    worker: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn global_events() -> &'static Mutex<Vec<Event>> {
    static GLOBAL: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    &GLOBAL
}

/// Installs this thread's worker index, stamped into subsequent events.
pub fn set_worker(worker: u32) {
    if !events_enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().worker = worker);
}

/// Installs the unit (family index) subsequent [`record`] calls on this
/// thread attribute to, and resets its sequence counter.
pub fn begin_unit(unit: u64) {
    if !events_enabled() {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.unit = Some(unit);
        r.unit_seq = 0;
    });
}

fn now_ns() -> u64 {
    if timing() {
        epoch().elapsed().as_nanos() as u64
    } else {
        0
    }
}

/// Records an event against this thread's current unit. Disarmed cost: one
/// relaxed atomic load.
pub fn record(kind: EventKind) {
    if !events_enabled() {
        return;
    }
    let t_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.unit_seq >= MAX_EVENTS_PER_UNIT {
            crate::counter("obs.events_dropped").inc();
            return;
        }
        let ev = Event {
            unit: r.unit.unwrap_or(UNATTRIBUTED_UNIT),
            seq: r.unit_seq,
            worker: r.worker,
            t_ns,
            kind,
        };
        r.unit_seq += 1;
        r.buf.push(ev);
    });
}

/// Records an event against an explicit unit without disturbing this
/// thread's current unit — used by the sweep's post-join passes (quarantine
/// verdicts, cache-reuse marks), whose events carry a rank that sorts after
/// anything the owning worker recorded.
pub fn record_for(unit: u64, kind: EventKind) {
    if !events_enabled() {
        return;
    }
    let t_ns = now_ns();
    RECORDER.with(|r| {
        r.borrow_mut().buf.push(Event {
            unit,
            seq: 0,
            worker: 0,
            t_ns,
            kind,
        });
    });
}

/// Merges this thread's buffered events into the global log. Worker threads
/// call this before exiting; [`events_snapshot`] flushes the calling thread
/// automatically.
pub fn flush_thread_events() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.buf.is_empty() {
            return;
        }
        let mut g = global_events().lock().unwrap_or_else(|p| p.into_inner());
        g.append(&mut r.buf);
    });
}

/// The merged event log, sorted into the canonical deterministic order:
/// `(unit, kind rank, seq)`. With timing off this is byte-stable across
/// thread counts; see the module docs.
pub fn events_snapshot() -> Vec<Event> {
    flush_thread_events();
    let mut out = global_events()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    out.sort_by_key(|e| (e.unit, e.kind.rank(), e.seq));
    out
}

/// Resource cost attributed to one unit of sweep work, as published by the
/// verifier. Plain data — safe to cache and compare across processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitCost {
    /// Family index within the swept family list.
    pub unit: u64,
    /// Human-readable family label (head prefix, `+n` for batched tails).
    pub label: String,
    /// BDD solver steps (the family's `bdd.ops` delta).
    pub ops: u64,
    /// Peak live BDD nodes above the shared base, terminals included.
    pub peak_nodes: u64,
    /// ITE operation-cache hits.
    pub ite_hits: u64,
    /// ITE operation-cache misses.
    pub ite_misses: u64,
    /// Mark-and-sweep GC passes inside the family's segment.
    pub gc_runs: u64,
    /// Wall time in nanoseconds; 0 unless [`set_timing`] is on.
    pub wall_ns: u64,
    /// Whether the family was quarantined (the cost is then partial: ops
    /// burned before the failure, not lost).
    pub quarantined: bool,
    /// Whether the cost was replayed from the incremental cache rather
    /// than recomputed.
    pub reused: bool,
}

impl UnitCost {
    /// ITE operation-cache hit rate in `[0, 1]`; 0 when the cache was
    /// never consulted.
    pub fn ite_hit_rate(&self) -> f64 {
        let total = self.ite_hits + self.ite_misses;
        if total == 0 {
            0.0
        } else {
            self.ite_hits as f64 / total as f64
        }
    }
}

fn global_costs() -> &'static Mutex<Vec<UnitCost>> {
    static GLOBAL: Mutex<Vec<UnitCost>> = Mutex::new(Vec::new());
    &GLOBAL
}

/// Publishes one unit's cost snapshot. No-op while the recorder is
/// disarmed.
pub fn record_unit_cost(cost: UnitCost) {
    if !events_enabled() {
        return;
    }
    global_costs()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(cost);
}

/// All published unit costs, sorted by `(unit, reused, label)` — the
/// canonical order the `family_cost` export section and the attribution
/// table render in.
pub fn unit_costs() -> Vec<UnitCost> {
    let mut out = global_costs()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    out.sort_by(|a, b| {
        (a.unit, a.reused, &a.label).cmp(&(b.unit, b.reused, &b.label))
    });
    out
}

/// Clears the event log and the published unit costs (test/bench scoping;
/// this thread's buffer is discarded too).
pub fn reset_events() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.buf.clear();
        r.unit = None;
        r.unit_seq = 0;
    });
    global_events()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
    global_costs()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
}

/// Serializes tests that touch the process-global event log and unit
/// costs (shared with the export-sink tests).
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_serial()
    }

    #[test]
    fn disarmed_recording_is_a_no_op() {
        let _s = serial();
        set_events_enabled(false);
        reset_events();
        begin_unit(7);
        record(EventKind::FamilyStart);
        record_unit_cost(UnitCost {
            unit: 7,
            label: "x".into(),
            ops: 1,
            peak_nodes: 1,
            ite_hits: 0,
            ite_misses: 0,
            gc_runs: 0,
            wall_ns: 0,
            quarantined: false,
            reused: false,
        });
        assert!(events_snapshot().is_empty());
        assert!(unit_costs().is_empty());
    }

    #[test]
    fn merge_order_is_thread_independent() {
        let _s = serial();
        set_events_enabled(true);
        reset_events();
        // Two workers, interleaved units; the snapshot must come back in
        // (unit, rank, seq) order regardless of which thread flushed first.
        std::thread::scope(|s| {
            for (w, units) in [(0u32, [1u64, 3]), (1u32, [2, 0])] {
                s.spawn(move || {
                    set_worker(w);
                    for u in units {
                        begin_unit(u);
                        record(EventKind::FamilyStart);
                        record(EventKind::GcRun { reclaimed: u });
                        record(EventKind::FamilyEnd {
                            ops: 10 * u,
                            peak_nodes: u,
                        });
                    }
                    flush_thread_events();
                });
            }
        });
        record_for(2, EventKind::Quarantined);
        let evs = events_snapshot();
        set_events_enabled(false);
        let key: Vec<(u64, &str)> = evs.iter().map(|e| (e.unit, e.kind.name())).collect();
        assert_eq!(
            key,
            vec![
                (0, "family-start"),
                (0, "gc"),
                (0, "family-end"),
                (1, "family-start"),
                (1, "gc"),
                (1, "family-end"),
                (2, "family-start"),
                (2, "gc"),
                (2, "family-end"),
                (2, "quarantined"),
                (3, "family-start"),
                (3, "gc"),
                (3, "family-end"),
            ]
        );
        // Timing off: logical timestamps only.
        assert!(evs.iter().all(|e| e.t_ns == 0));
    }

    #[test]
    fn per_unit_cap_drops_newest_and_counts() {
        let _s = serial();
        set_events_enabled(true);
        reset_events();
        let before = crate::counter("obs.events_dropped").get();
        begin_unit(9);
        record(EventKind::FamilyStart);
        for _ in 0..MAX_EVENTS_PER_UNIT + 5 {
            record(EventKind::BudgetBreach);
        }
        let evs = events_snapshot();
        set_events_enabled(false);
        let unit9: Vec<_> = evs.iter().filter(|e| e.unit == 9).collect();
        assert_eq!(unit9.len(), MAX_EVENTS_PER_UNIT as usize);
        assert_eq!(unit9[0].kind, EventKind::FamilyStart);
        assert_eq!(crate::counter("obs.events_dropped").get() - before, 6);
    }

    #[test]
    fn unit_costs_sort_by_unit() {
        let _s = serial();
        set_events_enabled(true);
        reset_events();
        for unit in [2u64, 0, 1] {
            record_unit_cost(UnitCost {
                unit,
                label: format!("u{unit}"),
                ops: unit * 10,
                peak_nodes: 1,
                ite_hits: 3,
                ite_misses: 1,
                gc_runs: 0,
                wall_ns: 0,
                quarantined: false,
                reused: false,
            });
        }
        let costs = unit_costs();
        set_events_enabled(false);
        assert_eq!(costs.iter().map(|c| c.unit).collect::<Vec<_>>(), [0, 1, 2]);
        assert!((costs[0].ite_hit_rate() - 0.75).abs() < 1e-9);
    }
}
