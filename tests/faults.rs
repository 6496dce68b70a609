//! Fault-tolerant sweep semantics: per-family quarantine, deterministic
//! resource budgets, and the seeded fault-injection harness.
//!
//! The load-bearing claim is *thread-count invariance*: with a fault plan
//! armed, the quarantined set, the surviving reports and the counter deltas
//! (including the new `verify.families_quarantined` /
//! `verify.families_over_budget` pins) must be byte-identical at 1, 2 and 8
//! worker threads. Fault injection is process-global state, so every test
//! that arms a plan serializes on [`LOCK`] and clears the plan before
//! releasing it.

use std::collections::BTreeMap;
use std::sync::Mutex;

use hoyan::config::ConfigSnapshot;
use hoyan::core::{
    DirtyReason, FamilyBudget, FamilyOutcome, PrefixReport, SimError, SweepOptions, Verifier,
};
use hoyan::device::VsbProfile;
use hoyan::rt::fault::{self, FaultKind, FaultPlan};
use hoyan::topogen::WanSpec;

/// Fault plans are process-global; serialize the tests that arm them.
static LOCK: Mutex<()> = Mutex::new(());

const K: u32 = 1;

fn verifier() -> Verifier {
    let wan = WanSpec::tiny(9).build();
    Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3)).unwrap()
}

/// Everything in a report except the wall-clock timings, rendered to an
/// owned string so snapshots from different runs can be compared.
fn stable_view(r: &PrefixReport) -> String {
    format!(
        "{:?}",
        (
            r.prefix,
            r.stats,
            r.max_cond_len,
            r.max_reach_formula_len,
            &r.scope,
            &r.fragile,
            r.family_head,
        )
    )
}

/// `after - before`, per counter (new counters count from zero).
fn counter_deltas(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn quarantine_is_thread_count_invariant() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // One family of each failure mode: an injected error, injected budget
    // exhaustion (routed through the real op-budget machinery), and a panic
    // caught by the worker's `catch_unwind`.
    fault::install(
        FaultPlan::new()
            .at("verify.family", &[1], FaultKind::Error)
            .at("verify.family", &[2], FaultKind::OverBudget)
            .at("verify.family", &[3], FaultKind::Panic),
    );
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let v = verifier();
        let n = v.families().len();
        assert!(n >= 4, "need >= 4 families to plant 3 faults, got {n}");
        let before = hoyan::obs::counter_values();
        let swept = v.verify_all_routes(K, threads).unwrap();
        let deltas = counter_deltas(&before, &hoyan::obs::counter_values());
        assert_eq!(swept.quarantined.len(), 3, "threads={threads}");
        assert_eq!(deltas["verify.families_quarantined"], 3);
        assert_eq!(deltas["verify.families_over_budget"], 1);
        assert_eq!(deltas["verify.families"], (n - 3) as u64);
        let quarantined: Vec<String> = swept
            .quarantined
            .iter()
            .map(|q| format!("{}:{:?}:{}", q.index, q.prefixes, q.outcome))
            .collect();
        let reports: Vec<String> = swept.reports.iter().map(stable_view).collect();
        snapshots.push((threads, quarantined, reports, deltas));
    }
    fault::clear();
    let (_, q1, r1, d1) = &snapshots[0];
    for (threads, q, r, d) in &snapshots[1..] {
        assert_eq!(q, q1, "quarantined set differs at threads={threads}");
        assert_eq!(r, r1, "reports differ at threads={threads}");
        assert_eq!(d, d1, "counter deltas differ at threads={threads}");
    }
    // The panic was quarantined with its payload message, not re-thrown.
    let (_, q, _, _) = &snapshots[0];
    assert!(
        q.iter().any(|s| s.contains("injected fault: panic")),
        "panic payload should be captured: {q:?}"
    );
}

#[test]
fn fail_fast_surfaces_the_lowest_failing_index() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Two planted failures: whichever worker trips first, the surfaced
    // error must belong to family 0 — at any thread count.
    fault::install(FaultPlan::new().at("verify.family", &[0, 1], FaultKind::Error));
    let opts = SweepOptions {
        fail_fast: true,
        ..SweepOptions::default()
    };
    for threads in [1usize, 2, 8] {
        let err = verifier()
            .verify_all_routes_opts(K, threads, &opts)
            .unwrap_err();
        match err {
            SimError::Injected { site, index } => {
                assert_eq!((site, index), ("verify.family", 0), "threads={threads}");
            }
            other => panic!("expected the injected error, got {other}"),
        }
    }
    // A single late failure aborts too (today's pre-quarantine behavior).
    fault::install(FaultPlan::new().at("verify.family", &[2], FaultKind::Error));
    let err = verifier().verify_all_routes_opts(K, 2, &opts).unwrap_err();
    assert!(matches!(err, SimError::Injected { index: 2, .. }), "{err}");
    fault::clear();
}

/// `tiny` with each PE's leaves in /22 blocks: every PE's unpinned blocks
/// are twins, so they form one behaviour class simulated once.
fn class_verifier() -> Verifier {
    let wan = WanSpec {
        block_prefixes: 4,
        prefixes_per_pe: 12,
        ..WanSpec::tiny(9)
    }
    .build();
    Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3)).unwrap()
}

/// Indices of the first PE's second and third /22 blocks: a representative
/// and a member of one class.
fn class_pair(v: &Verifier) -> (usize, usize) {
    let index = |root: &str| {
        v.families()
            .iter()
            .position(|f| f[0].to_string() == root)
            .unwrap()
    };
    (index("10.0.4.0/22"), index("10.0.8.0/22"))
}

#[test]
fn a_fault_on_a_class_member_quarantines_only_that_member() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let (rep, member) = class_pair(&class_verifier());
    assert!(rep < member);
    let clean = class_verifier().verify_all_routes(K, 2).unwrap().reports;

    fault::install(FaultPlan::new().at("verify.family", &[member as u64], FaultKind::Error));
    let fail_fast = SweepOptions {
        fail_fast: true,
        ..SweepOptions::default()
    };
    for threads in [1usize, 2, 8] {
        let v = class_verifier();
        let swept = v.verify_all_routes(K, threads).unwrap();
        let q: Vec<usize> = swept.quarantined.iter().map(|q| q.index).collect();
        assert_eq!(q, vec![member], "threads={threads}");
        // Everyone else — the representative and the other members —
        // reports exactly what the fault-free sweep did.
        let lost = &v.families()[member];
        let want: Vec<String> = clean
            .iter()
            .filter(|r| !lost.contains(&r.prefix))
            .map(stable_view)
            .collect();
        let got: Vec<String> = swept.reports.iter().map(stable_view).collect();
        assert_eq!(got, want, "threads={threads}");

        let err = v
            .verify_all_routes_opts(K, threads, &fail_fast)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Injected { index, .. } if index == member as u64),
            "threads={threads}: {err}"
        );
    }
    fault::clear();
}

#[test]
fn a_failed_representative_quarantines_its_whole_class() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let v = class_verifier();
    let (rep, member) = class_pair(&v);
    fault::install(FaultPlan::new().at("verify.family", &[rep as u64], FaultKind::OverBudget));
    let swept = v.verify_all_routes(K, 2).unwrap();
    fault::clear();
    let outcome = |i: usize| {
        swept
            .quarantined
            .iter()
            .find(|q| q.index == i)
            .unwrap_or_else(|| panic!("family {i} not quarantined"))
    };
    assert!(matches!(
        outcome(rep).outcome,
        FamilyOutcome::OverBudget { .. }
    ));
    assert_eq!(outcome(member).outcome, outcome(rep).outcome, "same error");
    assert!(
        outcome(rep).cost.ops > 0,
        "the representative carries the bill"
    );
    assert_eq!(outcome(member).cost, Default::default());
}

#[test]
fn fail_fast_resumes_a_worker_panic() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::install(FaultPlan::new().at("verify.family", &[1], FaultKind::Panic));
    let opts = SweepOptions {
        fail_fast: true,
        ..SweepOptions::default()
    };
    let outcome = std::panic::catch_unwind(|| {
        let _ = verifier().verify_all_routes_opts(K, 2, &opts);
    });
    fault::clear();
    let payload = outcome.expect_err("fail-fast must re-raise the worker panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("injected fault: panic"), "payload: {msg}");
}

#[test]
fn op_budget_quarantines_deterministically() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    // An absurdly small op cap: every family blows it, through the same
    // operation-counted check the injected OverBudget fault uses.
    let opts = SweepOptions {
        fail_fast: false,
        budget: FamilyBudget {
            max_ite_ops: Some(1),
            ..FamilyBudget::default()
        },
    };
    let mut snapshots = Vec::new();
    for threads in [1usize, 8] {
        let v = verifier();
        let n = v.families().len();
        let before = hoyan::obs::counter_values();
        let swept = v.verify_all_routes_opts(K, threads, &opts).unwrap();
        let deltas = counter_deltas(&before, &hoyan::obs::counter_values());
        assert_eq!(swept.quarantined.len(), n, "threads={threads}");
        assert!(swept.reports.is_empty());
        assert!(swept
            .quarantined
            .iter()
            .all(|q| matches!(q.outcome, FamilyOutcome::OverBudget { .. })));
        assert_eq!(deltas["verify.families_over_budget"], n as u64);
        assert_eq!(deltas["verify.families_quarantined"], n as u64);
        let q: Vec<String> = swept
            .quarantined
            .iter()
            .map(|q| format!("{}:{:?}:{}", q.index, q.prefixes, q.outcome))
            .collect();
        snapshots.push((q, deltas));
    }
    assert_eq!(snapshots[0], snapshots[1]);
}

#[test]
fn node_budget_trips_on_tiny_caps() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let opts = SweepOptions {
        fail_fast: false,
        budget: FamilyBudget {
            max_live_nodes: Some(1),
            ..FamilyBudget::default()
        },
    };
    let swept = verifier().verify_all_routes_opts(K, 2, &opts).unwrap();
    assert!(
        !swept.quarantined.is_empty(),
        "a 1-node arena cap must trip on real families"
    );
    assert!(swept
        .quarantined
        .iter()
        .all(|q| matches!(q.outcome, FamilyOutcome::OverBudget { .. })));
}

#[test]
fn reverify_retries_quarantined_families() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let wan = WanSpec::tiny(9).build();
    let snap = ConfigSnapshot::new(wan.configs.clone());
    let delta = snap.diff(&snap);
    assert!(delta.is_empty());

    // Baseline sweep with one family quarantined: it must be missing from
    // the cache, not cached-as-failed.
    fault::install(FaultPlan::new().at("verify.family", &[1], FaultKind::Error));
    let v = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let n = v.families().len();
    let (base, cache) = v.verify_all_routes_cached(K, 2).unwrap();
    fault::clear();
    assert_eq!(base.quarantined.len(), 1);
    assert_eq!(cache.len(), n - 1, "quarantined family must not be cached");

    // Healthy re-verify over an *empty* delta: the quarantined family is
    // the only dirty one, and the merged output matches a fresh sweep.
    let v2 = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let outcome = v2.reverify(&delta, &cache, K, 2).unwrap();
    assert_eq!(outcome.recomputed, 1, "exactly the quarantined family");
    assert_eq!(outcome.reused, n - 1);
    assert!(outcome.quarantined.is_empty());

    let fresh = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3))
        .unwrap()
        .verify_all_routes(K, 2)
        .unwrap();
    assert!(fresh.quarantined.is_empty());
    let a: Vec<String> = fresh.reports.iter().map(stable_view).collect();
    let b: Vec<String> = outcome.reports.iter().map(stable_view).collect();
    assert_eq!(a, b, "retried family must reproduce the fresh sweep");
}

/// Regression: a family classified *clean* whose cache entry has drifted
/// away (snapshot truncation, a buggy eviction — simulated here by the
/// `verify.cache_lookup` fault site) used to panic the whole reverify with
/// "clean family must be cached". It must instead demote the family to
/// [`DirtyReason::NotCached`] and re-simulate it like any other dirty
/// family.
#[test]
fn clean_family_missing_from_cache_is_recomputed_not_a_panic() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let wan = WanSpec::tiny(9).build();
    let snap = ConfigSnapshot::new(wan.configs.clone());
    let delta = snap.diff(&snap);
    assert!(delta.is_empty(), "empty delta: every family classifies clean");

    let v = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let n = v.families().len();
    let (base, cache) = v.verify_all_routes_cached(K, 2).unwrap();
    assert!(base.quarantined.is_empty());
    assert_eq!(cache.len(), n, "healthy baseline caches every family");

    // The cache lookup for clean family 1 comes back empty.
    fault::install(FaultPlan::new().at("verify.cache_lookup", &[1], FaultKind::Error));
    let v2 = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let outcome = v2.reverify(&delta, &cache, K, 2).unwrap();
    fault::clear();

    assert_eq!(outcome.recomputed, 1, "exactly the evicted family");
    assert_eq!(outcome.reused, n - 1);
    assert!(outcome.quarantined.is_empty());
    let demoted: Vec<_> = outcome
        .classifications
        .iter()
        .filter(|(_, reason)| *reason == Some(DirtyReason::NotCached))
        .collect();
    assert_eq!(demoted.len(), 1, "family 1 must be demoted to NotCached");
    // The recomputed family lands back in the refreshed cache…
    assert_eq!(outcome.cache.len(), n);
    // …and the merged reports match a fresh sweep exactly.
    let fresh = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3))
        .unwrap()
        .verify_all_routes(K, 2)
        .unwrap();
    let a: Vec<String> = fresh.reports.iter().map(stable_view).collect();
    let b: Vec<String> = outcome.reports.iter().map(stable_view).collect();
    assert_eq!(a, b, "drift recovery must reproduce the fresh sweep");
}

#[test]
fn unknown_devices_are_errors_not_panics() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let wan = WanSpec::tiny(9).build();
    let prefix = wan.customer_prefixes[0];
    let v = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3)).unwrap();
    match v.route_reachability(prefix, "NO-SUCH-ROUTER", K) {
        Err(SimError::UnknownDevice(d)) => assert_eq!(d, "NO-SUCH-ROUTER"),
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
    match v.router_failure_tolerance(prefix, "NO-SUCH-ROUTER") {
        Err(SimError::UnknownDevice(_)) => {}
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
    match v.role_equivalence("NO-SUCH-ROUTER", "CR1x0") {
        Err(SimError::UnknownDevice(_)) => {}
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
}
