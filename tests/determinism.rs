//! Determinism regression: `verify_all_routes` must produce an identical
//! report list regardless of how many worker threads process the prefix
//! families. The implementation guarantees this by publishing each family's
//! reports atomically and sorting the final list by prefix; this test pins
//! the guarantee on a seeded topogen WAN.

use std::ops::ControlFlow;

use hoyan::core::{PrefixReport, StreamedFamily, SweepOptions, Verifier};
use hoyan::device::VsbProfile;
use hoyan::topogen::WanSpec;

/// Everything in a [`PrefixReport`] except the wall-clock timings, which
/// legitimately vary run to run.
fn stable_view(r: &PrefixReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        r.prefix,
        r.stats,
        r.max_cond_len,
        r.max_reach_formula_len,
        &r.scope,
        &r.fragile,
        r.family_head,
    )
}

fn assert_reports_equal(a: &[PrefixReport], b: &[PrefixReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(stable_view(x), stable_view(y), "{what}: report for {} differs", x.prefix);
    }
}

#[test]
fn verify_all_routes_is_thread_count_invariant() {
    let wan = WanSpec::tiny(9).build();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let serial = verifier.verify_all_routes(1, 1).unwrap().reports;
    assert!(!serial.is_empty(), "sweep must cover some prefixes");
    let parallel = verifier.verify_all_routes(1, 8).unwrap().reports;
    assert_reports_equal(&serial, &parallel, "threads=1 vs threads=8");
    // Oversubscription (more threads than families) must change nothing.
    let oversub = verifier.verify_all_routes(1, 64).unwrap().reports;
    assert_reports_equal(&serial, &oversub, "threads=1 vs threads=64");
}

/// Sweeps a second fixture at {1, 2, 8} threads: the full stable report
/// (formula sizes included) is thread-count invariant. Links map to BDD
/// variables by identity, so there is exactly one variable order and the
/// sizes are pinned along with the verdicts.
#[test]
fn sweep_verdicts_are_ordering_and_thread_invariant() {
    let wan = WanSpec::tiny(13).build();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let serial = verifier.verify_all_routes(1, 1).unwrap().reports;
    assert!(!serial.is_empty(), "sweep must cover some prefixes");
    for threads in [2usize, 8] {
        let parallel = verifier.verify_all_routes(1, threads).unwrap().reports;
        assert_reports_equal(&serial, &parallel, &format!("threads=1 vs threads={threads}"));
    }
}

/// A multi-region fixture with many families (same shape as the bench
/// suites' quick fixture).
fn batchy_wan() -> hoyan::topogen::Wan {
    WanSpec {
        seed: 42,
        regions: 3,
        pes_per_region: 4,
        mans_per_region: 2,
        prefixes_per_pe: 2,
        extra_core_links: 2,
        block_prefixes: 1,
    }
    .build()
}

/// The streaming and cache-filling sinks must see exactly the families the
/// materialized sweep reports — same verdicts, same costs in aggregate,
/// every family index exactly once.
#[test]
fn streaming_sweep_matches_materialized() {
    let wan = batchy_wan();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let materialized = verifier.verify_all_routes(1, 2).unwrap();
    let mut reports: Vec<PrefixReport> = Vec::new();
    let mut indices: Vec<usize> = Vec::new();
    let mut quarantined = 0usize;
    let summary = verifier
        .verify_all_routes_streaming(1, 2, &SweepOptions::default(), &mut |item| {
            match item {
                StreamedFamily::Done { index, reports: r, .. } => {
                    indices.push(index);
                    reports.extend(r);
                }
                StreamedFamily::Quarantined(_) => quarantined += 1,
            }
            ControlFlow::Continue(())
        })
        .unwrap();
    assert_eq!(summary.families, verifier.families().len());
    assert_eq!(summary.prefixes, materialized.reports.len());
    assert_eq!(summary.quarantined, 0);
    assert_eq!(quarantined, 0);
    // Every family streamed exactly once.
    indices.sort_unstable();
    assert_eq!(indices, (0..verifier.families().len()).collect::<Vec<_>>());
    // Arrival order is scheduling-dependent; the *set* of reports is not.
    reports.sort_by_key(|r| r.prefix);
    assert_reports_equal(&materialized.reports, &reports, "streaming vs materialized");
    // The cache-filling sink sees the same sweep, and caches every family.
    let (cached, cache) = verifier.verify_all_routes_cached(1, 2).unwrap();
    assert_reports_equal(&materialized.reports, &cached.reports, "cached sink");
    assert!(cached.quarantined.is_empty());
    assert_eq!(cache.len(), verifier.families().len());
}

/// A sink that breaks ends the sweep: it is called no more, and the
/// workers stop claiming families instead of sweeping the rest unseen.
#[test]
fn streaming_sink_that_breaks_stops_the_sweep() {
    let wan = batchy_wan();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let total = verifier.families().len();
    let mut calls = 0usize;
    let summary = verifier
        .verify_all_routes_streaming(1, 1, &SweepOptions::default(), &mut |_| {
            calls += 1;
            ControlFlow::Break(())
        })
        .unwrap();
    assert_eq!(calls, 1);
    // One worker finishes at most the class it holds when the sink hangs
    // up, past the few the channel buffered.
    assert!(summary.families < total, "{summary:?} of {total}");
}

#[test]
fn repeated_parallel_sweeps_agree() {
    let wan = WanSpec::tiny(21).build();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let a = verifier.verify_all_routes(1, 4).unwrap().reports;
    let b = verifier.verify_all_routes(1, 4).unwrap().reports;
    assert_reports_equal(&a, &b, "back-to-back parallel sweeps");
}
