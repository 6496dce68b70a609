//! Exact-counter pin for the simulate hot path. The work counters of a
//! seeded sweep are a pure function of the formulas the engine builds, so a
//! change that claims "same formulas, same verdicts, only cheaper
//! bookkeeping" must reproduce them to the unit. The constants below were
//! recorded from the commit *before* the allocation-free hot path landed,
//! and re-recorded, digests unchanged, when IS-IS session conditions moved
//! from per-destination path-vector simulations to edge cuts: the budget-3
//! IS-IS build no longer runs a simulation (`isis.spf_runs` 0) and its BDD
//! work shrank. Any other drift fails here instead of being a sentence in
//! CHANGES.md.
//!
//! Own test binary with a single `#[test]`: the metrics registry is
//! process-wide, so the legs run back to back with a reset in between.

use hoyan::core::{SweepOptions, Verifier};
use hoyan::device::VsbProfile;
use hoyan::topogen::WanSpec;

/// Counters (and the one gauge, `bdd.peak_nodes`) pinned per fixture, in
/// this order.
const KEYS: [&str; 13] = [
    "bdd.ops",
    "bdd.nodes_created",
    "bdd.ite_cache_hits",
    "bdd.ite_cache_misses",
    "bdd.unique_hits",
    "bdd.managers",
    "bdd.gc_runs",
    "bdd.peak_nodes",
    "propagate.steps",
    "propagate.delivered",
    "propagate.dropped_over_k",
    "propagate.dropped_policy",
    "isis.spf_runs",
];

struct Pin {
    name: &'static str,
    spec: fn(u64) -> WanSpec,
    digest: u64,
    values: [u64; 13],
}

const SEED: u64 = 11;

const PINS: [Pin; 2] = [
    Pin {
        name: "tiny",
        spec: WanSpec::tiny,
        digest: 0x8a45_e694_1a3d_ae63,
        values: [458, 227, 94, 180, 54, 6, 0, 80, 49, 41, 31, 5, 0],
    },
    Pin {
        name: "small",
        spec: WanSpec::small,
        digest: 0x207e_79f9_e0e2_8dd3,
        values: [
            13241, 4932, 2342, 4777, 423, 28, 0, 581, 855, 803, 598, 120, 0,
        ],
    },
];

/// FNV-1a over the rendered per-prefix report (scope and fragile devices by
/// name, in report order).
fn report_digest(v: &Verifier, swept: &hoyan::core::SweepReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &swept.reports {
        let names = |ns: &[hoyan::nettypes::NodeId]| -> Vec<&str> {
            ns.iter().map(|n| v.net.topology.name(*n)).collect()
        };
        eat(&format!(
            "{} scope={:?} fragile={:?}",
            r.prefix,
            names(&r.scope),
            names(&r.fragile)
        ));
    }
    h
}

fn run(pin: &Pin, threads: usize) -> (u64, [u64; 13]) {
    hoyan::obs::reset();
    let wan = (pin.spec)(SEED).build();
    let v = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3)).unwrap();
    let swept = v
        .verify_all_routes_opts(1, threads, &SweepOptions::default())
        .unwrap();
    assert!(swept.quarantined.is_empty(), "{}: quarantined", pin.name);
    let digest = report_digest(&v, &swept);
    // The IS-IS database's manager flushes its tallies on drop.
    drop(swept);
    drop(v);
    let counters = hoyan::obs::counter_values();
    let gauges = hoyan::obs::gauge_values();
    let values = KEYS.map(|k| {
        counters
            .get(k)
            .or_else(|| gauges.get(k))
            .copied()
            .unwrap_or_else(|| panic!("{}: metric {k} not recorded", pin.name))
    });
    (digest, values)
}

#[test]
fn hot_path_counters_match_the_recorded_parent() {
    for pin in &PINS {
        for threads in [1, 2] {
            let (digest, values) = run(pin, threads);
            assert_eq!(
                digest, pin.digest,
                "{} T={threads}: report digest moved",
                pin.name
            );
            for ((key, got), want) in KEYS.iter().zip(values).zip(pin.values) {
                assert_eq!(got, want, "{} T={threads}: {key} moved", pin.name);
            }
        }
    }
}
