//! Determinism of the `--stats-json` export: for a fixed seeded workload,
//! the `counters` and `histograms` sections must be byte-identical across
//! repeated runs and across thread counts (they count *work*, which does not
//! depend on scheduling). Gauges and spans are exempt by contract — gauges
//! may reflect runtime configuration (e.g. `verify.fanout_threads`) and
//! spans carry wall-clock time.
//!
//! Each CLI invocation is a fresh process, so the process-wide registry
//! starts empty every time — no cross-run state to control for.

use std::process::Command;

use hoyan::config::ConfigSnapshot;
use hoyan::core::Verifier;
use hoyan::device::VsbProfile;
use hoyan::topogen::WanSpec;

fn hoyan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hoyan"))
}

/// The `"counters"` and `"histograms"` sections of the export, verbatim.
/// The exporter emits sections in a fixed order (counters, gauges,
/// histograms, spans), so slicing between the section keys is exact.
fn deterministic_sections(json: &str) -> String {
    let slice = |from: &str, to: &str| {
        let start = json
            .find(from)
            .unwrap_or_else(|| panic!("no {from} in:\n{json}"));
        let end = json
            .find(to)
            .unwrap_or_else(|| panic!("no {to} in:\n{json}"));
        &json[start..end]
    };
    let mut out = String::new();
    out.push_str(slice("\"counters\"", "\"gauges\""));
    out.push_str(slice("\"histograms\"", "\"spans\""));
    out
}

fn sweep_stats_json(dir: &std::path::Path, threads: &str, tag: &str) -> String {
    let json_path = dir.join(format!("stats-{tag}.json"));
    let out = hoyan()
        .args([
            "sweep",
            dir.to_str().unwrap(),
            "--k",
            "1",
            "--threads",
            threads,
            "--stats-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(&json_path).unwrap()
}

#[test]
fn counters_are_identical_across_runs_and_thread_counts() {
    let dir = std::env::temp_dir().join(format!("hoyan-obs-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = hoyan()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--size",
            "tiny",
            "--seed",
            "11",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let full = sweep_stats_json(&dir, "1", "t1");
    // The version marker, the flight-recorder drop counter, the
    // shared-base attribution counter and the family_cost section are all
    // pinned into every export.
    assert!(full.contains("\"schema\": 5,"), "{full}");
    assert!(full.contains("\"obs.events_dropped\""), "{full}");
    assert!(full.contains("\"verify.shared_base_ops\""), "{full}");
    assert!(full.contains("\"family_cost\""), "{full}");
    let baseline = deterministic_sections(&full);
    assert!(baseline.contains("\"propagate.runs\""), "{baseline}");
    // The ITE kernel's schema: the unified-cache and GC counters are pinned
    // into the export, the retired per-connective cache counters are not.
    for present in [
        "\"bdd.ops\"",
        "\"bdd.ite_cache_hits\"",
        "\"bdd.ite_cache_misses\"",
        "\"bdd.gc_runs\"",
        "\"bdd.nodes_reclaimed\"",
        "\"bdd.shared_imports\"",
    ] {
        assert!(
            baseline.contains(present),
            "missing {present} in {baseline}"
        );
    }
    for retired in [
        "bdd.and_cache_hits",
        "bdd.and_cache_misses",
        "bdd.not_cache",
    ] {
        assert!(
            !baseline.contains(retired),
            "retired counter {retired} still exported"
        );
    }
    for (threads, tag) in [("1", "t1-again"), ("2", "t2"), ("4", "t4"), ("8", "t8")] {
        let got = deterministic_sections(&sweep_stats_json(&dir, threads, tag));
        assert_eq!(
            baseline, got,
            "counters/histograms must not depend on scheduling (threads={threads})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-phase wall-clock tallies of the propagation step exist only
/// under `--timing`: an untimed export neither reads the clock nor grows
/// new keys (the sections above stay byte-comparable), a timed one carries
/// all seven so a profile can be read off `sweep --stats --timing`.
#[test]
fn propagate_phase_tallies_appear_only_under_timing() {
    const PHASES: [&str; 7] = [
        "\"propagate.best_chain_ns\"",
        "\"propagate.emit_ns\"",
        "\"propagate.egress_policy_ns\"",
        "\"propagate.deliver_ns\"",
        "\"propagate.ingress_policy_ns\"",
        "\"propagate.insert_ns\"",
        "\"propagate.gc_ns\"",
    ];
    let dir = std::env::temp_dir().join(format!("hoyan-obs-phase-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "11"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let untimed = deterministic_sections(&sweep_stats_json(&dir, "1", "untimed"));
    assert!(!untimed.contains("_ns\""), "{untimed}");

    let json_path = dir.join("stats-timed.json");
    let out = hoyan()
        .args(["sweep", dir.to_str().unwrap(), "--k", "1", "--threads", "1"])
        .args(["--timing", "--stats-json", json_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let timed = std::fs::read_to_string(&json_path).unwrap();
    for key in PHASES {
        assert!(timed.contains(key), "missing {key} in {timed}");
    }
    assert!(!timed.contains("\"propagate.emit_ns\": 0,"), "{timed}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every key `register_default_metrics` pre-registers (schema v5).
const DEFAULT_COUNTERS: [&str; 45] = [
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
];
const DEFAULT_GAUGES: [&str; 8] = [
    "bdd.peak_nodes",
    "bdd.shared_base_nodes",
    "propagate.max_formula_len",
    "verify.fanout_families",
    "verify.fanout_threads",
    "verify.sweep_delivered",
    "verify.sweep_dropped",
    "verify.sweep_max_formula_len",
];

/// Schemas v3 and v5 each removed four keys along with the code that set
/// them, and schema v4 added `verify.classes`; every default key must be
/// exported by a plain sweep.
#[test]
fn default_keys_are_pinned_and_removed_keys_are_gone() {
    let dir = std::env::temp_dir().join(format!("hoyan-obs-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = hoyan()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--size",
            "tiny",
            "--seed",
            "11",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let json = sweep_stats_json(&dir, "2", "keys");
    assert!(json.contains("\"schema\": 5,"), "{json}");
    for key in DEFAULT_COUNTERS.iter().chain(&DEFAULT_GAUGES) {
        assert!(
            json.contains(&format!("\"{key}\": ")),
            "missing {key} in {json}"
        );
    }
    assert!(json.contains("\"propagate.steps_per_run\": "), "{json}");
    for removed in [
        "verify.families_abstract_proved",
        "verify.families_refined",
        "verify.regions",
        "verify.region_boundary_links",
        "verify.sched_batches",
        "verify.sched_steals",
        "bdd.order.passes",
        "bdd.order.links",
    ] {
        assert!(
            !json.contains(&format!("\"{removed}\"")),
            "{removed} still exported"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `verify.sweep_*` gauges describe the sweep that set them: sweeping
/// twice on one `Verifier` — or replaying every family through `reverify`
/// — publishes what one sweep on a fresh `Verifier` does (the aggregate
/// used to carry over and double). In-process, which is safe in this
/// binary: every other test here drives the CLI in a child process, so
/// nothing else writes this process's registry.
#[test]
fn sweep_gauges_describe_one_sweep_not_the_verifier_lifetime() {
    const KEYS: [&str; 3] = [
        "verify.sweep_delivered",
        "verify.sweep_dropped",
        "verify.sweep_max_formula_len",
    ];
    let gauges = || {
        let g = hoyan::obs::gauge_values();
        KEYS.map(|k| g.get(k).copied().unwrap_or(0))
    };
    let wan = WanSpec::tiny(11).build();
    let verifier =
        || Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();

    verifier().verify_all_routes(1, 2).unwrap();
    let once = gauges();
    assert!(once[0] > 0 && once[1] > 0, "{once:?}");

    let v = verifier();
    v.verify_all_routes(1, 2).unwrap();
    v.verify_all_routes(1, 2).unwrap();
    assert_eq!(gauges(), once, "second sweep on one Verifier");
    let (_, cache) = v.verify_all_routes_cached(1, 2).unwrap();
    assert_eq!(gauges(), once, "cached sweep on a reused Verifier");
    let snap = ConfigSnapshot::new(wan.configs.clone());
    let outcome = v.reverify(&snap.diff(&snap), &cache, 1, 2).unwrap();
    assert_eq!(outcome.recomputed, 0, "an empty delta replays every family");
    assert_eq!(gauges(), once, "reverify replaying every family");
}
