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
    sweep_stats_json_ordered(dir, threads, tag, "registration")
}

/// Like [`sweep_stats_json`] but running the modular pipeline
/// (`--modular --abstraction <mode>`).
fn sweep_stats_json_modular(
    dir: &std::path::Path,
    threads: &str,
    tag: &str,
    abstraction: &str,
) -> String {
    let json_path = dir.join(format!("stats-{tag}.json"));
    let out = hoyan()
        .args([
            "sweep",
            dir.to_str().unwrap(),
            "--k",
            "1",
            "--threads",
            threads,
            "--modular",
            "--abstraction",
            abstraction,
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

fn sweep_stats_json_ordered(
    dir: &std::path::Path,
    threads: &str,
    tag: &str,
    order: &str,
) -> String {
    let json_path = dir.join(format!("stats-{tag}.json"));
    let out = hoyan()
        .args([
            "sweep",
            dir.to_str().unwrap(),
            "--k",
            "1",
            "--threads",
            threads,
            "--bdd-order",
            order,
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
    // Schema v2: the version marker, the flight-recorder drop counter, the
    // shared-base attribution counter and the family_cost section are all
    // pinned into every export.
    assert!(full.contains("\"schema\": 2,"), "{full}");
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
        "\"bdd.order.links\"",
        "\"bdd.order.passes\"",
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

/// The modular pipeline's stage counters are pinned into the schema-v2
/// export — present (zeroed) even on monolithic sweeps — and, like every
/// counter, byte-identical across thread counts when the pipeline runs.
#[test]
fn modular_stage_counters_are_pinned_and_thread_invariant() {
    let dir = std::env::temp_dir().join(format!("hoyan-obs-mod-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "11"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Monolithic sweep: the counters exist in the schema, both zero, and
    // the region gauges are pinned too.
    let plain = sweep_stats_json(&dir, "1", "plain");
    assert!(
        plain.contains("\"verify.families_abstract_proved\": 0,"),
        "{plain}"
    );
    assert!(plain.contains("\"verify.families_refined\": 0,"), "{plain}");
    assert!(plain.contains("\"verify.regions\""), "{plain}");
    assert!(plain.contains("\"verify.region_boundary_links\""), "{plain}");

    // Modular prove-only sweep: every family carries provenance, so the
    // two stage counters must sum to the family count.
    let modular = sweep_stats_json_modular(&dir, "1", "mod-t1", "prove-only");
    let count = |json: &str, key: &str| -> u64 {
        let at = json.find(key).unwrap_or_else(|| panic!("no {key} in {json}"));
        json[at + key.len()..]
            .trim_start_matches([':', ' '])
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let proved = count(&modular, "\"verify.families_abstract_proved\"");
    let refined = count(&modular, "\"verify.families_refined\"");
    let families = count(&modular, "\"verify.families\"");
    assert_eq!(proved + refined, families, "{modular}");
    assert!(proved > 0, "abstract pass settled nothing on the fixture");

    // Thread-count invariance of the whole counter/histogram section, in
    // both prove-only and full mode.
    for mode in ["prove-only", "full"] {
        let baseline = deterministic_sections(&sweep_stats_json_modular(
            &dir,
            "1",
            &format!("{mode}-t1"),
            mode,
        ));
        for threads in ["2", "8"] {
            let got = deterministic_sections(&sweep_stats_json_modular(
                &dir,
                threads,
                &format!("{mode}-t{threads}"),
                mode,
            ));
            assert_eq!(
                baseline, got,
                "mode={mode}: counters must not depend on threads={threads}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Like [`sweep_stats_json`] but with `--schedule <schedule>`.
fn sweep_stats_json_scheduled(
    dir: &std::path::Path,
    threads: &str,
    tag: &str,
    schedule: &str,
) -> String {
    let json_path = dir.join(format!("stats-{tag}.json"));
    let out = hoyan()
        .args([
            "sweep",
            dir.to_str().unwrap(),
            "--k",
            "1",
            "--threads",
            threads,
            "--schedule",
            schedule,
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

/// `--schedule deps` plans its batches on the calling thread before any
/// worker starts, so `verify.sched_batches` (a counter) and the whole
/// counter/histogram section are byte-identical across 1/2/8 threads.
/// Work stealing *does* vary with the worker count — which is exactly why
/// `verify.sched_steals` is classed as a gauge and stays outside the
/// deterministic sections.
#[test]
fn deps_schedule_counters_are_thread_invariant() {
    let dir = std::env::temp_dir().join(format!("hoyan-obs-sched-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "11"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let full = sweep_stats_json_scheduled(&dir, "1", "deps-t1", "deps");
    // The planner ran and chunked the families into at least one batch; the
    // steal gauge is pinned into the schema (zero on a single worker).
    assert!(!full.contains("\"verify.sched_batches\": 0,"), "{full}");
    assert!(full.contains("\"verify.sched_batches\""), "{full}");
    assert!(full.contains("\"verify.sched_steals\""), "{full}");
    let baseline = deterministic_sections(&full);
    for threads in ["2", "8"] {
        let got = deterministic_sections(&sweep_stats_json_scheduled(
            &dir,
            threads,
            &format!("deps-t{threads}"),
            "deps",
        ));
        assert_eq!(
            baseline, got,
            "deps schedule: counters must not depend on threads={threads}"
        );
    }
    // Round-robin plans nothing: the batch counter stays zero there.
    let rr = sweep_stats_json_scheduled(&dir, "2", "rr-t2", "roundrobin");
    assert!(rr.contains("\"verify.sched_batches\": 0,"), "{rr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism contract holds *per ordering* too: with `--bdd-order
/// dfs|bfs` the ordering pass runs and the per-worker shared-base import
/// count varies with the thread count, yet the exported counters and
/// histograms must stay byte-identical across 1/2/8 threads (the import's
/// tallies are excluded by design, and `bdd.shared_imports` counts
/// per-family cache hits, not per-worker attaches).
#[test]
fn counters_are_thread_invariant_under_each_ordering() {
    let dir = std::env::temp_dir().join(format!("hoyan-obs-ord-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "11"])
        .output()
        .unwrap();
    assert!(out.status.success());

    for order in ["dfs", "bfs"] {
        let baseline = deterministic_sections(&sweep_stats_json_ordered(
            &dir,
            "1",
            &format!("{order}-t1"),
            order,
        ));
        // The ordering pass ran exactly once (one model build per sweep).
        assert!(
            baseline.contains("\"bdd.order.passes\": 1,"),
            "{order}: ordering pass not recorded in {baseline}"
        );
        assert!(
            baseline.contains("\"bdd.shared_imports\""),
            "{order}: shared-import counter missing"
        );
        for threads in ["2", "8"] {
            let got = deterministic_sections(&sweep_stats_json_ordered(
                &dir,
                threads,
                &format!("{order}-t{threads}"),
                order,
            ));
            assert_eq!(
                baseline, got,
                "order={order}: counters must not depend on threads={threads}"
            );
        }
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
