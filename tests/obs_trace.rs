//! The sweep flight recorder's contracts, end to end:
//!
//! - **Accounting**: with `--timing` off, the per-family `FamilyCost.ops`
//!   of a sweep — completed and quarantined families alike — plus the
//!   shared base's construction ops sum *exactly* to the `bdd.ops` delta
//!   of the sweep window, at every thread count. Each family runs on a
//!   freshly recycled arena whose tallies start at zero, so its snapshot
//!   is its own delta; nothing is double-counted or lost.
//! - **Determinism**: the Chrome-trace export, the attribution table and
//!   the `family_cost` section of `--stats-json` are byte-identical at
//!   1, 2 and 8 threads (logical timestamps, post-join publication).
//! - **Round-trip**: the trace export is valid JSON — it parses with
//!   `hoyan::rt::json` and reprinting the parse is a fixed point.
//! - **Faults**: an injected budget breach (`HOYAN_FAULTS`) quarantines
//!   the family, emits a `quarantined` instant in the trace, and still
//!   attributes the partial ops the family burned before the breach.
//!
//! Library-level tests share the process-wide obs registry and recorder,
//! so they serialize on a lock; the CLI test is its own process.

use std::process::Command;
use std::sync::Mutex;

use hoyan::device::VsbProfile;
use hoyan::rt::json;
use hoyan::topogen::WanSpec;

static LOCK: Mutex<()> = Mutex::new(());

/// The 42-router incremental fixture (the same one `experiments bdd` and
/// `BENCH_bdd.json` use): large enough that families genuinely share
/// workers at 2 and 8 threads.
fn forty_two_router_spec() -> WanSpec {
    WanSpec {
        seed: 42,
        regions: 3,
        pes_per_region: 4,
        mans_per_region: 2,
        prefixes_per_pe: 2,
        extra_core_links: 2,
        block_prefixes: 1,
    }
}

/// The `"family_cost"` section of the stats export, verbatim.
fn family_cost_section(json: &str) -> &str {
    let start = json.find("\"family_cost\"").expect("family_cost section");
    &json[start..]
}

#[test]
fn flight_recorder_is_balanced_and_thread_invariant() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let wan = forty_two_router_spec().build();
    // Build the verifier *before* opening the metrics window: the model +
    // IS-IS build does real BDD work that belongs to no family.
    let verifier =
        hoyan::core::Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3))
            .expect("verifier builds");
    hoyan::obs::set_enabled(true);

    let mut baseline: Option<(String, String, String)> = None;
    for threads in [1usize, 2, 8] {
        hoyan::obs::reset();
        hoyan::obs::set_events_enabled(true);
        let report = verifier.verify_all_routes(1, threads).expect("sweep");
        assert!(report.quarantined.is_empty(), "clean fixture quarantined");

        // Exact accounting: every op of the sweep window is either some
        // family's or the shared base's. `verify_all_routes` recycles or
        // drops every arena before returning, so the global counter has
        // absorbed every family tally by now.
        let counters = hoyan::obs::counter_values();
        let costs = hoyan::obs::unit_costs();
        assert_eq!(costs.len(), hoyan::obs::counter("verify.families").get() as usize);
        let attributed: u64 = costs.iter().map(|c| c.ops).sum();
        let shared = counters["verify.shared_base_ops"];
        assert_eq!(
            attributed + shared,
            counters["bdd.ops"],
            "threads={threads}: family ops + shared base must equal the sweep's bdd.ops"
        );
        assert!(costs.iter().all(|c| !c.quarantined && !c.reused));
        assert!(costs.iter().all(|c| c.wall_ns == 0), "timing is off");

        // The recorder saw every family start and end.
        let events = hoyan::obs::events_snapshot();
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, hoyan::obs::EventKind::FamilyStart))
            .count();
        assert_eq!(starts, costs.len(), "threads={threads}");

        // Determinism: all three render surfaces byte-identical across
        // thread counts.
        let trace = hoyan::obs::export_chrome_trace();
        let table = hoyan::obs::render_attribution(20);
        let cost_json = family_cost_section(&hoyan::obs::export_json()).to_string();
        match &baseline {
            None => {
                // Round-trip the trace through the JSON validator once.
                let parsed = json::parse(&trace).expect("trace parses");
                let events = parsed.as_arr().expect("trace is an array");
                assert!(!events.is_empty());
                for e in events {
                    assert!(e.get("ph").is_some() && e.get("pid").is_some());
                }
                let printed = parsed.to_string();
                assert_eq!(json::parse(&printed).expect("reparse"), parsed);
                baseline = Some((trace, table, cost_json));
            }
            Some((t, a, c)) => {
                assert_eq!(t, &trace, "trace differs at threads={threads}");
                assert_eq!(a, &table, "attribution differs at threads={threads}");
                assert_eq!(c, &cost_json, "family_cost differs at threads={threads}");
            }
        }
    }
    hoyan::obs::set_events_enabled(false);
    hoyan::obs::reset();
}

#[test]
fn class_members_are_attributed_at_zero_cost_to_their_representative() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Block-aggregated leaves: each PE's unpinned /22 blocks are twins, so
    // one simulation answers for several families.
    let wan = WanSpec {
        block_prefixes: 4,
        prefixes_per_pe: 12,
        ..forty_two_router_spec()
    }
    .build();
    let verifier =
        hoyan::core::Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3))
            .expect("verifier builds");
    hoyan::obs::set_enabled(true);
    hoyan::obs::reset();
    hoyan::obs::set_events_enabled(true);
    let report = verifier.verify_all_routes(1, 2).expect("sweep");
    assert!(report.quarantined.is_empty());

    let counters = hoyan::obs::counter_values();
    let costs = hoyan::obs::unit_costs();
    let families = counters["verify.families"];
    let classes = counters["verify.classes"];
    assert_eq!(costs.len() as u64, families, "one cost per family");
    assert!(
        classes < families,
        "{classes} classes for {families} families"
    );
    // Only representatives burn ops, and the books still balance.
    let attributed: u64 = costs.iter().map(|c| c.ops).sum();
    assert_eq!(
        attributed + counters["verify.shared_base_ops"],
        counters["bdd.ops"]
    );
    let members: Vec<_> = costs
        .iter()
        .filter(|c| c.label.contains(" class of "))
        .collect();
    assert_eq!(members.len() as u64, families - classes);
    assert!(members.iter().all(|c| c.ops == 0 && c.peak_nodes == 0));
    assert!(hoyan::obs::render_attribution(usize::MAX)
        .contains("10.0.8.0/22 (+4) class of 10.0.4.0/22 (+4)"));
    hoyan::obs::set_events_enabled(false);
    hoyan::obs::reset();
}

#[test]
fn reverify_attributes_reused_families_at_zero_marginal_cost() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let wan = forty_two_router_spec().build();
    let verifier =
        hoyan::core::Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3))
            .expect("verifier builds");
    hoyan::obs::set_enabled(true);
    hoyan::obs::reset();
    hoyan::obs::set_events_enabled(true);
    let (_, cache) = verifier.verify_all_routes_cached(1, 4).expect("baseline");

    // Identity delta: every family replays from cache.
    let snap = hoyan::config::ConfigSnapshot::new(wan.configs.clone());
    let delta = snap.diff(&snap);
    hoyan::obs::reset();
    let outcome = verifier.reverify(&delta, &cache, 1, 4).expect("reverify");
    assert_eq!(outcome.recomputed, 0);
    let costs = hoyan::obs::unit_costs();
    assert_eq!(costs.len(), outcome.reused);
    // Reused families carry their baseline bill for visibility, flagged so
    // the attribution footer does not count them against this window.
    assert!(costs.iter().all(|c| c.reused && c.ops > 0));
    let reuse_events = hoyan::obs::events_snapshot()
        .iter()
        .filter(|e| matches!(e.kind, hoyan::obs::EventKind::CacheReuse))
        .count();
    assert_eq!(reuse_events, outcome.reused);
    hoyan::obs::set_events_enabled(false);
    hoyan::obs::reset();
}

#[test]
fn injected_budget_breach_is_quarantined_and_still_attributed() {
    let dir = std::env::temp_dir().join(format!("hoyan-obs-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hoyan"))
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "11"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let stats = dir.join("stats.json");
    let trace = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_hoyan"))
        .args([
            "sweep",
            dir.to_str().unwrap(),
            "--k",
            "1",
            "--threads",
            "2",
            "--attribution",
            "--stats-json",
            stats.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .env("HOYAN_FAULTS", "verify.family@1=overbudget")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The quarantined family's partial bill survives: it burned real ops
    // before the breach tripped, and they are attributed, not lost.
    let stats = std::fs::read_to_string(&stats).unwrap();
    let parsed = json::parse(&stats).expect("stats parse");
    let families = parsed
        .get("family_cost")
        .and_then(json::Value::as_arr)
        .expect("family_cost");
    let hit = families
        .iter()
        .find(|f| f.get("quarantined") == Some(&json::Value::Bool(true)))
        .expect("one quarantined family");
    assert_eq!(hit.get("family").and_then(json::Value::as_f64), Some(1.0));
    assert!(hit.get("ops").and_then(json::Value::as_f64).unwrap_or(0.0) > 0.0);
    assert!(families
        .iter()
        .any(|f| f.get("quarantined") == Some(&json::Value::Bool(false))));

    // The timeline shows both the breach and the verdict, and the
    // attribution table flags the family.
    let trace = std::fs::read_to_string(&trace).unwrap();
    json::parse(&trace).expect("trace parses");
    assert!(trace.contains("\"budget-breach\""), "{trace}");
    assert!(trace.contains("\"quarantined\""), "{trace}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" Q "), "no quarantine flag in:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
