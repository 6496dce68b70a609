//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§7 deployment figures, §8 performance figures,
//! Tables 2–5, and the Appendix E/F measurements).
//!
//! Usage: `experiments <id>|all [--quick]`
//! where `<id>` ∈ {fig7, fig8-13, fig14, fig15, fig16, table2, table3,
//! table4, table5, formulas, bdd, wan, serve}.
//!
//! `experiments regress <baseline.json> <candidate.json> [--warn-only]
//! [--counters-only]` is different: it diffs two `BENCH_<suite>.json` files
//! and exits non-zero if the candidate regressed. Deterministic counters
//! (everything under `counters`/`gauges`/`family_cost`)
//! tolerate a 2% increase; wall-clock leaves (`*_ns`, `*_ms`) tolerate 40%
//! (schedulers are noisy); decreases are reported but never fail.
//! `--warn-only` prints the same report but always exits 0 — the advisory
//! mode. `--counters-only` restricts the gate to leaves under a
//! `counters` section — those are pure functions of the workload, so the
//! gate can run *strictly* (non-warn-only) in the tier-1 test suite even
//! though the committed baselines were produced in release mode on other
//! hardware.
//!
//! `bdd` is not a paper figure: it is kernel-facing, measuring the ITE/GC
//! BDD engine under a full sweep, and writes `BENCH_bdd.json`. `wan`
//! sweeps the paper-scale `wan-paper` fixture materialized and streamed and
//! writes `BENCH_wan.json`. `serve` binds the resident daemon on an ephemeral
//! port, fires a seeded request mix from 8 concurrent in-process clients
//! (cache-hit `reach`, fresh-simulation `reach k=2`, hostile over-budget
//! probes, `equiv`, `stats`), pushes a config via `whatif` and checks the
//! post-push answer byte-for-byte against a fresh one-shot sweep, and
//! writes `BENCH_serve.json` with the daemon's deterministic counters and
//! client-side latency percentiles.
//!
//! Absolute numbers will differ from the paper (different hardware and a
//! synthetic WAN); the *shapes* — who wins, by how much, where the cost
//! explodes — are the reproduction targets. See EXPERIMENTS.md.

use std::time::{Duration, Instant};

use hoyan_baselines::{BatfishLike, MinesweeperLike, PlanktonLike};
use hoyan_bench::{fmt_dur, Cdf};
use hoyan_core::{packet_reach, NetworkModel, StreamedFamily, SweepOptions, Verifier};
use hoyan_device::{Packet, VsbProfile};
use hoyan_nettypes::{Ipv4Prefix, NodeId};
use hoyan_rt::bench::BenchSuite;
use hoyan_topogen::{UpdatePlan, Wan, WanSpec};
use hoyan_tuner::{ModelRegistry, Validator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    // `regress` is a gate, not an experiment: dispatch it before the
    // figure matcher (whose default is "run everything").
    if what == "regress" {
        std::process::exit(regress(&args[1..]));
    }
    let run = |name: &str| {
        what == "all" || what == name || (name.starts_with("fig8") && what == "fig8-13")
    };

    if run("fig7") {
        fig7(quick);
    }
    if run("fig8-13") || ["fig8", "fig9", "fig10", "fig11", "fig12", "fig13"].contains(&what) {
        fig8_to_13(quick);
    }
    if run("fig14") {
        fig14(quick);
    }
    if run("fig15") {
        fig15(quick);
    }
    if run("fig16") {
        fig16(quick);
    }
    if run("table2") {
        table2();
    }
    if run("table3") {
        table3(quick);
    }
    if run("table4") {
        table45("small", WanSpec::small(42), quick);
    }
    if run("table5") {
        table45("medium", WanSpec::medium(42), quick);
    }
    if run("formulas") {
        formulas();
    }
    if run("bdd") {
        bdd(quick);
    }
    if run("wan") {
        wan_sweep(quick);
    }
    if run("serve") {
        serve(quick);
    }
}

fn reference_wan(quick: bool) -> Wan {
    if quick {
        WanSpec::small(42).build()
    } else {
        WanSpec::reference(42).build()
    }
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: configuration errors found per month by (a) online audits over
/// 24 months and (b) update validation over 12 months. Monthly update
/// batches carry seeded §7-class errors with bursty rates tied to "business
/// events"; the pre-commit audit must catch them.
fn fig7(quick: bool) {
    println!("=== Figure 7: errors found by Hoyan in production (simulated campaign) ===");
    let wan = if quick {
        WanSpec::tiny(42).build()
    } else {
        WanSpec::small(42).build()
    };
    let months = if quick { 6 } else { 24 };
    let updates_per_month = if quick { 4 } else { 10 };

    let mut total_injected = 0usize;
    let mut total_caught = 0usize;
    // Update plans the generator emitted but `apply` rejected. Every skip
    // silently shrinks the denominator of the headline catch rate, so they
    // are counted, reported, and — outside `--quick` — fatal: a non-quick
    // campaign with unapplicable plans is measuring the wrong workload.
    let mut total_skipped = 0usize;
    println!("month | injected | caught | classes caught");
    for month in 0..months {
        // Bursty error rates: business events every ~6 months (§7: "bursty
        // phenomena correlate to internal network configuration updates").
        let rate = if month % 6 == 4 { 0.5 } else { 0.15 };
        let plan = UpdatePlan::generate(&wan, 1000 + month as u64, updates_per_month, rate);
        let mut caught = Vec::new();
        let mut injected = 0usize;
        for u in &plan.updates {
            let single = UpdatePlan {
                updates: vec![u.clone()],
            };
            let after = match single.apply(&wan) {
                Ok(after) => after,
                Err(e) => {
                    total_skipped += 1;
                    eprintln!("  skipped update (month {month}): apply failed: {e}");
                    continue;
                }
            };
            let focus: Vec<Ipv4Prefix> = u.focus_prefix.into_iter().collect();
            let report =
                hoyan::audit::audit_update(&wan.configs, &after, &focus, &wan.equiv_pairs, 1)
                    .expect("audit runs");
            if u.error.is_some() {
                injected += 1;
            }
            if !report.passed() && u.error.is_some() {
                caught.push(format!("{:?}", u.error.unwrap()));
            }
        }
        total_injected += injected;
        total_caught += caught.len();
        println!(
            "{month:>5} | {injected:>8} | {:>6} | {}",
            caught.len(),
            caught.join(",")
        );
    }
    println!(
        "total: {total_caught}/{total_injected} injected errors caught \
         ({:.0}% — the paper reports Hoyan preventing the large majority of \
         update-induced incidents)",
        100.0 * total_caught as f64 / total_injected.max(1) as f64
    );
    if total_skipped > 0 {
        println!("WARNING: {total_skipped} update plan(s) skipped (apply failed) — see stderr");
        assert!(
            quick,
            "{total_skipped} update plan(s) failed to apply; the campaign under-measures \
             (generator/updater drift — fix the plans, don't drop them)"
        );
    }
    println!();
}

// ---------------------------------------------------------- Figures 8..13

/// Figures 8–13: per-prefix simulation time, query time, turnaround,
/// max condition length, pruning effectiveness, and final formula length,
/// for k = 0..3 on the reference WAN.
fn fig8_to_13(quick: bool) {
    let wan = reference_wan(quick);
    println!(
        "=== Figures 8-13 on the {} WAN ({} devices, {} customer prefixes) ===",
        if quick { "small" } else { "reference" },
        wan.device_count(),
        wan.customer_prefixes.len()
    );
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8);

    for k in 0..=3u32 {
        // Per-k verifier: the IS-IS database is budgeted at k too, so the
        // pruning statistics below cover the whole conditioned propagation.
        let verifier = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(k))
            .expect("verifier builds");
        let t0 = Instant::now();
        let reports = verifier.verify_all_routes(k, threads).expect("sweep").reports;
        let wall = t0.elapsed();
        let sim_ms: Vec<f64> = reports
            .iter()
            .map(|r| r.sim_time.as_secs_f64() * 1e3)
            .collect();
        let query_ms: Vec<f64> = reports
            .iter()
            .map(|r| r.query_time.as_secs_f64() * 1e3)
            .collect();
        let turn_ms: Vec<f64> = reports
            .iter()
            .map(|r| (r.sim_time + r.query_time).as_secs_f64() * 1e3)
            .collect();
        let max_cond: Vec<f64> = reports.iter().map(|r| r.max_cond_len as f64).collect();
        let reach_len: Vec<f64> = reports
            .iter()
            .map(|r| r.max_reach_formula_len as f64)
            .collect();

        println!(
            "-- k = {k} ({} prefixes, wall {} on {threads} threads)",
            reports.len(),
            fmt_dur(wall)
        );
        println!(" Figure 8 (per-prefix simulation time):");
        Cdf::new(sim_ms.clone()).print_row("sim time", "ms");
        let frac_1s = Cdf::new(sim_ms).fraction_leq(1000.0);
        println!(
            "    fraction done within 1s: {:.1}% (paper k=0: 98%)",
            frac_1s * 100.0
        );
        println!(" Figure 9 (per-prefix query time):");
        Cdf::new(query_ms).print_row("query time", "ms");
        println!(" Figure 10 (per-prefix turnaround):");
        Cdf::new(turn_ms).print_row("turnaround", "ms");
        if k > 0 {
            println!(" Figure 11 (max topology-condition length, BDD nodes):");
            Cdf::new(max_cond).print_row("max cond length", "");
            println!(" Figure 13 (final reachability formula length, BDD nodes):");
            Cdf::new(reach_len).print_row("reach formula length", "");
            // Figure 12: pruning effectiveness (stats are shared within a
            // co-simulated family; aggregate family heads only).
            let mut totals = (0u64, 0u64, 0u64, 0u64);
            for r in reports.iter().filter(|r| r.family_head) {
                totals.0 += r.stats.delivered;
                totals.1 += r.stats.dropped_policy;
                totals.2 += r.stats.dropped_over_k;
                totals.3 += r.stats.dropped_impossible;
            }
            // The IGP layer carries most of the WAN's path diversity. Its
            // session conditions come from edge cuts, which prune nothing,
            // so the per-destination path-vector simulations (the ones
            // packet walks read) run here to count its branches.
            let isis = verifier
                .isis
                .path_vector_stats(&verifier.net)
                .expect("IS-IS simulation");
            totals.0 += isis.delivered;
            totals.1 += isis.dropped_policy;
            totals.2 += isis.dropped_over_k;
            totals.3 += isis.dropped_impossible;
            let total = (totals.0 + totals.1 + totals.2 + totals.3).max(1) as f64;
            println!(
                " Figure 12 (branches): remain {:.1}% | policy {:.1}% | more-than-k {:.1}% | impossible {:.1}%  (paper k=3: 2% / 10% / 61% / 27%)",
                100.0 * totals.0 as f64 / total,
                100.0 * totals.1 as f64 / total,
                100.0 * totals.2 as f64 / total,
                100.0 * totals.3 as f64 / total,
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------- Figure 14

/// Figure 14: CDF of per-prefix verification accuracy before the behavior
/// model tuner ran and after it discovered and patched the VSBs.
fn fig14(quick: bool) {
    let wan = if quick {
        WanSpec::small(42).build()
    } else {
        WanSpec::medium(42).build()
    };
    println!(
        "=== Figure 14: verification accuracy tuning ({} devices) ===",
        wan.device_count()
    );
    let validator = Validator::new(wan.configs.clone()).expect("validator");
    let mut registry = ModelRegistry::naive();
    let families: Vec<Vec<Ipv4Prefix>> = wan.customer_prefixes.iter().map(|p| vec![*p]).collect();
    let t0 = Instant::now();
    let outcome = validator.tune(&mut registry, &families, 64).expect("tunes");
    let tune_time = t0.elapsed();

    let pre: Vec<f64> = outcome
        .accuracy_before
        .iter()
        .map(|(_, a)| *a * 100.0)
        .collect();
    let post: Vec<f64> = outcome
        .accuracy_after
        .iter()
        .map(|(_, a)| *a * 100.0)
        .collect();
    println!(" Pre-deployment of tuner (accuracy %):");
    Cdf::new(pre.clone()).print_row("accuracy", "%");
    println!(" After tuning (accuracy %):");
    Cdf::new(post.clone()).print_row("accuracy", "%");
    let pre_cdf = Cdf::new(pre);
    let post_cdf = Cdf::new(post);
    println!(
        " prefixes with <=60% accuracy: before {:.0}% (paper: 79%), after {:.0}%",
        100.0 * pre_cdf.fraction_leq(60.0),
        100.0 * post_cdf.fraction_leq(60.0)
    );
    println!(
        " prefixes at 100% accuracy after tuning: {:.0}% (paper: 95%)",
        100.0 * (1.0 - post_cdf.fraction_leq(99.99))
    );
    println!(
        " tuner: {} patches in {} ({} rounds): {:?}",
        outcome.localizations.len(),
        fmt_dur(tune_time),
        outcome.rounds,
        outcome
            .localizations
            .iter()
            .map(|l| format!("{}@{}", l.vsb.name(), l.hostname))
            .collect::<Vec<_>>()
    );
    println!();
}

// ------------------------------------------------------- Figures 15 and 16

/// Figure 15 (Appendix E): time to load the ext-RIB for one prefix from the
/// (oracle) network.
fn fig15(quick: bool) {
    let wan = if quick {
        WanSpec::small(42).build()
    } else {
        WanSpec::medium(42).build()
    };
    println!("=== Figure 15: ext-RIB loading time ===");
    let validator = Validator::new(wan.configs.clone()).expect("validator");
    let n = if quick { 20 } else { 200 };
    let mut times = Vec::new();
    for (i, p) in wan.customer_prefixes.iter().cycle().take(n).enumerate() {
        let _ = i;
        let t0 = Instant::now();
        let _ext = validator.oracle_ext_rib(&[*p]).expect("loads");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Cdf::new(times).print_row("ext-RIB load", "ms");
    println!(" (paper: 222ms median, 382ms p90, <800ms max — from live devices)");
    println!();
}

/// Figure 16 (Appendix E): time to localize a VSB once a mismatch is found.
fn fig16(quick: bool) {
    let wan = if quick {
        WanSpec::small(42).build()
    } else {
        WanSpec::medium(42).build()
    };
    println!("=== Figure 16: VSB localization time ===");
    let validator = Validator::new(wan.configs.clone()).expect("validator");
    let registry = ModelRegistry::naive();
    let mut times = Vec::new();
    for p in &wan.customer_prefixes {
        let fam = vec![*p];
        let Some(m) = validator.check(&registry, &fam).expect("checks") else {
            continue;
        };
        let t0 = Instant::now();
        let _ = validator.localize(&registry, &m, &fam).expect("localizes");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    if times.is_empty() {
        println!("  (no mismatching prefixes on this seed)");
    } else {
        Cdf::new(times).print_row("localization", "ms");
        println!(" (paper: 90% of cases under 1 second)");
    }
    println!();
}

// ----------------------------------------------------------------- Table 2

/// Table 2: the detected VSBs, the fraction of devices potentially
/// affected, detection+localization by the tuner on the per-VSB scenario,
/// and patch sizes.
fn table2() {
    println!("=== Table 2: detected VSBs and their impacts ===");
    let wan = WanSpec::reference(42).build();
    let naive = VsbProfile::naive_assumption(hoyan_config::Vendor::A);
    println!(
        "{:<22} | {:>12} | {:>12} | {:>10} | {:>11} | {:>13}",
        "VSB", "affected dev.", "paper aff.", "detected", "localized", "paper #lines"
    );
    let paper_affected = [87.5, 82.83, 63.91, 13.26, 8.63, 7.38, 6.52, 1.32];
    for (kind, paper_aff) in hoyan_device::VsbKind::ALL.iter().zip(paper_affected) {
        // Affected: devices whose true vendor behavior differs from the
        // naive assumption on this field.
        let affected = wan
            .configs
            .iter()
            .filter(|c| {
                let truth = VsbProfile::ground_truth(c.vendor);
                truth.diff(&naive).contains(kind)
            })
            .count();
        let pct = 100.0 * affected as f64 / wan.configs.len() as f64;

        // Detection on the dedicated scenario.
        let s = hoyan_topogen::scenario(*kind);
        let validator = Validator::new(s.configs.clone()).expect("validator");
        let registry = ModelRegistry::naive();
        let loc = match &s.probe {
            None => {
                let m = validator.check(&registry, &s.family).expect("checks");
                m.and_then(|m| validator.localize(&registry, &m, &s.family).expect("loc"))
            }
            Some(p) => validator
                .localize_probe(&registry, &s.family, &p.src_device, p.dst)
                .expect("loc"),
        };
        let detected = loc.is_some();
        let localized_ok = loc
            .as_ref()
            .map(|l| l.hostname == s.culprit && l.vsb == *kind)
            .unwrap_or(false);
        println!(
            "{:<22} | {:>11.1}% | {:>11.2}% | {:>10} | {:>11} | {:>13}",
            kind.name(),
            pct,
            paper_aff,
            if detected { "yes" } else { "NO" },
            if localized_ok { "exact" } else { "NO" },
            kind.paper_patch_lines(),
        );
    }
    println!();
}

// ----------------------------------------------------------------- Table 3

/// Table 3: time to verify the entire WAN — route reachability and packet
/// reachability at k = 0..3, role equivalence, and route-update racing.
fn table3(quick: bool) {
    let wan = reference_wan(quick);
    println!(
        "=== Table 3: time to verify the entire WAN ({} devices, {} links) ===",
        wan.device_count(),
        wan.configs
            .iter()
            .map(|c| c.interfaces.len())
            .sum::<usize>()
            / 2
    );
    let t0 = Instant::now();
    let verifier =
        Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).expect("verifier");
    println!(
        " model + IS-IS load time: {} (paper: ~30s data loading)",
        fmt_dur(t0.elapsed())
    );
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8);

    println!(" route reachability (all prefixes x all devices, incl. per-k IS-IS precompute):");
    for k in 0..=3u32 {
        let t0 = Instant::now();
        // The conditioned IS-IS database is part of the per-k verification
        // work (the paper's totals include it); rebuild it at this budget.
        let v_k = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(k))
            .expect("verifier");
        let reports = v_k.verify_all_routes(k, threads).expect("sweep").reports;
        println!(
            "   k={k}: {} ({} prefixes)   [paper: 481s/770s/1523s/10496s]",
            fmt_dur(t0.elapsed()),
            reports.len()
        );
    }

    println!(" packet reachability (all devices -> every customer prefix):");
    let prefixes: Vec<Ipv4Prefix> = if quick {
        wan.customer_prefixes.iter().take(6).copied().collect()
    } else {
        wan.customer_prefixes.clone()
    };
    // The IS-IS forwarding rows a walk reads are built the first time a walk
    // tunnels toward their destination, so the k=0 row includes them; each
    // row says how many it built.
    let spf_runs = hoyan_obs::counter("isis.spf_runs");
    for k in 0..=3u32 {
        let t0 = Instant::now();
        let spf_before = spf_runs.get();
        let mut walks = 0usize;
        for p in &prefixes {
            let mut sim = verifier.simulate(*p, Some(k)).expect("sim");
            for n in verifier.net.topology.nodes() {
                let packet = Packet {
                    src: "192.0.2.1".parse().unwrap(),
                    dst: p.network(),
                    proto: hoyan_config::AclProto::Tcp,
                };
                packet_reach(
                    &mut sim,
                    &verifier.net,
                    Some(&verifier.isis),
                    n,
                    *p,
                    packet,
                    Some(k),
                )
                .expect("packet walk");
                walks += 1;
            }
        }
        println!(
            "   k={k}: {} ({} walks, {} IS-IS forwarding simulations on first use)   [paper: 245s/304s/715s/3989s]",
            fmt_dur(t0.elapsed()),
            walks,
            spf_runs.get() - spf_before
        );
    }

    println!(" role equivalence (redundant core pairs):");
    let t0 = Instant::now();
    for (a, b) in wan.equiv_pairs.iter().take(3) {
        let _ = verifier.role_equivalence(a, b).expect("equivalence");
    }
    println!(
        "   3 pairs: {}   [paper: 13s average]",
        fmt_dur(t0.elapsed())
    );

    println!(" route update racing (all customer prefixes):");
    let t0 = Instant::now();
    let mut ambiguous = 0usize;
    for p in &prefixes {
        if verifier.racing(*p).ambiguous {
            ambiguous += 1;
        }
    }
    println!(
        "   {} prefixes: {} ({} ambiguous)   [paper: 3800-4400s]",
        prefixes.len(),
        fmt_dur(t0.elapsed()),
        ambiguous
    );
    println!();
}

// ----------------------------------------------------------- Tables 4 & 5

/// Tables 4/5: Hoyan vs Minesweeper-like vs Batfish-like vs Plankton-like
/// on the small (20-router) and medium (80-router) subnets. The task is
/// route reachability of every customer prefix at every core router under
/// at most k failures. Cells exceeding the budget report `> budget` like
/// the paper's `> 24h` cells.
fn table45(name: &str, spec: WanSpec, quick: bool) {
    let wan = spec.build();
    let net =
        NetworkModel::from_configs(wan.configs.clone(), VsbProfile::ground_truth).expect("net");
    println!(
        "=== Table {}: comparison in the {name} subnet ({} core routers) ===",
        if name == "small" { 4 } else { 5 },
        spec.core_router_count()
    );
    let budget = Duration::from_secs(if quick { 10 } else { 120 });
    println!(" per-cell budget: {} (paper budget: 24h)", fmt_dur(budget));
    let prefixes: Vec<Ipv4Prefix> = wan
        .customer_prefixes
        .iter()
        .take(if quick { 3 } else { 8 })
        .copied()
        .collect();
    let targets: Vec<NodeId> = net
        .topology
        .nodes()
        .filter(|n| net.topology.name(*n).starts_with("CR"))
        .collect();
    let verifier =
        Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).expect("verifier");
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8);

    println!(
        "{:<18} | {:>12} | {:>12} | {:>12} | {:>12}",
        "property", "Hoyan", "Minesweeper~", "Batfish~", "Plankton~"
    );
    for k in 0..=3usize {
        // Hoyan: the sweep answers everything at once.
        let t0 = Instant::now();
        let _ = verifier
            .verify_all_routes(k as u32, threads)
            .expect("sweep");
        let hoyan_t = t0.elapsed();

        // Minesweeper-like.
        let mut ms = MinesweeperLike::new(&net);
        let t0 = Instant::now();
        let mut ms_done = true;
        'ms: for p in &prefixes {
            for n in &targets {
                let _ = ms.route_reachable_under_k(*p, *n, k);
                if t0.elapsed() > budget {
                    ms_done = false;
                    break 'ms;
                }
            }
        }
        let ms_t = t0.elapsed();

        // Batfish-like: exhaustive scenario enumeration (proving the
        // property requires visiting every scenario; early exits would mask
        // the (n choose k) asymptotics the paper measures).
        let mut bf = BatfishLike::new(&net);
        let t0 = Instant::now();
        bf.deadline = Some(t0 + budget);
        let mut bf_done = true;
        'bf: for p in &prefixes {
            for n in &targets {
                if bf.count_breaking_scenarios(*p, *n, k).is_none() {
                    bf_done = false;
                    break 'bf;
                }
            }
        }
        let bf_t = t0.elapsed();

        // Plankton-like: exhaustive scenario x ordering exploration.
        let mut pl = PlanktonLike::new(&net);
        let t0 = Instant::now();
        pl.deadline = Some(t0 + budget);
        let mut pl_done = true;
        'pl: for p in &prefixes {
            for n in &targets {
                if pl.count_breaking(*p, *n, k).is_none() {
                    pl_done = false;
                    break 'pl;
                }
            }
        }
        let pl_t = t0.elapsed();

        let cell = |t: Duration, done: bool| {
            if done {
                fmt_dur(t)
            } else {
                format!("> {}", fmt_dur(budget))
            }
        };
        println!(
            "{:<18} | {:>12} | {:>12} | {:>12} | {:>12}",
            format!("reachability k={k}"),
            fmt_dur(hoyan_t),
            cell(ms_t, ms_done),
            cell(bf_t, bf_done),
            cell(pl_t, pl_done),
        );
    }

    // Role equivalence.
    let (a, b) = &wan.equiv_pairs[0];
    let t0 = Instant::now();
    let _ = verifier.role_equivalence(a, b).expect("equivalence");
    let hoyan_eq = t0.elapsed();
    let na = net.topology.node(a).unwrap();
    let nb = net.topology.node(b).unwrap();
    let mut ms = MinesweeperLike::new(&net);
    let t0 = Instant::now();
    let mut ms_done = true;
    for p in &prefixes {
        let _ = ms.equivalent_for(*p, na, nb);
        if t0.elapsed() > budget {
            ms_done = false;
            break;
        }
    }
    let ms_eq = t0.elapsed();
    println!(
        "{:<18} | {:>12} | {:>12} | {:>12} | {:>12}",
        "role equivalence",
        fmt_dur(hoyan_eq),
        if ms_done {
            fmt_dur(ms_eq)
        } else {
            format!("> {}", fmt_dur(budget))
        },
        "-",
        "-",
    );
    println!(
        " [paper small: Hoyan 3-14s; Minesweeper 1555-7430s; Batfish 28s->24h; Plankton 50s->24h]"
    );
    println!(" [paper medium: Hoyan 14-176s; all alternatives hours to >24h]");
    println!();
}

// --------------------------------------------------------------- BDD kernel

/// BDD kernel health under a real workload on a 42-router multi-region
/// fixture. Two metric windows: the model + IS-IS build (the budget-3
/// session conditions, built from edge cuts) is reported on the console,
/// and the route-reachability sweep itself is the snapshot embedded in
/// `BENCH_bdd.json` — `bdd.ops` (ITE expansions + failure-cost pricings),
/// peak *live* nodes, GC activity and sweep wall-clock.
fn bdd(quick: bool) {
    let spec = if quick {
        WanSpec::tiny(42)
    } else {
        // ≥40 devices: the scale where family selectivity starts to matter.
        WanSpec {
            seed: 42,
            regions: 3,
            pes_per_region: 4,
            mans_per_region: 2,
            prefixes_per_pe: 2,
            extra_core_links: 2,
            block_prefixes: 1,
        }
    };
    let wan = spec.build();
    println!(
        "=== BDD kernel ({} devices, {} customer prefixes) ===",
        wan.device_count(),
        wan.customer_prefixes.len()
    );
    let k = 1u32;
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8);
    // Window 1: model + IS-IS build. Its BDD work all lives in the
    // database's manager, which flushes its tallies only on drop, so they
    // are read off the manager.
    let t0 = Instant::now();
    let verifier =
        Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).expect("verifier");
    let build = t0.elapsed();
    let own = verifier.isis.mgr.tallies();
    println!(
        " build: {} | bdd.ops {} | peak live nodes {} | gc runs {} | nodes reclaimed {}",
        fmt_dur(build),
        own.ops,
        own.peak_live,
        own.gc_runs,
        own.nodes_reclaimed,
    );

    // Window 2: the sweep itself — this is the snapshot BENCH_bdd.json
    // carries. Family conditions on this fixture stay under the GC
    // watermark, so a zero `bdd.gc_runs` here is the collector correctly
    // staying out of the way, not being absent.
    hoyan_obs::reset_metrics();
    let t0 = Instant::now();
    let reports = verifier.verify_all_routes(k, threads).expect("sweep").reports;
    let wall = t0.elapsed();
    let counters = hoyan_obs::counter_values();
    let gauges = hoyan_obs::gauge_values();
    println!(
        " sweep: {} on {threads} threads ({} prefixes)",
        fmt_dur(wall),
        reports.len()
    );
    println!(
        " bdd.ops {} | peak live nodes {} | gc runs {} | nodes reclaimed {} | ite cache hits {}",
        counters["bdd.ops"],
        gauges["bdd.peak_nodes"],
        counters["bdd.gc_runs"],
        counters["bdd.nodes_reclaimed"],
        counters["bdd.ite_cache_hits"],
    );

    let sweep_snapshot = hoyan_obs::export_json();

    let mut suite = BenchSuite::new("bdd");
    // The metrics snapshot covers exactly the scoped sweep above (under
    // `"sweep"`); the timing samples below re-run the sweep but do not
    // touch the snapshot.
    suite.set_metrics_json(format!("{{\n    \"sweep\": {sweep_snapshot}\n  }}"));
    let samples = if quick { 2 } else { 5 };
    suite.bench_with_samples("sweep", samples, &mut || {
        verifier.verify_all_routes(k, threads).expect("sweep")
    });
    suite.finish();
    println!();
}

// --------------------------------------------------- Paper-scale WAN sweep

/// The Table-3-scale campaign: the `wan-paper` fixture (O(100) routers,
/// O(10k) prefixes) swept once materialized and once through the
/// *streaming* API (bounded resident report memory). Both must agree on
/// every verdict and on the BDD bill. Writes `BENCH_wan.json`.
fn wan_sweep(quick: bool) {
    let spec = if quick { WanSpec::small(42) } else { WanSpec::wan_paper(42) };
    let wan = spec.build();
    println!(
        "=== Paper-scale WAN sweep ({} devices, {} customer prefixes) ===",
        wan.device_count(),
        wan.customer_prefixes.len()
    );
    let k = 1u32;
    // Two workers, as in the other pinned sweeps; the counters below are
    // thread-count invariant either way.
    let threads = 2usize;
    // IS-IS at exactly the sweep's budget, as `hoyan sweep` builds it.
    let verifier =
        Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(k)).expect("verifier");
    let families = verifier.families().len();
    let opts = SweepOptions::default();

    // Window 1: the materialized exact sweep — the snapshot this file
    // carries.
    hoyan_obs::reset_metrics();
    let t0 = Instant::now();
    let swept = verifier.verify_all_routes_opts(k, threads, &opts).expect("sweep");
    let wall = t0.elapsed();
    let counters = hoyan_obs::counter_values();
    let ops = counters["bdd.ops"];
    let hits = counters["bdd.ite_cache_hits"];
    let misses = counters["bdd.ite_cache_misses"];
    let snapshot = hoyan_obs::export_json();
    println!(
        " sweep:  {} on {threads} threads | {} prefixes | bdd.ops {ops} | ITE hit rate {:.1}%",
        fmt_dur(wall),
        swept.reports.len(),
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );

    // Window 2: the same sweep consumed through the streaming API —
    // per-family results leave through the sink as they finish, so peak
    // resident report memory is O(workers), not O(families).
    hoyan_obs::reset_metrics();
    let t0 = Instant::now();
    let mut streamed: Vec<(Ipv4Prefix, Vec<NodeId>, Vec<NodeId>)> = Vec::new();
    let mut streamed_quarantined = 0usize;
    let summary = verifier
        .verify_all_routes_streaming(k, threads, &opts, &mut |item| match item {
            StreamedFamily::Done { reports, .. } => {
                for r in reports {
                    streamed.push((r.prefix, r.scope, r.fragile));
                }
                std::ops::ControlFlow::Continue(())
            }
            StreamedFamily::Quarantined(_) => {
                streamed_quarantined += 1;
                std::ops::ControlFlow::Continue(())
            }
        })
        .expect("streaming sweep");
    let stream_wall = t0.elapsed();
    let stream_ops = hoyan_obs::counter_values()["bdd.ops"];
    println!(
        " stream: {} on {threads} threads | bdd.ops {stream_ops}",
        fmt_dur(stream_wall)
    );

    // Equivalence: the streamed sweep must answer exactly what the
    // materialized sweep answered, for the same BDD work.
    assert_eq!(streamed_quarantined, 0, "wan-paper fixture must sweep clean");
    assert_eq!(summary.quarantined, 0);
    assert_eq!(summary.prefixes, swept.reports.len());
    streamed.sort_by_key(|(p, _, _)| *p);
    assert_eq!(swept.reports.len(), streamed.len());
    for (e, (p, scope, fragile)) in swept.reports.iter().zip(&streamed) {
        assert_eq!(e.prefix, *p);
        assert_eq!(&e.scope, scope, "streamed scope differs for {}", e.prefix);
        assert_eq!(&e.fragile, fragile, "streamed fragility differs for {}", e.prefix);
    }
    assert_eq!(stream_ops, ops, "streaming must not change the BDD bill");

    let mut suite = BenchSuite::new("wan");
    // `summary/counters` carries the headline deterministic counters for
    // the strict (`--counters-only`) regress gate. Wall times live outside
    // `counters` so the strict gate never sees them.
    suite.set_metrics_json(format!(
        "{{\n    \"sweep\": {snapshot},\n    \
         \"summary\": {{\"counters\": {{\
         \"families\": {families}, \"prefixes\": {}, \
         \"bdd_ops\": {ops}, \"ite_hits\": {hits}, \"ite_misses\": {misses}}}, \
         \"wall\": {{\"sweep_ms\": {}, \"stream_ms\": {}}}}}\n  }}",
        swept.reports.len(),
        wall.as_millis(),
        stream_wall.as_millis()
    ));
    suite.finish();
    println!();
}

// ------------------------------------------------------- Resident daemon

/// One line-delimited-JSON client connection to the daemon under test.
struct ServeConn {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl ServeConn {
    fn connect(addr: std::net::SocketAddr) -> ServeConn {
        let s = std::net::TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(600))).expect("timeout");
        s.set_nodelay(true).expect("nodelay");
        ServeConn {
            reader: std::io::BufReader::new(s.try_clone().expect("clone")),
            writer: s,
        }
    }

    /// One write per request — a split `line` + `"\n"` pair trips
    /// Nagle/delayed-ACK stalls and poisons the latency percentiles.
    fn send(&mut self, line: &str) -> String {
        use std::io::{BufRead as _, Write as _};
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("write");
        self.writer.flush().expect("flush");
        let mut out = String::new();
        self.reader.read_line(&mut out).expect("read");
        assert!(!out.is_empty(), "daemon disconnected");
        out.trim_end().to_string()
    }
}

/// In-process load generation against `hoyan serve`: 8 concurrent clients,
/// a seeded mix of 200 requests (cache-hit `reach`, fresh `reach k=2`,
/// hostile over-budget probes, one `equiv`, per-client `stats`), then a
/// sequential `whatif` push whose post-push `reach` answer must be
/// byte-identical to a fresh one-shot sweep of the updated configs.
fn serve(quick: bool) {
    use hoyan_core::{render_reach_response, ServeOptions, Server};
    use hoyan_rt::json::{self, Value};
    use hoyan_rt::rng::StdRng;

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;

    let wan = WanSpec {
        seed: 42,
        regions: 3,
        pes_per_region: 4,
        mans_per_region: 2,
        prefixes_per_pe: 2,
        extra_core_links: 2,
        block_prefixes: 1,
    }
    .build();
    println!(
        "=== Resident daemon ({} devices, {CLIENTS} clients x {PER_CLIENT} requests) ===",
        wan.device_count()
    );
    let hosts: Vec<String> = wan.configs.iter().map(|c| c.hostname.clone()).collect();
    let prefixes = wan.customer_prefixes.clone();
    let (cr_a, cr_b) = wan.equiv_pairs[0].clone();

    let opts = ServeOptions {
        workers: CLIENTS,
        queue_cap: 64,
        k: 1,
        sweep_threads: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(8),
        ..ServeOptions::default()
    };
    let t0 = Instant::now();
    let server = Server::bind(wan.configs.clone(), "127.0.0.1:0", opts).expect("bind");
    let addr = server.local_addr();
    println!(
        " warm sweep: {} | {} resident families | listening on {addr}",
        fmt_dur(t0.elapsed()),
        server.family_count()
    );

    let field = |v: &Value, key: &str| -> u64 {
        v.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no numeric `{key}` in {v}")) as u64
    };

    let (stats_line, latencies, whatif_dirty, whatif_reused) = std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run());
        // A failed assertion below must not leave the daemon running —
        // the scope would block on it forever. Drain first, then re-raise.
        let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Phase 1: the concurrent seeded mix. Every request's outcome is
        // asserted — a hostile probe must be quarantined (`over_budget`),
        // everything else must succeed. Zero quarantine escapes.
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let hosts = &hosts;
                let prefixes = &prefixes;
                let (cr_a, cr_b) = (&cr_a, &cr_b);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + c as u64);
                    let mut conn = ServeConn::connect(addr);
                    let mut lat = Vec::with_capacity(PER_CLIENT);
                    for i in 0..PER_CLIENT {
                        let (req, expect_err) = if i == 20 && c < 2 {
                            // Hostile: one ITE op of budget forces the
                            // admission control to quarantine the request.
                            let p = prefixes[rng.gen_range(0..prefixes.len())];
                            (
                                format!(
                                    r#"{{"kind":"reach","prefix":"{p}","device":"{}","k":2,"budget_ops":1}}"#,
                                    hosts[rng.gen_range(0..hosts.len())]
                                ),
                                Some("over_budget"),
                            )
                        } else if i == 12 && c == 0 {
                            (format!(r#"{{"kind":"equiv","a":"{cr_a}","b":"{cr_b}"}}"#), None)
                        } else if i == 7 && c < 3 {
                            // Off-cache k: a fresh budgeted simulation.
                            let p = prefixes[rng.gen_range(0..prefixes.len())];
                            (
                                format!(
                                    r#"{{"kind":"reach","prefix":"{p}","device":"{}","k":2}}"#,
                                    hosts[rng.gen_range(0..hosts.len())]
                                ),
                                None,
                            )
                        } else if i == 24 {
                            (r#"{"kind":"stats"}"#.to_string(), None)
                        } else {
                            let p = prefixes[rng.gen_range(0..prefixes.len())];
                            (
                                format!(
                                    r#"{{"kind":"reach","prefix":"{p}","device":"{}"}}"#,
                                    hosts[rng.gen_range(0..hosts.len())]
                                ),
                                None,
                            )
                        };
                        let t = Instant::now();
                        let line = conn.send(&req);
                        lat.push(t.elapsed().as_nanos() as u64);
                        let v = json::parse(&line).expect("response json");
                        match expect_err {
                            None => assert_eq!(
                                v.get("ok"),
                                Some(&Value::Bool(true)),
                                "client {c} request {i} failed: {line}"
                            ),
                            Some(code) => {
                                assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{line}");
                                assert_eq!(
                                    v.get("error"),
                                    Some(&Value::Str(code.to_string())),
                                    "hostile request must be quarantined, got: {line}"
                                );
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        let mut latencies: Vec<u64> = Vec::with_capacity(CLIENTS * PER_CLIENT);
        for c in clients {
            latencies.extend(c.join().expect("client thread"));
        }
        latencies.sort_unstable();

        // Phase 2 (sequential): push a config through `whatif`, then check
        // the post-push cached answer byte-for-byte against a fresh sweep.
        let (new_prefix, dc, pe) = {
            let (_, dc, pe) = wan.prefix_origin[0].clone();
            ("198.51.100.0/24".parse::<Ipv4Prefix>().expect("prefix"), dc, pe)
        };
        let dc_idx = wan.configs.iter().position(|c| c.hostname == dc).expect("dc");
        let at = wan.texts[dc_idx].find("  network ").expect("network stanza");
        let mut pushed = wan.texts[dc_idx].clone();
        pushed.insert_str(at, &format!("  network {new_prefix}\n"));

        let mut conn = ServeConn::connect(addr);
        let req = Value::Obj(vec![
            ("kind".into(), Value::Str("whatif".into())),
            ("configs".into(), Value::Arr(vec![Value::Str(pushed.clone())])),
        ]);
        let t0 = Instant::now();
        let line = conn.send(&req.to_string());
        let v = json::parse(&line).expect("whatif json");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line}");
        assert_eq!(field(&v, "devices_changed"), 1, "{line}");
        assert_eq!(field(&v, "quarantined"), 0, "{line}");
        let (dirty, reused) = (field(&v, "dirty"), field(&v, "reused"));
        println!(
            " whatif push: {} | {dirty} dirty / {reused} reused families",
            fmt_dur(t0.elapsed())
        );

        let line = conn.send(&format!(
            r#"{{"id":"pp","kind":"reach","prefix":"{new_prefix}","device":"{pe}"}}"#
        ));
        let mut updated = wan.configs.clone();
        updated[dc_idx] =
            hoyan_config::parse_config(&pushed).expect("pushed config parses");
        let fresh = Verifier::new(updated, VsbProfile::ground_truth, Some(3)).expect("verifier");
        let report = fresh
            .verify_all_routes(1, opts_threads())
            .expect("fresh sweep")
            .reports
            .into_iter()
            .find(|r| r.prefix == new_prefix)
            .expect("pushed prefix swept");
        let node = fresh.net.topology.node(&pe).expect("pe");
        let reachable = report.scope.contains(&node);
        let resilient = reachable && !report.fragile.contains(&node);
        let id = Value::Str("pp".into());
        let expect =
            render_reach_response(Some(&id), new_prefix, &pe, 1, reachable, resilient, "cache")
                .to_string();
        assert_eq!(
            line, expect,
            "post-push reach must be byte-identical to a fresh sweep of the updated configs"
        );
        println!(" post-push reach: byte-identical to fresh sweep ({new_prefix} at {pe})");

        // The counters snapshot everything downstream pins: taken at a
        // fixed point, before the latency bench adds more requests.
        let stats_line = conn.send(r#"{"kind":"stats"}"#);
        (stats_line, latencies, dirty, reused)

        }));
        if work.is_err() {
            server.request_shutdown();
        } else {
            let mut shut = ServeConn::connect(addr);
            shut.send(r#"{"kind":"shutdown"}"#);
        }
        let summary = daemon.join().expect("daemon thread");
        let out = match work {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        };
        assert_eq!(summary.rejected, 0, "no connection may be rejected at this load");
        out
    });

    let stats = json::parse(&stats_line).expect("stats json");
    let total = field(&stats, "requests");
    assert!(total >= 200, "acceptance floor: >=200 mixed requests, got {total}");
    assert_eq!(field(&stats, "over_budget"), 2, "both hostile probes quarantined");
    assert_eq!(field(&stats, "rejected"), 0);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let (hits, misses) =
        (field(&stats, "cache_hits"), field(&stats, "cache_misses"));
    let hit_pct = 100 * hits / (hits + misses);
    println!(
        " {total} requests | p50 {} p95 {} p99 {} | cache hit {hit_pct}% | 2 hostile quarantined",
        fmt_dur(Duration::from_nanos(p50)),
        fmt_dur(Duration::from_nanos(p95)),
        fmt_dur(Duration::from_nanos(p99)),
    );

    let mut suite = BenchSuite::new("serve");
    // `summary/counters` carries the daemon's deterministic counters (pure
    // functions of the seeded mix) for the strict `--counters-only` gate;
    // latency percentiles live outside any `counters` section, so the gate
    // never compares them.
    suite.set_metrics_json(format!(
        "{{\n    \"summary\": {{\"counters\": {{\
         \"requests\": {total}, \"reach\": {reach}, \"equiv\": {equiv}, \
         \"whatif\": {whatif}, \"stats\": {statc}, \"cache_hits\": {hits}, \
         \"cache_misses\": {misses}, \"over_budget\": {ob}, \"rejected\": {rej}, \
         \"reverify_dirty\": {whatif_dirty}, \"reverify_reused\": {whatif_reused}, \
         \"malformed\": {malformed}, \"cache_hit_ratio_pct\": {hit_pct}}}}},\n    \
         \"latency\": {{\"clients\": {CLIENTS}, \"p50_ns\": {p50}, \
         \"p95_ns\": {p95}, \"p99_ns\": {p99}}}\n  }}",
        reach = field(&stats, "reach"),
        equiv = field(&stats, "equiv"),
        whatif = field(&stats, "whatif"),
        statc = field(&stats, "stats"),
        ob = field(&stats, "over_budget"),
        rej = field(&stats, "rejected"),
        malformed = field(&stats, "malformed"),
    ));

    // Client-observed round-trip latency of a cache-hit `reach` against a
    // fresh daemon (the load-phase percentiles above include contention).
    let server = Server::bind(
        wan.configs.clone(),
        "127.0.0.1:0",
        ServeOptions { workers: 1, sweep_threads: opts_threads(), ..ServeOptions::default() },
    )
    .expect("bind bench server");
    let addr = server.local_addr();
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run());
        let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut conn = ServeConn::connect(addr);
            let p = prefixes[0];
            let req = format!(r#"{{"kind":"reach","prefix":"{p}","device":"{}"}}"#, hosts[0]);
            let samples = if quick { 5 } else { 30 };
            suite.bench_with_samples("reach_hit_roundtrip", samples, &mut || conn.send(&req));
        }));
        server.request_shutdown();
        daemon.join().expect("bench daemon");
        if let Err(p) = work {
            std::panic::resume_unwind(p);
        }
    });
    suite.finish();
    println!();
}

fn opts_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(8)
}

// ---------------------------------------------------------- Regression gate

/// `experiments regress <baseline> <candidate> [--warn-only]`: diff two
/// `BENCH_<suite>.json` snapshots and exit 1 on regression (0 under
/// `--warn-only`, 2 on usage/parse errors).
///
/// Every numeric leaf of both documents is flattened to a `/`-joined path
/// (array elements keyed by their `name`/`family` field where one
/// exists, so reordering a result list is not a diff) and classified:
///
/// - wall-clock leaves (`*_ns`, `*_ms`) regress above +40% — timing is
///   machine- and scheduler-dependent, the gate only catches blowups;
/// - everything else is a deterministic counter and regresses above +2%
///   (with a +0.5 absolute floor so a 1-count jitter on tiny counters
///   cannot fail the gate);
/// - `schema`, `samples`, `iters_per_sample` and `verify.fanout_threads`
///   are harness/environment facts, not measurements: skipped;
/// - boolean leaves (`quarantined`, `reused`) regress on any flip to
///   `true`; decreases and disappearing/appearing paths are informational.
///
/// `--counters-only` restricts the comparison to leaves whose path crosses
/// a `counters` section (the obs export's counter block, or a suite's own
/// `summary/counters`). Those are pure functions of the seeded workload —
/// byte-identical across machines, thread counts and build profiles — so
/// a committed release-mode baseline can gate a debug-mode test run
/// *strictly*, with no warn-only escape hatch.
fn regress(args: &[String]) -> i32 {
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let counters_only = args.iter().any(|a| a == "--counters-only");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [baseline_path, candidate_path] = paths.as_slice() else {
        eprintln!(
            "usage: experiments regress <baseline.json> <candidate.json> \
             [--warn-only] [--counters-only]"
        );
        return 2;
    };
    let load = |path: &str| -> Result<hoyan_rt::json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        hoyan_rt::json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let (base, cand) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let mut base_leaves = Vec::new();
    flatten_leaves(&base, String::new(), &mut base_leaves);
    let mut cand_leaves = Vec::new();
    flatten_leaves(&cand, String::new(), &mut cand_leaves);
    let cand_map: std::collections::BTreeMap<&str, f64> = cand_leaves
        .iter()
        .map(|(p, v)| (p.as_str(), *v))
        .collect();
    let base_keys: std::collections::BTreeSet<&str> =
        base_leaves.iter().map(|(p, _)| p.as_str()).collect();

    let in_scope =
        |path: &str| !counters_only || path.split('/').any(|seg| seg == "counters");
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut compared = 0usize;
    for (path, b) in &base_leaves {
        if !in_scope(path) {
            continue;
        }
        let Some(&c) = cand_map.get(path.as_str()) else {
            println!("  gone    {path} (baseline {b})");
            continue;
        };
        let Some(rule) = classify_leaf(path) else {
            continue;
        };
        compared += 1;
        let limit = match rule {
            LeafRule::Counter => b * 1.02 + 0.5,
            LeafRule::Timing => b * 1.40,
            // Booleans are encoded 0/1; any flip upward fails.
            LeafRule::Flag => *b,
        };
        if c > limit {
            regressions += 1;
            println!("  REGRESS {path}: {b} -> {c} (+{:.1}%)", pct_change(*b, c));
        } else if c < *b {
            improvements += 1;
            println!("  improve {path}: {b} -> {c} ({:.1}%)", pct_change(*b, c));
        }
    }
    for (path, c) in &cand_leaves {
        if in_scope(path) && !base_keys.contains(path.as_str()) {
            println!("  new     {path} (candidate {c})");
        }
    }
    println!(
        "regress: {compared} leaves compared, {regressions} regression(s), \
         {improvements} improvement(s){}{}",
        if counters_only { " [counters-only]" } else { "" },
        if warn_only { " [warn-only]" } else { "" }
    );
    if regressions > 0 && !warn_only {
        1
    } else {
        0
    }
}

enum LeafRule {
    Counter,
    Timing,
    Flag,
}

/// The comparison rule for a flattened leaf path, or `None` to skip it.
fn classify_leaf(path: &str) -> Option<LeafRule> {
    let key = path.rsplit('/').next().unwrap_or(path);
    match key {
        "schema" | "samples" | "iters_per_sample" | "verify.fanout_threads" => None,
        "quarantined" | "reused" => Some(LeafRule::Flag),
        _ if key.ends_with("_ns") || key.ends_with("_ms") => Some(LeafRule::Timing),
        _ => Some(LeafRule::Counter),
    }
}

fn pct_change(b: f64, c: f64) -> f64 {
    if b == 0.0 {
        100.0
    } else {
        100.0 * (c - b) / b
    }
}

/// Flattens every numeric/boolean leaf into `(path, value)` rows. Array
/// elements carrying a `name`/`family` discriminator are keyed by it
/// (bench result lists and cost tables may legally reorder);
/// anonymous elements fall back to their index.
fn flatten_leaves(v: &hoyan_rt::json::Value, prefix: String, out: &mut Vec<(String, f64)>) {
    use hoyan_rt::json::Value;
    let join = |prefix: &str, seg: &str| {
        if prefix.is_empty() {
            seg.to_string()
        } else {
            format!("{prefix}/{seg}")
        }
    };
    match v {
        Value::Num(n) => out.push((prefix, *n)),
        Value::Bool(b) => out.push((prefix, if *b { 1.0 } else { 0.0 })),
        Value::Obj(entries) => {
            for (k, child) in entries {
                flatten_leaves(child, join(&prefix, k), out);
            }
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let seg = ["name", "family"]
                    .iter()
                    .find_map(|k| item.get(k))
                    .map(|d| match d {
                        Value::Str(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .unwrap_or_else(|| i.to_string());
                flatten_leaves(item, join(&prefix, &seg), out);
            }
        }
        Value::Null | Value::Str(_) => {}
    }
}

// ------------------------------------------------------------- Formula sizes

/// §8.2 formula-size comparison: Hoyan's per-query reachability formula vs
/// the Minesweeper-like monolithic encoding.
fn formulas() {
    println!("=== Formula sizes (Hoyan reach formula vs monolithic encoding) ===");
    for (name, spec) in [
        ("small", WanSpec::small(42)),
        ("medium", WanSpec::medium(42)),
    ] {
        let wan = spec.build();
        let net =
            NetworkModel::from_configs(wan.configs.clone(), VsbProfile::ground_truth).expect("net");
        let p = wan.customer_prefixes[0];
        let target = net
            .topology
            .nodes()
            .find(|n| net.topology.name(*n).starts_with("CR1"))
            .unwrap();
        // Use the full verifier path (iBGP conditions ride on IS-IS) so the
        // Hoyan formula reflects real IGP redundancy.
        let verifier = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3))
            .expect("verifier");
        let mut sim = verifier.simulate(p, Some(3)).expect("sim");
        let v = sim.reach_cond_exact(target, p);
        let hoyan_len = sim.mgr.size(v);
        let mut ms = MinesweeperLike::new(&net);
        let _ = ms.route_reachable_under_k(p, target, 3);
        println!(
            " {name}: Hoyan formula {hoyan_len} nodes vs monolithic {} literals \
             [paper: 242/543 vs 230,403/4,786,577]",
            ms.last_formula_literals
        );
    }
    println!();
}
