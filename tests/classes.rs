//! Behaviour classes are sound: the sweep simulates one representative per
//! class and renames its reports to the other members, so every member's
//! report must equal what simulating that family on its own produces.
//!
//! - **Direct agreement**: on a block-aggregated `small` WAN (many twin
//!   families) and on a perturbation-edited `small`, every family's swept
//!   report equals a direct per-family [`Simulation`] through the public
//!   API.
//! - **Metamorphic split**: denying one member /24 in its PE's `PL_CUST`
//!   moves that family out of its class and changes that prefix's verdict
//!   only.
//! - **Thread invariance**: reports are identical at 1, 2 and 8 threads.
//!
//! The sweeps read the process-wide `verify.classes` counter, so the tests
//! serialize on [`LOCK`].

use std::collections::BTreeMap;
use std::sync::Mutex;

use hoyan::config::{Action, DeviceConfig};
use hoyan::core::{PrefixReport, Simulation, Verifier};
use hoyan::device::VsbProfile;
use hoyan::nettypes::Ipv4Prefix;
use hoyan::topogen::{PerturbationPlan, WanSpec};

static LOCK: Mutex<()> = Mutex::new(());

const K: u32 = 1;

/// `small`, with each PE's leaves grouped into four /22 blocks of four
/// /24s: the first block carries the PE's pinning static, the other three
/// are twins.
fn block_spec() -> WanSpec {
    WanSpec {
        block_prefixes: 4,
        prefixes_per_pe: 16,
        ..WanSpec::small(5)
    }
}

fn verifier(configs: Vec<DeviceConfig>) -> Verifier {
    Verifier::new(configs, VsbProfile::ground_truth, Some(3)).unwrap()
}

/// Everything in a report except the wall-clock timings.
fn view(r: &PrefixReport) -> String {
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

/// Sweeps at `threads`; returns the reports by prefix and the number of
/// simulations (classes) the sweep ran.
fn sweep(v: &Verifier, threads: usize) -> (BTreeMap<Ipv4Prefix, PrefixReport>, u64) {
    let classes = hoyan::obs::counter("verify.classes");
    let before = classes.get();
    let swept = v.verify_all_routes(K, threads).unwrap();
    assert!(swept.quarantined.is_empty());
    let reports = swept.reports.into_iter().map(|r| (r.prefix, r)).collect();
    (reports, classes.get() - before)
}

fn views(reports: &BTreeMap<Ipv4Prefix, PrefixReport>) -> Vec<String> {
    reports.values().map(view).collect()
}

/// The report views of one family simulated on its own, computed the way
/// the sweep computes them but without classes, arenas or a shared base.
fn direct(v: &Verifier, fam: &[Ipv4Prefix]) -> Vec<(Ipv4Prefix, String)> {
    let mut sim = Simulation::new_bgp(&v.net, fam.to_vec(), Some(K), Some(&v.isis));
    sim.run().unwrap();
    let nodes: Vec<_> = v.net.topology.nodes().collect();
    fam.iter()
        .enumerate()
        .map(|(pi, &p)| {
            let (mut scope, mut fragile, mut max_len) = (Vec::new(), Vec::new(), 0);
            for &n in &nodes {
                let c = sim.reach_cond(n, p);
                if c.is_false() || !sim.mgr.eval(c, &[]) {
                    continue;
                }
                scope.push(n);
                if sim.mgr.min_failures_to_falsify(c) <= K {
                    fragile.push(n);
                }
                let exact = sim.reach_cond_exact(n, p);
                max_len = max_len.max(sim.mgr.size(exact));
            }
            let view = format!(
                "{:?}",
                (
                    p,
                    sim.stats,
                    sim.max_cond_size,
                    max_len,
                    &scope,
                    &fragile,
                    pi == 0
                )
            );
            (p, view)
        })
        .collect()
}

/// Sweeps `configs` and checks every family against its direct simulation.
/// Returns `(families, classes)`.
fn assert_sweep_matches_direct(configs: Vec<DeviceConfig>) -> (usize, u64) {
    let v = verifier(configs);
    let (swept, classes) = sweep(&v, 2);
    let families = v.families();
    assert_eq!(swept.len(), families.iter().map(Vec::len).sum::<usize>());
    for fam in &families {
        for (p, want) in direct(&v, fam) {
            assert_eq!(
                view(&swept[&p]),
                want,
                "family {:?}: {p} differs from direct",
                fam[0]
            );
        }
    }
    (families.len(), classes)
}

#[test]
fn every_member_matches_its_direct_simulation() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (families, classes) = assert_sweep_matches_direct(block_spec().build().configs);
    // 10 PEs x (1 pinned block + 3 twins) + 6 external prefixes.
    assert_eq!(families, 46);
    assert_eq!(classes, 26, "each PE's three unpinned blocks share a class");

    // New origins added at DC edges are denied by their PE's PL_CUST:
    // origins from one DC fall into one class.
    let wan = WanSpec::small(5).build();
    let edited = PerturbationPlan::generate_local(&wan, 3, 24).apply(&wan.configs);
    let (families, classes) = assert_sweep_matches_direct(edited);
    assert!(
        classes < families as u64,
        "{classes} classes for {families} families"
    );
}

#[test]
fn denying_one_member_splits_its_class_and_changes_only_that_prefix() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let wan = block_spec().build();
    let v = verifier(wan.configs.clone());
    let (before, classes_before) = sweep(&v, 2);

    // The second leaf of PE0x0's second block: a member of the twin class.
    let leaves: Vec<Ipv4Prefix> = wan
        .prefix_origin
        .iter()
        .filter(|(_, _, pe)| pe == "PE0x0")
        .map(|(p, _, _)| *p)
        .collect();
    let target = leaves[7];
    assert_eq!(target.to_string(), "10.0.5.0/24");
    let mut configs = wan.configs.clone();
    let pe = configs.iter_mut().find(|c| c.hostname == "PE0x0").unwrap();
    let entry = pe
        .prefix_lists
        .get_mut("PL_CUST")
        .unwrap()
        .entries
        .iter_mut();
    entry
        .filter(|e| e.prefix == target)
        .for_each(|e| e.action = Action::Deny);

    let (after, classes_after) = sweep(&verifier(configs), 2);
    assert_eq!(
        classes_after,
        classes_before + 1,
        "the edited block leaves its class"
    );
    let verdict = |r: &PrefixReport| (r.scope.clone(), r.fragile.clone());
    assert_ne!(
        verdict(&before[&target]),
        verdict(&after[&target]),
        "the denied leaf moves"
    );
    // Its family-mates keep their verdicts (their shared family stats
    // move with the edit); every other family keeps its whole report.
    let block = v.family_of(target);
    for (p, r) in &before {
        if *p == target {
            continue;
        }
        if block.contains(p) {
            assert_eq!(verdict(r), verdict(&after[p]), "{p} must not move");
        } else {
            assert_eq!(view(r), view(&after[p]), "{p} must not move");
        }
    }
}

#[test]
fn class_reports_are_thread_invariant() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let v = verifier(block_spec().build().configs);
    let reference = views(&sweep(&v, 1).0);
    for threads in [1, 2, 8] {
        let (reports, classes) = sweep(&v, threads);
        assert_eq!(classes, 26);
        assert_eq!(views(&reports), reference, "threads={threads}");
    }
}
