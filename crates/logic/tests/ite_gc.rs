//! Integration tests for the ITE apply kernel and the mark-and-sweep GC.
//!
//! Three angles:
//!
//! 1. **Differential properties** — random formula trees are built through
//!    the public boolean surface (`and`/`or`/`not`/`xor`/`iff`/`implies`/
//!    `and_not`) while an independent truth-table oracle is composed in
//!    plain `bool`s alongside; the BDD must agree with the oracle on every
//!    assignment, and the derived connectives must be *node-identical* to
//!    their De Morgan / ITE-free compositions (canonicity makes semantic
//!    equality checkable with `==` on handles).
//! 2. **GC stress** — rooted conditions survive collection with their
//!    semantics intact (handles are stable: no compaction), unrooted
//!    garbage is actually reclaimed, and freed slots are safely reused by
//!    later allocations. Seeded through `hoyan_rt::prop`, so failures
//!    replay with `HOYAN_TEST_SEED`.
//! 3. **Scratch and memo reuse** — the failure-cost memos are dense arrays
//!    indexed by arena slot and `size` stamps a per-thread visit array, so
//!    both are checked where stale state would show: a slot freed by `gc`
//!    and reused for another function, a base segment across `recycle`,
//!    two managers interleaved on one thread.
//! 4. **Deep chains** — a 100k-variable conjunction exercises `not`, `and`,
//!    `import`, `count_models`, the failure-cost walks and `eval` inside a
//!    worker thread with the default stack. The previous recursive kernel
//!    overflowed here; every walk is now iterative.

use std::collections::HashSet;

use hoyan_logic::{bdd::INF_FAILURES, Bdd, BddManager};
use hoyan_rt::prop;

const NVARS: u32 = 5;

/// A truth table over all `2^NVARS` assignments (bit `i` of the assignment
/// index is variable `i`).
type Table = Vec<bool>;

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0u32..1 << NVARS).map(|bits| (0..NVARS).map(|v| bits >> v & 1 == 1).collect())
}

fn table_of(f: impl Fn(&[bool]) -> bool) -> Table {
    assignments().map(|a| f(&a)).collect()
}

/// Draws a random formula, returning the BDD built through the public
/// surface together with an independently composed truth table.
fn build(g: &mut prop::Gen, m: &mut BddManager, depth: u32) -> (Bdd, Table) {
    if depth == 0 || g.range_u32(0..4) == 0 {
        return match g.range_u32(0..4) {
            0 => (Bdd::TRUE, table_of(|_| true)),
            1 => (Bdd::FALSE, table_of(|_| false)),
            _ => {
                let v = g.range_u32(0..NVARS);
                (m.var(v), table_of(|a| a[v as usize]))
            }
        };
    }
    match g.range_u32(0..7) {
        0 => {
            let (a, ta) = build(g, m, depth - 1);
            (m.not(a), ta.iter().map(|x| !x).collect())
        }
        op => {
            let (a, ta) = build(g, m, depth - 1);
            let (b, tb) = build(g, m, depth - 1);
            let zip = |f: fn(bool, bool) -> bool| -> Table {
                ta.iter().zip(&tb).map(|(&x, &y)| f(x, y)).collect()
            };
            match op {
                1 => (m.and(a, b), zip(|x, y| x && y)),
                2 => (m.or(a, b), zip(|x, y| x || y)),
                3 => (m.xor(a, b), zip(|x, y| x != y)),
                4 => (m.iff(a, b), zip(|x, y| x == y)),
                5 => (m.implies(a, b), zip(|x, y| !x || y)),
                _ => (m.and_not(a, b), zip(|x, y| x && !y)),
            }
        }
    }
}

#[test]
fn random_formulas_agree_with_truth_table_oracle() {
    prop::check("bdd_oracle_agreement", |g| {
        let mut m = BddManager::new();
        let (b, table) = build(g, &mut m, 4);
        for (a, expect) in assignments().zip(&table) {
            assert_eq!(
                m.eval(b, &a),
                *expect,
                "formula disagrees with oracle on {a:?}"
            );
        }
        // Canonicity sanity: a formula equal to its table's constant must be
        // the terminal itself.
        if table.iter().all(|&x| x) {
            assert!(b.is_true());
        }
        if table.iter().all(|&x| !x) {
            assert!(b.is_false());
        }
    });
}

#[test]
fn derived_connectives_match_de_morgan_compositions() {
    prop::check("ite_vs_de_morgan", |g| {
        let mut m = BddManager::new();
        let (a, _) = build(g, &mut m, 3);
        let (b, _) = build(g, &mut m, 3);
        // or = ¬(¬a ∧ ¬b)
        let na = m.not(a);
        let nb = m.not(b);
        let both_off = m.and(na, nb);
        let or_dm = m.not(both_off);
        assert_eq!(m.or(a, b), or_dm);
        // xor = (a ∧ ¬b) ∨ (¬a ∧ b)
        let l = m.and_not(a, b);
        let r = m.and_not(b, a);
        let xor_dm = m.or(l, r);
        assert_eq!(m.xor(a, b), xor_dm);
        // iff = ¬xor
        let iff_dm = m.not(xor_dm);
        assert_eq!(m.iff(a, b), iff_dm);
        // implies = ¬a ∨ b
        let imp_dm = m.or(na, b);
        assert_eq!(m.implies(a, b), imp_dm);
        // and_not = a ∧ ¬b
        let andnot_dm = m.and(a, nb);
        assert_eq!(m.and_not(a, b), andnot_dm);
    });
}

#[test]
fn gc_stress_rooted_survive_unrooted_reclaimed() {
    prop::check("gc_stress", |g| {
        let mut m = BddManager::new();
        let formulas: Vec<(Bdd, Table)> = (0..12).map(|_| build(g, &mut m, 4)).collect();
        let rooted: Vec<usize> = (0..formulas.len()).filter(|_| g.bool()).collect();
        let roots: Vec<Bdd> = rooted.iter().map(|&i| formulas[i].0).collect();

        let live_before = m.live_node_count();
        m.gc(roots.iter().copied());
        assert!(
            m.live_node_count() <= live_before,
            "collection must not grow the live set"
        );

        // Handles are stable: every rooted formula still evaluates to its
        // oracle table through the *old* handle.
        for &i in &rooted {
            let (b, table) = &formulas[i];
            for (a, expect) in assignments().zip(table) {
                assert_eq!(m.eval(*b, &a), *expect, "rooted formula corrupted by GC");
            }
        }

        // Freed slots are reused safely: allocate fresh formulas on top and
        // re-check the rooted survivors.
        let fresh: Vec<(Bdd, Table)> = (0..6).map(|_| build(g, &mut m, 4)).collect();
        for (b, table) in rooted.iter().map(|&i| &formulas[i]).chain(&fresh) {
            for (a, expect) in assignments().zip(table) {
                assert_eq!(m.eval(*b, &a), *expect, "slot reuse corrupted a survivor");
            }
        }

        // With no roots at all, everything non-terminal is garbage.
        m.gc([]);
        assert_eq!(m.live_node_count(), 2, "only the terminals survive");
    });
}

/// Imported shared-base nodes are *permanent* GC roots: random formula
/// churn with explicit collections in between must neither reclaim nor
/// relabel a single base node, and `recycle()` must keep exactly the base
/// segment while releasing everything the family built on top.
#[test]
fn imported_base_survives_gc_and_recycle_stress() {
    let eval_table = |m: &BddManager, b: Bdd| -> Table {
        assignments().map(|a| m.eval(b, &a)).collect()
    };
    prop::check("shared_base_gc_roots", |g| {
        // A base of every literal plus a few random composites, built in a
        // source arena the way `SharedBase::build` does.
        let mut src = BddManager::new();
        let mut roots = Vec::new();
        for v in 0..NVARS {
            roots.push(src.var(v));
        }
        for v in 0..NVARS {
            roots.push(src.nvar(v));
        }
        for _ in 0..4 {
            let (b, _) = build(g, &mut src, 3);
            roots.push(b);
        }
        let oracles: Vec<Table> = roots.iter().map(|&b| eval_table(&src, b)).collect();

        let mut m = BddManager::new();
        let handles = m.import_base(&src, &roots);
        let base_nodes = m.base_node_count();
        // `family_node_count` counts the terminals (so it is comparable
        // with `node_count` on base-less managers) — 2 means the family
        // segment proper is empty.
        assert_eq!(m.family_node_count(), 2, "import must land in the base segment");
        // The 2×-live watermark policy counts base nodes as live, so a
        // watermark of twice the base segment must never let a collection
        // eat into it.
        m.set_gc_watermark(base_nodes * 2);

        for round in 0..3 {
            let churn: Vec<(Bdd, Table)> = (0..6).map(|_| build(g, &mut m, 4)).collect();
            let keep: Vec<(Bdd, Table)> =
                churn.into_iter().filter(|_| g.bool()).collect();
            m.gc(keep.iter().map(|&(b, _)| b));
            for (h, oracle) in handles.iter().zip(&oracles) {
                assert_eq!(
                    eval_table(&m, *h),
                    *oracle,
                    "round {round}: base handle corrupted by gc"
                );
            }
            for (b, oracle) in &keep {
                assert_eq!(
                    eval_table(&m, *b),
                    *oracle,
                    "round {round}: rooted survivor corrupted"
                );
            }
            assert!(
                m.live_node_count() >= base_nodes,
                "round {round}: collection reclaimed into the base segment"
            );
        }

        // A warm restart keeps the base segment and nothing else.
        m.recycle();
        assert_eq!(m.base_node_count(), base_nodes);
        assert_eq!(m.family_node_count(), 2);
        for (h, oracle) in handles.iter().zip(&oracles) {
            assert_eq!(eval_table(&m, *h), *oracle, "base handle lost across recycle");
        }
        // The arena stays fully functional: fresh formulas built on top of
        // the recycled base still agree with their oracles.
        let (b, table) = build(g, &mut m, 4);
        assert_eq!(eval_table(&m, b), table, "post-recycle arena corrupted");
    });
}

/// Brute-force failure costs of a truth table: the fewest false variables
/// among the assignments that satisfy (resp. falsify) it.
fn brute_costs(table: &Table) -> (u32, u32) {
    let mut best = [INF_FAILURES; 2];
    for (bits, &value) in table.iter().enumerate() {
        let down = NVARS - (bits as u32).count_ones();
        let slot = &mut best[usize::from(!value)];
        *slot = (*slot).min(down);
    }
    (best[0], best[1])
}

fn assert_costs(m: &mut BddManager, formulas: &[(Bdd, Table)], when: &str) {
    for (b, table) in formulas {
        let (sat, falsify) = brute_costs(table);
        assert_eq!(m.min_failures_to_satisfy(*b), sat, "{when}: satisfy cost");
        assert_eq!(
            m.min_failures_to_falsify(*b),
            falsify,
            "{when}: falsify cost"
        );
    }
}

/// The smallest case of a stale price: `x0 ∧ x1` is priced, dies in a GC,
/// and the arena refills its slots with `¬x0 ∧ ¬x1`-shaped functions whose
/// costs are the mirror image.
#[test]
fn reused_slot_reads_unpriced() {
    let mut m = BddManager::new();
    let a = m.var(0);
    let b = m.var(1);
    let f = m.and(a, b);
    assert_eq!(m.min_failures_to_satisfy(f), 0);
    assert_eq!(m.min_failures_to_falsify(f), 1);
    let arena = m.node_count();
    assert_eq!(m.gc([]), arena - 2);
    // Every freed slot is handed out again, each to a function with other
    // costs than `a`, `b` or `f` had.
    let na = m.nvar(0);
    let nb = m.nvar(1);
    let g = m.and(na, nb);
    assert_eq!(m.node_count(), arena, "the three slots were reused");
    for (h, sat, falsify) in [(na, 1, 0), (nb, 1, 0), (g, 2, 0)] {
        assert_eq!(m.min_failures_to_satisfy(h), sat);
        assert_eq!(m.min_failures_to_falsify(h), falsify);
    }
}

/// The dense cost memos across every lifetime event of an arena with a
/// base segment: prices of base handles survive `gc` and `recycle`;
/// anything a family priced and a `gc` / `recycle` dropped must be priced
/// afresh when its slot holds another function.
#[test]
fn cost_memo_is_exact_across_gc_and_recycle() {
    prop::check("dense_cost_memo_lifetimes", |g| {
        let mut src = BddManager::new();
        let base_src: Vec<(Bdd, Table)> = (0..4).map(|_| build(g, &mut src, 3)).collect();
        let roots: Vec<Bdd> = base_src.iter().map(|&(b, _)| b).collect();
        let mut m = BddManager::new();
        let handles = m.import_base(&src, &roots);
        let base: Vec<(Bdd, Table)> = handles
            .into_iter()
            .zip(base_src)
            .map(|(h, (_, table))| (h, table))
            .collect();
        let ops = m.tallies().ops;
        assert_costs(&mut m, &base, "fresh base");
        assert_eq!(m.tallies().ops, ops, "base handles arrive priced");

        for _ in 0..3 {
            // Family work, priced; a collection that keeps a random part;
            // new work in the freed slots.
            let family: Vec<(Bdd, Table)> = (0..8).map(|_| build(g, &mut m, 4)).collect();
            assert_costs(&mut m, &family, "family");
            let keep: Vec<(Bdd, Table)> = family.into_iter().filter(|_| g.bool()).collect();
            m.gc(keep.iter().map(|&(b, _)| b));
            let refill: Vec<(Bdd, Table)> = (0..8).map(|_| build(g, &mut m, 4)).collect();
            assert_costs(&mut m, &refill, "slots reused after gc");
            assert_costs(&mut m, &keep, "survivors after gc");
            let ops = m.tallies().ops;
            assert_costs(&mut m, &base, "base after gc");
            assert_eq!(m.tallies().ops, ops, "base prices survive gc");

            m.recycle();
            assert_costs(&mut m, &base, "base after recycle");
            assert_eq!(m.tallies().ops, 0, "base prices survive recycle");
        }
    });
}

/// Reference for `size`: distinct nodes reachable from `b`, by hash set.
fn size_by_hash_set(m: &BddManager, b: Bdd) -> usize {
    let mut seen = HashSet::new();
    let mut stack = vec![b];
    while let Some(x) = stack.pop() {
        if seen.insert(x) {
            if let Some((_, lo, hi)) = m.node_triple(x) {
                stack.push(lo);
                stack.push(hi);
            }
        }
    }
    seen.len()
}

/// `size` marks visited slots in one per-thread array shared by every
/// manager: calls on two managers alternate here, on formulas whose slot
/// ranges overlap, before and after a collection frees and refills slots.
#[test]
fn size_matches_hash_set_walk_across_managers_and_gc() {
    prop::check("size_visit_stamps", |g| {
        let mut m1 = BddManager::new();
        let mut m2 = BddManager::new();
        let mut f1: Vec<Bdd> = (0..10).map(|_| build(g, &mut m1, 4).0).collect();
        let mut f2: Vec<Bdd> = (0..10).map(|_| build(g, &mut m2, 4).0).collect();
        for round in 0..2 {
            for (&a, &b) in f1.iter().zip(&f2) {
                assert_eq!(m1.size(a), size_by_hash_set(&m1, a), "round {round}");
                assert_eq!(m2.size(b), size_by_hash_set(&m2, b), "round {round}");
                // Asking again must not see the previous call's marks.
                assert_eq!(m1.size(a), size_by_hash_set(&m1, a), "round {round}");
            }
            f1.retain(|_| g.bool());
            m1.gc(f1.iter().copied());
            f1.extend((0..6).map(|_| build(g, &mut m1, 4).0));
            f2.extend((0..3).map(|_| build(g, &mut m2, 4).0));
        }
    });
}

/// The regression the ISSUE pins: a 100,000-deep conjunction chain. Every
/// walk the old kernel did recursively (apply, negation, import, model
/// counting, cost pricing) must complete on a worker thread's default
/// stack.
#[test]
fn deep_chain_100k_runs_on_default_worker_stack() {
    std::thread::spawn(|| {
        const N: u32 = 100_000;
        let mut m = BddManager::new();
        let mut acc = Bdd::TRUE;
        for v in (0..N).rev() {
            let x = m.var(v);
            acc = m.and(x, acc);
        }
        assert_eq!(m.size(acc), N as usize + 2);

        // Negation of the whole chain.
        let neg = m.not(acc);
        assert!(m.eval(neg, &vec![false; N as usize]));
        assert!(m.eval(acc, &vec![true; N as usize]));

        // Import into a fresh manager preserves shape.
        let mut m2 = BddManager::new();
        let imported = m2.import(&m, acc);
        assert_eq!(m2.size(imported), m.size(acc));

        // Model counting saturates instead of overflowing `1u128 << gap`.
        assert_eq!(m.count_models(acc, N), 1);
        assert_eq!(m.count_models(neg, N), u128::MAX);

        // Failure-cost pricing walks the whole chain iteratively.
        assert_eq!(m.min_failures_to_falsify(acc), 1);
        assert_eq!(m.min_failures_to_satisfy(acc), 0);
        assert_eq!(m.min_failures_to_satisfy(neg), 1);

        // Restriction on the deepest variable collapses one level.
        let restricted = m.restrict(acc, N - 1, true);
        assert_eq!(m.size(restricted), N as usize + 1);
    })
    .join()
    .expect("deep-chain worker must not overflow its stack");
}
