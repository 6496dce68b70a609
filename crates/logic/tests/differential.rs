//! Exhaustive small-universe differential harness: BDD vs SAT vs truth
//! table, under several variable permutations.
//!
//! The universe is small enough to enumerate *completely*: for `n ≤ 3`
//! variables every one of the `2^2^n` truth tables is checked, and for
//! `n = 4` all 65,536 tables are checked against the BDD engine (with a
//! seeded SAT sample on top — Tseitin-encoding 65k tables twice is all
//! cost and no extra coverage, since the n ≤ 3 pass already exercises the
//! solver on every function shape).
//!
//! Variable permutations: each table is built with logical variable `v`
//! branching on BDD index `perm[v]`, for three representative bijections —
//! the identity, the reversal, and an evens-then-odds interleave. The
//! invariant proven here is a kernel one: *any* permutation preserves
//! Boolean semantics, satisfiability and the failure-cost metrics; only
//! node counts may change.

use hoyan_logic::{Bdd, BddManager, Cnf, Formula, Solver};
use hoyan_rt::prop;

/// `perm[v]` is the BDD variable index logical variable `v` branches on.
type Perm = Vec<u32>;

/// The named permutations every test runs under, over `n` variables. The
/// identity comes first.
fn perms(n: u32) -> [(&'static str, Perm); 3] {
    // `visit[i]` is the logical variable placed at index `i`; invert it.
    let from_visit = |visit: Vec<u32>| {
        let mut perm = vec![0; n as usize];
        for (i, v) in visit.into_iter().enumerate() {
            perm[v as usize] = i as u32;
        }
        perm
    };
    [
        ("identity", (0..n).collect()),
        ("reversed", from_visit((0..n).rev().collect())),
        (
            "interleaved",
            from_visit(
                (0..n)
                    .filter(|v| v % 2 == 0)
                    .chain((0..n).filter(|v| v % 2 == 1))
                    .collect(),
            ),
        ),
    ]
}

/// Truth tables are bitmasks: bit `a` of `t` is the function's value on
/// assignment `a`, where bit `v` of `a` is logical variable `v`.
fn table_bit(t: u32, a: u32) -> bool {
    t >> a & 1 == 1
}

fn full_mask(n: u32) -> u32 {
    if 1 << n == 32 {
        u32::MAX
    } else {
        (1u32 << (1 << n)) - 1
    }
}

/// Builds the BDD of table `t` as a DNF of minterms, branching on the
/// *permuted* variable indices.
fn bdd_of_table(m: &mut BddManager, t: u32, n: u32, ord: &[u32]) -> Bdd {
    let mut acc = Bdd::FALSE;
    for a in 0..1u32 << n {
        if !table_bit(t, a) {
            continue;
        }
        let mut term = Bdd::TRUE;
        for v in 0..n {
            let idx = ord[v as usize];
            let lit = if a >> v & 1 == 1 {
                m.var(idx)
            } else {
                m.nvar(idx)
            };
            term = m.and(term, lit);
        }
        acc = m.or(acc, term);
    }
    acc
}

/// Checks the BDD against the table on every assignment, evaluating at the
/// permuted indices.
fn assert_bdd_matches_table(m: &BddManager, b: Bdd, t: u32, n: u32, ord: &[u32], ctx: &str) {
    for a in 0..1u32 << n {
        let mut assign = vec![false; n as usize];
        for v in 0..n {
            assign[ord[v as usize] as usize] = a >> v & 1 == 1;
        }
        assert_eq!(
            m.eval(b, &assign),
            table_bit(t, a),
            "{ctx}: BDD disagrees with table {t:#x} on assignment {a:#b}"
        );
    }
}

/// The DNF-of-minterms formula of table `t` in the *logical* variable
/// space (the SAT side never sees the BDD ordering — that asymmetry is the
/// point of the differential check).
fn formula_of_table(t: u32, n: u32) -> Formula {
    let mut terms = Vec::new();
    for a in 0..1u32 << n {
        if !table_bit(t, a) {
            continue;
        }
        let lits: Vec<Formula> = (0..n)
            .map(|v| {
                if a >> v & 1 == 1 {
                    Formula::var(v)
                } else {
                    Formula::not(Formula::var(v))
                }
            })
            .collect();
        terms.push(Formula::And(lits));
    }
    Formula::Or(terms)
}

/// Satisfiability of `f` via Tseitin + CDCL.
fn sat_of(f: &Formula) -> bool {
    let mut cnf = Cnf::new();
    let lit = cnf.tseitin(f);
    cnf.add_unit(lit);
    Solver::from_cnf(&cnf).solve().is_sat()
}

/// Renames the formula's variables through the permutation, mirroring what
/// `bdd_of_table` does on the BDD side.
fn permute_formula(f: &Formula, ord: &[u32]) -> Formula {
    match f {
        Formula::Const(c) => Formula::Const(*c),
        Formula::Var(v) => Formula::Var(ord[*v as usize]),
        Formula::Not(inner) => Formula::not(permute_formula(inner, ord)),
        Formula::And(fs) => Formula::And(fs.iter().map(|x| permute_formula(x, ord)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|x| permute_formula(x, ord)).collect()),
        Formula::Imp(a, b) => {
            Formula::imp(permute_formula(a, ord), permute_formula(b, ord))
        }
        Formula::Iff(a, b) => {
            Formula::iff(permute_formula(a, ord), permute_formula(b, ord))
        }
    }
}

/// Every truth table over up to 3 variables, under every permutation: the
/// BDD built from minterms agrees with the table pointwise, is canonical
/// (constant tables hit the terminals, and `Formula::to_bdd` of the
/// permuted formula lands on the *same handle*), and the SAT solver's
/// verdicts match the table's population count.
#[test]
fn exhaustive_tables_small_universe_all_orderings() {
    for n in 0..=3u32 {
        let mask = full_mask(n);
        for (ordering, ord) in perms(n) {
            let mut m = BddManager::new();
            for t in 0..=mask {
                let ctx = format!("n={n} ordering={ordering} t={t:#x}");
                let b = bdd_of_table(&mut m, t, n, &ord);
                assert_bdd_matches_table(&m, b, t, n, &ord, &ctx);
                // Canonicity ties BDD to truth table at the handle level.
                assert_eq!(b.is_false(), t == 0, "{ctx}: FALSE iff empty table");
                assert_eq!(b.is_true(), t == mask, "{ctx}: TRUE iff full table");
                // An independently built BDD of the same function must be
                // the same node — `to_bdd` goes through a different
                // construction path than the minterm loop above.
                let f = formula_of_table(t, n);
                let via_formula = permute_formula(&f, &ord).to_bdd(&mut m);
                assert_eq!(b, via_formula, "{ctx}: canonicity across build paths");
                // SAT ≡ truth table (and, transitively, ≡ BDD).
                assert_eq!(sat_of(&f), t != 0, "{ctx}: SAT verdict");
                assert_eq!(
                    sat_of(&Formula::not(f)),
                    t != mask,
                    "{ctx}: UNSAT of negation iff tautology"
                );
            }
        }
    }
}

/// Every binary (and the unary) Boolean operation, over every pair of
/// 2-variable functions, under every permutation: the BDD op result is
/// node-identical to the BDD of the oracle table, and the SAT solver
/// proves the formula-level op equivalent to the oracle (its negated
/// biconditional is unsatisfiable).
#[test]
fn every_op_agrees_across_engines_exhaustively() {
    let n = 2u32;
    let mask = full_mask(n);
    type TableOp = fn(u32, u32, u32) -> u32;
    type FormulaOp = fn(Formula, Formula) -> Formula;
    let ops: [(&str, TableOp, FormulaOp); 6] = [
        ("and", |a, b, _| a & b, Formula::and),
        ("or", |a, b, _| a | b, Formula::or),
        ("xor", |a, b, m| (a ^ b) & m, |a, b| {
            Formula::not(Formula::iff(a, b))
        }),
        ("iff", |a, b, m| !(a ^ b) & m, Formula::iff),
        ("implies", |a, b, m| (!a | b) & m, Formula::imp),
        ("and_not", |a, b, m| a & !b & m, |a, b| {
            Formula::and(a, Formula::not(b))
        }),
    ];
    for (ordering, ord) in perms(n) {
        let mut m = BddManager::new();
        for ta in 0..=mask {
            for tb in 0..=mask {
                let a = bdd_of_table(&mut m, ta, n, &ord);
                let b = bdd_of_table(&mut m, tb, n, &ord);
                for (name, top, fop) in &ops {
                    let tc = top(ta, tb, mask);
                    let c = match *name {
                        "and" => m.and(a, b),
                        "or" => m.or(a, b),
                        "xor" => m.xor(a, b),
                        "iff" => m.iff(a, b),
                        "implies" => m.implies(a, b),
                        _ => m.and_not(a, b),
                    };
                    let ctx = format!("ordering={ordering} {name}({ta:#x},{tb:#x})");
                    assert_bdd_matches_table(&m, c, tc, n, &ord, &ctx);
                    let oracle = bdd_of_table(&mut m, tc, n, &ord);
                    assert_eq!(c, oracle, "{ctx}: op result not canonical");
                    // SAT cross-check once per (pair, op) — the formula
                    // side is ordering-blind, so only do it on the first
                    // permutation to keep the solve count at 1,792.
                    if ordering == "identity" {
                        let f_op =
                            fop(formula_of_table(ta, n), formula_of_table(tb, n));
                        let f_oracle = formula_of_table(tc, n);
                        let differs =
                            Formula::not(Formula::iff(f_op, f_oracle));
                        assert!(!sat_of(&differs), "{ctx}: SAT refutes op oracle");
                    }
                }
                // Unary negation rides along on the pair loop's `a`.
                let tn = !ta & mask;
                let c = m.not(a);
                let oracle = bdd_of_table(&mut m, tn, n, &ord);
                assert_eq!(c, oracle, "ordering={ordering} not({ta:#x})");
            }
        }
    }
}

/// All 65,536 truth tables over 4 variables: BDD vs truth table under
/// every permutation, with the failure-cost walks pinned order-invariant
/// (they are functions of the Boolean function, not of its node layout).
#[test]
fn n4_exhaustive_bdd_vs_truth_table_and_cost_invariance() {
    let n = 4u32;
    let mask = full_mask(n);
    let mut managers: Vec<(Perm, BddManager)> = perms(n)
        .into_iter()
        .map(|(_, p)| (p, BddManager::new()))
        .collect();
    for t in 0..=mask {
        let mut costs: Vec<(u32, u32)> = Vec::with_capacity(3);
        for (ord, m) in managers.iter_mut() {
            let b = bdd_of_table(m, t, n, ord);
            // Pointwise agreement on all 16 assignments.
            assert_bdd_matches_table(m, b, t, n, ord, &format!("n=4 t={t:#x}"));
            costs.push((m.min_failures_to_satisfy(b), m.min_failures_to_falsify(b)));
        }
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "t={t:#x}: failure costs differ across orderings: {costs:?}"
        );
    }
}

/// Seeded SAT sample over the 4-variable universe (the exhaustive SAT
/// pass stops at n = 3): random tables, solver verdict vs population
/// count, replayable with `HOYAN_TEST_SEED`.
#[test]
fn n4_sampled_sat_agrees_with_truth_table() {
    prop::check_cases(64, "differential_n4_sat", |g| {
        let n = 4u32;
        let mask = full_mask(n);
        let t = g.u32() & mask;
        let f = formula_of_table(t, n);
        assert_eq!(sat_of(&f), t != 0, "t={t:#x}: SAT verdict");
        assert_eq!(
            sat_of(&Formula::not(f)),
            t != mask,
            "t={t:#x}: negation verdict"
        );
    });
}
