//! Property tests: the BDD engine and the CDCL solver must both agree with
//! the brute-force formula evaluator on random small formulas.
//!
//! Runs on the in-tree seeded harness (`hoyan_rt::prop`); a failure prints
//! the seed to replay with `HOYAN_TEST_SEED`.

use hoyan_logic::{bdd::INF_FAILURES, Bdd, BddManager, Cnf, Formula, Solver};
use hoyan_rt::prop::{check_cases, Gen};

const NVARS: u32 = 6;
const CASES: u32 = 128;
const MAX_DEPTH: u32 = 4;

/// A random formula over `NVARS` variables, at most `depth` connectives
/// deep. Raw-word 0 maps to the first variant (`Var(0)`), so shrinking
/// drives formulas toward small leaves.
fn arb_formula(g: &mut Gen, depth: u32) -> Formula {
    let variant = if depth == 0 {
        g.range_u32(0..2)
    } else {
        g.range_u32(0..7)
    };
    match variant {
        0 => Formula::Var(g.range_u32(0..NVARS)),
        1 => Formula::Const(g.bool()),
        2 => Formula::not(arb_formula(g, depth - 1)),
        3 => {
            let n = g.range_usize(0..4);
            Formula::And((0..n).map(|_| arb_formula(g, depth - 1)).collect())
        }
        4 => {
            let n = g.range_usize(0..4);
            Formula::Or((0..n).map(|_| arb_formula(g, depth - 1)).collect())
        }
        5 => {
            let a = arb_formula(g, depth - 1);
            let b = arb_formula(g, depth - 1);
            Formula::imp(a, b)
        }
        _ => {
            let a = arb_formula(g, depth - 1);
            let b = arb_formula(g, depth - 1);
            Formula::iff(a, b)
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NVARS)).map(|bits| (0..NVARS).map(|v| bits & (1 << v) != 0).collect())
}

#[test]
fn bdd_agrees_with_eval() {
    check_cases(CASES, "bdd_agrees_with_eval", |g| {
        let f = arb_formula(g, MAX_DEPTH);
        let mut mgr = BddManager::new();
        let b = f.to_bdd(&mut mgr);
        for a in assignments() {
            assert_eq!(mgr.eval(b, &a), f.eval(&a));
        }
    });
}

#[test]
fn sat_agrees_with_brute_force() {
    check_cases(CASES, "sat_agrees_with_brute_force", |g| {
        let f = arb_formula(g, MAX_DEPTH);
        let brute_sat = assignments().any(|a| f.eval(&a));
        let mut cnf = Cnf::new();
        cnf.assert_formula(&f);
        let result = Solver::from_cnf(&cnf).solve();
        assert_eq!(result.is_sat(), brute_sat);
        if let Some(model) = result.model() {
            assert!(f.eval(&model));
        }
    });
}

#[test]
fn min_failure_costs_agree_with_brute_force() {
    check_cases(CASES, "min_failure_costs_agree_with_brute_force", |g| {
        let f = arb_formula(g, MAX_DEPTH);
        let mut mgr = BddManager::new();
        let b = f.to_bdd(&mut mgr);
        // Brute force: cost = number of false vars among the NVARS.
        let mut best_sat = None::<u32>;
        let mut best_falsify = None::<u32>;
        for a in assignments() {
            let down = a.iter().filter(|x| !**x).count() as u32;
            if f.eval(&a) {
                best_sat = Some(best_sat.map_or(down, |c| c.min(down)));
            } else {
                best_falsify = Some(best_falsify.map_or(down, |c| c.min(down)));
            }
        }
        assert_eq!(
            mgr.min_failures_to_satisfy(b),
            best_sat.unwrap_or(INF_FAILURES)
        );
        assert_eq!(
            mgr.min_failures_to_falsify(b),
            best_falsify.unwrap_or(INF_FAILURES)
        );
    });
}

#[test]
fn count_models_agrees_with_brute_force() {
    check_cases(CASES, "count_models_agrees_with_brute_force", |g| {
        let f = arb_formula(g, MAX_DEPTH);
        let mut mgr = BddManager::new();
        let b = f.to_bdd(&mut mgr);
        let brute = assignments().filter(|a| f.eval(a)).count() as u128;
        assert_eq!(mgr.count_models(b, NVARS), brute);
    });
}

#[test]
fn model_enumeration_matches_model_count() {
    check_cases(CASES, "model_enumeration_matches_model_count", |g| {
        let f = arb_formula(g, MAX_DEPTH);
        let mut mgr = BddManager::new();
        let b = f.to_bdd(&mut mgr);
        let brute = assignments().filter(|a| f.eval(a)).count();
        let mut cnf = Cnf::new();
        // Establish the projection universe before Tseitin allocates
        // auxiliary variables, as real encoders do.
        cnf.ensure_var(NVARS - 1);
        cnf.assert_formula(&f);
        let vars: Vec<u32> = (0..NVARS).collect();
        let models = Solver::from_cnf(&cnf).count_models(&vars, 1 << NVARS);
        assert_eq!(models.len(), brute);
        assert_eq!(mgr.count_models(b, NVARS) as usize, brute);
        // Every enumerated projection satisfies the formula.
        for m in &models {
            assert!(f.eval(m));
        }
    });
}

#[test]
fn restrict_matches_semantic_restriction() {
    check_cases(CASES, "restrict_matches_semantic_restriction", |g| {
        let f = arb_formula(g, MAX_DEPTH);
        let v = g.range_u32(0..NVARS);
        let val = g.bool();
        let mut mgr = BddManager::new();
        let b = f.to_bdd(&mut mgr);
        let r = mgr.restrict(b, v, val);
        for mut a in assignments() {
            a[v as usize] = val;
            assert_eq!(mgr.eval(r, &a), f.eval(&a));
        }
    });
}

#[test]
fn min_falsifying_failures_is_minimal_and_valid() {
    check_cases(CASES, "min_falsifying_failures_is_minimal_and_valid", |g| {
        let f = arb_formula(g, MAX_DEPTH);
        let mut mgr = BddManager::new();
        let b = f.to_bdd(&mut mgr);
        if let Some(fails) = mgr.min_falsifying_failures(b) {
            // Applying exactly that failure set (others alive) falsifies b.
            let mut a = vec![true; NVARS as usize];
            for v in &fails {
                a[*v as usize] = false;
            }
            assert!(!f.eval(&a));
            assert_eq!(fails.len() as u32, mgr.min_failures_to_falsify(b));
        } else {
            assert_eq!(mgr.min_failures_to_falsify(b), INF_FAILURES);
        }
    });
}

/// One step of a random kernel program over a growing pool of handles
/// (operands are pool indices).
#[derive(Debug)]
enum KernelOp {
    Ite(usize, usize, usize),
    AndAll(Vec<usize>),
    OrAllWithin(Vec<usize>, Option<u32>),
}

/// Runs `program` on `m`, starting from the literals of `KERNEL_VARS`
/// variables, and returns every handle it produced.
fn run_kernel_program(m: &mut BddManager, program: &[KernelOp]) -> Vec<Bdd> {
    let mut pool: Vec<Bdd> = (0..KERNEL_VARS).map(|v| m.var(v)).collect();
    pool.extend((0..KERNEL_VARS).map(|v| m.nvar(v)));
    for op in program {
        let pick =
            |ids: &[usize]| -> Vec<Bdd> { ids.iter().map(|&i| pool[i % pool.len()]).collect() };
        let r = match op {
            KernelOp::Ite(f, g, h) => {
                let o = pick(&[*f, *g, *h]);
                m.ite(o[0], o[1], o[2])
            }
            KernelOp::AndAll(ids) => m.and_all(pick(ids)),
            KernelOp::OrAllWithin(ids, k) => m.or_all_within(pick(ids), *k),
        };
        pool.push(r);
    }
    pool
}

const KERNEL_VARS: u32 = 8;

/// The kernel keeps its ITE, pricing and GC stacks between calls. What an
/// earlier call left behind — capacity grown by a deep chain, a whole
/// recycled segment — must be invisible: the same program gives the same
/// handles, the same tallies and the same functions as on a manager that
/// never did anything else.
#[test]
fn kernel_results_do_not_depend_on_scratch_history() {
    check_cases(CASES, "kernel_scratch_history", |g| {
        let program: Vec<KernelOp> = (0..g.range_usize(1..24))
            .map(|_| {
                let ids = |g: &mut Gen| -> Vec<usize> {
                    (0..g.range_usize(0..5))
                        .map(|_| g.range_usize(0..64))
                        .collect()
                };
                match g.range_u32(0..3) {
                    0 => KernelOp::Ite(
                        g.range_usize(0..64),
                        g.range_usize(0..64),
                        g.range_usize(0..64),
                    ),
                    1 => KernelOp::AndAll(ids(g)),
                    _ => KernelOp::OrAllWithin(ids(g), g.bool().then(|| g.range_u32(0..3))),
                }
            })
            .collect();

        let mut fresh = BddManager::new();
        let expect = run_kernel_program(&mut fresh, &program);

        // Grow every scratch stack (a 2 000-deep chain through `ite`, both
        // pricing walks, `size`, a collection), then reset the arena.
        let mut used = BddManager::new();
        let mut chain = Bdd::TRUE;
        for v in (0..2_000).rev() {
            let x = used.var(v);
            chain = used.and(x, chain);
        }
        let neg = used.not(chain);
        assert_eq!(used.min_failures_to_falsify(chain), 1);
        assert_eq!(used.min_failures_to_satisfy(neg), 1);
        assert_eq!(used.size(neg), 2_002);
        used.gc([neg]);
        used.recycle();

        for round in 0..2 {
            let got = run_kernel_program(&mut used, &program);
            assert_eq!(got, expect, "round {round}: handles");
            assert_eq!(used.tallies(), fresh.tallies(), "round {round}: tallies");
            for bits in 0..1u32 << KERNEL_VARS {
                let a: Vec<bool> = (0..KERNEL_VARS).map(|v| bits >> v & 1 == 1).collect();
                for (x, y) in got.iter().zip(&expect) {
                    assert_eq!(used.eval(*x, &a), fresh.eval(*y, &a), "round {round}");
                }
            }
            // The second round runs on the first one's leftovers.
            used.recycle();
        }
    });
}
