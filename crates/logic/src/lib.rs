#![warn(missing_docs)]

//! The formal-modeling substrate of Hoyan.
//!
//! The paper's "local formal modeling" attaches a *topology condition* — a
//! Boolean formula over link-aliveness variables — to every route update, RIB
//! rule, FIB rule and in-flight packet, and occasionally hands a small
//! formula to an SMT solver (the authors used Z3). Every formula Hoyan
//! builds is purely propositional, so this crate provides two from-scratch
//! engines that together cover all of Hoyan's queries:
//!
//! - [`bdd`]: a hash-consed reduced ordered BDD manager. Topology conditions
//!   are kept in canonical form, which gives the paper's three pruning
//!   optimizations for free: *impossible* conditions are the `false` node,
//!   *more-than-k-failure* conditions are detected with a weighted
//!   shortest-path walk ([`BddManager::min_failures_to_satisfy`]), and
//!   *simplification* is inherent in BDD reduction.
//! - [`sat`]: a CDCL SAT solver (watched literals, first-UIP learning, VSIDS
//!   activities, restarts) with model enumeration, used for route-update
//!   racing detection (ambiguity = more than one model, Appendix B) and by
//!   the Minesweeper-style monolithic baseline.
//! - [`formula`]: a small formula AST with a brute-force evaluator, bridging
//!   the two engines and serving as the test oracle.

pub mod bdd;
pub mod cnf;
pub mod formula;
pub mod sat;

pub use bdd::{Bdd, BddBudget, BddManager, BddTallies, BudgetBreach};
pub use cnf::{Cnf, Lit, Var};
pub use formula::Formula;
pub use sat::{SatResult, Solver};
