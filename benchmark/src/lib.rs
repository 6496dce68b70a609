//! The repo benchmark of the hoyan verifier (see `README.md` next to this
//! crate and `BENCHMARK.json` at the repository root).
//!
//! * [`workloads`] — the workload table and the drivers that time `hoyan`
//!   through its CLI and daemon surfaces and check every answer;
//! * [`layers`] — the one adapter file that calls into the hoyan library
//!   (traced in-process pipeline, push replica, concrete oracle);
//! * [`fixture`] — seeded inputs; [`digest`] — normalised verdicts;
//!   [`stats`] — estimators; [`trace`] — benchmark-side spans;
//!   [`child`] — child processes and the daemon client;
//!   [`metrics`] — every reported metric name, unit, direction and bound.

#![warn(missing_docs)]

pub mod child;
pub mod digest;
pub mod fixture;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
