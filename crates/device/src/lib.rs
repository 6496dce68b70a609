#![warn(missing_docs)]

//! Device behavior models for Hoyan.
//!
//! "A concrete device behavior model is generated from the device
//! configuration and the vendor specific behavior modeler of the device
//! type" (§4.2). This crate is that generator:
//!
//! - [`vsb`]: the eight Table 2 vendor-specific behaviors as an explicit
//!   [`VsbProfile`], with ground-truth profiles per vendor, the naive
//!   assumption a fresh verifier starts from, diffing, and patching;
//! - [`policy`]: route-map and ACL evaluation (the match-action ingress and
//!   egress policies of Figure 3);
//! - [`selector`]: the BGP decision process, extended with the transitive
//!   IS-IS weight of Appendix C;
//! - [`model`]: the per-device [`BehaviorModel`] combining them into the
//!   control-plane and data-plane pipelines the simulator drives.

pub mod model;
pub mod policy;
pub mod selector;
pub mod vsb;

pub use model::{BehaviorModel, EgressUpdate, LearnedFrom, SessionKind};
pub use policy::{eval_acl, eval_optional_route_map, eval_route_map, Packet, PolicyVerdict};
pub use selector::{cmp_candidate_refs, cmp_candidates, rank, Candidate, CandidateRef};
pub use vsb::{CommunityHandling, LocalAsMode, RemovePrivateAs, VsbKind, VsbProfile};
