#![warn(missing_docs)]

//! Hoyan's core: the "global simulation & local formal modeling" verifier.
//!
//! The crate wires device behavior models into a [`network::NetworkModel`],
//! runs the conditioned route-propagation engine ([`propagate`]), supports
//! IS-IS via edge cuts and its path-vector translation ([`isis`]), derives
//! conditioned FIBs ([`fib`]) and symbolic packet walks ([`packet`]), detects
//! route-update racing ([`racing`]), and exposes it all through
//! [`verify::Verifier`].
//!
//! Every route update, RIB rule, FIB rule and packet branch carries a
//! *topology condition* — a BDD over link-aliveness variables — which is
//! what lets one simulation answer reachability under **all** scenarios of
//! at most `k` link failures (§5), with aggressive pruning of branches whose
//! conditions are impossible or need more than `k` failures (§5.6).

mod classes;
pub mod fib;
mod igp_cut;
pub mod isis;
pub mod network;
pub mod packet;
pub mod propagate;
pub mod racing;
pub mod serve;
pub mod snapshot;
pub mod topology;
pub mod verify;

pub use fib::{fib_rules_for, is_gateway, FibAction, FibRule};
pub use isis::{DestHops, IsisDb, IsisHop};
pub use network::{BgpSession, NetworkModel};
pub use packet::{packet_reach, packet_reach_ecmp, EcmpMode, PacketWalk};
pub use propagate::{
    AttachedBase, DepTrace, Entry, IdSet, Mode, Proto, PruneStats, RibView, SharedBase, SimError,
    Simulation, LOCAL_WEIGHT,
};
pub use racing::{racing_check, RacingReport};
pub use serve::{render_reach_response, ServeError, ServeOptions, ServeSummary, Server};
pub use snapshot::{
    classify_family, CachedFamily, CachedPrefixReport, CompiledNetwork, DirtyReason, FamilyCache,
    FamilyDeps,
};
pub use topology::{Topology, TopologyError};
pub use verify::{
    EquivalenceReport, FamilyBudget, FamilyCost, FamilyOutcome, PrefixReport, QuarantinedFamily,
    ReachReport, ReverifyOutcome, StreamSummary, StreamedFamily, SweepOptions, SweepReport,
    Verifier, VerifierError,
};
