#![warn(missing_docs)]

//! The router-configuration dialect of the Hoyan reproduction.
//!
//! Each device in the WAN is described by a text configuration in a
//! line-oriented, industry-shaped dialect (hostnames, interfaces with `peer`
//! statements, prefix-lists, community-lists, route-maps, data-plane
//! access-lists, `router bgp`, `router isis`, static routes, aggregation and
//! redistribution). The crate provides:
//!
//! - [`ir`]: the typed intermediate representation ([`DeviceConfig`]) that
//!   the device behavior models are generated from;
//! - [`parse`]: a hand-written, line-oriented parser with positioned errors;
//! - [`emit`]: the inverse pretty-printer (topogen emits through it; the
//!   tests round-trip through it);
//! - [`update`]: merging of *incremental* operator command lines onto an
//!   existing snapshot — the paper (§9) singles this out as a major
//!   practical pain; here `no <line>` removals and entity-replacing
//!   additions are merged by the same parser that reads snapshots.
//!
//! Topology is derived from the configs themselves: two devices are linked
//! when each has an interface whose `peer` names the other.
//!
//! [`diff`] adds the snapshot stage of the incremental pipeline:
//! [`ConfigSnapshot`] (parsed IR + stable per-device content hashes) and
//! [`SnapshotDelta`] (added/removed/modified devices and links, with
//! change-kind classification).

pub mod diff;
pub mod emit;
pub mod ir;
pub mod parse;
pub mod update;

pub use diff::{
    content_hash, declared_peers, origin_fingerprints, ConfigSnapshot, DeviceRef,
    ModifiedDevice, SnapshotDelta,
};
pub use ir::{
    AclEntry, AclProto, Action, Aggregate, BgpConfig, CommunityList, DeviceConfig,
    IgpKind, InterfaceConfig, IsisConfig, IsisLevel, MatchClause, Neighbor, PrefixList, PrefixListEntry,
    RedistSource, RouteMap, RouteMapEntry, SetClause, StaticRoute, Vendor,
};
pub use parse::{parse_config, ParseError};
pub use update::apply_update;
