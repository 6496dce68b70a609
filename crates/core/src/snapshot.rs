//! The compiled-network and family-cache stages of the incremental
//! pipeline: `ConfigSnapshot` (parsed IR, `hoyan-config::diff`) →
//! [`CompiledNetwork`] (network model + conditioned IS-IS database behind
//! `Arc`s, built once and shared by every query) → per-family
//! `Simulation`s whose dependency traces feed a [`FamilyCache`].
//!
//! The cache invalidation rules live in [`classify_family`]; see
//! DESIGN.md's "Snapshot & delta pipeline" section for the soundness
//! argument.
//!
//! ## Cache entries hold no BDD handles
//!
//! Both the fresh and the incremental sweep run families on workers that
//! keep one warm `BddManager` arena each, recycled between families (see
//! `Verifier::sweep`). A [`CachedPrefixReport`] therefore stores
//! only plain data — hostnames, counts, formula *lengths* — never `Bdd`
//! handles: a handle is only meaningful inside the arena segment that
//! allocated it, and that segment is reset as soon as the family finishes.
//! `replay` reconstructs reports purely from this plain data, which is what
//! makes cached families safe to reuse across verifier instances and
//! processes.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use hoyan_config::{DeviceConfig, SnapshotDelta, Vendor};
use hoyan_device::VsbProfile;
use hoyan_nettypes::{Ipv4Prefix, LinkId};

use crate::isis::IsisDb;
use crate::network::NetworkModel;
use crate::propagate::{DepTrace, PruneStats};
use crate::topology::Topology;
use crate::verify::{PrefixReport, VerifierError};

/// The expensive, reusable middle stage of verification: the network model
/// and the conditioned IS-IS database, shareable across verifiers and
/// queries at the cost of two `Arc` clones.
#[derive(Clone)]
pub struct CompiledNetwork {
    /// The network model (topology, sessions, behavior models).
    pub net: Arc<NetworkModel>,
    /// The conditioned IS-IS database (iBGP session conditions).
    pub isis: Arc<IsisDb>,
    /// The failure budget the IS-IS database was built at.
    pub isis_k: Option<u32>,
}

impl CompiledNetwork {
    /// Compiles configurations into the shared model (the same work
    /// `Verifier::new` used to do inline).
    pub fn build(
        configs: Vec<DeviceConfig>,
        profile: impl Fn(Vendor) -> VsbProfile,
        isis_k: Option<u32>,
    ) -> Result<CompiledNetwork, VerifierError> {
        let net = NetworkModel::from_configs(configs, profile)?;
        let isis = IsisDb::build(&net, isis_k)?;
        Ok(CompiledNetwork {
            net: Arc::new(net),
            isis: Arc::new(isis),
            isis_k,
        })
    }
}

/// A family's dependency footprint, keyed by *hostname* (node and link ids
/// are renumbered whenever the device set changes, hostnames are stable
/// across snapshots).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FamilyDeps {
    /// Devices that seeded an origin entry for the family.
    pub origin_devices: BTreeSet<String>,
    /// Every device the family's propagation touched (origins, senders,
    /// and receivers — including receivers that dropped at ingress).
    pub touched_devices: BTreeSet<String>,
    /// Links that carried or conditioned a message, as normalized
    /// `(a, b)` hostname pairs.
    pub touched_links: BTreeSet<(String, String)>,
}

impl FamilyDeps {
    /// Resolves a simulation's node/link-id trace to hostnames.
    pub fn from_trace(trace: &DepTrace, topo: &Topology) -> FamilyDeps {
        let name = |id: u32| topo.name(hoyan_nettypes::NodeId(id)).to_string();
        let link = |id: u32| {
            let (a, b) = topo.link_ends(LinkId(id));
            let (a, b) = (topo.name(a).to_string(), topo.name(b).to_string());
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        };
        FamilyDeps {
            origin_devices: trace.origin_nodes.iter().map(name).collect(),
            touched_devices: trace.touched_nodes.iter().map(name).collect(),
            touched_links: trace.touched_links.iter().map(link).collect(),
        }
    }
}

/// A [`PrefixReport`] in cache form: node ids replaced by hostnames so the
/// report survives node renumbering between snapshots.
#[derive(Clone, Debug)]
pub struct CachedPrefixReport {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// The family's pruning statistics.
    pub stats: PruneStats,
    /// Largest topology-condition formula during propagation.
    pub max_cond_len: usize,
    /// Largest final reachability formula.
    pub max_reach_formula_len: usize,
    /// Devices that can receive a route (all-alive), by hostname.
    pub scope: Vec<String>,
    /// Devices not resilient to the cached `k`, by hostname.
    pub fragile: Vec<String>,
    /// Whether this report heads its co-simulated family.
    pub family_head: bool,
    /// Wall-clock simulation time of the original run (informational).
    pub sim_time: Duration,
    /// Wall-clock query time of the original run (informational).
    pub query_time: Duration,
}

impl CachedPrefixReport {
    /// Converts a fresh report into cache form.
    pub fn from_report(r: &PrefixReport, topo: &Topology) -> CachedPrefixReport {
        let names =
            |ns: &[hoyan_nettypes::NodeId]| ns.iter().map(|n| topo.name(*n).to_string()).collect();
        CachedPrefixReport {
            prefix: r.prefix,
            stats: r.stats,
            max_cond_len: r.max_cond_len,
            max_reach_formula_len: r.max_reach_formula_len,
            scope: names(&r.scope),
            fragile: names(&r.fragile),
            family_head: r.family_head,
            sim_time: r.sim_time,
            query_time: r.query_time,
        }
    }

    /// Replays the cached report against a (possibly renumbered) topology.
    /// Returns `None` when a hostname no longer exists — the caller must
    /// then treat the family as dirty (the removed-device dirty rule makes
    /// this unreachable for families classified clean).
    pub fn replay(&self, topo: &Topology) -> Option<PrefixReport> {
        let nodes = |names: &[String]| {
            let mut out = Vec::with_capacity(names.len());
            for n in names {
                out.push(topo.node(n)?);
            }
            // Fresh sweeps list scope/fragile in node-id order; renumbering
            // can permute that, so restore the invariant.
            out.sort();
            Some(out)
        };
        Some(PrefixReport {
            prefix: self.prefix,
            sim_time: self.sim_time,
            query_time: self.query_time,
            stats: self.stats,
            max_cond_len: self.max_cond_len,
            max_reach_formula_len: self.max_reach_formula_len,
            scope: nodes(&self.scope)?,
            fragile: nodes(&self.fragile)?,
            family_head: self.family_head,
        })
    }
}

/// One cached family: its prefix set (the cache key), its reports, and its
/// dependency footprint.
#[derive(Clone, Debug)]
pub struct CachedFamily {
    /// The family's prefixes, sorted (as produced by `Verifier::families`).
    pub prefixes: Vec<Ipv4Prefix>,
    /// The per-prefix reports of the baseline sweep.
    pub reports: Vec<CachedPrefixReport>,
    /// The family's dependency footprint.
    pub deps: FamilyDeps,
    /// The BDD bill the baseline sweep paid for this family. Carried so a
    /// later `reverify` can attribute reused families (at zero marginal
    /// cost) alongside recomputed ones.
    pub cost: crate::verify::FamilyCost,
}

/// The sweep cache: every family's reports and dependency footprint at one
/// failure budget. Keyed by the exact sorted prefix set, so a family whose
/// *composition* changes (a prefix appearing or disappearing from its
/// overlap closure) naturally misses and is re-simulated.
#[derive(Clone, Debug, Default)]
pub struct FamilyCache {
    /// The failure budget the cache was built at. Traces and reports are
    /// budget-specific; `reverify` refuses to reuse across budgets.
    pub k: u32,
    /// The IS-IS precomputation budget the baseline verifier was built at.
    /// Session conditions are conditioned on it, so reports from a cache
    /// built at a different `isis_k` are not comparable — `reverify`
    /// refuses to reuse across IS-IS budgets too.
    pub isis_k: Option<u32>,
    families: HashMap<Vec<Ipv4Prefix>, CachedFamily>,
}

impl FamilyCache {
    /// An empty cache for sweep budget `k` and IS-IS budget `isis_k`.
    pub fn new(k: u32, isis_k: Option<u32>) -> FamilyCache {
        FamilyCache {
            k,
            isis_k,
            families: HashMap::new(),
        }
    }

    /// Inserts a family (keyed by its prefix set).
    pub fn insert(&mut self, family: CachedFamily) {
        self.families.insert(family.prefixes.clone(), family);
    }

    /// Looks a family up by its exact (sorted) prefix set.
    pub fn get(&self, prefixes: &[Ipv4Prefix]) -> Option<&CachedFamily> {
        self.families.get(prefixes)
    }

    /// Number of cached families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }
}

/// Why a family must be re-simulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirtyReason {
    /// The requested sweep budget `k` or the verifier's IS-IS budget
    /// `isis_k` differs from the cache's.
    BudgetChanged,
    /// The family (this exact prefix set) is not in the cache — new
    /// prefixes, or an overlap-closure composition change.
    NotCached,
    /// The delta can alter the IGP graph; every iBGP session condition is
    /// potentially stale.
    IgpChanged,
    /// A device the family touched was removed.
    DeviceRemoved(String),
    /// A device was added next to a touched device (new sessions can form
    /// with peers that pre-declared it).
    DeviceAdded(String),
    /// A touched device (or a device adjacent to one) changed its session,
    /// policy or interface surface.
    DeviceChanged(String),
    /// A device changed how it originates a prefix overlapping the family.
    OriginChanged(String),
    /// A cached hostname no longer resolves in the new topology.
    ReplayFailed,
}

impl std::fmt::Display for DirtyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirtyReason::BudgetChanged => write!(f, "failure budget changed"),
            DirtyReason::NotCached => write!(f, "not in cache"),
            DirtyReason::IgpChanged => write!(f, "IS-IS reachability changed"),
            DirtyReason::DeviceRemoved(d) => write!(f, "touched device {d} removed"),
            DirtyReason::DeviceAdded(d) => write!(f, "device {d} added next to propagation"),
            DirtyReason::DeviceChanged(d) => write!(f, "touched device {d} changed"),
            DirtyReason::OriginChanged(d) => write!(f, "origin changed on {d}"),
            DirtyReason::ReplayFailed => write!(f, "cached report no longer replayable"),
        }
    }
}

/// The cache invalidation rules: decides whether a cached family survives
/// `delta`. Returns `None` when the family is clean (its cached reports
/// can be replayed verbatim), or the first reason it is dirty.
///
/// Soundness rests on the dependency trace: a device the propagation never
/// touched never had its configuration read by the family's simulation, so
/// changing it cannot alter the fixpoint — *except* through the three
/// escape hatches handled explicitly: (a) the IGP graph (iBGP session
/// conditions are global, any IGP-affecting delta dirties everything),
/// (b) session formation (a new/changed device can form sessions with an
/// unmodified peer that already declared it — caught by intersecting the
/// device's declared-peer set with the touched set; the route reaching the
/// new session must come *from* a touched device), and (c) origin changes
/// (seeding reads origin config before any propagation — caught by
/// overlapping the origin-prefix delta with the family's prefixes; for an
/// added or removed device, its whole origin set *is* the delta, and the
/// overlap must be checked even when no touched device is involved: an
/// added device announcing an already-known prefix leaves the family's
/// cache key unchanged while seeding a new origin).
pub fn classify_family(
    prefixes: &[Ipv4Prefix],
    deps: &FamilyDeps,
    delta: &SnapshotDelta,
) -> Option<DirtyReason> {
    if delta.igp_affecting {
        return Some(DirtyReason::IgpChanged);
    }
    let touched = |h: &String| deps.touched_devices.contains(h);
    let overlaps_family = |origins: &BTreeSet<Ipv4Prefix>| {
        prefixes
            .iter()
            .any(|p| origins.iter().any(|q| p.contains(*q) || q.contains(*p)))
    };
    for d in &delta.removed {
        if touched(&d.hostname) {
            return Some(DirtyReason::DeviceRemoved(d.hostname.clone()));
        }
        if overlaps_family(&d.origin_prefixes) {
            return Some(DirtyReason::OriginChanged(d.hostname.clone()));
        }
    }
    for d in &delta.added {
        if d.peers.iter().any(touched) {
            return Some(DirtyReason::DeviceAdded(d.hostname.clone()));
        }
        if overlaps_family(&d.origin_prefixes) {
            return Some(DirtyReason::OriginChanged(d.hostname.clone()));
        }
    }
    for m in &delta.modified {
        if (m.policy_changed || m.interfaces_changed)
            && (touched(&m.hostname) || m.peers.iter().any(touched))
        {
            return Some(DirtyReason::DeviceChanged(m.hostname.clone()));
        }
        if m.origins_changed
            && prefixes.iter().any(|p| {
                m.origin_prefix_delta
                    .iter()
                    .any(|q| p.contains(*q) || q.contains(*p))
            })
        {
            return Some(DirtyReason::OriginChanged(m.hostname.clone()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_config::ConfigSnapshot;

    fn deps(touched: &[&str]) -> FamilyDeps {
        FamilyDeps {
            origin_devices: BTreeSet::new(),
            touched_devices: touched.iter().map(|s| s.to_string()).collect(),
            touched_links: BTreeSet::new(),
        }
    }

    fn cfgs(texts: &[&str]) -> Vec<DeviceConfig> {
        texts
            .iter()
            .map(|t| hoyan_config::parse_config(t).unwrap())
            .collect()
    }

    #[test]
    fn untouched_device_changes_keep_families_clean() {
        let a = cfgs(&[
            "hostname A\ninterface e0\n peer B\nrouter bgp 1\n network 10.0.0.0/24\n neighbor B remote-as 2\n",
            "hostname B\ninterface e0\n peer A\nrouter bgp 2\n neighbor A remote-as 1\n",
            "hostname C\nrouter bgp 3\n network 10.7.0.0/24\n",
        ]);
        let mut after = a.clone();
        after[2].bgp.as_mut().unwrap().neighbors.clear(); // no-op: already empty
        after[2].router_id = 99; // policy-class change on C
        let delta = ConfigSnapshot::new(a).diff(&ConfigSnapshot::new(after));
        let fam: Vec<Ipv4Prefix> = vec!["10.0.0.0/24".parse().unwrap()];
        // C untouched by this family -> clean.
        assert_eq!(classify_family(&fam, &deps(&["A", "B"]), &delta), None);
        // C touched -> dirty.
        assert!(matches!(
            classify_family(&fam, &deps(&["A", "B", "C"]), &delta),
            Some(DirtyReason::DeviceChanged(d)) if d == "C"
        ));
    }

    #[test]
    fn origin_overlap_rule() {
        let a = cfgs(&["hostname A\nrouter bgp 1\n network 10.0.0.0/24\n"]);
        let mut after = a.clone();
        after[0]
            .bgp
            .as_mut()
            .unwrap()
            .networks
            .push("10.1.0.0/24".parse().unwrap());
        let delta = ConfigSnapshot::new(a).diff(&ConfigSnapshot::new(after));
        let d = deps(&[]); // A not touched by either family under test
        let overlapping: Vec<Ipv4Prefix> = vec!["10.1.0.0/16".parse().unwrap()];
        assert!(matches!(
            classify_family(&overlapping, &d, &delta),
            Some(DirtyReason::OriginChanged(_))
        ));
        let unrelated: Vec<Ipv4Prefix> = vec!["192.0.2.0/24".parse().unwrap()];
        assert_eq!(classify_family(&unrelated, &d, &delta), None);
    }

    #[test]
    fn added_device_dirties_families_touching_its_peers() {
        let a = cfgs(&["hostname A\nrouter bgp 1\n network 10.0.0.0/24\n"]);
        let mut after_v = a.clone();
        after_v.push(
            hoyan_config::parse_config(
                "hostname Z\ninterface e0\n peer A\nrouter bgp 9\n neighbor A remote-as 1\n",
            )
            .unwrap(),
        );
        let delta = ConfigSnapshot::new(a).diff(&ConfigSnapshot::new(after_v));
        let fam: Vec<Ipv4Prefix> = vec!["10.0.0.0/24".parse().unwrap()];
        assert!(matches!(
            classify_family(&fam, &deps(&["A"]), &delta),
            Some(DirtyReason::DeviceAdded(z)) if z == "Z"
        ));
        assert_eq!(classify_family(&fam, &deps(&["B"]), &delta), None);
    }

    #[test]
    fn added_origin_device_dirties_overlapping_families() {
        // Z appears announcing a prefix the family already contains, and
        // attaches (via pre-provisioned mutual config on C) only to a device
        // the family never touched. The cache key is unchanged and the peer
        // rule sees nothing — only the origin-overlap rule catches it.
        let a = cfgs(&[
            "hostname A\nrouter bgp 1\n network 10.0.0.0/24\n",
            "hostname C\ninterface e0\n peer Z\nrouter bgp 3\n neighbor Z remote-as 9\n",
        ]);
        let mut after = a.clone();
        after.push(
            hoyan_config::parse_config(
                "hostname Z\ninterface e0\n peer C\nrouter bgp 9\n network 10.0.0.0/24\n neighbor C remote-as 3\n",
            )
            .unwrap(),
        );
        let delta = ConfigSnapshot::new(a.clone()).diff(&ConfigSnapshot::new(after.clone()));
        let fam: Vec<Ipv4Prefix> = vec!["10.0.0.0/24".parse().unwrap()];
        assert!(matches!(
            classify_family(&fam, &deps(&["A"]), &delta),
            Some(DirtyReason::OriginChanged(z)) if z == "Z"
        ));
        // A family Z's origins cannot overlap stays clean.
        let other: Vec<Ipv4Prefix> = vec!["192.0.2.0/24".parse().unwrap()];
        assert_eq!(classify_family(&other, &deps(&["A"]), &delta), None);
        // And removing Z again dirties the overlapping family even when the
        // cached trace somehow missed it.
        let rev = ConfigSnapshot::new(after).diff(&ConfigSnapshot::new(a));
        assert!(matches!(
            classify_family(&fam, &deps(&["A"]), &rev),
            Some(DirtyReason::OriginChanged(z)) if z == "Z"
        ));
    }

    #[test]
    fn igp_affecting_delta_dirties_everything() {
        let a = cfgs(&[
            "hostname A\ninterface e0\n peer B\nrouter isis\n area 0\n",
            "hostname B\ninterface e0\n peer A\nrouter isis\n area 0\n",
        ]);
        let mut after = a.clone();
        after[0].interfaces[0].link_metric = 99;
        let delta = ConfigSnapshot::new(a).diff(&ConfigSnapshot::new(after));
        let fam: Vec<Ipv4Prefix> = vec!["10.0.0.0/24".parse().unwrap()];
        assert_eq!(
            classify_family(&fam, &deps(&[]), &delta),
            Some(DirtyReason::IgpChanged)
        );
    }
}
