//! The user-facing verification API.
//!
//! A [`Verifier`] owns the network model built from a configuration
//! snapshot plus the conditioned IS-IS database, and answers the queries the
//! paper's operators ask: route reachability under `k` failures, packet
//! reachability, device/role equivalence, route-update racing, and
//! propagation-scope audits. Per-prefix work is independent, so
//! [`Verifier::verify_all_routes`] fans out across threads (CPU-bound work
//! on scoped threads, per the networking guides — no async runtime).

use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hoyan_config::{DeviceConfig, SnapshotDelta, Vendor};
use hoyan_device::{Packet, VsbProfile};
use hoyan_nettypes::{Ipv4Prefix, LinkId, NodeId};

use crate::isis::IsisDb;
use crate::network::NetworkModel;
use crate::packet::packet_reach;
use crate::propagate::{AttachedBase, PruneStats, SharedBase, SimError, Simulation};
use crate::racing::{racing_check, RacingReport};
use crate::snapshot::{
    classify_family, CachedFamily, CachedPrefixReport, CompiledNetwork, DirtyReason, FamilyCache,
    FamilyDeps,
};
use crate::topology::TopologyError;
use hoyan_logic::BddManager;

/// Construction failure.
#[derive(Debug)]
pub enum VerifierError {
    /// The configurations do not form a consistent topology.
    Topology(TopologyError),
    /// The IS-IS (or a route) simulation failed to converge.
    Sim(SimError),
}

impl std::fmt::Display for VerifierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifierError::Topology(e) => write!(f, "topology error: {e}"),
            VerifierError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for VerifierError {}

impl From<TopologyError> for VerifierError {
    fn from(e: TopologyError) -> Self {
        VerifierError::Topology(e)
    }
}

impl From<SimError> for VerifierError {
    fn from(e: SimError) -> Self {
        VerifierError::Sim(e)
    }
}

/// Answer to a reachability query.
#[derive(Clone, Debug)]
pub struct ReachReport {
    /// Reachable with every link alive.
    pub reachable_now: bool,
    /// Minimum number of link failures that break reachability
    /// ([`hoyan_logic::bdd::INF_FAILURES`] if no failure set can).
    pub min_failures_to_break: u32,
    /// Whether reachability survives every scenario of at most `k` failures.
    pub resilient: bool,
    /// A minimal breaking failure set (link names), if one exists.
    pub witness: Option<Vec<String>>,
    /// Size of the final reachability formula (Figure 13 metric).
    pub formula_len: usize,
    /// Peak topology-condition formula size seen while the underlying
    /// simulation propagated (Figure 11 metric).
    pub max_formula_len: u64,
}

/// Result of comparing two devices for role equivalence.
#[derive(Clone, Debug)]
pub struct EquivalenceReport {
    /// Whether the two devices are equivalent.
    pub equivalent: bool,
    /// First prefix on which they diverge.
    pub first_difference: Option<Ipv4Prefix>,
}

/// Per-prefix outcome of a full-network verification sweep.
#[derive(Clone, Debug)]
pub struct PrefixReport {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Time to simulate the prefix family (Figure 8).
    pub sim_time: Duration,
    /// Time to answer the reachability queries (Figure 9).
    pub query_time: Duration,
    /// Pruning statistics (Figure 12).
    pub stats: PruneStats,
    /// Largest topology-condition formula during propagation (Figure 11).
    pub max_cond_len: usize,
    /// Largest final reachability formula (Figure 13).
    pub max_reach_formula_len: usize,
    /// Nodes that can receive a route for the prefix (all-alive).
    pub scope: Vec<NodeId>,
    /// Nodes whose reachability is *not* resilient to the queried `k`.
    pub fragile: Vec<NodeId>,
    /// Whether this report is the first of its co-simulated family (the
    /// family's stats are shared; aggregate over heads only).
    pub family_head: bool,
}

/// Why a family was quarantined instead of reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FamilyOutcome {
    /// The family's simulation or queries failed — a [`SimError`] or a
    /// worker panic (`reason` carries the message).
    Failed {
        /// Human-readable failure description.
        reason: String,
    },
    /// The family exhausted its [`FamilyBudget`]: the deterministic BDD
    /// caps, or the opt-in (non-deterministic) wall-clock deadline.
    OverBudget {
        /// Human-readable breach description.
        reason: String,
    },
}

impl std::fmt::Display for FamilyOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FamilyOutcome::Failed { reason } => write!(f, "failed: {reason}"),
            FamilyOutcome::OverBudget { reason } => write!(f, "over budget: {reason}"),
        }
    }
}

/// Resource cost of one family's sweep segment, read off the family's BDD
/// arena at segment end (see [`hoyan_logic::BddManager::tallies`]: a
/// freshly recycled arena starts every tally at zero, so the snapshot is
/// exactly this family's delta — the same values the recycle folds into
/// the global counters). Plain data: safe to cache across processes and
/// deterministic across thread counts, except `wall_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamilyCost {
    /// BDD solver steps the family burned (its `bdd.ops` delta).
    pub ops: u64,
    /// ITE operation-cache hits.
    pub ite_cache_hits: u64,
    /// ITE operation-cache misses.
    pub ite_cache_misses: u64,
    /// Mark-and-sweep GC passes inside the family's segment.
    pub gc_runs: u64,
    /// Nodes those GC passes reclaimed.
    pub nodes_reclaimed: u64,
    /// Peak live nodes above the shared base, terminals included.
    pub peak_family_nodes: u64,
    /// Wall time in nanoseconds. 0 unless `hoyan_obs::set_timing` opted
    /// into wall-clock capture — the deterministic default keeps costs
    /// byte-identical across runs and thread counts.
    pub wall_ns: u64,
}

impl FamilyCost {
    pub(crate) fn from_manager(mgr: &BddManager, wall_ns: u64) -> FamilyCost {
        let t = mgr.tallies();
        FamilyCost {
            ops: t.ops,
            ite_cache_hits: t.ite_cache_hits,
            ite_cache_misses: t.ite_cache_misses,
            gc_runs: t.gc_runs,
            nodes_reclaimed: t.nodes_reclaimed,
            peak_family_nodes: mgr.family_peak_live() as u64,
            wall_ns,
        }
    }

    /// ITE operation-cache hit rate in `[0, 1]`; 0 when the cache was
    /// never consulted.
    pub fn ite_hit_rate(&self) -> f64 {
        let total = self.ite_cache_hits + self.ite_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.ite_cache_hits as f64 / total as f64
        }
    }

    pub(crate) fn unit_cost(
        &self,
        unit: u64,
        label: String,
        quarantined: bool,
        reused: bool,
    ) -> hoyan_obs::UnitCost {
        hoyan_obs::UnitCost {
            unit,
            label,
            ops: self.ops,
            peak_nodes: self.peak_family_nodes,
            ite_hits: self.ite_cache_hits,
            ite_misses: self.ite_cache_misses,
            gc_runs: self.gc_runs,
            wall_ns: self.wall_ns,
            quarantined,
            reused,
        }
    }
}

/// Human-readable family label: the head prefix, `(+n)` for batched tails.
fn family_label(fam: &[Ipv4Prefix]) -> String {
    match fam.len() {
        0 => String::new(),
        1 => fam[0].to_string(),
        n => format!("{} (+{})", fam[0], n - 1),
    }
}

/// A prefix family a fault-tolerant sweep excluded from its reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedFamily {
    /// Index into the sweep's family list (for [`Verifier::reverify`] that
    /// is the *dirty* list, so identify families by `prefixes`).
    pub index: usize,
    /// The family's prefixes, sorted.
    pub prefixes: Vec<Ipv4Prefix>,
    /// What took the family out.
    pub outcome: FamilyOutcome,
    /// The *partial* cost the family burned before failing — captured from
    /// the arena the error path hands back, so quarantined work is
    /// attributed, not lost. Zero for panics (the arena unwound with the
    /// simulation, flushing its tallies to the global counters
    /// unattributed).
    pub cost: FamilyCost,
}

/// Output of a fault-tolerant sweep: per-prefix reports for every family
/// that completed, plus the families that did not. An empty `quarantined`
/// means full coverage — callers that need all-or-nothing semantics set
/// [`SweepOptions::fail_fast`] instead of checking this after the fact.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Per-prefix reports of the surviving families, sorted by prefix.
    pub reports: Vec<PrefixReport>,
    /// Families whose simulation failed, panicked or blew a budget,
    /// ordered by family index. Deterministic at any thread count as long
    /// as no wall-clock deadline is configured.
    pub quarantined: Vec<QuarantinedFamily>,
}

/// Per-family resource caps for a sweep. The node and op caps are
/// *operation-counted*: they trip at the same point in the family's own
/// work regardless of machine speed, scheduling or thread count, so the
/// quarantined set stays deterministic. The deadline is the one wall-clock
/// escape hatch and is off by default precisely because it breaks that
/// contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamilyBudget {
    /// Cap on live BDD nodes per family (deterministic).
    pub max_live_nodes: Option<usize>,
    /// Cap on BDD (ITE + cost-walk) operations per family (deterministic).
    pub max_ite_ops: Option<u64>,
    /// Opt-in wall-clock deadline per family, in milliseconds.
    /// **Non-deterministic**: which families trip depends on machine load.
    pub deadline_ms: Option<u64>,
}

impl FamilyBudget {
    fn bdd(&self) -> hoyan_logic::BddBudget {
        hoyan_logic::BddBudget {
            max_live_nodes: self.max_live_nodes,
            max_ops: self.max_ite_ops,
        }
    }
}

/// One unit of a streaming sweep's output, handed to the caller's sink as
/// soon as it exists instead of being accumulated in memory — the point of
/// [`Verifier::verify_all_routes_streaming`]: peak report memory is
/// bounded by the channel depth (O(threads)), not by the family count.
#[derive(Clone, Debug)]
pub enum StreamedFamily {
    /// A family completed. Delivered in *arrival* order (whichever worker
    /// finishes first), not family order — `index` identifies the family,
    /// and each report carries its prefix.
    Done {
        /// Index into the sweep's family list.
        index: usize,
        /// The family's per-prefix reports, head first.
        reports: Vec<PrefixReport>,
        /// The family's resource bill.
        cost: FamilyCost,
    },
    /// A family was quarantined. Delivered after the workers drain, in
    /// index order (quarantine verdicts are folded post-join to keep them
    /// deterministic — see [`Verifier::verify_all_routes`]).
    Quarantined(QuarantinedFamily),
}

/// What a streaming sweep returns after every report has been handed to
/// the sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Families that completed (their reports went to the sink).
    pub families: usize,
    /// Prefixes those families covered.
    pub prefixes: usize,
    /// Families quarantined (also streamed to the sink).
    pub quarantined: usize,
}

/// Sweep configuration beyond `k` and the thread count.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Abort the whole sweep on the first family failure (the
    /// pre-quarantine behavior): the sweep returns `Err` with the
    /// lowest-index family's error, and a worker panic resumes unwinding.
    pub fail_fast: bool,
    /// Per-family resource caps.
    pub budget: FamilyBudget,
}

/// How one family failed inside the sweep, before it is folded into a
/// [`FamilyOutcome`] (quarantine) or surfaced raw (fail-fast).
enum FamilyFailure {
    /// An error plus the partial cost the family burned before it — read
    /// off the handed-back arena before the recycle flushed it.
    Error(SimError, FamilyCost),
    Panic(Box<dyn std::any::Any + Send>),
}

impl FamilyFailure {
    /// The same failure for another member of the failed representative's
    /// class: errors are cloned at zero cost (the representative carries
    /// the bill), and a panic is re-boxed as its message.
    fn for_member(&self) -> FamilyFailure {
        match self {
            FamilyFailure::Error(e, _) => FamilyFailure::Error(e.clone(), FamilyCost::default()),
            FamilyFailure::Panic(p) => FamilyFailure::Panic(Box::new(panic_message(p.as_ref()))),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The configuration verifier.
pub struct Verifier {
    /// The network model under verification (shared with the
    /// [`CompiledNetwork`] it was built from).
    pub net: Arc<NetworkModel>,
    /// Conditioned IS-IS database (iBGP session conditions, IGP metrics).
    pub isis: Arc<IsisDb>,
    isis_k: Option<u32>,
    /// Sorted by `(network, len)`, so every family — a *root* (a prefix no
    /// other known prefix contains) plus everything inside it — is one
    /// contiguous run: a container sorts before its contents, and nothing
    /// outside it can sort in between.
    known_prefixes: Vec<Ipv4Prefix>,
    /// Index into `known_prefixes` of each family's root, ascending.
    family_starts: Vec<usize>,
    /// Dependency traces from *unbounded-budget* runs (role-equivalence
    /// simulations). Budgeted sweep traces are deliberately kept out: a
    /// trace at budget `k` can miss devices an unbounded run reaches.
    equiv_deps: std::sync::Mutex<std::collections::HashMap<Vec<Ipv4Prefix>, FamilyDeps>>,
}

impl Verifier {
    /// Builds a verifier from configurations. `profile` supplies the VSB
    /// profile per vendor (the *behavior model registry* — possibly flawed;
    /// the tuner's job is to fix it). `isis_k` bounds the failure budget of
    /// the IS-IS precomputation; queries must use `k <= isis_k`.
    pub fn new(
        configs: Vec<DeviceConfig>,
        profile: impl Fn(Vendor) -> VsbProfile,
        isis_k: Option<u32>,
    ) -> Result<Verifier, VerifierError> {
        Ok(Verifier::from_compiled(CompiledNetwork::build(
            configs, profile, isis_k,
        )?))
    }

    /// Wraps an already-compiled network (the model and IS-IS database are
    /// shared, not rebuilt — the point of the snapshot → compiled-network
    /// pipeline).
    pub fn from_compiled(compiled: CompiledNetwork) -> Verifier {
        let mut known = std::collections::BTreeSet::new();
        for dev in &compiled.net.devices {
            if let Some(bgp) = dev.config.bgp.as_ref() {
                known.extend(bgp.networks.iter().copied());
                known.extend(bgp.aggregates.iter().map(|a| a.prefix));
            }
            known.extend(dev.config.static_routes.iter().map(|s| s.prefix));
        }
        let known_prefixes: Vec<Ipv4Prefix> = known.into_iter().collect();
        let mut family_starts = Vec::new();
        let mut root: Option<Ipv4Prefix> = None;
        for (i, p) in known_prefixes.iter().enumerate() {
            if !root.is_some_and(|r| r.contains(*p)) {
                root = Some(*p);
                family_starts.push(i);
            }
        }
        Verifier {
            net: compiled.net,
            isis: compiled.isis,
            isis_k: compiled.isis_k,
            known_prefixes,
            family_starts,
            equiv_deps: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// A cheap handle to the verifier's compiled network (two `Arc`
    /// clones); other verifiers or queries can share it.
    pub fn compiled(&self) -> CompiledNetwork {
        CompiledNetwork {
            net: Arc::clone(&self.net),
            isis: Arc::clone(&self.isis),
            isis_k: self.isis_k,
        }
    }

    /// All prefixes known to the snapshot (networks, aggregates, statics).
    pub fn known_prefixes(&self) -> &[Ipv4Prefix] {
        &self.known_prefixes
    }

    /// Resolves a device hostname, surfacing a typo as
    /// [`SimError::UnknownDevice`] instead of a panic (the CLI turns it
    /// into a friendly message).
    fn node_named(&self, device: &str) -> Result<NodeId, SimError> {
        self.net
            .topology
            .node(device)
            .ok_or_else(|| SimError::UnknownDevice(device.to_string()))
    }

    /// The `f`-th family of known prefixes (see `family_starts`).
    fn known_family(&self, f: usize) -> &[Ipv4Prefix] {
        let end = self
            .family_starts
            .get(f + 1)
            .copied()
            .unwrap_or(self.known_prefixes.len());
        &self.known_prefixes[self.family_starts[f]..end]
    }

    /// The family of prefixes that must be co-simulated with `prefix`:
    /// the overlap closure (aggregation and longest-prefix matching couple
    /// overlapping prefixes), sorted. For a known prefix that is its
    /// precomputed family; an unknown one joins the family whose root
    /// contains it, or else pulls in every family it covers.
    pub fn family_of(&self, prefix: Ipv4Prefix) -> Vec<Ipv4Prefix> {
        let root_of = |f: usize| self.known_prefixes[self.family_starts[f]];
        // Roots are pairwise disjoint, so the only root that can contain
        // `prefix` is the last one sorting at or before it.
        let after = self
            .family_starts
            .partition_point(|&s| self.known_prefixes[s] <= prefix);
        if after > 0 && root_of(after - 1).contains(prefix) {
            let mut family = self.known_family(after - 1).to_vec();
            if let Err(at) = family.binary_search(&prefix) {
                family.insert(at, prefix);
            }
            return family;
        }
        // No known prefix contains `prefix`; the ones it contains are whole
        // families, whose roots sort directly after it.
        let mut family = vec![prefix];
        for f in after..self.family_starts.len() {
            if !prefix.contains(root_of(f)) {
                break;
            }
            family.extend_from_slice(self.known_family(f));
        }
        family
    }

    /// Groups all known prefixes into disjoint families.
    pub fn families(&self) -> Vec<Vec<Ipv4Prefix>> {
        (0..self.family_starts.len())
            .map(|f| self.known_family(f).to_vec())
            .collect()
    }

    /// Runs the conditioned simulation for `prefix`'s family at failure
    /// budget `k`.
    pub fn simulate(&self, prefix: Ipv4Prefix, k: Option<u32>) -> Result<Simulation<'_>, SimError> {
        let _sp = hoyan_obs::span("verify.sim");
        let family = self.family_of(prefix);
        let mut sim = Simulation::new_bgp(&self.net, family, k, Some(&self.isis));
        sim.run()?;
        Ok(sim)
    }

    fn reach_report(
        &self,
        sim: &mut Simulation<'_>,
        node: NodeId,
        prefix: Ipv4Prefix,
        k: u32,
    ) -> ReachReport {
        let _sp = hoyan_obs::span("verify.query");
        hoyan_obs::metric!(counter "verify.queries").inc();
        let v = sim.reach_cond(node, prefix);
        self.verdict(sim, v, k)
    }

    /// The `k`-failure verdict on reachability condition `v`, with a
    /// minimal breaking failure set named by link.
    fn verdict(&self, sim: &mut Simulation<'_>, v: hoyan_logic::Bdd, k: u32) -> ReachReport {
        let reachable_now = sim.mgr.eval(v, &[]);
        let min_failures = sim.mgr.min_failures_to_falsify(v);
        // The falsifying set is over BDD variables; variable `l` is link `l`.
        let witness = sim.mgr.min_falsifying_failures(v).map(|vars| {
            vars.iter()
                .map(|l| {
                    let (a, b) = self.net.topology.link_ends(LinkId(*l));
                    format!(
                        "{}-{}",
                        self.net.topology.name(a),
                        self.net.topology.name(b)
                    )
                })
                .collect()
        });
        ReachReport {
            reachable_now,
            min_failures_to_break: min_failures,
            resilient: min_failures > k,
            witness,
            formula_len: sim.mgr.size(v),
            max_formula_len: sim.stats.max_formula_len,
        }
    }

    /// Can `device` receive a route for `prefix`, and does that survive any
    /// `k` link failures? (§5.4.)
    pub fn route_reachability(
        &self,
        prefix: Ipv4Prefix,
        device: &str,
        k: u32,
    ) -> Result<ReachReport, SimError> {
        let node = self.node_named(device)?;
        let mut sim = self.simulate(prefix, Some(k))?;
        Ok(self.reach_report(&mut sim, node, prefix, k))
    }

    /// Can a packet from `src_device` reach the gateway of `dst_prefix`,
    /// under any `k` link failures? (§5.5.)
    pub fn packet_reachability(
        &self,
        src_device: &str,
        dst_prefix: Ipv4Prefix,
        packet: Packet,
        k: u32,
    ) -> Result<ReachReport, SimError> {
        let src = self.node_named(src_device)?;
        let mut sim = self.simulate(dst_prefix, Some(k))?;
        let walk = packet_reach(
            &mut sim,
            &self.net,
            Some(&self.isis),
            src,
            dst_prefix,
            packet,
            Some(k),
        )?;
        Ok(self.verdict(&mut sim, walk.reach_cond, k))
    }

    /// Role equivalence (§7.2): do two devices receive the same routes and
    /// build the same RIBs (attribute-wise) for every known prefix?
    ///
    /// Families whose propagation touched neither device cannot distinguish
    /// them (both RIBs are empty for every prefix in the family), so they
    /// are skipped when a previous *unbounded* run recorded the family's
    /// dependency trace. The cache self-primes: each simulated family's
    /// trace is recorded, so repeated equivalence checks over the same
    /// snapshot converge to simulating only the families that matter.
    pub fn role_equivalence(&self, a: &str, b: &str) -> Result<EquivalenceReport, SimError> {
        let na = self.node_named(a)?;
        let nb = self.node_named(b)?;
        let an = self.net.topology.name(na);
        let bn = self.net.topology.name(nb);
        for fam in self.families() {
            let skip = {
                let deps = self.equiv_deps.lock().unwrap_or_else(|p| p.into_inner());
                deps.get(&fam).is_some_and(|d| {
                    !d.touched_devices.contains(an) && !d.touched_devices.contains(bn)
                })
            };
            if skip {
                hoyan_obs::metric!(counter "verify.equiv_families_skipped").inc();
                continue;
            }
            let mut sim = Simulation::new_bgp(&self.net, fam.clone(), None, Some(&self.isis));
            sim.run()?;
            self.equiv_deps
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(
                    fam.clone(),
                    FamilyDeps::from_trace(&sim.deps, &self.net.topology),
                );
            for p in fam {
                // Equivalent roles receive the same updates with the same
                // attributes over the same kinds of sessions.
                let ra: Vec<_> = sim
                    .rib(na, p)
                    .into_iter()
                    .map(|v| (v.attrs, v.learned_from))
                    .collect();
                let rb: Vec<_> = sim
                    .rib(nb, p)
                    .into_iter()
                    .map(|v| (v.attrs, v.learned_from))
                    .collect();
                if ra != rb {
                    return Ok(EquivalenceReport {
                        equivalent: false,
                        first_difference: Some(p),
                    });
                }
            }
        }
        Ok(EquivalenceReport {
            equivalent: true,
            first_difference: None,
        })
    }

    /// Router-failure tolerance (Table 1 lists "failures of router/link"):
    /// a router failure is the simultaneous failure of all its incident
    /// links. Returns the devices whose single failure makes `prefix`
    /// unreachable at `device` — empty means the reachability survives any
    /// one router going down.
    ///
    /// Requires the verifier's IS-IS budget to cover the largest incident
    /// link count (use a generous `isis_k` when auditing router failures).
    pub fn router_failure_tolerance(
        &self,
        prefix: Ipv4Prefix,
        device: &str,
    ) -> Result<Vec<String>, SimError> {
        let node = self.node_named(device)?;
        // Budget must admit conditions that only hold once a whole router's
        // links are down: use the max degree.
        let max_degree = self
            .net
            .topology
            .nodes()
            .map(|n| self.net.topology.neighbors(n).len() as u32)
            .max()
            .unwrap_or(0);
        let mut sim = Simulation::new_bgp(
            &self.net,
            self.family_of(prefix),
            Some(max_degree),
            Some(&self.isis),
        );
        sim.run()?;
        let v = sim.reach_cond(node, prefix);
        let mut fatal = Vec::new();
        for r in self.net.topology.nodes() {
            if r == node {
                continue; // the target going down is out of scope
            }
            // Gateways of the prefix going down trivially break it; still
            // report them (common-mode risk the §7.2 audit cares about).
            let mut assign = vec![true; self.net.topology.link_count()];
            for (_, link) in self.net.topology.neighbors(r) {
                assign[link.0 as usize] = false;
            }
            if !sim.mgr.eval(v, &assign) {
                fatal.push(self.net.topology.name(r).to_string());
            }
        }
        Ok(fatal)
    }

    /// Route-update racing analysis for one prefix (Appendix B).
    pub fn racing(&self, prefix: Ipv4Prefix) -> RacingReport {
        racing_check(&self.net, prefix, 2)
    }

    /// Which devices hold a route for `prefix` with all links alive — the
    /// propagation-scope audit behind the §7.2 IP-conflict case.
    pub fn propagation_scope(&self, prefix: Ipv4Prefix) -> Result<Vec<NodeId>, SimError> {
        let mut sim = self.simulate(prefix, Some(0))?;
        let nodes: Vec<NodeId> = self.net.topology.nodes().collect();
        Ok(nodes
            .into_iter()
            .filter(|n| {
                let v = sim.reach_cond(*n, prefix);
                sim.mgr.eval(v, &[])
            })
            .collect())
    }

    /// Simulates and queries one family in `arena`, returning the family's
    /// sweep output *and the arena* — warm again on both the success and the
    /// error path (a failed [`Simulation`] still surrenders its manager via
    /// [`Simulation::into_manager`], so quarantine-and-continue does not
    /// silently degrade workers to cold arenas). Only a panic loses the
    /// arena, because it unwinds through the owning simulation.
    fn run_family(
        &self,
        arena: BddManager,
        base: &AttachedBase,
        fam: &[Ipv4Prefix],
        index: usize,
        k: u32,
        opts: &SweepOptions,
    ) -> (Result<FamilySweep, SimError>, BddManager) {
        // Seeded injection site: tests and `HOYAN_FAULTS` arm it to
        // exercise quarantine deterministically; disarmed it is one relaxed
        // atomic load. A planned panic fires inside `hit` itself.
        let mut budget = opts.budget;
        match hoyan_rt::fault::hit("verify.family", index as u64) {
            None => {}
            Some(hoyan_rt::fault::Fault::Error) => {
                return (
                    Err(SimError::Injected {
                        site: "verify.family",
                        index: index as u64,
                    }),
                    arena,
                );
            }
            // Injected budget exhaustion goes through the *real* budget
            // machinery: cap the family at zero ops and let the safe-point
            // check trip.
            Some(hoyan_rt::fault::Fault::OverBudget) => budget.max_ite_ops = Some(0),
        }
        let t0 = Instant::now();
        let sim_span = hoyan_obs::span("verify.sim");
        let mut sim = Simulation::new_bgp_in(
            arena,
            &self.net,
            fam.to_vec(),
            Some(k),
            Some(&self.isis),
        );
        sim.set_base(base.clone());
        sim.set_budget(budget.bdd(), budget.deadline_ms);
        if let Err(e) = sim.run() {
            return (Err(e), sim.into_manager());
        }
        drop(sim_span);
        let sim_time = t0.elapsed();
        let mut family_reports = Vec::with_capacity(fam.len());
        for (pi, p) in fam.iter().enumerate() {
            let _q_span = hoyan_obs::span("verify.query");
            let q0 = Instant::now();
            // Gather every in-scope device's reachability condition first,
            // then answer all the "survives k failures?" questions with a
            // single multi-root cost traversal: the shared walk prices each
            // node once even when conditions share structure, instead of
            // restarting the sweep per device.
            let mut scope: Vec<(NodeId, hoyan_logic::Bdd)> = Vec::new();
            for n in self.net.topology.nodes() {
                let v = sim.reach_cond(n, *p);
                if !v.is_false() && sim.mgr.eval(v, &[]) {
                    scope.push((n, v));
                }
            }
            let roots: Vec<hoyan_logic::Bdd> = scope.iter().map(|&(_, v)| v).collect();
            let break_costs = sim.mgr.min_failures_to_falsify_many(&roots);
            let mut scope_nodes = Vec::with_capacity(scope.len());
            let mut fragile = Vec::new();
            let mut max_len = 0usize;
            for (&(n, _), cost) in scope.iter().zip(&break_costs) {
                scope_nodes.push(n);
                let exact = sim.reach_cond_exact(n, *p);
                max_len = max_len.max(sim.mgr.size(exact));
                if *cost <= k {
                    fragile.push(n);
                }
            }
            family_reports.push(PrefixReport {
                prefix: *p,
                sim_time,
                query_time: q0.elapsed(),
                stats: sim.stats,
                max_cond_len: sim.max_cond_size,
                max_reach_formula_len: max_len,
                scope: scope_nodes,
                fragile,
                family_head: pi == 0,
            });
        }
        // The query phase allocates in the same arena; honor the caps over
        // the family's *whole* footprint, not just propagation.
        if let Some(breach) = sim.mgr.budget_exceeded() {
            hoyan_obs::record(hoyan_obs::EventKind::BudgetBreach);
            return (Err(SimError::OverBudget(breach)), sim.into_manager());
        }
        let wall_ns = if hoyan_obs::timing() {
            t0.elapsed().as_nanos() as u64
        } else {
            0
        };
        let sweep = FamilySweep {
            index,
            stats: sim.stats,
            reports: family_reports,
            deps: FamilyDeps::from_trace(&sim.deps, &self.net.topology),
            cost: FamilyCost::from_manager(&sim.mgr, wall_ns),
        };
        (Ok(sweep), sim.into_manager())
    }

    /// Partitions `families` into behaviour classes, ordered by
    /// representative. A family with a planted `verify.family` fault runs
    /// as a class of its own, so the fault fires on exactly that family,
    /// as it would without classes.
    fn plan_classes(&self, families: &[Vec<Ipv4Prefix>]) -> Vec<Vec<usize>> {
        let mut classes = crate::classes::partition(&self.net, families);
        if hoyan_rt::fault::enabled() {
            let planted = |i: usize| hoyan_rt::fault::planned("verify.family", i as u64);
            let mut split = Vec::new();
            for class in &mut classes {
                for m in class.split_off(1) {
                    if planted(m) {
                        split.push(vec![m]);
                    } else {
                        class.push(m);
                    }
                }
            }
            classes.extend(split);
            classes.sort_unstable_by_key(|c| c[0]);
        }
        classes
    }

    /// The sweep engine behind every public sweep: simulates `families` at
    /// budget `k` on `threads` scoped `std::thread`s (CPU-bound work, no
    /// async runtime) and hands each outcome to `sink` on the calling
    /// thread. Finished families arrive through one bounded channel, a
    /// class at a time, as the workers complete them (arrival order; the
    /// bound keeps the reports alive at once to O(threads) classes);
    /// quarantined families follow post-join, in index order. Once `sink`
    /// returns `Break` it is called no more and the workers stop claiming
    /// families. Returns the prune stats folded over every finished family.
    ///
    /// `units` maps family indices to flight-recorder unit ids: `reverify`
    /// passes the classification indices of its dirty list, so recorded
    /// events and costs carry global family ids. `deps` keeps each finished
    /// family's dependency trace; only a cache reads it, so every other
    /// sweep drops the trace in the worker and renames members without
    /// copying it.
    ///
    /// The unit of work is a behaviour class (`crate::classes`): families
    /// whose prefix-dependent inputs are equal run one simulation, on the
    /// lowest-index member (the representative), whose output is renamed
    /// to every other member. Everything after that — reports, quarantine,
    /// counters, the sink — stays per family.
    ///
    /// Fault tolerance: each class runs under `catch_unwind`; an error,
    /// budget breach or panic quarantines *that class only* (every member,
    /// with the representative's error) and the rest of the sweep
    /// completes. With [`SweepOptions::fail_fast`] the sweep instead aborts
    /// like the pre-quarantine implementation, surfacing the
    /// *lowest-index* failing family at any thread count: once a failure
    /// is recorded, workers skip every class whose representative sorts
    /// above the lowest failure so far but keep running the ones below it,
    /// so every lower index is decided before the workers drain. A member cannot fail below its own
    /// representative, so the lowest failure is always a representative.
    ///
    /// Determinism: a class is published whole (one channel item), and
    /// the quarantined set, its counters and the per-family cost
    /// attribution are folded once, post-join, in index order — so all of
    /// it is identical for any thread count; only the arrival order varies
    /// (see `tests/determinism.rs` and `tests/faults.rs`).
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        families: &[Vec<Ipv4Prefix>],
        units: Option<&[usize]>,
        deps: bool,
        k: u32,
        threads: usize,
        opts: &SweepOptions,
        sink: &mut dyn FnMut(Swept) -> ControlFlow<()>,
    ) -> Result<PruneStats, SimError> {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let _sweep = hoyan_obs::span("verify.sweep");
        // Fan-out occupancy: thread-count-dependent by nature, so a gauge
        // (the determinism contract covers counters/histograms only).
        hoyan_obs::metric!(gauge "verify.fanout_threads").record_max(threads.max(1) as u64);
        hoyan_obs::metric!(gauge "verify.fanout_families").record_max(families.len() as u64);
        let unit_of = |i: usize| units.map_or(i, |u| u[i]) as u64;
        let next = AtomicUsize::new(0);
        // Recorder worker ids (for the opt-in `--timing` trace only; with
        // timing off the trace never exposes worker identity).
        let worker_seq = AtomicUsize::new(0);
        // The lowest failing family index so far (`usize::MAX`: none).
        // Read only under fail-fast: quarantine never stops peers.
        let min_failed = AtomicUsize::new(usize::MAX);
        // Failures keyed by family index: the map, not lock-acquisition
        // order, decides which error fail-fast surfaces.
        let failures = std::sync::Mutex::new(std::collections::BTreeMap::<usize, FamilyFailure>::new());
        // The cross-family shared base: link literals + iBGP session
        // conditions, built once here and imported into every worker arena.
        let base = SharedBase::build(&self.net, Some(&self.isis));
        // Reported separately from the per-family costs: base construction
        // flushes into `bdd.ops` when the base drops at sweep end, and the
        // attribution must reconcile with that counter. Built on the
        // calling thread, so the value is thread-count invariant.
        hoyan_obs::metric!(counter "verify.shared_base_ops").add(base.construction_ops());
        let nw = threads.max(1);
        // The behaviour classes, planned on the calling thread, so the
        // class count — a counter, covered by the determinism contract —
        // never depends on `nw`.
        let classes = {
            let _sp = hoyan_obs::span("verify.schedule");
            self.plan_classes(families)
        };
        hoyan_obs::metric!(counter "verify.classes").add(classes.len() as u64);
        let hung_up = AtomicBool::new(false);
        // This sweep's own aggregate — one contribution per finished
        // family, so it is the same at any thread count and never carries
        // over from an earlier sweep of the same verifier.
        let mut stats = PruneStats::default();
        // Every finished family's bill, attributed post-join.
        let mut costs: Vec<(usize, FamilyCost)> = Vec::new();
        std::thread::scope(|s| {
            // Bounded at two classes per worker, so a slow sink throttles
            // the sweep instead of buffering every report.
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<FamilySweep>>(nw * 2);
            // Shadow references: the worker closures are `move` (each owns
            // its clone of the sender) and must not capture the shared
            // state by value.
            let this = self;
            let failures = &failures;
            let min_failed = &min_failed;
            let next = &next;
            let worker_seq = &worker_seq;
            let base = &base;
            let classes = &classes;
            let unit_of = &unit_of;
            // Under fail-fast, a class whose representative sorts above
            // the lowest failure so far cannot change the surfaced error;
            // after the sink hung up, no class can reach it.
            let hung_up = &hung_up;
            let moot = move |i: usize| {
                (opts.fail_fast && i >= min_failed.load(Ordering::Acquire))
                    || hung_up.load(Ordering::Acquire)
            };
            let handles: Vec<_> = (0..nw)
                .map(|_| {
                    let tx = tx.clone();
                    s.spawn(move || {
                        hoyan_obs::set_worker(
                            worker_seq.fetch_add(1, Ordering::Relaxed) as u32
                        );
                        // One warm BDD arena per worker, recycled between
                        // classes: node/table allocations survive, handles
                        // and tallies do not (each class still accounts —
                        // and collects — as if it owned a fresh manager, so
                        // counters stay identical at any thread count). The
                        // shared base is imported once per arena (tally-
                        // excluded) and survives every recycle.
                        let mut arena = BddManager::new();
                        let mut attached = base.attach(&mut arena);
                        loop {
                            // Claim the next class off the shared counter.
                            // Claims ascend, so the first moot one ends
                            // the worker.
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= classes.len() || moot(classes[c][0]) {
                                break;
                            }
                            let class = &classes[c];
                            let i = class[0];
                            // Arena prep happens at claim time: recycle
                            // flushes the previous class's tallies (a
                            // no-op on a pristine arena) and drops
                            // everything above the shared base.
                            arena.recycle();
                            let _fam_span = hoyan_obs::span("verify.family");
                            hoyan_obs::begin_unit(unit_of(i));
                            hoyan_obs::record(hoyan_obs::EventKind::FamilyStart);
                            let work = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                this.run_family(
                                    std::mem::take(&mut arena),
                                    &attached,
                                    &families[i],
                                    i,
                                    k,
                                    opts,
                                )
                            }));
                            let failure = match work {
                                Ok((Ok(mut sweep), mgr)) => {
                                    hoyan_obs::record(hoyan_obs::EventKind::FamilyEnd {
                                        ops: sweep.cost.ops,
                                        peak_nodes: sweep.cost.peak_family_nodes,
                                    });
                                    // The class's tallies stay on the
                                    // arena until the next claim recycles
                                    // it (or Drop flushes at sweep end) —
                                    // each class folds into the global
                                    // counters exactly once either way.
                                    arena = mgr;
                                    // Under fail-fast, partial output must
                                    // not be published past a failure
                                    // (pre-quarantine semantics).
                                    if opts.fail_fast
                                        && min_failed.load(Ordering::Acquire) != usize::MAX
                                    {
                                        continue;
                                    }
                                    if !deps {
                                        sweep.deps = FamilyDeps::default();
                                    }
                                    let mut done: Vec<FamilySweep> = class[1..]
                                        .iter()
                                        .map(|&m| sweep.for_member(m, &families[m]))
                                        .collect();
                                    done.push(sweep);
                                    for f in &done {
                                        hoyan_obs::metric!(counter "verify.families").inc();
                                        hoyan_obs::metric!(counter "verify.prefixes")
                                            .add(families[f.index].len() as u64);
                                    }
                                    // One item per class, so a wake-up of
                                    // the calling thread is paid per
                                    // simulation. The bounded send is the
                                    // backpressure; it fails only if the
                                    // calling thread unwound.
                                    let _ = tx.send(done);
                                    continue;
                                }
                                Ok((Err(e), mgr)) => {
                                    // The error path hands the arena back
                                    // (via `into_manager`) with this
                                    // class's tallies still on it: read
                                    // the partial cost now; the next
                                    // claim's recycle flushes it.
                                    let cost = FamilyCost::from_manager(&mgr, 0);
                                    hoyan_obs::record(hoyan_obs::EventKind::FamilyEnd {
                                        ops: cost.ops,
                                        peak_nodes: cost.peak_family_nodes,
                                    });
                                    arena = mgr;
                                    FamilyFailure::Error(e, cost)
                                }
                                Err(payload) => {
                                    // The arena unwound with the failed
                                    // simulation; this worker restarts cold
                                    // — which means re-importing the base
                                    // (the old handles died with the arena).
                                    arena = BddManager::new();
                                    attached = base.attach(&mut arena);
                                    FamilyFailure::Panic(payload)
                                }
                            };
                            {
                                let mut failures =
                                    failures.lock().unwrap_or_else(|p| p.into_inner());
                                for &m in &class[1..] {
                                    failures.insert(m, failure.for_member());
                                }
                                failures.insert(i, failure);
                            }
                            min_failed.fetch_min(i, Ordering::AcqRel);
                        }
                        // Merge this worker's event buffer into the global
                        // log before the thread exits.
                        hoyan_obs::flush_thread_events();
                    })
                })
                .collect();
            // The pump runs on this (the calling) thread while the workers
            // produce. Dropping the original sender first leaves the
            // workers holding the only clones, so the receive loop ends
            // exactly when the last worker exits. A sink that breaks hangs
            // up: it is called no more, the workers see `hung_up` at their
            // next claim, and what they still finish is folded, not
            // delivered.
            drop(tx);
            for f in rx.into_iter().flatten() {
                stats.merge(&f.stats);
                costs.push((f.index, f.cost));
                if !hung_up.load(Ordering::Acquire) && sink(Swept::Done(f)).is_break() {
                    hung_up.store(true, Ordering::Release);
                }
            }
            // Join explicitly and re-raise the first *harness* panic (the
            // per-class work is already caught above; anything escaping
            // here is a bug in the sweep itself).
            let mut panic_payload = None;
            for h in handles {
                if let Err(p) = h.join() {
                    panic_payload.get_or_insert(p);
                }
            }
            if let Some(p) = panic_payload {
                std::panic::resume_unwind(p);
            }
        });
        let mut failures = failures.into_inner().unwrap_or_else(|p| p.into_inner());
        if opts.fail_fast {
            // Lowest failing index wins — BTreeMap order, not whichever
            // worker got to a lock first.
            if let Some((_, failure)) = failures.pop_first() {
                match failure {
                    FamilyFailure::Error(e, _) => return Err(e),
                    FamilyFailure::Panic(p) => std::panic::resume_unwind(p),
                }
            }
        }
        let mut quarantined = Vec::new();
        let mut over_budget = 0u64;
        for (index, failure) in failures {
            let (outcome, cost) = match failure {
                FamilyFailure::Error(
                    e @ (SimError::OverBudget(_) | SimError::DeadlineExceeded { .. }),
                    cost,
                ) => {
                    over_budget += 1;
                    (
                        FamilyOutcome::OverBudget {
                            reason: e.to_string(),
                        },
                        cost,
                    )
                }
                FamilyFailure::Error(e, cost) => (
                    FamilyOutcome::Failed {
                        reason: e.to_string(),
                    },
                    cost,
                ),
                FamilyFailure::Panic(p) => (
                    FamilyOutcome::Failed {
                        reason: format!("panic: {}", panic_message(p.as_ref())),
                    },
                    FamilyCost::default(),
                ),
            };
            quarantined.push(QuarantinedFamily {
                index,
                prefixes: families[index].clone(),
                outcome,
                cost,
            });
        }
        // Bumped once, post-join: deterministic at any thread count (as
        // long as no wall-clock deadline is configured — see the docs).
        hoyan_obs::metric!(counter "verify.families_quarantined").add(quarantined.len() as u64);
        hoyan_obs::metric!(counter "verify.families_over_budget").add(over_budget);
        // Publish the per-family cost attribution and the quarantine
        // verdicts to the flight recorder — post-join and in index order,
        // so the merged log is deterministic at any thread count. Members
        // are attributed at zero cost and labelled with their class.
        if hoyan_obs::events_enabled() {
            let mut rep_of: Vec<usize> = (0..families.len()).collect();
            for class in &classes {
                for &m in class {
                    rep_of[m] = class[0];
                }
            }
            let label = |i: usize| match rep_of[i] {
                r if r == i => family_label(&families[i]),
                r => format!(
                    "{} class of {}",
                    family_label(&families[i]),
                    family_label(&families[r])
                ),
            };
            costs.sort_unstable_by_key(|&(i, _)| i);
            for (i, cost) in costs {
                hoyan_obs::record_unit_cost(cost.unit_cost(unit_of(i), label(i), false, false));
            }
            for q in &quarantined {
                hoyan_obs::record_for(unit_of(q.index), hoyan_obs::EventKind::Quarantined);
                hoyan_obs::record_unit_cost(q.cost.unit_cost(
                    unit_of(q.index),
                    label(q.index),
                    true,
                    false,
                ));
            }
            hoyan_obs::flush_thread_events();
        }
        // Quarantine verdicts reach the sink post-join too, in index
        // order, mirroring their deterministic fold above.
        if !hung_up.into_inner() {
            for q in quarantined {
                if sink(Swept::Quarantined(q)).is_break() {
                    break;
                }
            }
        }
        Ok(stats)
    }

    /// Publishes the sweep-wide gauges from one sweep's aggregate prune
    /// stats.
    fn flush_sweep_gauges(agg: &PruneStats) {
        hoyan_obs::metric!(gauge "verify.sweep_delivered").set(agg.delivered);
        hoyan_obs::metric!(gauge "verify.sweep_dropped")
            .set(agg.dropped_policy + agg.dropped_over_k + agg.dropped_impossible);
        hoyan_obs::metric!(gauge "verify.sweep_max_formula_len").record_max(agg.max_formula_len);
    }

    /// The sink of the cached entry points: each finished family's reports
    /// go to `out` and its replayable entry to `cache`; quarantined
    /// families go to `out` only, so the next delta retries them.
    fn cache_sink<'a>(
        &'a self,
        families: &'a [Vec<Ipv4Prefix>],
        out: &'a mut SweepReport,
        cache: &'a mut FamilyCache,
    ) -> impl FnMut(Swept) -> ControlFlow<()> + 'a {
        move |item| {
            match item {
                Swept::Done(f) => {
                    cache.insert(CachedFamily {
                        prefixes: families[f.index].clone(),
                        reports: f
                            .reports
                            .iter()
                            .map(|r| CachedPrefixReport::from_report(r, &self.net.topology))
                            .collect(),
                        deps: f.deps,
                        cost: f.cost,
                    });
                    out.reports.extend(f.reports);
                }
                Swept::Quarantined(q) => out.quarantined.push(q),
            }
            ControlFlow::Continue(())
        }
    }

    /// Full-network route-reachability sweep: simulates every prefix family
    /// at budget `k` and reports per-prefix timings, statistics and fragile
    /// devices. Families are processed in parallel on `threads` scoped
    /// threads; output is sorted by prefix and identical for any thread
    /// count (see `tests/determinism.rs`).
    ///
    /// Runs with the default [`SweepOptions`]: faults are quarantined
    /// per-family, never aborting the sweep — inspect
    /// [`SweepReport::quarantined`] for families that did not complete. Use
    /// [`Verifier::verify_all_routes_opts`] for fail-fast or budgets.
    pub fn verify_all_routes(&self, k: u32, threads: usize) -> Result<SweepReport, SimError> {
        self.verify_all_routes_opts(k, threads, &SweepOptions::default())
    }

    /// [`Verifier::verify_all_routes`] with explicit [`SweepOptions`]
    /// (fail-fast, per-family resource budgets): the streaming sweep into
    /// a collecting sink.
    pub fn verify_all_routes_opts(
        &self,
        k: u32,
        threads: usize,
        opts: &SweepOptions,
    ) -> Result<SweepReport, SimError> {
        let mut out = SweepReport::default();
        self.verify_all_routes_streaming(k, threads, opts, &mut |item| {
            match item {
                StreamedFamily::Done { reports, .. } => out.reports.extend(reports),
                StreamedFamily::Quarantined(q) => out.quarantined.push(q),
            }
            ControlFlow::Continue(())
        })?;
        out.reports.sort_by_key(|r| r.prefix);
        Ok(out)
    }

    /// Streaming [`Verifier::verify_all_routes_opts`]: instead of
    /// accumulating every [`PrefixReport`] and returning them at the end,
    /// each family's reports are handed to `sink` as soon as a worker
    /// finishes the family — so peak report memory is bounded by the
    /// bounded channel (O(threads) families), not by the sweep size.
    ///
    /// Delivery order is *arrival* order for completed families (identify
    /// them by index or by each report's prefix) and index order for
    /// quarantined ones, which stream after the workers drain. The sink
    /// runs on the calling thread; a slow sink backpressures the workers,
    /// and a sink that returns `Break` ends the sweep early (the summary
    /// then counts only what the sink was handed). The set of streamed
    /// reports — and every counter — is identical to the materialized sweep
    /// at any thread count; only the arrival order varies (see
    /// `tests/determinism.rs`).
    pub fn verify_all_routes_streaming(
        &self,
        k: u32,
        threads: usize,
        opts: &SweepOptions,
        sink: &mut dyn FnMut(StreamedFamily) -> ControlFlow<()>,
    ) -> Result<StreamSummary, SimError> {
        let families = self.families();
        let mut summary = StreamSummary::default();
        let mut forward = |item: Swept| {
            sink(match item {
                Swept::Done(f) => {
                    summary.families += 1;
                    summary.prefixes += f.reports.len();
                    StreamedFamily::Done {
                        index: f.index,
                        reports: f.reports,
                        cost: f.cost,
                    }
                }
                Swept::Quarantined(q) => {
                    summary.quarantined += 1;
                    StreamedFamily::Quarantined(q)
                }
            })
        };
        let stats = self.sweep(&families, None, false, k, threads, opts, &mut forward)?;
        Self::flush_sweep_gauges(&stats);
        Ok(summary)
    }

    /// Like [`Verifier::verify_all_routes`], but also returns a
    /// [`FamilyCache`] mapping every simulated family to its reports and the
    /// dependency trace recorded during propagation — the baseline for
    /// [`Verifier::reverify`]. Quarantined families are *not* cached, so a
    /// later [`Verifier::reverify`] classifies them `NotCached` and retries
    /// them automatically.
    pub fn verify_all_routes_cached(
        &self,
        k: u32,
        threads: usize,
    ) -> Result<(SweepReport, FamilyCache), SimError> {
        let families = self.families();
        let mut out = SweepReport::default();
        let mut cache = FamilyCache::new(k, self.isis_k);
        let stats = self.sweep(
            &families,
            None,
            true,
            k,
            threads,
            &SweepOptions::default(),
            &mut self.cache_sink(&families, &mut out, &mut cache),
        )?;
        Self::flush_sweep_gauges(&stats);
        out.reports.sort_by_key(|r| r.prefix);
        Ok((out, cache))
    }

    /// Classifies every family of *this* (post-change) verifier against a
    /// baseline cache and delta: `None` means the cached reports are still
    /// valid, `Some(reason)` means the family must be re-simulated. Pure
    /// bookkeeping — no simulation runs.
    pub fn classify_families(
        &self,
        delta: &SnapshotDelta,
        cache: &FamilyCache,
        k: u32,
    ) -> Vec<(Vec<Ipv4Prefix>, Option<DirtyReason>)> {
        self.families()
            .into_iter()
            .map(|fam| {
                // Reports depend on both budgets: the sweep's `k` and the
                // `isis_k` the baseline IS-IS database was conditioned at.
                let reason = if cache.k != k || cache.isis_k != self.isis_k {
                    Some(DirtyReason::BudgetChanged)
                } else {
                    match cache.get(&fam) {
                        None => Some(DirtyReason::NotCached),
                        Some(cf) => classify_family(&fam, &cf.deps, delta),
                    }
                };
                (fam, reason)
            })
            .collect()
    }

    /// Incremental sweep: re-simulates only the families the delta dirtied
    /// and replays cached reports for the rest. The merged report list is
    /// byte-identical (modulo wall-clock timings) to a from-scratch
    /// [`Verifier::verify_all_routes`] of the post-change snapshot; the
    /// returned cache is the new baseline for the next delta.
    pub fn reverify(
        &self,
        delta: &SnapshotDelta,
        cache: &FamilyCache,
        k: u32,
        threads: usize,
    ) -> Result<ReverifyOutcome, SimError> {
        self.reverify_opts(delta, cache, k, threads, &SweepOptions::default())
    }

    /// [`Verifier::reverify`] with explicit [`SweepOptions`]. Quarantined
    /// dirty families are excluded from the refreshed cache, so the next
    /// delta re-classifies them `NotCached` and retries them.
    pub fn reverify_opts(
        &self,
        delta: &SnapshotDelta,
        cache: &FamilyCache,
        k: u32,
        threads: usize,
        opts: &SweepOptions,
    ) -> Result<ReverifyOutcome, SimError> {
        let _sp = hoyan_obs::span("verify.reverify");
        let mut classifications = self.classify_families(delta, cache, k);
        let mut out = SweepReport::default();
        let mut new_cache = FamilyCache::new(k, self.isis_k);
        // Replayed families count toward this sweep's aggregate too, so the
        // gauges match a from-scratch sweep (one contribution per family,
        // via its head report).
        let mut stats = PruneStats::default();
        for (ci, (fam, reason)) in classifications.iter_mut().enumerate() {
            if reason.is_some() {
                continue;
            }
            // Clean family: replay the cached reports against the new
            // topology (node ids may have been renumbered). A hostname that
            // no longer resolves demotes the family to dirty — as does a
            // cache entry that is missing despite the clean verdict
            // (defensive: a cache pruned or drifted behind our back must
            // degrade to re-simulation, not panic the whole reverify; the
            // fault site below lets tests force that drift).
            let lookup = match hoyan_rt::fault::hit("verify.cache_lookup", ci as u64) {
                Some(_) => None,
                None => cache.get(fam),
            };
            let Some(cf) = lookup else {
                *reason = Some(DirtyReason::NotCached);
                continue;
            };
            let replayed: Option<Vec<PrefixReport>> = cf
                .reports
                .iter()
                .map(|r| r.replay(&self.net.topology))
                .collect();
            match replayed {
                Some(rs) => {
                    if let Some(head) = rs.iter().find(|r| r.family_head) {
                        stats.merge(&head.stats);
                    }
                    out.reports.extend(rs);
                    if hoyan_obs::events_enabled() {
                        // Unit ids in a reverify are classification indices;
                        // a reused family is attributed at zero cost (its
                        // BDD bill was paid by the baseline sweep).
                        hoyan_obs::record_for(ci as u64, hoyan_obs::EventKind::CacheReuse);
                        hoyan_obs::record_unit_cost(cf.cost.unit_cost(
                            ci as u64,
                            family_label(fam),
                            false,
                            true,
                        ));
                    }
                    new_cache.insert(cf.clone());
                }
                None => *reason = Some(DirtyReason::ReplayFailed),
            }
        }
        let mut dirty: Vec<Vec<Ipv4Prefix>> = Vec::new();
        let mut dirty_units: Vec<usize> = Vec::new();
        for (ci, (fam, reason)) in classifications.iter().enumerate() {
            if reason.is_some() {
                dirty.push(fam.clone());
                dirty_units.push(ci);
            }
        }
        let reused = classifications.len() - dirty.len();
        hoyan_obs::metric!(counter "verify.families_reused").add(reused as u64);
        hoyan_obs::metric!(counter "verify.families_recomputed").add(dirty.len() as u64);
        stats.merge(&self.sweep(
            &dirty,
            Some(&dirty_units),
            true,
            k,
            threads,
            opts,
            &mut self.cache_sink(&dirty, &mut out, &mut new_cache),
        )?);
        Self::flush_sweep_gauges(&stats);
        out.reports.sort_by_key(|r| r.prefix);
        Ok(ReverifyOutcome {
            reports: out.reports,
            cache: new_cache,
            recomputed: dirty.len(),
            reused,
            classifications,
            quarantined: out.quarantined,
        })
    }
}

/// One family's output from a parallel sweep.
struct FamilySweep {
    /// Index into the family list handed to the sweep engine.
    index: usize,
    /// The family's prune-stats contribution to the sweep aggregate.
    stats: PruneStats,
    /// Per-prefix reports, in family order (head first).
    reports: Vec<PrefixReport>,
    /// Devices and links the family's propagation touched; empty unless
    /// the sweep keeps traces for a cache.
    deps: FamilyDeps,
    /// The family's resource bill, read off its arena at completion.
    cost: FamilyCost,
}

impl FamilySweep {
    /// This representative's sweep as another member of its behaviour
    /// class sees it: the simulations are isomorphic, so report `i` is the
    /// representative's report `i` renamed to the member's prefix `i`, with
    /// the same stats and dependency footprint. The member costs nothing: the
    /// representative carries the class's bill.
    fn for_member(&self, index: usize, prefixes: &[Ipv4Prefix]) -> FamilySweep {
        FamilySweep {
            index,
            stats: self.stats,
            reports: self
                .reports
                .iter()
                .zip(prefixes)
                .map(|(r, &prefix)| PrefixReport {
                    prefix,
                    ..r.clone()
                })
                .collect(),
            deps: self.deps.clone(),
            cost: FamilyCost::default(),
        }
    }
}

/// What the sweep engine hands its sink: a finished family, in arrival
/// order, or a quarantined one, post-join in index order.
enum Swept {
    Done(FamilySweep),
    Quarantined(QuarantinedFamily),
}

/// Result of an incremental [`Verifier::reverify`] sweep.
pub struct ReverifyOutcome {
    /// Merged per-prefix reports, sorted by prefix — same shape as
    /// [`Verifier::verify_all_routes`] output.
    pub reports: Vec<PrefixReport>,
    /// The refreshed cache (replayed clean families + re-simulated dirty
    /// ones), the baseline for the next delta.
    pub cache: FamilyCache,
    /// Number of families re-simulated.
    pub recomputed: usize,
    /// Number of families replayed from the cache.
    pub reused: usize,
    /// Per-family classification (`None` = clean/replayed).
    pub classifications: Vec<(Vec<Ipv4Prefix>, Option<DirtyReason>)>,
    /// Dirty families that failed to re-simulate (indexed into the dirty
    /// list; the `prefixes` field identifies the family). Not cached, so
    /// the next delta retries them.
    pub quarantined: Vec<QuarantinedFamily>,
}
