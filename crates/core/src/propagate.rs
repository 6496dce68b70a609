//! The conditioned route-propagation engine — "global simulation & local
//! formal modeling" (§5).
//!
//! One [`Simulation`] simulates a *family* of related prefixes (prefixes
//! coupled by aggregation, or all router loopbacks when running IS-IS in
//! path-vector mode, Appendix C). Every route update and RIB rule carries a
//! topology condition: a BDD over link-aliveness variables.
//!
//! ## Relation to Algorithm 1
//!
//! The paper processes a queue of route messages and handles "late higher
//! priority routes" with an explicit `withdraw()` cascade over the
//! propagation tree. This implementation computes the same fixpoint with a
//! *dirty-node worklist*: whenever a node's RIB changes, the node is
//! reprocessed — its desired outgoing message set (one message per RIB rule
//! and session, with the rule's is-best condition
//! `¬R(r₁) ∧ … ∧ ¬R(rᵢ₋₁) ∧ R(rᵢ)`, §5.4 rule (i)) is recomputed and
//! *diffed* against what was previously sent. Retracting a message removes
//! the RIB entry it created at the receiver, which dirties the receiver and
//! cascades exactly like `withdraw()`; re-sent messages carry the amended
//! conditions. The fixpoint is reached when no node is dirty.
//!
//! ## Pruning (§5.6)
//!
//! Three optimizations are applied to every attempted message emission, with
//! counters that regenerate Figure 12:
//! - **policy**: ingress/egress policy denies, loop checks, advertisement
//!   rules;
//! - **impossible**: the condition is the constant `false` BDD;
//! - **more-than-k**: every satisfying assignment of the condition needs
//!   more than `k` link failures ([`BddManager::min_failures_to_satisfy`]).

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use hoyan_config::RedistSource;
use hoyan_device::{CandidateRef, LearnedFrom, SessionKind};
use hoyan_logic::{Bdd, BddManager};
use hoyan_nettypes::{Ipv4Prefix, LinkId, NodeId, Origin, RouteAttrs};
use hoyan_rt::hash::{FxHashMap, FxHashSet};

use crate::isis::IsisDb;
use crate::network::NetworkModel;

/// Conventional weight of locally originated routes.
pub const LOCAL_WEIGHT: u32 = 32768;

/// Which protocol created a RIB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proto {
    /// BGP (eBGP or iBGP).
    Bgp,
    /// IS-IS (path-vector translation).
    Isis,
    /// A BGP aggregate generated on this device.
    Aggregate,
}

/// Per-category message-drop counters (Figure 12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Messages delivered into a RIB ("Remain").
    pub delivered: u64,
    /// Dropped by ingress/egress policies, loop checks or advertisement
    /// rules ("Policy").
    pub dropped_policy: u64,
    /// Dropped because the condition needs more than `k` failures.
    pub dropped_over_k: u64,
    /// Dropped because the condition is unsatisfiable ("Impossible").
    pub dropped_impossible: u64,
    /// Peak topology-condition formula size (BDD nodes) observed while
    /// propagating — the Figure 11 "largest formula during simulation"
    /// metric, as opposed to the final reachability formula length.
    pub max_formula_len: u64,
}

impl PruneStats {
    /// Total attempted emissions.
    pub fn total(&self) -> u64 {
        self.delivered + self.dropped_policy + self.dropped_over_k + self.dropped_impossible
    }

    /// Folds another run's stats into this one (counters add, peaks max).
    pub fn merge(&mut self, other: &PruneStats) {
        self.delivered += other.delivered;
        self.dropped_policy += other.dropped_policy;
        self.dropped_over_k += other.dropped_over_k;
        self.dropped_impossible += other.dropped_impossible;
        self.max_formula_len = self.max_formula_len.max(other.max_formula_len);
    }
}

/// The dependency trace of a simulation: which devices and links its
/// propagation touched. Recorded on the producer side ([`Simulation`]
/// fills it during `seed`/`deliver`/`emit`), consumed by the incremental
/// verifier's dirty rules (`crate::snapshot`): a configuration change on a
/// device no family ever touched cannot alter that family's fixpoint.
///
/// The sets are over-approximations of influence *at the simulated failure
/// budget `k`*: a larger budget can route messages through devices this
/// trace never saw, so traces must only be reused at the budget they were
/// recorded at.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DepTrace {
    /// Nodes that seeded a local entry (origin announcements, statics via
    /// redistribution).
    pub origin_nodes: IdSet,
    /// Every node that participated: seeded an entry, sent a message, or
    /// was offered one (counted even when ingress dropped it — the
    /// receiver's config decided the drop).
    pub touched_nodes: IdSet,
    /// Links that carried (or conditioned) an emitted message.
    pub touched_links: IdSet,
}

impl DepTrace {
    /// An empty trace sized for `nodes` node ids and `links` link ids.
    pub fn new(nodes: usize, links: usize) -> DepTrace {
        DepTrace {
            origin_nodes: IdSet::with_capacity(nodes),
            touched_nodes: IdSet::with_capacity(nodes),
            touched_links: IdSet::with_capacity(links),
        }
    }
}

/// A dense set of node or link ids, one bit per id. Sized up front from
/// the topology, so marking an id on the emit/deliver hot path is a shift
/// and an OR, not a tree insert; iteration is ascending, like the ordered
/// set it replaces.
#[derive(Clone, Debug, Default)]
pub struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// An empty set with room for ids `0..capacity` (it grows on demand).
    pub fn with_capacity(capacity: usize) -> IdSet {
        IdSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Adds `id`.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        let w = (id / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (id % 64);
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(wi as u32 * 64 + bit)
            })
        })
    }
}

/// Set equality: the capacity a set was sized with does not matter.
impl PartialEq for IdSet {
    fn eq(&self, other: &IdSet) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for IdSet {}

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The propagation did not converge (policy-induced oscillation).
    NonConvergence,
    /// A query named a device that does not exist in the snapshot.
    UnknownDevice(String),
    /// The family exhausted its deterministic BDD resource budget
    /// (see [`Simulation::set_budget`]).
    OverBudget(hoyan_logic::BudgetBreach),
    /// The family's opt-in wall-clock deadline elapsed. Unlike
    /// [`SimError::OverBudget`], this outcome is **non-deterministic** —
    /// it depends on machine load — which is why deadlines are off by
    /// default.
    DeadlineExceeded {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// A fault injected by the seeded `hoyan_rt::fault` harness.
    Injected {
        /// The injection-site key.
        site: &'static str,
        /// The index the site fired at.
        index: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NonConvergence => write!(f, "route propagation did not converge"),
            SimError::UnknownDevice(d) => {
                write!(f, "unknown device `{d}`: no such hostname in the snapshot")
            }
            SimError::OverBudget(b) => write!(f, "family exceeded its resource budget: {b}"),
            SimError::DeadlineExceeded { limit_ms } => {
                write!(f, "family exceeded its wall-clock deadline of {limit_ms} ms")
            }
            SimError::Injected { site, index } => {
                write!(f, "injected fault at {site}[{index}]")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A RIB entry with its topology condition. `attrs` and `path` never change
/// once the entry exists, so they sit behind `Arc`s: cloning an entry (the
/// per-step RIB snapshot) or relaying its path in a message shares them
/// instead of copying AS paths, community sets and node lists.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Stable identity (message diffing key).
    pub id: u64,
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Attributes as stored in the RIB (after ingress processing).
    pub attrs: Arc<RouteAttrs>,
    /// The ingress topology condition `R(r)`.
    pub cond: Bdd,
    /// How the route was learned.
    pub learned_from: LearnedFrom,
    /// The advertising peer (None for local entries).
    pub from_node: Option<NodeId>,
    /// The BGP next hop (None = this device is the gateway).
    pub next_hop: Option<NodeId>,
    /// IGP metric to the next hop (all links alive), for selection step 8.
    pub igp_metric: u64,
    /// Advertising peer's router id, for the final tie-break.
    pub peer_router_id: u32,
    /// iBGP reflection hops taken (cluster-list-length proxy).
    pub ibgp_hops: u32,
    /// The protocol that produced the entry.
    pub proto: Proto,
    /// Devices the route has traversed (loop prevention).
    pub path: Arc<[NodeId]>,
}

impl Entry {
    fn candidate(&self) -> CandidateRef<'_> {
        CandidateRef {
            attrs: &self.attrs,
            from_ebgp: matches!(self.learned_from, LearnedFrom::Ebgp | LearnedFrom::Local),
            igp_metric: self.igp_metric,
            ibgp_hops: self.ibgp_hops,
            peer_router_id: self.peer_router_id,
        }
    }
}

/// A read-only view of a RIB rule with its *effective* condition
/// (aggregation suppression applied).
#[derive(Clone, Debug)]
pub struct RibView {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Attributes.
    pub attrs: RouteAttrs,
    /// Effective topology condition.
    pub cond: Bdd,
    /// Advertising peer.
    pub from_node: Option<NodeId>,
    /// BGP next hop.
    pub next_hop: Option<NodeId>,
    /// Producing protocol.
    pub proto: Proto,
    /// How the route was learned.
    pub learned_from: LearnedFrom,
    /// Rank in the RIB (0 = best).
    pub rank: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChannelKind {
    Ebgp(usize),
    Ibgp(usize),
    Igp,
}

#[derive(Clone, Copy, Debug)]
struct Channel {
    peer: NodeId,
    link: Option<LinkId>,
    kind: ChannelKind,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
struct MsgKey {
    from: u32,
    channel: u32,
    entry: u64,
}

/// A route update as computed by [`Simulation::emit`].
#[derive(Clone, Debug)]
struct Msg {
    cond: Bdd,
    attrs: Arc<RouteAttrs>,
    next_hop: Option<NodeId>,
    prefix: Ipv4Prefix,
    /// The *sender's* entry path, shared; the receiver is appended only
    /// when [`Simulation::deliver`] actually creates an entry.
    sender_path: Arc<[NodeId]>,
    ibgp_hops: u32,
}

/// A message in flight, with the RIB entry it created at the receiver
/// (`None` while dormant: dropped as ball-covered, retried later).
#[derive(Clone, Debug)]
struct SentMsg {
    msg: Msg,
    receiver: NodeId,
    receiver_entry: Option<u64>,
}

/// Wall-clock tallies of the phases of a worklist step, in nanoseconds —
/// taken only when `hoyan_obs::timing()` is on (see
/// [`Simulation::flush_metrics`]). The policy tallies are included in the
/// emit / deliver ones, `insert` in `deliver`.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseNanos {
    best_chain: u64,
    emit: u64,
    egress_policy: u64,
    deliver: u64,
    ingress_policy: u64,
    insert: u64,
    gc: u64,
}

/// Mode of a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// BGP over the session graph (with iBGP conditions from IS-IS).
    Bgp,
    /// IS-IS as a path-vector protocol over IGP adjacencies (Appendix C).
    Igp,
}

/// The read-only arena of conditions every family of a sweep shares: the
/// per-link aliveness literals (`var`/`nvar`, pre-interned under the
/// model's variable order) and the iBGP session conditions derived from
/// IS-IS. Built **once per sweep**, then imported into each worker's warm
/// arena as a permanent base segment ([`hoyan_logic::BddManager::import_base`])
/// that survives [`hoyan_logic::BddManager::recycle`] — so per-family
/// construction stops re-deriving the same nodes, and in particular stops
/// re-importing session conditions from the IS-IS database family after
/// family.
pub struct SharedBase {
    mgr: BddManager,
    /// Import roots: `2 * link_count` literals (vars then nvars, by link
    /// id), then one session condition per `session_keys` entry.
    roots: Vec<Bdd>,
    /// Normalized `(min, max)` node pairs, aligned with the session-root
    /// tail of `roots`.
    session_keys: Vec<(u32, u32)>,
    n_links: usize,
}

impl SharedBase {
    /// Builds the base arena for `net`: link literals always, plus the
    /// session condition of every iBGP session pair when `isis` is given.
    /// Bumps `isis.conditioned_sessions` once per pair (the per-sweep cost
    /// the per-family `bdd.shared_imports` hits amortize).
    pub fn build(net: &NetworkModel, isis: Option<&IsisDb>) -> SharedBase {
        let _sp = hoyan_obs::span("verify.shared_base");
        let mut mgr = BddManager::new();
        let n = net.topology.link_count();
        let mut roots = Vec::with_capacity(2 * n);
        for l in 0..n as u32 {
            roots.push(mgr.var(l));
        }
        for l in 0..n as u32 {
            roots.push(mgr.nvar(l));
        }
        let mut session_keys = Vec::new();
        if let Some(db) = isis {
            let mut keys = std::collections::BTreeSet::new();
            for u in net.topology.nodes() {
                for s in net.sessions_of(u) {
                    if s.kind == SessionKind::Ibgp {
                        keys.insert(if u.0 < s.peer.0 {
                            (u.0, s.peer.0)
                        } else {
                            (s.peer.0, u.0)
                        });
                    }
                }
            }
            for (u, v) in keys {
                hoyan_obs::metric!(counter "isis.conditioned_sessions").inc();
                let fwd = db.reach_cond(NodeId(u), NodeId(v));
                let back = db.reach_cond(NodeId(v), NodeId(u));
                let fwd = mgr.import(&db.mgr, fwd);
                let back = mgr.import(&db.mgr, back);
                roots.push(mgr.and(fwd, back));
                session_keys.push((u, v));
            }
        }
        hoyan_obs::metric!(gauge "bdd.shared_base_nodes").record_max(mgr.node_count() as u64);
        SharedBase {
            mgr,
            roots,
            session_keys,
            n_links: n,
        }
    }

    /// BDD solver steps [`SharedBase::build`] burned constructing the base
    /// arena — the sweep reports this separately so the per-family op
    /// attribution plus this value reconciles with the global `bdd.ops`
    /// counter (the base manager's tallies flush when the base drops at
    /// sweep end).
    pub fn construction_ops(&self) -> u64 {
        self.mgr.ops
    }

    /// Imports the base into `arena` as its permanent segment and returns
    /// the handle map simulations in that arena use. Attach **once per
    /// worker arena** — the segment survives `recycle()`, and the returned
    /// handles stay valid for every family the arena subsequently runs.
    pub fn attach(&self, arena: &mut BddManager) -> AttachedBase {
        let handles = arena.import_base(&self.mgr, &self.roots);
        let sessions = self
            .session_keys
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, handles[2 * self.n_links + i]))
            .collect();
        AttachedBase { sessions }
    }
}

/// The per-arena face of a [`SharedBase`]: handles valid in one worker's
/// arena (and across every family that arena runs, since base slots
/// survive `recycle()`). Cheap to clone per family.
#[derive(Clone, Debug, Default)]
pub struct AttachedBase {
    /// Session condition per normalized iBGP pair.
    sessions: HashMap<(u32, u32), Bdd>,
}

/// A conditioned simulation of one prefix family.
pub struct Simulation<'n> {
    net: &'n NetworkModel,
    /// The BDD manager owning all conditions of this simulation.
    pub mgr: BddManager,
    mode: Mode,
    k: Option<u32>,
    prefixes: Vec<Ipv4Prefix>,
    channels: Vec<Vec<Channel>>,
    ribs: FxHashMap<(u32, Ipv4Prefix), Vec<Entry>>,
    /// Messages in flight per sender `(node, prefix)`, sorted by key.
    sent: FxHashMap<(u32, Ipv4Prefix), Vec<(MsgKey, SentMsg)>>,
    dirty: VecDeque<(u32, Ipv4Prefix)>,
    in_dirty: FxHashSet<(u32, Ipv4Prefix)>,
    next_entry_id: u64,
    agg_entry_ids: FxHashMap<(u32, Ipv4Prefix), u64>,
    session_conds: FxHashMap<(u32, u32), Bdd>,
    /// Handles into the arena's shared base segment (empty unless
    /// [`Simulation::set_base`] attached one).
    base: AttachedBase,
    /// All-alive IGP distances (`[from][to]`) for selection step 8:
    /// borrowed from the IS-IS database when one is attached.
    igp_dist: Cow<'n, [Vec<Option<u64>>]>,
    isis_db: Option<&'n IsisDb>,
    /// Scratch of [`Self::process_node_prefix`] (the RIB snapshot, its
    /// is-best chain and the desired message set), kept between steps so a
    /// step allocates only for the entries it creates.
    step_entries: Vec<Entry>,
    step_best: Vec<Bdd>,
    step_desired: Vec<(MsgKey, Option<Msg>)>,
    /// Whether to take [`PhaseNanos`] (`hoyan_obs::timing()` at
    /// construction): off, the worklist loop never reads the clock.
    timed: bool,
    phase_ns: PhaseNanos,
    /// Opt-in wall-clock deadline: the cutoff instant plus the configured
    /// limit (for the error message). See [`Self::set_budget`].
    deadline: Option<(std::time::Instant, u64)>,
    /// Drop/delivery counters.
    pub stats: PruneStats,
    /// Largest condition (BDD node count) seen on any message or rule —
    /// the Figure 11 metric.
    pub max_cond_size: usize,
    /// Devices and links this simulation's propagation touched (the
    /// dependency index of the incremental pipeline).
    pub deps: DepTrace,
}

impl<'n> Simulation<'n> {
    /// A BGP simulation of `prefixes` under failure budget `k`
    /// (`None` = unbounded). `isis` supplies iBGP session conditions and
    /// IGP metrics; without it, iBGP sessions are assumed always-up.
    pub fn new_bgp(
        net: &'n NetworkModel,
        prefixes: Vec<Ipv4Prefix>,
        k: Option<u32>,
        isis: Option<&'n IsisDb>,
    ) -> Self {
        Self::new_bgp_in(BddManager::new(), net, prefixes, k, isis)
    }

    /// Like [`Self::new_bgp`], but building conditions in a caller-supplied
    /// manager — typically a [`BddManager::recycle`]d arena from a previous
    /// family, so verifier workers keep one warm arena instead of
    /// reallocating tables per prefix family. The manager must be fresh or
    /// recycled (the simulation assumes it owns every node).
    pub fn new_bgp_in(
        mgr: BddManager,
        net: &'n NetworkModel,
        prefixes: Vec<Ipv4Prefix>,
        k: Option<u32>,
        isis: Option<&'n IsisDb>,
    ) -> Self {
        let channels = (0..net.topology.node_count() as u32)
            .map(|i| {
                net.sessions_of(NodeId(i))
                    .iter()
                    .map(|s| Channel {
                        peer: s.peer,
                        link: s.link,
                        kind: match s.kind {
                            SessionKind::Ebgp => ChannelKind::Ebgp(s.neighbor_idx),
                            SessionKind::Ibgp => ChannelKind::Ibgp(s.neighbor_idx),
                        },
                    })
                    .collect()
            })
            .collect();
        Self::new_inner(mgr, net, prefixes, k, Mode::Bgp, channels, isis)
    }

    /// An IS-IS path-vector simulation over all router loopbacks.
    pub fn new_igp(net: &'n NetworkModel, k: Option<u32>) -> Self {
        let dests: Vec<NodeId> = net.topology.nodes().filter(|n| net.runs_isis(*n)).collect();
        Self::new_igp_for(net, k, &dests)
    }

    /// An IS-IS path-vector simulation restricted to the loopbacks of
    /// `dests` (per-destination simulations are independent, so
    /// [`crate::isis::IsisDb`] fans them out across threads exactly like
    /// per-prefix BGP simulations).
    pub fn new_igp_for(net: &'n NetworkModel, k: Option<u32>, dests: &[NodeId]) -> Self {
        let prefixes = dests
            .iter()
            .filter(|n| net.runs_isis(**n))
            .map(|n| net.topology.loopback(*n))
            .collect();
        let channels = (0..net.topology.node_count() as u32)
            .map(|i| {
                let n = NodeId(i);
                net.topology
                    .neighbors(n)
                    .iter()
                    .filter(|(peer, _)| net.isis_adjacency(n, *peer))
                    .map(|(peer, link)| Channel {
                        peer: *peer,
                        link: Some(*link),
                        kind: ChannelKind::Igp,
                    })
                    .collect()
            })
            .collect();
        Self::new_inner(
            BddManager::new(),
            net,
            prefixes,
            k,
            Mode::Igp,
            channels,
            None,
        )
    }

    fn new_inner(
        mgr: BddManager,
        net: &'n NetworkModel,
        prefixes: Vec<Ipv4Prefix>,
        k: Option<u32>,
        mode: Mode,
        channels: Vec<Vec<Channel>>,
        isis_db: Option<&'n IsisDb>,
    ) -> Self {
        let igp_dist = match (mode, isis_db) {
            (Mode::Igp, _) => Cow::Owned(Vec::new()),
            (Mode::Bgp, Some(db)) => Cow::Borrowed(db.dist.as_slice()),
            (Mode::Bgp, None) => Cow::Owned(
                (0..net.topology.node_count())
                    .map(|i| net.igp_distances(NodeId(i as u32)))
                    .collect(),
            ),
        };
        Simulation {
            net,
            mgr,
            mode,
            k,
            prefixes,
            channels,
            ribs: FxHashMap::default(),
            sent: FxHashMap::default(),
            dirty: VecDeque::new(),
            in_dirty: FxHashSet::default(),
            next_entry_id: 0,
            agg_entry_ids: FxHashMap::default(),
            session_conds: FxHashMap::default(),
            base: AttachedBase::default(),
            igp_dist,
            isis_db,
            step_entries: Vec::new(),
            step_best: Vec::new(),
            step_desired: Vec::new(),
            timed: hoyan_obs::timing(),
            phase_ns: PhaseNanos::default(),
            deadline: None,
            stats: PruneStats::default(),
            max_cond_size: 0,
            deps: DepTrace::new(net.topology.node_count(), net.topology.link_count()),
        }
    }

    /// The simulated prefixes.
    pub fn prefixes(&self) -> &[Ipv4Prefix] {
        &self.prefixes
    }

    /// Consumes the simulation, keeping only the BDD manager. Used when the
    /// extracted conditions outlive the simulation (as in [`crate::isis`]),
    /// and — critically for the fault-tolerant sweep — to recover a worker's
    /// warm arena from a *failed* simulation: the arena moved into the
    /// `Simulation` at construction, so without this hand-back an error
    /// would silently degrade the worker to cold arenas.
    pub fn into_manager(self) -> BddManager {
        self.mgr
    }

    /// Alias of [`Self::into_manager`] (the original name).
    pub fn into_mgr(self) -> BddManager {
        self.into_manager()
    }

    /// Attaches the handle map of a [`SharedBase`] previously imported into
    /// this simulation's manager ([`SharedBase::attach`]). The handles MUST
    /// come from an attach against the same arena — base handles are plain
    /// slot indices and only mean anything in the arena they were imported
    /// into.
    pub fn set_base(&mut self, base: AttachedBase) {
        self.base = base;
    }

    /// Installs a per-family resource budget: deterministic BDD caps
    /// (checked at the worklist safe point, next to the GC check) and an
    /// optional wall-clock deadline measured from now. The caps produce
    /// [`SimError::OverBudget`] at the same worklist step on any machine;
    /// the deadline produces [`SimError::DeadlineExceeded`] and is
    /// **non-deterministic** by nature (opt-in only).
    pub fn set_budget(&mut self, budget: hoyan_logic::BddBudget, deadline_ms: Option<u64>) {
        self.mgr.set_budget(budget);
        self.deadline = deadline_ms.map(|ms| {
            (
                std::time::Instant::now() + std::time::Duration::from_millis(ms),
                ms,
            )
        });
    }

    /// All route updates currently in flight: `(from, to, prefix, attrs,
    /// condition)`. The behavior-model tuner compares these against the
    /// oracle's updates to localize VSBs *between* devices (§6's use of BGP
    /// monitoring beyond ext-RIBs).
    pub fn updates(&self) -> Vec<(NodeId, NodeId, Ipv4Prefix, RouteAttrs, Bdd)> {
        self.sent
            .iter()
            .flat_map(|((from, _prefix), msgs)| {
                msgs.iter().map(|(_, m)| {
                    let attrs = RouteAttrs::clone(&m.msg.attrs);
                    (NodeId(*from), m.receiver, m.msg.prefix, attrs, m.msg.cond)
                })
            })
            .collect()
    }

    fn fresh_entry_id(&mut self) -> u64 {
        let id = self.next_entry_id;
        self.next_entry_id += 1;
        id
    }

    /// Marks `(node, prefix)` for reprocessing. Aggregation couples
    /// prefixes: a change to a contributor also dirties the covering
    /// aggregate and its siblings (their suppression conditions depend on
    /// the trigger).
    fn mark_dirty(&mut self, n: NodeId, prefix: Ipv4Prefix) {
        if self.in_dirty.insert((n.0, prefix)) {
            self.dirty.push_back((n.0, prefix));
        }
        if self.mode != Mode::Bgp {
            return;
        }
        let Some(bgp) = self.net.device(n).config.bgp.as_ref() else {
            return;
        };
        let coupled: Vec<Ipv4Prefix> = bgp
            .aggregates
            .iter()
            .filter(|a| a.prefix != prefix && a.prefix.contains(prefix))
            .flat_map(|a| {
                let mut v = vec![a.prefix];
                v.extend(
                    self.prefixes
                        .iter()
                        .copied()
                        .filter(|q| *q != prefix && *q != a.prefix && a.prefix.contains(*q)),
                );
                v
            })
            .collect();
        for q in coupled {
            if self.in_dirty.insert((n.0, q)) {
                self.dirty.push_back((n.0, q));
            }
        }
    }

    /// Starts a phase timer — `None` (and no clock read) unless timed.
    #[inline]
    fn tick(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    /// Records a message condition's size in the Figure 11 peaks. Called
    /// once per emitted message: a delivered condition is the emitted one.
    fn note_cond(&mut self, cond: Bdd) {
        let size = self.mgr.size(cond);
        if size > self.max_cond_size {
            self.max_cond_size = size;
        }
        if size as u64 > self.stats.max_formula_len {
            self.stats.max_formula_len = size as u64;
        }
    }

    /// Seeds origin routes and runs the propagation to fixpoint.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.seed();
        let cap = 500usize * self.net.topology.node_count().max(1) * self.prefixes.len().max(1);
        let mut steps = 0usize;
        while let Some((u, prefix)) = self.dirty.pop_front() {
            self.maybe_gc();
            // Budget safe point, shared with GC: the caps count work, not
            // time, so a breach lands on the same worklist step at any
            // thread count (the quarantine determinism contract).
            if let Some(breach) = self.mgr.budget_exceeded() {
                self.flush_metrics(steps);
                hoyan_obs::record(hoyan_obs::EventKind::BudgetBreach);
                return Err(SimError::OverBudget(breach));
            }
            // The opt-in wall-clock guard, sampled every 64 steps to keep
            // `Instant::now` off the hot path. Non-deterministic by nature.
            if let Some((cutoff, limit_ms)) = self.deadline {
                if steps % 64 == 0 && std::time::Instant::now() >= cutoff {
                    self.flush_metrics(steps);
                    return Err(SimError::DeadlineExceeded { limit_ms });
                }
            }
            self.in_dirty.remove(&(u, prefix));
            self.process_node_prefix(NodeId(u), prefix);
            steps += 1;
            if steps > cap {
                self.flush_metrics(steps);
                return Err(SimError::NonConvergence);
            }
        }
        self.flush_metrics(steps);
        Ok(())
    }

    /// GC safe point, hit between worklist steps: no transient conditions
    /// are live there, so every meaningful handle is reachable from the
    /// RIBs, the in-flight messages, or the iBGP session-condition cache.
    /// Those are the roots the `Simulation` registers with the manager;
    /// anything else (retracted entries, superseded messages, accumulator
    /// intermediates) is garbage. The watermark check is O(1), and the
    /// trigger depends only on this family's own allocation history, so
    /// collections — and the reports — are identical at any thread count.
    fn maybe_gc(&mut self) {
        if !self.mgr.should_gc() {
            return;
        }
        let t = self.tick();
        let roots = self
            .ribs
            .values()
            .flat_map(|entries| entries.iter().map(|e| e.cond))
            .chain(
                self.sent
                    .values()
                    .flat_map(|msgs| msgs.iter().map(|(_, m)| m.msg.cond)),
            )
            .chain(self.session_conds.values().copied());
        let before = self.mgr.node_count();
        self.mgr.gc(roots);
        tock(&mut self.phase_ns.gc, t);
        // Flight-recorder pause marker; the trigger (and hence the event
        // stream) depends only on this family's own allocation history.
        hoyan_obs::record(hoyan_obs::EventKind::GcRun {
            reclaimed: before.saturating_sub(self.mgr.node_count()) as u64,
        });
    }

    // Fold this run's plain-integer tallies into the process-wide registry
    // (once per run, so the worklist loop stays atomic-free).
    fn flush_metrics(&self, steps: usize) {
        hoyan_obs::metric!(counter "propagate.runs").inc();
        hoyan_obs::metric!(counter "propagate.steps").add(steps as u64);
        hoyan_obs::metric!(histogram "propagate.steps_per_run").observe(steps as u64);
        hoyan_obs::metric!(counter "propagate.delivered").add(self.stats.delivered);
        hoyan_obs::metric!(counter "propagate.dropped_policy").add(self.stats.dropped_policy);
        hoyan_obs::metric!(counter "propagate.dropped_over_k").add(self.stats.dropped_over_k);
        hoyan_obs::metric!(counter "propagate.dropped_impossible")
            .add(self.stats.dropped_impossible);
        hoyan_obs::metric!(gauge "propagate.max_formula_len")
            .record_max(self.stats.max_formula_len);
        // Where the step time went — only under `--timing`, so untimed
        // exports keep their key set (and stay deterministic).
        if self.timed {
            let ns = &self.phase_ns;
            hoyan_obs::metric!(counter "propagate.best_chain_ns").add(ns.best_chain);
            hoyan_obs::metric!(counter "propagate.emit_ns").add(ns.emit);
            hoyan_obs::metric!(counter "propagate.egress_policy_ns").add(ns.egress_policy);
            hoyan_obs::metric!(counter "propagate.deliver_ns").add(ns.deliver);
            hoyan_obs::metric!(counter "propagate.ingress_policy_ns").add(ns.ingress_policy);
            hoyan_obs::metric!(counter "propagate.insert_ns").add(ns.insert);
            hoyan_obs::metric!(counter "propagate.gc_ns").add(ns.gc);
        }
    }

    fn seed(&mut self) {
        match self.mode {
            Mode::Igp => {
                for n in self.net.topology.nodes() {
                    if !self.net.runs_isis(n) {
                        continue;
                    }
                    let prefix = self.net.topology.loopback(n);
                    if !self.prefixes.contains(&prefix) {
                        continue;
                    }
                    let entry = Entry {
                        id: self.fresh_entry_id(),
                        prefix,
                        attrs: Arc::new(RouteAttrs::default()),
                        cond: Bdd::TRUE,
                        learned_from: LearnedFrom::Local,
                        from_node: None,
                        next_hop: None,
                        igp_metric: 0,
                        peer_router_id: self.net.device(n).config.router_id,
                        ibgp_hops: 0,
                        proto: Proto::Isis,
                        path: Arc::new([n]),
                    };
                    self.deps.origin_nodes.insert(n.0);
                    self.deps.touched_nodes.insert(n.0);
                    self.insert_entry(n, entry);
                    self.mark_dirty(n, prefix);
                }
            }
            Mode::Bgp => {
                for n in self.net.topology.nodes() {
                    let dev = self.net.device(n);
                    let Some(bgp) = dev.config.bgp.as_ref() else {
                        continue;
                    };
                    for pi in 0..self.prefixes.len() {
                        let p = self.prefixes[pi];
                        let mut seeds: Vec<RouteAttrs> = Vec::new();
                        if bgp.networks.contains(&p) {
                            let mut attrs = RouteAttrs::originated();
                            attrs.weight = LOCAL_WEIGHT;
                            seeds.push(attrs);
                        }
                        let redistributes_static =
                            bgp.redistribute.iter().any(|r| *r == RedistSource::Static);
                        if redistributes_static
                            && dev.config.static_routes.iter().any(|s| s.prefix == p)
                            && dev.redistribution_admits(p)
                        {
                            let mut attrs = RouteAttrs::originated();
                            attrs.weight = LOCAL_WEIGHT;
                            attrs.origin = Origin::Incomplete;
                            seeds.push(attrs);
                        }
                        for attrs in seeds {
                            let entry = Entry {
                                id: self.fresh_entry_id(),
                                prefix: p,
                                attrs: Arc::new(attrs),
                                cond: Bdd::TRUE,
                                learned_from: LearnedFrom::Local,
                                from_node: None,
                                next_hop: None,
                                igp_metric: 0,
                                peer_router_id: dev.config.router_id,
                                ibgp_hops: 0,
                                proto: Proto::Bgp,
                                path: Arc::new([n]),
                            };
                            self.deps.origin_nodes.insert(n.0);
                            self.deps.touched_nodes.insert(n.0);
                            self.insert_entry(n, entry);
                            self.mark_dirty(n, p);
                        }
                    }
                }
            }
        }
    }

    /// Inserts an entry at its rank, keeping the RIB *ball-minimal*: an
    /// entry whose condition is already covered — within the `≤ k`-failure
    /// ball — by higher-ranked rules can never be best in any considered
    /// scenario, so it is not stored (its message stays dormant and is
    /// retried if coverage later shrinks). Returns `false` for such drops.
    ///
    /// This is the RIB-side face of the §5.6 pruning and what the paper's
    /// Figure 12 calls branches "cut due to larger-than-k": only ~2% of
    /// branches survive propagation on their WAN.
    fn insert_entry(&mut self, node: NodeId, entry: Entry) -> bool {
        let prefix = entry.prefix;
        let rib = self.ribs.entry((node.0, prefix)).or_default();
        let cand = entry.candidate();
        // Decision-process order first; ties broken on route *content*
        // (attributes, then provenance) so the converged RIB order is
        // independent of message delivery order.
        let pos = rib
            .iter()
            .position(|e| {
                hoyan_device::cmp_candidate_refs(&cand, &e.candidate())
                    .then_with(|| entry.attrs.cmp(&e.attrs))
                    .then_with(|| entry.from_node.cmp(&e.from_node))
                    .then_with(|| entry.path.cmp(&e.path))
                    == std::cmp::Ordering::Less
            })
            .unwrap_or(rib.len());
        if let Some(k) = self.k {
            let higher = rib[..pos].iter().map(|e| e.cond);
            let covered = self.mgr.or_all_within(higher, Some(k));
            let novel = self.mgr.and_not(entry.cond, covered);
            if novel.is_false() || self.mgr.min_failures_to_satisfy(novel) > k {
                self.stats.dropped_over_k += 1;
                return false;
            }
        }
        rib.insert(pos, entry);
        self.sweep_covered(node, prefix);
        true
    }

    /// Removes lower-ranked entries that became covered within the failure
    /// ball (top-down greedy pass, deterministic in the ranked content).
    /// Local seeds and aggregates are never swept (their lifecycles are
    /// owned by seeding and aggregation).
    fn sweep_covered(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        let Some(k) = self.k else {
            return;
        };
        let Some(rib) = self.ribs.get(&(node.0, prefix)) else {
            return;
        };
        let mut acc = Bdd::FALSE;
        let mut removed = Vec::new();
        for e in rib {
            let keep_always = e.from_node.is_none() || e.proto == Proto::Aggregate;
            if !keep_always && !acc.is_false() {
                let novel = self.mgr.and_not(e.cond, acc);
                if novel.is_false() || self.mgr.min_failures_to_satisfy(novel) > k {
                    removed.push(e.id);
                    continue;
                }
            }
            acc = self.mgr.or(acc, e.cond);
            if !acc.is_true() && self.mgr.min_failures_to_falsify(acc) > k {
                acc = Bdd::TRUE;
            }
        }
        for id in removed {
            self.stats.dropped_over_k += 1;
            self.remove_entry(node, prefix, id);
        }
    }

    fn remove_entry(&mut self, node: NodeId, prefix: Ipv4Prefix, entry_id: u64) {
        let mut removed = false;
        if let Some(rib) = self.ribs.get_mut(&(node.0, prefix)) {
            let before = rib.len();
            rib.retain(|e| e.id != entry_id);
            removed = rib.len() != before;
        }
        if removed {
            // The node must recompute its announcements, and its peers must
            // retry messages that were dropped as ball-covered when the
            // removed entry still provided the coverage.
            self.mark_dirty(node, prefix);
            for ci in 0..self.channels[node.0 as usize].len() {
                let peer = self.channels[node.0 as usize][ci].peer;
                self.mark_dirty(peer, prefix);
            }
        }
    }

    /// The iBGP session condition between `u` and `v`: both directions of
    /// IS-IS reachability. When a [`SharedBase`] is attached the condition
    /// is a pre-imported base-arena handle (one cross-arena import per
    /// *sweep* instead of per family); otherwise it is imported from the
    /// IS-IS database on first use.
    fn session_cond(&mut self, u: NodeId, v: NodeId) -> Bdd {
        let key = if u.0 < v.0 { (u.0, v.0) } else { (v.0, u.0) };
        if let Some(&c) = self.session_conds.get(&key) {
            return c;
        }
        if let Some(&c) = self.base.sessions.get(&key) {
            // Per-family (not per-arena) bump: thread-count invariant.
            hoyan_obs::metric!(counter "bdd.shared_imports").inc();
            self.session_conds.insert(key, c);
            return c;
        }
        hoyan_obs::metric!(counter "isis.conditioned_sessions").inc();
        let c = match self.isis_db {
            None => Bdd::TRUE,
            Some(db) => {
                let fwd = db.reach_cond(u, v);
                let back = db.reach_cond(v, u);
                let fwd = self.mgr.import(&db.mgr, fwd);
                let back = self.mgr.import(&db.mgr, back);
                self.mgr.and(fwd, back)
            }
        };
        self.session_conds.insert(key, c);
        c
    }

    /// Aggregation state at `node` for `agg_prefix`: the trigger condition
    /// (all contributing simulated prefixes present, §5.3) and the list of
    /// contributing prefixes.
    fn aggregate_trigger(
        &mut self,
        node: NodeId,
        agg_prefix: Ipv4Prefix,
    ) -> (Bdd, Vec<Ipv4Prefix>) {
        let mut contributors = Vec::new();
        let mut trigger = Bdd::TRUE;
        for pi in 0..self.prefixes.len() {
            let p = self.prefixes[pi];
            if p == agg_prefix || !agg_prefix.contains(p) {
                continue;
            }
            let present = self.prefix_present_cond(node, p);
            if present.is_false() {
                continue;
            }
            contributors.push(p);
            trigger = self.mgr.and(trigger, present);
        }
        if contributors.is_empty() {
            (Bdd::FALSE, contributors)
        } else {
            (trigger, contributors)
        }
    }

    /// Condition that at least one non-aggregate entry for `p` exists at
    /// `node`.
    fn prefix_present_cond(&mut self, node: NodeId, p: Ipv4Prefix) -> Bdd {
        let rib = self.ribs.get(&(node.0, p)).map_or(&[][..], Vec::as_slice);
        let conds = rib
            .iter()
            .filter(|e| e.proto != Proto::Aggregate)
            .map(|e| e.cond);
        self.mgr.or_all(conds)
    }

    /// Recomputes the aggregate entry at `node` for `prefix`, if `prefix`
    /// is a configured aggregate there (stable entry ids).
    fn refresh_aggregates_for(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        if self.mode != Mode::Bgp {
            return;
        }
        let dev = self.net.device(node);
        let Some(bgp) = dev.config.bgp.as_ref() else {
            return;
        };
        let aggs: Vec<(Ipv4Prefix, bool)> = bgp
            .aggregates
            .iter()
            .filter(|a| a.prefix == prefix)
            .map(|a| (a.prefix, a.summary_only))
            .collect();
        let router_id = dev.config.router_id;
        for (agg_prefix, _summary_only) in aggs {
            if !self.prefixes.contains(&agg_prefix) {
                continue;
            }
            let (trigger, contributors) = self.aggregate_trigger(node, agg_prefix);
            let existing_id = self.agg_entry_ids.get(&(node.0, agg_prefix)).copied();
            if trigger.is_false() || contributors.is_empty() {
                if let Some(id) = existing_id {
                    self.remove_entry(node, agg_prefix, id);
                    self.agg_entry_ids.remove(&(node.0, agg_prefix));
                }
                continue;
            }
            match existing_id {
                Some(id) => {
                    if let Some(rib) = self.ribs.get_mut(&(node.0, agg_prefix)) {
                        if let Some(e) = rib.iter_mut().find(|e| e.id == id) {
                            e.cond = trigger;
                        }
                    }
                }
                None => {
                    let mut attrs = RouteAttrs::originated();
                    attrs.weight = LOCAL_WEIGHT;
                    attrs.origin = Origin::Incomplete;
                    let id = self.fresh_entry_id();
                    let entry = Entry {
                        id,
                        prefix: agg_prefix,
                        attrs: Arc::new(attrs),
                        cond: trigger,
                        learned_from: LearnedFrom::Local,
                        from_node: None,
                        next_hop: None,
                        igp_metric: 0,
                        peer_router_id: router_id,
                        ibgp_hops: 0,
                        proto: Proto::Aggregate,
                        path: Arc::new([node]),
                    };
                    self.agg_entry_ids.insert((node.0, agg_prefix), id);
                    self.insert_entry(node, entry);
                }
            }
        }
    }

    /// The suppression condition for sub-prefix `p` at `node`: the
    /// disjunction of triggers of summary-only aggregates covering `p`
    /// (§5.3 makes the aggregate and its contributors mutually exclusive).
    fn suppression_cond(&mut self, node: NodeId, p: Ipv4Prefix) -> Bdd {
        if self.mode != Mode::Bgp {
            return Bdd::FALSE;
        }
        let Some(bgp) = self.net.device(node).config.bgp.as_ref() else {
            return Bdd::FALSE;
        };
        let aggs: Vec<Ipv4Prefix> = bgp
            .aggregates
            .iter()
            .filter(|a| a.summary_only && a.prefix != p && a.prefix.contains(p))
            .map(|a| a.prefix)
            .collect();
        let mut cond = Bdd::FALSE;
        for a in aggs {
            if !self.prefixes.contains(&a) {
                continue;
            }
            let (trigger, _) = self.aggregate_trigger(node, a);
            cond = self.mgr.or(cond, trigger);
        }
        cond
    }

    /// Effective condition of an entry: raw condition minus aggregation
    /// suppression.
    fn effective_cond(&mut self, node: NodeId, e: &Entry) -> Bdd {
        if e.proto == Proto::Aggregate {
            return e.cond;
        }
        let sup = self.suppression_cond(node, e.prefix);
        self.mgr.and_not(e.cond, sup)
    }

    /// The ranked RIB of `node` for `prefix`, with effective conditions.
    pub fn rib(&mut self, node: NodeId, prefix: Ipv4Prefix) -> Vec<RibView> {
        let entries = self.rib_snapshot(node, prefix);
        let views = entries
            .iter()
            .enumerate()
            .map(|(rank, e)| RibView {
                prefix: e.prefix,
                attrs: RouteAttrs::clone(&e.attrs),
                cond: self.effective_cond(node, e),
                from_node: e.from_node,
                next_hop: e.next_hop,
                proto: e.proto,
                learned_from: e.learned_from,
                rank,
            })
            .collect();
        self.return_snapshot(entries);
        views
    }

    /// The RIB of `(node, prefix)` copied into the step scratch (cheap: the
    /// entries share their attributes and paths). A copy rather than a
    /// borrow because computing effective conditions re-reads RIBs of the
    /// same node — `aggregate_trigger` may even read this very one. Hand
    /// it back with [`Self::return_snapshot`].
    fn rib_snapshot(&mut self, node: NodeId, prefix: Ipv4Prefix) -> Vec<Entry> {
        let mut entries = std::mem::take(&mut self.step_entries);
        entries.extend_from_slice(self.entries(node, prefix));
        entries
    }

    fn return_snapshot(&mut self, mut entries: Vec<Entry>) {
        entries.clear();
        self.step_entries = entries;
    }

    /// Effective conditions of the ranked RIB of `node` for `prefix`.
    fn effective_conds(&mut self, node: NodeId, prefix: Ipv4Prefix) -> Vec<Bdd> {
        let entries = self.rib_snapshot(node, prefix);
        let conds = entries
            .iter()
            .map(|e| self.effective_cond(node, e))
            .collect();
        self.return_snapshot(entries);
        conds
    }

    /// Condition under which at least one route for `prefix` exists at
    /// `node` — the `V` of §5.4's availability check.
    /// Saturates at the simulation's failure budget: when the disjunction
    /// cannot be falsified by `≤ k` failures it is reported as `TRUE`
    /// (reachability is then resilient; exact break distances beyond the
    /// budget are outside the simulation's contract anyway, §5.6).
    pub fn reach_cond(&mut self, node: NodeId, prefix: Ipv4Prefix) -> Bdd {
        let conds = self.effective_conds(node, prefix);
        let k = self.k;
        self.mgr.or_all_within(conds, k)
    }

    /// The exact (unsaturated) reachability disjunction — used when the
    /// formula itself is the object of study (the Figure 13 length metric),
    /// not just its within-budget verdict.
    pub fn reach_cond_exact(&mut self, node: NodeId, prefix: Ipv4Prefix) -> Bdd {
        let conds = self.effective_conds(node, prefix);
        self.mgr.or_all(conds)
    }

    /// Raw entries (internal views used by FIB construction).
    pub fn entries(&self, node: NodeId, prefix: Ipv4Prefix) -> &[Entry] {
        self.ribs
            .get(&(node.0, prefix))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    fn process_node_prefix(&mut self, u: NodeId, prefix: Ipv4Prefix) {
        self.refresh_aggregates_for(u, prefix);
        let n_channels = self.channels[u.0 as usize].len();

        // Desired message set for this prefix.
        let mut desired = std::mem::take(&mut self.step_desired);
        let entries = self.rib_snapshot(u, prefix);
        if !entries.is_empty() {
            // Cumulative is-best chain over effective conditions, with the
            // §5.6 pruning applied *inside* the chain: the moment the
            // accumulated negation `¬R(r₁)∧…∧¬R(rᵢ)` already requires more
            // than `k` failures, every lower-ranked rule's announcement is
            // out of consideration — cut the whole branch without building
            // its (potentially large) condition.
            let t = self.tick();
            let mut best_conds = std::mem::take(&mut self.step_best);
            // acc = disjunction of higher-ranked effective conditions,
            // saturated to TRUE once it cannot be falsified within the
            // failure budget (every lower-ranked rule is then never-best in
            // any considered scenario).
            let mut acc = Bdd::FALSE;
            for e in &entries {
                if acc.is_true() {
                    self.stats.dropped_over_k += n_channels as u64;
                    best_conds.push(Bdd::FALSE);
                    continue;
                }
                let eff = self.effective_cond(u, e);
                let is_best = self.mgr.and_not(eff, acc);
                best_conds.push(is_best);
                acc = self.mgr.or(acc, eff);
                if let Some(k) = self.k {
                    if !acc.is_true() && self.mgr.min_failures_to_falsify(acc) > k {
                        acc = Bdd::TRUE;
                    }
                }
            }
            tock(&mut self.phase_ns.best_chain, t);
            let t = self.tick();
            for ci in 0..n_channels {
                let ch = self.channels[u.0 as usize][ci];
                for (e, is_best) in entries.iter().zip(&best_conds) {
                    if is_best.is_false() {
                        continue; // never best (or pruned): nothing to send
                    }
                    // Split horizon: never send a route back to its source.
                    if e.from_node == Some(ch.peer) {
                        continue;
                    }
                    // Loop prevention: the peer already relayed this route.
                    if e.path.contains(&ch.peer) {
                        continue;
                    }
                    if let Some(msg) = self.emit(u, ch, e, *is_best) {
                        let key = MsgKey {
                            from: u.0,
                            channel: ci as u32,
                            entry: e.id,
                        };
                        desired.push((key, Some(msg)));
                    }
                }
            }
            tock(&mut self.phase_ns.emit, t);
            best_conds.clear();
            self.step_best = best_conds;
        }
        self.return_snapshot(entries);
        // One message per (channel, entry), so keys are unique.
        desired.sort_unstable_by_key(|d| d.0);

        // Diff against previously sent messages from (u, prefix), in key
        // order. Nothing below reads `sent[(u, prefix)]`, so the list is
        // taken out for the duration and edited in place.
        let t = self.tick();
        let sent_slot = self.sent.get_mut(&(u.0, prefix)).map(std::mem::take);
        let was_sent = sent_slot.is_some();
        let mut msgs = sent_slot.unwrap_or_default();
        msgs.retain_mut(|(key, old)| {
            let wanted = desired
                .binary_search_by_key(key, |d| d.0)
                .ok()
                .and_then(|i| desired[i].1.take());
            let Some(new) = wanted else {
                // Retract.
                if let Some(entry_id) = old.receiver_entry {
                    self.remove_entry(old.receiver, old.msg.prefix, entry_id);
                    self.mark_dirty(old.receiver, old.msg.prefix);
                }
                return false;
            };
            let receiver = old.receiver;
            let channel_kind = self.channels[u.0 as usize][key.channel as usize].kind;
            if old.msg.cond == new.cond
                && old.msg.attrs == new.attrs
                && old.msg.next_hop == new.next_hop
            {
                if old.receiver_entry.is_none() {
                    // Unchanged but dormant (dropped as ball-covered):
                    // retry now that the receiver's coverage may have
                    // shrunk.
                    old.receiver_entry = self.deliver(u, receiver, channel_kind, &old.msg);
                    if old.receiver_entry.is_some() {
                        self.mark_dirty(receiver, prefix);
                    }
                }
                return true; // unchanged and delivered
            }
            // Changed: retract then redeliver.
            if let Some(entry_id) = old.receiver_entry {
                self.remove_entry(receiver, old.msg.prefix, entry_id);
            }
            old.receiver_entry = self.deliver(u, receiver, channel_kind, &new);
            old.msg = new;
            self.mark_dirty(receiver, old.msg.prefix);
            true
        });
        // Brand-new messages, in deterministic key order.
        let kept = msgs.len();
        for (key, new) in desired.drain(..) {
            let Some(msg) = new else { continue };
            let ch = self.channels[u.0 as usize][key.channel as usize];
            let receiver_entry = self.deliver(u, ch.peer, ch.kind, &msg);
            self.mark_dirty(ch.peer, msg.prefix);
            msgs.push((
                key,
                SentMsg {
                    msg,
                    receiver: ch.peer,
                    receiver_entry,
                },
            ));
        }
        if msgs.len() > kept {
            msgs.sort_unstable_by_key(|m| m.0);
        }
        self.step_desired = desired;
        if was_sent || !msgs.is_empty() {
            self.sent.insert((u.0, prefix), msgs);
        }
        tock(&mut self.phase_ns.deliver, t);
    }

    /// Computes the outgoing message for entry `e` over channel `ch`, with
    /// pruning. Returns `None` when the message is dropped (stats updated).
    fn emit(&mut self, u: NodeId, ch: Channel, e: &Entry, is_best: Bdd) -> Option<Msg> {
        let dev = self.net.device(u);
        let (attrs_out, next_hop, attach_cond) = match ch.kind {
            ChannelKind::Igp => {
                let link = ch.link.expect("IGP channels are links");
                let mut attrs = RouteAttrs::clone(&e.attrs);
                attrs.isis_weight = attrs
                    .isis_weight
                    .saturating_add(self.net.topology.metric_from(u, link) as u64);
                let link_var = self.mgr.var(link.0);
                (attrs, Some(u), link_var)
            }
            ChannelKind::Ebgp(ni) | ChannelKind::Ibgp(ni) => {
                let kind = match ch.kind {
                    ChannelKind::Ebgp(_) => SessionKind::Ebgp,
                    _ => SessionKind::Ibgp,
                };
                let neighbor = &dev.config.bgp.as_ref().expect("bgp channel").neighbors[ni];
                // Advertisement rules (iBGP reflection etc.).
                if !dev.may_advertise(e.learned_from, kind, neighbor) {
                    return None; // not an error, simply not advertised
                }
                let t = self.tick();
                let egress = dev.control_egress(neighbor, kind, e.prefix, &e.attrs);
                tock(&mut self.phase_ns.egress_policy, t);
                let Some(egress) = egress else {
                    self.stats.dropped_policy += 1;
                    return None;
                };
                let next_hop = if egress.next_hop_self {
                    Some(u)
                } else {
                    e.next_hop.or(Some(u))
                };
                let attach = match kind {
                    SessionKind::Ebgp => {
                        let link = ch.link.expect("ebgp needs a link");
                        self.mgr.var(link.0)
                    }
                    SessionKind::Ibgp => self.session_cond(u, ch.peer),
                };
                (egress.attrs, next_hop, attach)
            }
        };

        let cond = self.mgr.and(is_best, attach_cond);
        if cond.is_false() {
            self.stats.dropped_impossible += 1;
            return None;
        }
        if let Some(k) = self.k {
            if self.mgr.min_failures_to_satisfy(cond) > k {
                self.stats.dropped_over_k += 1;
                return None;
            }
        }
        self.note_cond(cond);
        if let Some(link) = ch.link {
            self.deps.touched_links.insert(link.0);
        }
        Some(Msg {
            cond,
            attrs: Arc::new(attrs_out),
            next_hop,
            prefix: e.prefix,
            sender_path: Arc::clone(&e.path),
            // Cluster-list proxy: grows by one per iBGP hop.
            ibgp_hops: match ch.kind {
                ChannelKind::Ibgp(_) => e.ibgp_hops + 1,
                _ => 0,
            },
        })
    }

    /// Receiver-side processing: ingress policy, then RIB insertion.
    /// Returns the created entry id, or `None` if dropped.
    fn deliver(&mut self, from: NodeId, to: NodeId, kind: ChannelKind, msg: &Msg) -> Option<u64> {
        // Both endpoints join the dependency trace *before* any drop
        // decision: the receiver's config is consulted below, so a change
        // to it can flip the outcome even when this delivery is dropped.
        self.deps.touched_nodes.insert(from.0);
        self.deps.touched_nodes.insert(to.0);
        // A node relaying a route it already relayed = loop.
        if msg.sender_path.contains(&to) {
            self.stats.dropped_policy += 1;
            return None;
        }
        let dev = self.net.device(to);
        let (attrs_in, learned_from) = match kind {
            // IGP entries are "local" to BGP semantics; the sender is kept
            // in `from_node` for forwarding.
            ChannelKind::Igp => (Arc::clone(&msg.attrs), LearnedFrom::Local),
            ChannelKind::Ebgp(_) | ChannelKind::Ibgp(_) => {
                let session_kind = match kind {
                    ChannelKind::Ebgp(_) => SessionKind::Ebgp,
                    _ => SessionKind::Ibgp,
                };
                // Find the receiver's neighbor block for the sender.
                let from_name = self.net.topology.name(from);
                let Some(neighbor) = dev.config.bgp.as_ref().and_then(|b| b.neighbor(from_name))
                else {
                    self.stats.dropped_policy += 1;
                    return None;
                };
                let t = self.tick();
                let ingress = dev.control_ingress(neighbor, session_kind, msg.prefix, &msg.attrs);
                tock(&mut self.phase_ns.ingress_policy, t);
                let Some(a) = ingress else {
                    self.stats.dropped_policy += 1;
                    return None;
                };
                let lf = match session_kind {
                    SessionKind::Ebgp => LearnedFrom::Ebgp,
                    SessionKind::Ibgp => {
                        if neighbor.rr_client {
                            LearnedFrom::IbgpClient
                        } else {
                            LearnedFrom::IbgpNonClient
                        }
                    }
                };
                (Arc::new(a), lf)
            }
        };
        let igp_metric = match (self.mode, msg.next_hop) {
            (Mode::Bgp, Some(nh)) if nh != to => {
                self.igp_dist[to.0 as usize][nh.0 as usize].unwrap_or(0)
            }
            _ => 0,
        };
        let entry = Entry {
            id: self.fresh_entry_id(),
            prefix: msg.prefix,
            attrs: attrs_in,
            cond: msg.cond,
            learned_from,
            from_node: Some(from),
            next_hop: msg.next_hop,
            igp_metric,
            peer_router_id: self.net.device(from).config.router_id,
            ibgp_hops: msg.ibgp_hops,
            proto: match self.mode {
                Mode::Bgp => Proto::Bgp,
                Mode::Igp => Proto::Isis,
            },
            path: msg
                .sender_path
                .iter()
                .copied()
                .chain(std::iter::once(to))
                .collect(),
        };
        let id = entry.id;
        let t = self.tick();
        let inserted = self.insert_entry(to, entry);
        tock(&mut self.phase_ns.insert, t);
        if !inserted {
            return None;
        }
        self.stats.delivered += 1;
        Some(id)
    }
}

/// Stops a phase timer started by [`Simulation::tick`].
#[inline]
fn tock(slot: &mut u64, started: Option<Instant>) {
    if let Some(t) = started {
        *slot += t.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_sets_behave_like_ordered_sets() {
        let mut set = IdSet::with_capacity(70);
        let mut tree = std::collections::BTreeSet::new();
        for id in [69u32, 3, 64, 0, 3, 130, 63] {
            set.insert(id);
            tree.insert(id);
        }
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
        // Equality ignores the capacity a set was sized with.
        let mut small = IdSet::default();
        for id in &tree {
            small.insert(*id);
        }
        assert_eq!(small, set);
        assert_eq!(IdSet::with_capacity(500), IdSet::default());
    }
}
