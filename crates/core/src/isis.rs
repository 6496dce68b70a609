//! IS-IS support (Appendix C). The database serves two readers:
//!
//! - **Session conditions.** BGP reads `reach_cond(u, v)`, the condition
//!   under which `u` has an IS-IS route to `v`. The IGP has no policy and
//!   level penetration is always on ([`NetworkModel::isis_adjacency`]), so
//!   that is connectivity over the adjacency graph, and inside the `k`-ball
//!   it is exactly "no failed set contains a `u`–`v` edge cut of at most `k`
//!   links". The rows are built from those cuts ([`crate::igp_cut`]), not
//!   from the per-destination path-vector simulations Appendix C describes
//!   (DESIGN.md, "Engineering deviations").
//! - **Forwarding.** Packet walks read the ranked conditioned next hops,
//!   which do depend on metrics. Those are Appendix C's translation: the IGP
//!   as a path-vector protocol run on the same conditioned propagation
//!   engine as BGP, with the accumulated link weight as the ranking
//!   attribute. One simulation per destination, run the first time a walk
//!   tunnels toward it.
//!
//! Plus the unconditioned shortest-path distance matrix, for the BGP
//! IGP-metric tie-break.

use std::collections::HashMap;
use std::sync::OnceLock;

use hoyan_logic::{Bdd, BddManager, BudgetBreach};
use hoyan_nettypes::NodeId;

use crate::igp_cut::{small_cuts, Graph, Step};
use crate::network::NetworkModel;
use crate::propagate::{PruneStats, SimError, Simulation};

/// One conditioned IS-IS forwarding alternative.
#[derive(Clone, Debug)]
pub struct IsisHop {
    /// Condition under which this alternative exists.
    pub cond: Bdd,
    /// The neighbor the packet is forwarded to.
    pub next_hop: NodeId,
    /// Accumulated metric of the path this alternative represents.
    pub metric: u64,
}

/// The conditioned forwarding rows toward one destination router: one
/// path-vector simulation's RIBs, compacted into a manager of their own.
pub struct DestHops {
    /// Manager owning the rows' conditions.
    pub mgr: BddManager,
    /// Ranked alternatives per source router, by node id.
    rows: Vec<Vec<IsisHop>>,
    /// Pruning statistics of the simulation.
    pub stats: PruneStats,
}

impl DestHops {
    /// Ranked conditioned next hops from `u` (best first).
    pub fn from(&self, u: NodeId) -> &[IsisHop] {
        self.rows.get(u.0 as usize).map_or(&[], |r| r.as_slice())
    }
}

/// Conditioned IS-IS routing state for the whole network.
pub struct IsisDb {
    /// Manager owning the session conditions.
    pub mgr: BddManager,
    k: Option<u32>,
    /// Per node its class: nodes no cut of at most `k` links separates. A
    /// node off the IGP is alone in its class and its component.
    class: Vec<u32>,
    /// Per class its connected component of the adjacency graph.
    component: Vec<u32>,
    /// `reach` per class pair `(lo, hi)` that some cut of at most `k` links
    /// separates; other pairs of one component are `TRUE`.
    cut_rows: HashMap<(u32, u32), Bdd>,
    /// Per destination node its forwarding rows, built on first use.
    hops: Vec<OnceLock<Result<DestHops, SimError>>>,
    /// All-alive distance matrix (`dist[u][v]`), `None` = unreachable.
    pub dist: Vec<Vec<Option<u64>>>,
}

impl IsisDb {
    /// Builds the session conditions at failure budget `k` (`None`: every
    /// failure set) and the distance matrix. Forwarding rows are built on
    /// first use ([`IsisDb::hops_to`]).
    pub fn build(net: &NetworkModel, k: Option<u32>) -> Result<IsisDb, SimError> {
        IsisDb::build_within(net, k, hoyan_logic::BddBudget::default(), None)
    }

    /// [`IsisDb::build`] under a resource budget, for builds a client
    /// request triggers: `budget` caps the manager the session conditions
    /// are built in as a family's budget caps its simulation, its op cap
    /// also counts the cut enumeration's graph work (one op per edge
    /// visit), and `deadline_ms` bounds the whole build. The enumeration
    /// keeps no bond, so beyond the manager it holds `O(nodes + links)`. A
    /// breach returns [`SimError::OverBudget`] or
    /// [`SimError::DeadlineExceeded`] and no database.
    pub fn build_within(
        net: &NetworkModel,
        k: Option<u32>,
        budget: hoyan_logic::BddBudget,
        deadline_ms: Option<u64>,
    ) -> Result<IsisDb, SimError> {
        let _span = hoyan_obs::span("isis.build");
        // Counts the forwarding rows' simulations; registered here so an
        // export shows 0 when no packet walk needed one.
        hoyan_obs::metric!(counter "isis.spf_runs").add(0);
        let cutoff =
            deadline_ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let past_deadline = || cutoff.is_some_and(|c| std::time::Instant::now() >= c);
        let deadline = || SimError::DeadlineExceeded {
            limit_ms: deadline_ms.unwrap_or_default(),
        };
        if past_deadline() {
            return Err(deadline());
        }
        let n = net.topology.node_count();
        let mut links = Vec::new();
        let mut edges = Vec::new();
        for u in net.topology.nodes() {
            for &(v, link) in net.topology.neighbors(u) {
                if u.0 < v.0 && net.isis_adjacency(u, v) {
                    links.push(link);
                    edges.push((u.0, v.0));
                }
            }
        }
        let mut mgr = BddManager::new();
        mgr.set_budget(budget);
        // The enumeration's graph work counts against the op cap beside
        // the manager's own operations, one op per edge visit, so a capped
        // request ends however few bonds its passes find.
        let mut graph_ops = 0u64;
        let mut cut_rows: HashMap<(u32, u32), Bdd> = HashMap::new();
        let budget_k = k.map_or(usize::MAX, |k| k as usize);
        let classes = small_cuts(&Graph::new(n, edges), budget_k, &mut |step| {
            if past_deadline() {
                return Err(deadline());
            }
            match step {
                Step::Work(ops) => graph_ops += ops,
                Step::Bond { edges, side, rest } => {
                    // The bond's sides stay joined while any of its links is
                    // alive.
                    let literals: Vec<Bdd> = edges
                        .iter()
                        .map(|&e| mgr.var(links[e as usize].0))
                        .collect();
                    let clause = mgr.or_all(literals);
                    for &a in side {
                        for &b in rest {
                            let row = cut_rows.entry((a.min(b), a.max(b))).or_insert(Bdd::TRUE);
                            *row = mgr.and(*row, clause);
                        }
                    }
                }
            }
            let ops = mgr.tallies().ops + graph_ops;
            match (mgr.budget_exceeded(), budget.max_ops) {
                (Some(breach), _) => Err(SimError::OverBudget(breach)),
                (None, Some(limit)) if ops > limit => {
                    Err(SimError::OverBudget(BudgetBreach::Ops { limit, ops }))
                }
                _ => Ok(()),
            }
        })?;
        let dist = (0..n)
            .map(|i| net.igp_distances(NodeId(i as u32)))
            .collect();
        Ok(IsisDb {
            mgr,
            k,
            class: classes.class,
            component: classes.component,
            cut_rows,
            hops: (0..n).map(|_| OnceLock::new()).collect(),
            dist,
        })
    }

    /// Condition under which `u` has an IS-IS route to `v` (TRUE when
    /// `u == v`, FALSE when no path exists at all). Exact on every failure
    /// set of at most the build's `k` links.
    pub fn reach_cond(&self, u: NodeId, v: NodeId) -> Bdd {
        if u == v {
            return Bdd::TRUE;
        }
        let (a, b) = (self.class[u.0 as usize], self.class[v.0 as usize]);
        if self.component[a as usize] != self.component[b as usize] {
            return Bdd::FALSE;
        }
        let row = self.cut_rows.get(&(a.min(b), a.max(b)));
        row.copied().unwrap_or(Bdd::TRUE)
    }

    /// The forwarding rows toward `dest`, from the per-destination
    /// path-vector simulation at the build's `k`, run on first use. `net`
    /// must feed IS-IS what the build's network did
    /// ([`NetworkModel::same_igp_inputs`]). An error is the simulation's,
    /// kept for every later call.
    pub fn hops_to(&self, net: &NetworkModel, dest: NodeId) -> Result<&DestHops, SimError> {
        let rows = self.hops[dest.0 as usize].get_or_init(|| dest_hops(net, self.k, dest));
        rows.as_ref().map_err(Clone::clone)
    }

    /// The pruning statistics of every destination's path-vector
    /// simulation, running the ones not run yet. The session conditions
    /// come from cuts and prune nothing, so this is the IGP's share of the
    /// §5.6 pruning figures.
    pub fn path_vector_stats(&self, net: &NetworkModel) -> Result<PruneStats, SimError> {
        let mut total = PruneStats::default();
        for dest in net.topology.nodes().filter(|d| net.runs_isis(*d)) {
            total.merge(&self.hops_to(net, dest)?.stats);
        }
        Ok(total)
    }
}

/// One destination's path-vector simulation, its RIB entries kept as
/// forwarding rows in a manager that holds nothing else.
fn dest_hops(net: &NetworkModel, k: Option<u32>, dest: NodeId) -> Result<DestHops, SimError> {
    if !net.runs_isis(dest) {
        return Ok(DestHops {
            mgr: BddManager::new(),
            rows: Vec::new(),
            stats: PruneStats::default(),
        });
    }
    let _spf = hoyan_obs::span("isis.spf");
    let mut sim = Simulation::new_igp_for(net, k, &[dest]);
    sim.run()?;
    hoyan_obs::metric!(counter "isis.spf_runs").inc();
    let lp = net.topology.loopback(dest);
    let mut rows: Vec<Vec<IsisHop>> = net
        .topology
        .nodes()
        .map(|u| {
            if u == dest {
                return Vec::new();
            }
            sim.entries(u, lp)
                .iter()
                .map(|e| IsisHop {
                    cond: e.cond,
                    next_hop: e.from_node.unwrap_or(dest),
                    metric: e.attrs.isis_weight,
                })
                .collect()
        })
        .collect();
    // The rows' conditions move to a manager that holds nothing else, and
    // the simulation's (peak arena, unique table, ITE cache) is dropped. The
    // copy is excluded from the tallies like a base import, so the exported
    // `bdd.*` counters do not see it.
    let stats = sim.stats;
    let big = sim.into_mgr();
    let mut mgr = BddManager::new();
    let conds: Vec<Bdd> = rows.iter().flatten().map(|h| h.cond).collect();
    let mut copied = mgr.import_untallied(&big, &conds).into_iter();
    for hop in rows.iter_mut().flatten() {
        hop.cond = copied.next().expect("one copy per condition");
    }
    Ok(DestHops { mgr, rows, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_config::parse_config;
    use hoyan_device::VsbProfile;
    use hoyan_logic::bdd::INF_FAILURES;

    fn net(texts: &[&str]) -> NetworkModel {
        let configs = texts.iter().map(|t| parse_config(t).unwrap()).collect();
        NetworkModel::from_configs(configs, VsbProfile::ground_truth).unwrap()
    }

    fn generated(spec: hoyan_topogen::WanSpec) -> NetworkModel {
        NetworkModel::from_configs(spec.build().configs, VsbProfile::ground_truth).unwrap()
    }

    /// A(=)B(=)C chain plus a direct A-C backup link with a high metric.
    fn chain_with_backup() -> NetworkModel {
        net(&[
            "hostname A\ninterface e0\n peer B\n link-metric 10\ninterface e1\n peer C\n link-metric 100\nrouter isis\n area 1\n",
            "hostname B\ninterface e0\n peer A\n link-metric 10\ninterface e1\n peer C\n link-metric 10\nrouter isis\n area 1\n",
            "hostname C\ninterface e0\n peer A\n link-metric 100\ninterface e1\n peer B\n link-metric 10\nrouter isis\n area 1\n",
        ])
    }

    /// One IGP router and one that runs none.
    fn pair() -> NetworkModel {
        net(&[
            "hostname A\ninterface e0\n peer B\nrouter isis\n area 1\n",
            "hostname B\ninterface e0\n peer A\n",
        ])
    }

    /// Every adjacency rule of [`NetworkModel::isis_adjacency`] in one
    /// network:
    /// - L1 routers in areas 1 and 2 (`A1`, `A2`, `B1`), linked across the
    ///   area border (`A1`–`B1`, no adjacency);
    /// - L1-2 routers `X1` (area 1) and `Y2` (area 2) joining their areas to
    ///   each other and to the L2 backbone `C`, `D`, `E`;
    /// - a non-IGP transit node `T` between `D` and `E`;
    /// - a mixed IS-IS/OSPF link `D`–`O0`;
    /// - OSPF: `O0` in area 0, the ABR `O1` in area 1 reached through it,
    ///   `O3` behind `O1` in area 1, and `O2` in area 2 adjacent to `O0`
    ///   but not to `O3`.
    fn mixed_levels_and_protocols() -> NetworkModel {
        let igp = [
            ("A1", "router isis\n area 1\n is-level level-1\n"),
            ("A2", "router isis\n area 1\n is-level level-1\n"),
            ("B1", "router isis\n area 2\n is-level level-1\n"),
            ("X1", "router isis\n area 1\n is-level level-1-2\n"),
            ("Y2", "router isis\n area 2\n is-level level-1-2\n"),
            ("C", "router isis\n area 0\n is-level level-2\n"),
            ("D", "router isis\n area 0\n is-level level-2\n"),
            ("E", "router isis\n area 3\n is-level level-2\n"),
            ("T", ""),
            ("O0", "router ospf\n area 0\n"),
            ("O1", "router ospf\n area 1\n"),
            ("O2", "router ospf\n area 2\n"),
            ("O3", "router ospf\n area 1\n"),
        ];
        let links = [
            ("A1", "A2"),
            ("A1", "X1"),
            ("A2", "X1"),
            ("A1", "B1"),
            ("B1", "Y2"),
            ("X1", "Y2"),
            ("X1", "C"),
            ("Y2", "D"),
            ("C", "D"),
            ("C", "E"),
            ("D", "T"),
            ("T", "E"),
            ("D", "O0"),
            ("O0", "O1"),
            ("O0", "O2"),
            ("O1", "O3"),
            ("O2", "O3"),
        ];
        let texts: Vec<String> = igp
            .iter()
            .map(|(host, block)| {
                let mut t = format!("hostname {host}\n");
                let peers = links
                    .iter()
                    .filter_map(|(a, b)| match (*a == *host, *b == *host) {
                        (true, _) => Some(b),
                        (_, true) => Some(a),
                        _ => None,
                    });
                for (i, peer) in peers.enumerate() {
                    t += &format!("interface e{i}\n peer {peer}\n link-metric {}\n", 10 + i);
                }
                t + block
            })
            .collect();
        net(&texts.iter().map(String::as_str).collect::<Vec<_>>())
    }

    #[test]
    fn reachability_survives_one_failure_with_backup() {
        let n = chain_with_backup();
        let mut db = IsisDb::build(&n, Some(3)).unwrap();
        let a = n.topology.node("A").unwrap();
        let c = n.topology.node("C").unwrap();
        let cond = db.reach_cond(a, c);
        // Two disjoint paths: need 2 failures to disconnect.
        assert_eq!(db.mgr.min_failures_to_falsify(cond), 2);
    }

    #[test]
    fn best_hop_follows_metric() {
        let n = chain_with_backup();
        let db = IsisDb::build(&n, Some(3)).unwrap();
        let a = n.topology.node("A").unwrap();
        let b = n.topology.node("B").unwrap();
        let c = n.topology.node("C").unwrap();
        let hops = db.hops_to(&n, c).unwrap().from(a);
        assert!(!hops.is_empty());
        // Best alternative goes via B with metric 20.
        assert_eq!(hops[0].next_hop, b);
        assert_eq!(hops[0].metric, 20);
        // The direct expensive link is a (worse) alternative.
        assert!(hops.iter().any(|h| h.next_hop == c && h.metric == 100));
    }

    #[test]
    fn distances_match_dijkstra() {
        let n = chain_with_backup();
        let db = IsisDb::build(&n, Some(3)).unwrap();
        let a = n.topology.node("A").unwrap();
        let c = n.topology.node("C").unwrap();
        assert_eq!(db.dist[a.0 as usize][c.0 as usize], Some(20));
    }

    #[test]
    fn self_reachability_is_true() {
        let n = chain_with_backup();
        let db = IsisDb::build(&n, Some(1)).unwrap();
        let a = n.topology.node("A").unwrap();
        assert!(db.reach_cond(a, a).is_true());
    }

    #[test]
    fn non_isis_node_is_unreachable() {
        let n = pair();
        let mut db = IsisDb::build(&n, Some(3)).unwrap();
        let a = n.topology.node("A").unwrap();
        let b = n.topology.node("B").unwrap();
        assert!(db.reach_cond(a, b).is_false());
        assert!(db.hops_to(&n, b).unwrap().from(a).is_empty());
        assert_eq!(db.mgr.min_failures_to_falsify(Bdd::TRUE), INF_FAILURES);
    }

    #[test]
    fn k_zero_keeps_only_ball_relevant_alternatives() {
        let n = chain_with_backup();
        // k=0: the backup alternative only matters under a failure, so the
        // ball-minimal RIB holds just the primary.
        let db0 = IsisDb::build(&n, Some(0)).unwrap();
        let a = n.topology.node("A").unwrap();
        let c = n.topology.node("C").unwrap();
        let hops0 = db0.hops_to(&n, c).unwrap().from(a);
        assert_eq!(hops0.len(), 1);
        assert_eq!(hops0[0].metric, 20);
        assert!(db0.path_vector_stats(&n).unwrap().dropped_over_k > 0);
        // k=1: the backup is inside the ball and must be retained.
        let db1 = IsisDb::build(&n, Some(1)).unwrap();
        let hops1 = db1.hops_to(&n, c).unwrap().from(a);
        assert_eq!(hops1.len(), 2);
    }

    #[test]
    fn forwarding_rows_are_built_on_first_use() {
        let n = chain_with_backup();
        let db = IsisDb::build(&n, Some(1)).unwrap();
        let c = n.topology.node("C").unwrap();
        assert!(
            db.hops.iter().all(|h| h.get().is_none()),
            "the build runs no simulation"
        );
        let first: *const DestHops = db.hops_to(&n, c).unwrap();
        assert!(
            std::ptr::eq(first, db.hops_to(&n, c).unwrap()),
            "one simulation per destination"
        );
        assert_eq!(db.hops.iter().filter(|h| h.get().is_some()).count(), 1);
    }

    /// The daemon caps an on-demand database's budget at the link count,
    /// so the cut enumeration must finish there: on `tiny` that is every
    /// bond of the IGP graph, and `reach` is connectivity under every
    /// failure set. And the build must still keep the request's budget.
    #[test]
    fn a_build_at_the_link_count_finishes_within_its_budget() {
        let n = generated(hoyan_topogen::WanSpec::tiny(7));
        let links = n.topology.link_count() as u32;
        let db = IsisDb::build(&n, Some(links)).unwrap();
        let igp: Vec<(NodeId, NodeId, usize)> = n
            .topology
            .nodes()
            .flat_map(|u| {
                n.topology
                    .neighbors(u)
                    .iter()
                    .map(move |(v, l)| (u, *v, l.0 as usize))
            })
            .filter(|(u, v, _)| u.0 < v.0 && n.isis_adjacency(*u, *v))
            .collect();
        for failed in 0u32..1 << igp.len() {
            let mut alive = vec![true; links as usize];
            for (i, (_, _, l)) in igp.iter().enumerate() {
                alive[*l] = failed & (1 << i) == 0;
            }
            for u in n.topology.nodes() {
                let mut seen = vec![u];
                let mut i = 0;
                while let Some(&x) = seen.get(i) {
                    i += 1;
                    for (a, b, l) in &igp {
                        let next = if *a == x {
                            *b
                        } else if *b == x {
                            *a
                        } else {
                            continue;
                        };
                        if alive[*l] && !seen.contains(&next) {
                            seen.push(next);
                        }
                    }
                }
                for v in n.topology.nodes() {
                    let reach = db.mgr.eval(db.reach_cond(u, v), &alive);
                    assert_eq!(reach, seen.contains(&v), "{u:?} -> {v:?} under {alive:?}");
                }
            }
        }
        let one_op = hoyan_logic::BddBudget {
            max_ops: Some(1),
            ..Default::default()
        };
        assert!(matches!(
            IsisDb::build_within(&n, Some(links), one_op, None),
            Err(SimError::OverBudget(_))
        ));
        assert!(matches!(
            IsisDb::build_within(&n, Some(links), Default::default(), Some(0)),
            Err(SimError::DeadlineExceeded { limit_ms: 0 })
        ));
    }

    /// An op cap bounds the cut enumeration, not just the manager. At
    /// `k = 10` on `small` no two routers are 11-connected, so every router
    /// is its own class and the bonds are far too many to list; an
    /// op-capped build with no deadline must still end, over budget.
    #[test]
    fn an_op_cap_bounds_the_cut_enumeration() {
        let n = generated(hoyan_topogen::WanSpec::small(7));
        let capped = hoyan_logic::BddBudget {
            max_ops: Some(1_000_000),
            ..Default::default()
        };
        for k in [10, n.topology.link_count() as u32] {
            assert!(
                matches!(
                    IsisDb::build_within(&n, Some(k), capped, None),
                    Err(SimError::OverBudget(BudgetBreach::Ops { .. }))
                ),
                "k={k}"
            );
        }
    }

    /// Every ≤ `k`-subset of `0..n`, as "these variables are false".
    fn failure_sets(n: usize, k: usize) -> Vec<Vec<bool>> {
        let mut sets = vec![vec![true; n]];
        let mut frontier: Vec<(Vec<bool>, usize)> = vec![(vec![true; n], 0)];
        for _ in 0..k {
            let mut next = Vec::new();
            for (set, from) in &frontier {
                for v in *from..n {
                    let mut s = set.clone();
                    s[v] = false;
                    sets.push(s.clone());
                    next.push((s, v + 1));
                }
            }
            frontier = next;
        }
        sets
    }

    /// One destination's direct path-vector simulation: per source router
    /// its RIB entries as `(condition, next hop, metric)` and their
    /// saturated disjunction — the `reach` row Appendix C derives.
    type DirectRows = Vec<(NodeId, Bdd, Vec<(Bdd, NodeId, u64)>)>;

    fn direct<'n>(n: &'n NetworkModel, k: u32, dest: NodeId) -> (Simulation<'n>, DirectRows) {
        let mut sim = Simulation::new_igp_for(n, Some(k), &[dest]);
        sim.run().unwrap();
        let lp = n.topology.loopback(dest);
        let mut rows = Vec::new();
        for u in n.topology.nodes().filter(|u| *u != dest) {
            let entries: Vec<(Bdd, NodeId, u64)> = sim
                .entries(u, lp)
                .iter()
                .map(|e| (e.cond, e.from_node.unwrap_or(dest), e.attrs.isis_weight))
                .collect();
            let any = sim.mgr.or_all_within(entries.iter().map(|d| d.0), Some(k));
            rows.push((u, any, entries));
        }
        (sim, rows)
    }

    /// The database keeps session conditions from edge cuts and forwarding
    /// rows from lazily run per-destination simulations; what it serves
    /// must be what the direct per-destination simulations compute, under
    /// every failure set in the budget: `reach` equal to the simulation's
    /// saturated disjunction, and every hop row equal. And a database built
    /// at a smaller budget `k' < k` must serve what the budget-`k` one does
    /// on every `<= k'`-failure set: the same reachability and the same best
    /// hop. That containment is what lets a budget-`k'` query run on a
    /// database built at exactly `k'`.
    #[test]
    fn database_matches_direct_per_destination_simulations() {
        let k = 2;
        let fixtures = [
            chain_with_backup(),
            pair(),
            mixed_levels_and_protocols(),
            generated(hoyan_topogen::WanSpec::tiny(7)),
            generated(hoyan_topogen::WanSpec::small(7)),
        ];
        for n in fixtures {
            let db = IsisDb::build(&n, Some(k)).unwrap();
            let smaller: Vec<IsisDb> = (0..k)
                .map(|b| IsisDb::build(&n, Some(b)).unwrap())
                .collect();
            let sets = failure_sets(n.topology.link_count(), k as usize);
            let failures = |a: &[bool]| a.iter().filter(|alive| !**alive).count() as u32;
            for dest in n.topology.nodes().filter(|d| n.runs_isis(*d)) {
                let (sim, rows) = direct(&n, k, dest);
                let lazy = db.hops_to(&n, dest).unwrap();
                for (u, any, direct) in rows {
                    let hops = lazy.from(u);
                    assert_eq!(hops.len(), direct.len(), "{u:?} -> {dest:?}");
                    for (h, (_, next_hop, metric)) in hops.iter().zip(&direct) {
                        assert_eq!((h.next_hop, h.metric), (*next_hop, *metric));
                    }
                    for a in &sets {
                        let reach = db.mgr.eval(db.reach_cond(u, dest), a);
                        assert_eq!(
                            reach,
                            sim.mgr.eval(any, a),
                            "{u:?} -> {dest:?} reach under {a:?}"
                        );
                        for (h, (cond, _, _)) in hops.iter().zip(&direct) {
                            assert_eq!(lazy.mgr.eval(h.cond, a), sim.mgr.eval(*cond, a));
                        }
                        let best = |d: &IsisDb| {
                            let rows = d.hops_to(&n, dest).unwrap();
                            rows.from(u)
                                .iter()
                                .find(|h| rows.mgr.eval(h.cond, a))
                                .map(|h| (h.next_hop, h.metric))
                        };
                        for (b, small) in smaller.iter().enumerate().skip(failures(a) as usize) {
                            assert_eq!(
                                small.mgr.eval(small.reach_cond(u, dest), a),
                                reach,
                                "{u:?} -> {dest:?}: db({b}) vs db({k}) reach under {a:?}"
                            );
                            assert_eq!(
                                best(small),
                                best(&db),
                                "{u:?} -> {dest:?}: db({b}) vs db({k}) best hop under {a:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The gate at WAN scale, for every `k <= 2`. Enumerating the failure
    /// sets is too slow here, so agreement on every `<= k` set is decided
    /// symbolically: two conditions agree there iff their XOR needs more
    /// than `k` failures to satisfy. Hop rows come from the same simulation
    /// either way, so they must be equal as functions.
    fn matches_direct_at_scale(n: &NetworkModel) {
        for k in 0..=2 {
            let db = IsisDb::build(n, Some(k)).unwrap();
            for dest in n.topology.nodes().filter(|d| n.runs_isis(*d)) {
                let (sim, rows) = direct(n, k, dest);
                let lazy = db.hops_to(n, dest).unwrap();
                let mut m = BddManager::new();
                for (u, any, direct) in rows {
                    let cut = m.import(&db.mgr, db.reach_cond(u, dest));
                    let path_vector = m.import(&sim.mgr, any);
                    let differ = m.xor(cut, path_vector);
                    assert!(
                        m.min_failures_to_satisfy(differ) > k,
                        "k={k}: {u:?} -> {dest:?} reach differs inside the ball"
                    );
                    let hops = lazy.from(u);
                    assert_eq!(hops.len(), direct.len(), "{u:?} -> {dest:?}");
                    for (h, (cond, next_hop, metric)) in hops.iter().zip(&direct) {
                        assert_eq!((h.next_hop, h.metric), (*next_hop, *metric));
                        assert_eq!(m.import(&lazy.mgr, h.cond), m.import(&sim.mgr, *cond));
                    }
                }
            }
        }
    }

    /// Unoptimized this takes minutes, so the leg runs in optimized test
    /// builds: `cargo test --release -p hoyan-core isis`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
    fn database_matches_direct_simulations_on_medium_and_reference() {
        matches_direct_at_scale(&generated(hoyan_topogen::WanSpec::medium(42)));
        matches_direct_at_scale(&generated(hoyan_topogen::WanSpec::reference(42)));
    }
}
