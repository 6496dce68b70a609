//! IS-IS support (Appendix C): the IGP is verified by *translating it into a
//! path-vector protocol* and running the same conditioned propagation engine
//! used for BGP, with the accumulated link weight as the ranking attribute.
//!
//! The result is an [`IsisDb`]: for every (router, destination-router) pair,
//! the ranked next hops with topology conditions, the unconditioned
//! shortest-path distance matrix (for the BGP IGP-metric tie-break), and the
//! reachability condition that iBGP sessions ride on.

use std::collections::HashMap;

use hoyan_logic::{Bdd, BddManager};
use hoyan_nettypes::NodeId;

use crate::network::NetworkModel;
use crate::propagate::{SimError, Simulation};

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

/// Conditioned IS-IS routing state for the whole network.
pub struct IsisDb {
    /// Manager owning all conditions in this database.
    pub mgr: BddManager,
    reach: HashMap<(u32, u32), Bdd>,
    hops: HashMap<(u32, u32), Vec<IsisHop>>,
    /// All-alive distance matrix (`dist[u][v]`), `None` = unreachable.
    pub dist: Vec<Vec<Option<u64>>>,
    /// Pruning statistics of the underlying IGP simulation.
    pub stats: crate::propagate::PruneStats,
}

impl IsisDb {
    /// Runs one IGP simulation per destination router (fanned out across
    /// threads — per-destination propagations are independent, mirroring
    /// the paper's per-prefix parallelism) and merges the conditioned
    /// results into one database. `k = None` disables more-than-k pruning.
    pub fn build(net: &NetworkModel, k: Option<u32>) -> Result<IsisDb, SimError> {
        IsisDb::build_within(net, k, hoyan_logic::BddBudget::default(), None)
    }

    /// [`IsisDb::build`] under a resource budget, for builds a client
    /// request triggers: `budget` caps each destination's simulation as a
    /// family's budget caps its one, and `deadline_ms` bounds the whole
    /// build. A breach returns [`SimError::OverBudget`] or
    /// [`SimError::DeadlineExceeded`] and no database.
    pub fn build_within(
        net: &NetworkModel,
        k: Option<u32>,
        budget: hoyan_logic::BddBudget,
        deadline_ms: Option<u64>,
    ) -> Result<IsisDb, SimError> {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let _span = hoyan_obs::span("isis.build");
        let started = std::time::Instant::now();
        let dests: Vec<NodeId> = net.topology.nodes().filter(|n| net.runs_isis(*n)).collect();
        /// A destination's rows — per source router the saturated
        /// disjunction and `(condition, next hop, metric)` per RIB entry —
        /// with the manager their conditions live in.
        type DestResult = (NodeId, BddManager, Vec<(NodeId, Bdd, Vec<(Bdd, NodeId, u64)>)>);
        let results: std::sync::Mutex<Vec<DestResult>> = std::sync::Mutex::new(Vec::new());
        let error: std::sync::Mutex<Option<SimError>> = std::sync::Mutex::new(None);
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(dests.len().max(1));
        let stats_mutex = std::sync::Mutex::new(crate::propagate::PruneStats::default());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| loop {
                        if failed.load(Ordering::Acquire) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= dests.len() {
                            break;
                        }
                        let dest = dests[i];
                        let _spf = hoyan_obs::span("isis.spf");
                        let mut sim = Simulation::new_igp_for(net, k, &[dest]);
                        // What is left of the build's deadline; an elapsed
                        // one trips at the simulation's first step.
                        let left = deadline_ms
                            .map(|ms| ms.saturating_sub(started.elapsed().as_millis() as u64));
                        sim.set_budget(budget, left);
                        if let Err(e) = sim.run().map_err(|e| match (e, deadline_ms) {
                            (SimError::DeadlineExceeded { .. }, Some(limit_ms)) => {
                                SimError::DeadlineExceeded { limit_ms }
                            }
                            (e, _) => e,
                        }) {
                            error
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .get_or_insert(e);
                            failed.store(true, Ordering::Release);
                            break;
                        }
                        let lp = net.topology.loopback(dest);
                        let mut rows = Vec::new();
                        for u in net.topology.nodes() {
                            if u == dest {
                                continue;
                            }
                            let entries: Vec<(Bdd, NodeId, u64)> = sim
                                .entries(u, lp)
                                .iter()
                                .map(|e| (e.cond, e.from_node.unwrap_or(dest), e.attrs.isis_weight))
                                .collect();
                            if entries.is_empty() {
                                continue;
                            }
                            let conds: Vec<Bdd> = entries.iter().map(|(c, _, _)| *c).collect();
                            let any = sim.mgr.or_all_within(conds, k);
                            rows.push((u, any, entries));
                        }
                        // Keep only what the database needs: the rows'
                        // conditions move to a manager that holds nothing
                        // else, and the simulation's (peak arena, unique
                        // table, ITE cache) is dropped here instead of being
                        // parked until the merge. The copy is excluded from
                        // the tallies like a base import — the compact
                        // manager stays pristine — so the exported `bdd.*`
                        // counters do not see it.
                        let stats = sim.stats;
                        let big = sim.into_mgr();
                        let mut compact = BddManager::new();
                        let conds: Vec<Bdd> = rows
                            .iter()
                            .flat_map(|(_, any, entries)| {
                                std::iter::once(*any).chain(entries.iter().map(|e| e.0))
                            })
                            .collect();
                        let mut copied = compact.import_untallied(&big, &conds).into_iter();
                        for cond in rows.iter_mut().flat_map(|(_, any, entries)| {
                            std::iter::once(any).chain(entries.iter_mut().map(|e| &mut e.0))
                        }) {
                            *cond = copied.next().expect("one copy per condition");
                        }
                        drop(big);
                        // A peer may have errored while this destination was
                        // simulating; don't publish partial results past it.
                        if failed.load(Ordering::Acquire) {
                            break;
                        }
                        hoyan_obs::metric!(counter "isis.spf_runs").inc();
                        stats_mutex
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .merge(&stats);
                        results
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push((dest, compact, rows));
                    })
                })
                .collect();
            // Propagate the first worker panic with its original payload.
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
        if let Some(e) = error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        let stats = stats_mutex.into_inner().unwrap_or_else(|p| p.into_inner());

        let mut mgr = BddManager::new();
        let mut reach = HashMap::new();
        let mut hops = HashMap::new();
        // Workers publish in completion order; merging in destination order
        // makes the database's handles (and its manager's tallies) the same
        // at any thread count.
        let mut results = results.into_inner().unwrap_or_else(|p| p.into_inner());
        results.sort_by_key(|(d, _, _)| d.0);
        for (dest, src_mgr, rows) in results {
            for (u, any, entries) in rows {
                let any = mgr.import(&src_mgr, any);
                reach.insert((u.0, dest.0), any);
                let hop_rows: Vec<IsisHop> = entries
                    .into_iter()
                    .map(|(c, next_hop, metric)| IsisHop {
                        cond: mgr.import(&src_mgr, c),
                        next_hop,
                        metric,
                    })
                    .collect();
                hops.insert((u.0, dest.0), hop_rows);
            }
        }
        let dist = (0..net.topology.node_count())
            .map(|i| net.igp_distances(NodeId(i as u32)))
            .collect();
        Ok(IsisDb {
            mgr,
            reach,
            hops,
            dist,
            stats,
        })
    }

    /// Condition under which `u` has an IS-IS route to `v` (TRUE when
    /// `u == v`, FALSE when no path exists at all).
    pub fn reach_cond(&self, u: NodeId, v: NodeId) -> Bdd {
        if u == v {
            return Bdd::TRUE;
        }
        self.reach.get(&(u.0, v.0)).copied().unwrap_or(Bdd::FALSE)
    }

    /// Ranked conditioned next hops from `u` toward `v` (best first).
    pub fn hops(&self, u: NodeId, v: NodeId) -> &[IsisHop] {
        self.hops.get(&(u.0, v.0)).map(|v| v.as_slice()).unwrap_or(&[])
    }
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

    /// A(=)B(=)C chain plus a direct A-C backup link with a high metric.
    fn chain_with_backup() -> NetworkModel {
        net(&[
            "hostname A\ninterface e0\n peer B\n link-metric 10\ninterface e1\n peer C\n link-metric 100\nrouter isis\n area 1\n",
            "hostname B\ninterface e0\n peer A\n link-metric 10\ninterface e1\n peer C\n link-metric 10\nrouter isis\n area 1\n",
            "hostname C\ninterface e0\n peer A\n link-metric 100\ninterface e1\n peer B\n link-metric 10\nrouter isis\n area 1\n",
        ])
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
        let hops = db.hops(a, c);
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
        let n = net(&[
            "hostname A\ninterface e0\n peer B\nrouter isis\n area 1\n",
            "hostname B\ninterface e0\n peer A\n", // no IS-IS
        ]);
        let mut db = IsisDb::build(&n, Some(3)).unwrap();
        let a = n.topology.node("A").unwrap();
        let b = n.topology.node("B").unwrap();
        assert!(db.reach_cond(a, b).is_false());
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
        let hops0 = db0.hops(a, c);
        assert_eq!(hops0.len(), 1);
        assert_eq!(hops0[0].metric, 20);
        assert!(db0.stats.dropped_over_k > 0);
        // k=1: the backup is inside the ball and must be retained.
        let db1 = IsisDb::build(&n, Some(1)).unwrap();
        let hops1 = db1.hops(a, c);
        assert_eq!(hops1.len(), 2);
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

    /// The database keeps each destination's conditions in a compacted
    /// copy and merges those; what it serves must still be what a direct
    /// per-destination simulation computes, under every failure set in the
    /// budget. And a database built at a smaller budget `k' < k` must serve
    /// what the budget-`k` one does on every `<= k'`-failure set: the same
    /// reachability and the same best hop. That containment is what lets a
    /// budget-`k'` query run on a database built at exactly `k'`.
    #[test]
    fn database_matches_direct_per_destination_simulations() {
        let k = 2;
        let pair = net(&[
            "hostname A\ninterface e0\n peer B\nrouter isis\n area 1\n",
            "hostname B\ninterface e0\n peer A\n",
        ]);
        let generated = |spec: hoyan_topogen::WanSpec| {
            NetworkModel::from_configs(spec.build().configs, VsbProfile::ground_truth).unwrap()
        };
        let fixtures = [
            chain_with_backup(),
            pair,
            generated(hoyan_topogen::WanSpec::tiny(7)),
            generated(hoyan_topogen::WanSpec::small(7)),
        ];
        for n in fixtures {
            let db = IsisDb::build(&n, Some(k)).unwrap();
            let smaller: Vec<IsisDb> = (0..k).map(|b| IsisDb::build(&n, Some(b)).unwrap()).collect();
            let sets = failure_sets(n.topology.link_count(), k as usize);
            let failures = |a: &[bool]| a.iter().filter(|alive| !**alive).count() as u32;
            for dest in n.topology.nodes().filter(|d| n.runs_isis(*d)) {
                let mut sim = Simulation::new_igp_for(&n, Some(k), &[dest]);
                sim.run().unwrap();
                let lp = n.topology.loopback(dest);
                for u in n.topology.nodes().filter(|u| *u != dest) {
                    let direct: Vec<(Bdd, NodeId, u64)> = sim
                        .entries(u, lp)
                        .iter()
                        .map(|e| (e.cond, e.from_node.unwrap_or(dest), e.attrs.isis_weight))
                        .collect();
                    let any = sim.mgr.or_all_within(direct.iter().map(|d| d.0), Some(k));
                    let hops = db.hops(u, dest);
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
                            assert_eq!(db.mgr.eval(h.cond, a), sim.mgr.eval(*cond, a));
                        }
                        let best = |d: &IsisDb| {
                            d.hops(u, dest)
                                .iter()
                                .find(|h| d.mgr.eval(h.cond, a))
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
}
