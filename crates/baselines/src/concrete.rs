//! A plain, unconditioned control-plane simulator: converges one concrete
//! topology (some links dead) to its steady state. This is the inner loop
//! of the Batfish-like baseline and the per-scenario engine of the
//! Plankton-like one; it shares the device behavior models with Hoyan so
//! both verifiers agree route-for-route on any single scenario.

use std::collections::{HashMap, HashSet};

use hoyan_config::RedistSource;
use hoyan_core::NetworkModel;
use hoyan_device::{cmp_candidates, Candidate, LearnedFrom, SessionKind};
use hoyan_nettypes::{Ipv4Prefix, LinkId, NodeId, Origin, RouteAttrs};

/// One concrete route in a node's RIB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcreteRoute {
    /// Attributes as stored.
    pub attrs: RouteAttrs,
    /// Advertising peer.
    pub from: Option<NodeId>,
    /// How it was learned.
    pub learned: LearnedFrom,
    /// BGP next hop.
    pub next_hop: Option<NodeId>,
    /// IGP metric to the next hop on the surviving topology.
    pub igp_metric: u64,
    /// Advertiser's router id.
    pub peer_router_id: u32,
    /// iBGP reflection hops (cluster-list proxy).
    pub ibgp_hops: u32,
}

impl ConcreteRoute {
    fn candidate(&self) -> Candidate {
        Candidate {
            attrs: self.attrs.clone(),
            from_ebgp: matches!(self.learned, LearnedFrom::Ebgp | LearnedFrom::Local),
            igp_metric: self.igp_metric,
            ibgp_hops: self.ibgp_hops,
            peer_router_id: self.peer_router_id,
        }
    }
}

/// Converged state of one concrete scenario.
#[derive(Clone, Debug, Default)]
pub struct ConcreteState {
    /// Ranked routes per (node, prefix); index 0 is the best.
    pub ribs: HashMap<(NodeId, Ipv4Prefix), Vec<ConcreteRoute>>,
}

impl ConcreteState {
    /// The best route at a node.
    pub fn best(&self, node: NodeId, prefix: Ipv4Prefix) -> Option<&ConcreteRoute> {
        self.ribs.get(&(node, prefix)).and_then(|v| v.first())
    }

    /// Whether any route exists at a node.
    pub fn has_route(&self, node: NodeId, prefix: Ipv4Prefix) -> bool {
        self.ribs.contains_key(&(node, prefix))
    }
}

/// IGP (IS-IS) shortest-path distances on the surviving topology.
pub fn igp_distances_with_failures(
    net: &NetworkModel,
    src: NodeId,
    dead: &HashSet<LinkId>,
) -> Vec<Option<u64>> {
    let n = net.topology.node_count();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    dist[src.0 as usize] = Some(0);
    if !net.runs_isis(src) {
        return dist;
    }
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u64, src.0)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist[u as usize] != Some(d) {
            continue;
        }
        let u_id = NodeId(u);
        for &(v, link) in net.topology.neighbors(u_id) {
            if dead.contains(&link) || !net.isis_adjacency(u_id, v) {
                continue;
            }
            let nd = d + net.topology.metric_from(u_id, link) as u64;
            if dist[v.0 as usize].is_none_or(|old| nd < old) {
                dist[v.0 as usize] = Some(nd);
                heap.push(std::cmp::Reverse((nd, v.0)));
            }
        }
    }
    dist
}

/// Converges `prefixes` on the topology with `dead` links failed.
///
/// Synchronous rounds: every node recomputes its best routes from what it
/// last received and re-announces; a fixpoint is reached when a full round
/// changes nothing. Per-(sender, receiver) slots give BGP's implicit-
/// withdraw semantics.
///
/// A round skips a node none of whose incoming slots changed since it was
/// last evaluated. Its announcements are a function of those slots alone
/// (plus fixed seeds and distances), and the slots it writes are written by
/// no other node, so it would write back exactly what they already hold:
/// the skip leaves every round, and the fixpoint, as they were.
pub fn converge(
    net: &NetworkModel,
    prefixes: &[Ipv4Prefix],
    dead: &HashSet<LinkId>,
) -> ConcreteState {
    let mut rounds = Rounds::new(net, prefixes, dead);
    rounds.run();
    rounds.state()
}

/// What [`converge`] iterates: the fixed inputs of one scenario plus every
/// announcement slot.
struct Rounds<'a> {
    net: &'a NetworkModel,
    prefixes: &'a [Ipv4Prefix],
    dead: &'a HashSet<LinkId>,
    /// IGP distances per node (for session liveness + metric tie-break).
    dist: Vec<Vec<Option<u64>>>,
    /// Local seeds.
    locals: HashMap<(NodeId, Ipv4Prefix), Vec<ConcreteRoute>>,
    /// received[(receiver, sender, prefix)] = route as accepted by ingress.
    /// Only `sender` ever writes the slot.
    received: HashMap<(NodeId, NodeId, Ipv4Prefix), ConcreteRoute>,
}

impl<'a> Rounds<'a> {
    fn new(net: &'a NetworkModel, prefixes: &'a [Ipv4Prefix], dead: &'a HashSet<LinkId>) -> Self {
        let n = net.topology.node_count();
        let dist = (0..n)
            .map(|i| igp_distances_with_failures(net, NodeId(i as u32), dead))
            .collect();
        let mut locals: HashMap<(NodeId, Ipv4Prefix), Vec<ConcreteRoute>> = HashMap::new();
        for i in 0..n {
            let node = NodeId(i as u32);
            let dev = net.device(node);
            let Some(bgp) = dev.config.bgp.as_ref() else {
                continue;
            };
            for p in prefixes {
                let mut seeds = Vec::new();
                if bgp.networks.contains(p) {
                    let mut attrs = RouteAttrs::originated();
                    attrs.weight = hoyan_core::LOCAL_WEIGHT;
                    seeds.push(attrs);
                }
                if bgp.redistribute.contains(&RedistSource::Static)
                    && dev.config.static_routes.iter().any(|s| s.prefix == *p)
                    && dev.redistribution_admits(*p)
                {
                    let mut attrs = RouteAttrs::originated();
                    attrs.weight = hoyan_core::LOCAL_WEIGHT;
                    attrs.origin = Origin::Incomplete;
                    seeds.push(attrs);
                }
                for attrs in seeds {
                    locals.entry((node, *p)).or_default().push(ConcreteRoute {
                        attrs,
                        from: None,
                        learned: LearnedFrom::Local,
                        next_hop: None,
                        igp_metric: 0,
                        peer_router_id: dev.config.router_id,
                        ibgp_hops: 0,
                    });
                }
            }
        }
        Rounds {
            net,
            prefixes,
            dead,
            dist,
            locals,
            received: HashMap::new(),
        }
    }

    fn ranked_rib(&self, node: NodeId, p: Ipv4Prefix) -> Vec<ConcreteRoute> {
        let mut rib: Vec<ConcreteRoute> = self.locals.get(&(node, p)).cloned().unwrap_or_default();
        for s in self.net.sessions_of(node) {
            if let Some(r) = self.received.get(&(node, s.peer, p)) {
                rib.push(r.clone());
            }
        }
        rib.sort_by(|a, b| cmp_candidates(&a.candidate(), &b.candidate()));
        rib
    }

    /// Rounds until one changes nothing, skipping nodes with no changed
    /// input since their last evaluation.
    fn run(&mut self) {
        let n = self.net.topology.node_count();
        let max_rounds = 4 * n + 16;
        // `stale[u]`: a slot addressed to `u` changed since `u` last ran.
        let mut stale = vec![true; n];
        for _round in 0..max_rounds {
            let mut changed = false;
            for i in 0..n {
                if std::mem::replace(&mut stale[i], false) {
                    changed |= self.evaluate(NodeId(i as u32), &mut stale);
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Recomputes `u`'s best routes from what it holds and rewrites every
    /// slot it announces into. Marks each receiver whose slot changed in
    /// `stale`; returns whether any did.
    fn evaluate(&mut self, u: NodeId, stale: &mut [bool]) -> bool {
        let net = self.net;
        let dev = net.device(u);
        let mut changed = false;
        for p in self.prefixes {
            let rib = self.ranked_rib(u, *p);
            let best = rib.first();
            for s in net.sessions_of(u) {
                // Session liveness on the surviving topology.
                let alive = match s.kind {
                    SessionKind::Ebgp => s.link.map(|l| !self.dead.contains(&l)).unwrap_or(false),
                    SessionKind::Ibgp => {
                        self.dist[u.0 as usize][s.peer.0 as usize].is_some()
                            && self.dist[s.peer.0 as usize][u.0 as usize].is_some()
                    }
                };
                let key = (s.peer, u, *p);
                let mut new_val: Option<ConcreteRoute> = None;
                if alive {
                    if let Some(best) = best {
                        let neighbor =
                            &dev.config.bgp.as_ref().expect("session").neighbors[s.neighbor_idx];
                        let eligible = best.from != Some(s.peer)
                            && dev.may_advertise(best.learned, s.kind, neighbor);
                        if eligible {
                            if let Some(egress) =
                                dev.control_egress(neighbor, s.kind, *p, &best.attrs)
                            {
                                // Receiver-side ingress.
                                let peer_dev = net.device(s.peer);
                                let from_name = net.topology.name(u);
                                if let Some(peer_neighbor) = peer_dev
                                    .config
                                    .bgp
                                    .as_ref()
                                    .and_then(|b| b.neighbor(from_name))
                                {
                                    if let Some(attrs_in) = peer_dev.control_ingress(
                                        peer_neighbor,
                                        s.kind,
                                        *p,
                                        &egress.attrs,
                                    ) {
                                        let next_hop = if egress.next_hop_self {
                                            Some(u)
                                        } else {
                                            best.next_hop.or(Some(u))
                                        };
                                        let igp_metric = next_hop
                                            .and_then(|nh| {
                                                self.dist[s.peer.0 as usize][nh.0 as usize]
                                            })
                                            .unwrap_or(0);
                                        let learned = match s.kind {
                                            SessionKind::Ebgp => LearnedFrom::Ebgp,
                                            SessionKind::Ibgp => {
                                                if peer_neighbor.rr_client {
                                                    LearnedFrom::IbgpClient
                                                } else {
                                                    LearnedFrom::IbgpNonClient
                                                }
                                            }
                                        };
                                        let ibgp_hops = match s.kind {
                                            SessionKind::Ibgp => best.ibgp_hops + 1,
                                            SessionKind::Ebgp => 0,
                                        };
                                        new_val = Some(ConcreteRoute {
                                            attrs: attrs_in,
                                            from: Some(u),
                                            learned,
                                            next_hop,
                                            igp_metric,
                                            peer_router_id: dev.config.router_id,
                                            ibgp_hops,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                let old = self.received.get(&key);
                if old != new_val.as_ref() {
                    changed = true;
                    stale[s.peer.0 as usize] = true;
                    match new_val {
                        Some(v) => {
                            self.received.insert(key, v);
                        }
                        None => {
                            self.received.remove(&key);
                        }
                    }
                }
            }
        }
        changed
    }

    fn state(&self) -> ConcreteState {
        let mut state = ConcreteState::default();
        for i in 0..self.net.topology.node_count() {
            let node = NodeId(i as u32);
            for p in self.prefixes {
                let rib = self.ranked_rib(node, *p);
                if !rib.is_empty() {
                    state.ribs.insert((node, *p), rib);
                }
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_config::parse_config;
    use hoyan_device::VsbProfile;
    use hoyan_nettypes::pfx;

    fn diamond() -> NetworkModel {
        let configs = vec![
            parse_config(concat!(
                "hostname GW\ninterface e0\n peer M1\ninterface e1\n peer M2\n",
                "router bgp 100\n network 10.0.1.0/24\n neighbor M1 remote-as 200\n neighbor M2 remote-as 300\n",
            ))
            .unwrap(),
            parse_config(concat!(
                "hostname M1\ninterface e0\n peer GW\ninterface e1\n peer S\n",
                "router bgp 200\n neighbor GW remote-as 100\n neighbor S remote-as 400\n",
            ))
            .unwrap(),
            parse_config(concat!(
                "hostname M2\ninterface e0\n peer GW\ninterface e1\n peer S\n",
                "router bgp 300\n neighbor GW remote-as 100\n neighbor S remote-as 400\n",
            ))
            .unwrap(),
            parse_config(concat!(
                "hostname S\ninterface e0\n peer M1\ninterface e1\n peer M2\n",
                "router bgp 400\n neighbor M1 remote-as 200\n neighbor M2 remote-as 300\n",
            ))
            .unwrap(),
        ];
        NetworkModel::from_configs(configs, VsbProfile::ground_truth).unwrap()
    }

    #[test]
    fn healthy_topology_propagates_everywhere() {
        let net = diamond();
        let state = converge(&net, &[pfx("10.0.1.0/24")], &HashSet::new());
        for name in ["GW", "M1", "M2", "S"] {
            let n = net.topology.node(name).unwrap();
            assert!(state.has_route(n, pfx("10.0.1.0/24")), "{name} missing route");
        }
        let s = net.topology.node("S").unwrap();
        assert_eq!(state.ribs[&(s, pfx("10.0.1.0/24"))].len(), 2);
    }

    #[test]
    fn failure_reroutes_through_surviving_path() {
        let net = diamond();
        let gw = net.topology.node("GW").unwrap();
        let m1 = net.topology.node("M1").unwrap();
        let s = net.topology.node("S").unwrap();
        let dead: HashSet<LinkId> = [net.topology.link_between(gw, m1).unwrap()].into();
        let state = converge(&net, &[pfx("10.0.1.0/24")], &dead);
        let best = state.best(s, pfx("10.0.1.0/24")).unwrap();
        // Only the M2 path remains.
        let m2 = net.topology.node("M2").unwrap();
        assert_eq!(best.from, Some(m2));
        assert_eq!(state.ribs[&(s, pfx("10.0.1.0/24"))].len(), 1);
    }

    #[test]
    fn disconnection_empties_rib() {
        let net = diamond();
        let gw = net.topology.node("GW").unwrap();
        let m1 = net.topology.node("M1").unwrap();
        let m2 = net.topology.node("M2").unwrap();
        let dead: HashSet<LinkId> = [
            net.topology.link_between(gw, m1).unwrap(),
            net.topology.link_between(gw, m2).unwrap(),
        ]
        .into();
        let state = converge(&net, &[pfx("10.0.1.0/24")], &dead);
        let s = net.topology.node("S").unwrap();
        assert!(!state.has_route(s, pfx("10.0.1.0/24")));
        assert!(state.has_route(gw, pfx("10.0.1.0/24"))); // local seed
    }

    /// The worklist skips only nodes that would change nothing: after
    /// `converge`, one more full round over every node — no skipping —
    /// must leave every slot as it is.
    #[test]
    fn an_extra_full_round_after_converge_changes_nothing() {
        for spec in [
            hoyan_topogen::WanSpec::tiny(7),
            hoyan_topogen::WanSpec::small(7),
            hoyan_topogen::WanSpec::medium(42),
        ] {
            let net = NetworkModel::from_configs(spec.build().configs, VsbProfile::ground_truth)
                .unwrap();
            let mut prefixes: Vec<Ipv4Prefix> = net
                .devices
                .iter()
                .filter_map(|d| d.config.bgp.as_ref())
                .flat_map(|b| b.networks.iter().copied())
                .collect();
            prefixes.sort();
            prefixes.dedup();
            let links = net.topology.link_count() as u32;
            // Healthy, then a few single and double failures spread over
            // the link ids.
            let dead_sets: Vec<HashSet<LinkId>> = std::iter::once(HashSet::new())
                .chain((0..4).map(|i| [LinkId(i * 7 % links)].into()))
                .chain((0..2).map(|i| [LinkId(i * 11 % links), LinkId((i * 11 + 5) % links)].into()))
                .collect();
            for dead in &dead_sets {
                for p in prefixes.iter().take(12) {
                    let family = [*p];
                    let mut rounds = Rounds::new(&net, &family, dead);
                    rounds.run();
                    let before = rounds.received.clone();
                    let mut stale = vec![false; net.topology.node_count()];
                    for u in net.topology.nodes() {
                        assert!(
                            !rounds.evaluate(u, &mut stale),
                            "{p} with {dead:?} dead: {u:?} still changes a slot"
                        );
                    }
                    assert_eq!(rounds.received, before);
                }
            }
        }
    }
}
