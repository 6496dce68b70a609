//! The network model: behavior models wired together by the topology, plus
//! the BGP session table.

use hoyan_config::{DeviceConfig, IsisLevel, Vendor};
use hoyan_device::{BehaviorModel, SessionKind, VsbProfile};
use hoyan_nettypes::{LinkId, NodeId};

use crate::topology::{Topology, TopologyError};

/// One established BGP session, from the perspective of `local`.
#[derive(Clone, Debug)]
pub struct BgpSession {
    /// The remote node.
    pub peer: NodeId,
    /// eBGP or iBGP.
    pub kind: SessionKind,
    /// Index of the neighbor block in the local device's BGP config.
    pub neighbor_idx: usize,
    /// The direct link for eBGP sessions (iBGP rides on IS-IS).
    pub link: Option<LinkId>,
}

/// The complete model: topology + per-device behavior models + sessions.
pub struct NetworkModel {
    /// The physical topology.
    pub topology: Topology,
    /// Behavior models indexed by node id.
    pub devices: Vec<BehaviorModel>,
    /// Established BGP sessions per node. A session exists only when *both*
    /// sides declare each other with matching AS numbers, and (for eBGP)
    /// they are directly linked.
    pub sessions: Vec<Vec<BgpSession>>,
}

impl NetworkModel {
    /// Builds a network model. `profile` chooses the VSB profile per
    /// vendor — pass [`VsbProfile::ground_truth`] for an oracle network or
    /// the verifier's current (possibly flawed) model registry.
    pub fn from_configs(
        configs: Vec<DeviceConfig>,
        profile: impl Fn(Vendor) -> VsbProfile,
    ) -> Result<NetworkModel, TopologyError> {
        let topology = Topology::from_configs(&configs)?;
        let devices: Vec<BehaviorModel> = configs
            .into_iter()
            .map(|c| {
                let vsb = profile(c.vendor);
                BehaviorModel::new(c, vsb)
            })
            .collect();

        let mut sessions = vec![Vec::new(); devices.len()];
        for (i, dev) in devices.iter().enumerate() {
            let local = NodeId(i as u32);
            let Some(bgp) = dev.config.bgp.as_ref() else {
                continue;
            };
            for (ni, n) in bgp.neighbors.iter().enumerate() {
                let Some(peer) = topology.node(&n.peer) else {
                    continue; // neighbor to a device outside the snapshot
                };
                let peer_dev = &devices[peer.0 as usize];
                let Some(peer_bgp) = peer_dev.config.bgp.as_ref() else {
                    continue;
                };
                // The peer must declare us back, and the AS numbers must
                // agree from both perspectives (taking local-as into
                // account: the AS we present is local_as if configured).
                let Some(reverse) = peer_bgp.neighbor(topology.name(local)) else {
                    continue;
                };
                let we_present = n.local_as.unwrap_or(bgp.asn);
                let they_present = reverse.local_as.unwrap_or(peer_bgp.asn);
                if n.remote_as != they_present || reverse.remote_as != we_present {
                    continue;
                }
                let kind = if n.remote_as == bgp.asn {
                    SessionKind::Ibgp
                } else {
                    SessionKind::Ebgp
                };
                let link = topology.link_between(local, peer);
                if kind == SessionKind::Ebgp && link.is_none() {
                    continue; // eBGP requires a direct link in our model
                }
                sessions[i].push(BgpSession {
                    peer,
                    kind,
                    neighbor_idx: ni,
                    link,
                });
            }
        }
        Ok(NetworkModel {
            topology,
            devices,
            sessions,
        })
    }

    /// Whether `other` feeds IS-IS exactly what `self` does: the same
    /// graph under the same numbering ([`Topology::same_graph`]) — link
    /// `l` is BDD variable `l.0` — and per node the same IGP block and router
    /// id (the last tie-break of equal-metric IGP routes). An
    /// [`crate::IsisDb`] reads nothing else of the model, so one built over
    /// `self` serves `other` unchanged — the daemon's carry-forward rule.
    /// `tests/hermetic.rs` fails when a new reader of these inputs appears.
    pub fn same_igp_inputs(&self, other: &NetworkModel) -> bool {
        self.topology.same_graph(&other.topology)
            && self.devices.iter().zip(&other.devices).all(|(a, b)| {
                a.config.isis == b.config.isis && a.config.router_id == b.config.router_id
            })
    }

    /// The behavior model of a node.
    pub fn device(&self, n: NodeId) -> &BehaviorModel {
        &self.devices[n.0 as usize]
    }

    /// Established sessions of a node.
    pub fn sessions_of(&self, n: NodeId) -> &[BgpSession] {
        &self.sessions[n.0 as usize]
    }

    /// Whether a node runs IS-IS.
    pub fn runs_isis(&self, n: NodeId) -> bool {
        self.device(n).config.isis.is_some()
    }

    /// Whether an IS-IS adjacency forms across `link` between `a` and `b`:
    /// both run IS-IS and share a level (L1 additionally requires the same
    /// area). Route penetration between levels is always on, matching the
    /// paper's network (Appendix C ties L1/L2 penetration to communities;
    /// we model penetration as enabled).
    pub fn isis_adjacency(&self, a: NodeId, b: NodeId) -> bool {
        let (Some(ia), Some(ib)) = (
            self.device(a).config.isis.as_ref(),
            self.device(b).config.isis.as_ref(),
        ) else {
            return false;
        };
        if ia.protocol != ib.protocol {
            return false; // IS-IS and OSPF do not form adjacencies
        }
        if ia.protocol == hoyan_config::IgpKind::Ospf {
            // OSPF: area 0 is the backbone; same-area or either-side-
            // backbone adjacency (simplified ABR model).
            return ia.area == ib.area || ia.area == 0 || ib.area == 0;
        }
        let l1 = |l: IsisLevel| matches!(l, IsisLevel::L1 | IsisLevel::L1L2);
        let l2 = |l: IsisLevel| matches!(l, IsisLevel::L2 | IsisLevel::L1L2);
        (l1(ia.level) && l1(ib.level) && ia.area == ib.area) || (l2(ia.level) && l2(ib.level))
    }

    /// All-alive IS-IS distances from `src` (Dijkstra over adjacency),
    /// used for the IGP-metric step of the BGP decision process.
    pub fn igp_distances(&self, src: NodeId) -> Vec<Option<u64>> {
        let n = self.topology.node_count();
        let mut dist: Vec<Option<u64>> = vec![None; n];
        if !self.runs_isis(src) {
            dist[src.0 as usize] = Some(0);
            return dist;
        }
        let mut heap = std::collections::BinaryHeap::new();
        dist[src.0 as usize] = Some(0);
        heap.push(std::cmp::Reverse((0u64, src.0)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if dist[u as usize] != Some(d) {
                continue;
            }
            let u_id = NodeId(u);
            for &(v, link) in self.topology.neighbors(u_id) {
                if !self.isis_adjacency(u_id, v) {
                    continue;
                }
                let nd = d + self.topology.metric_from(u_id, link) as u64;
                if dist[v.0 as usize].is_none_or(|old| nd < old) {
                    dist[v.0 as usize] = Some(nd);
                    heap.push(std::cmp::Reverse((nd, v.0)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_config::parse_config;

    fn build(texts: &[&str]) -> NetworkModel {
        let configs = texts.iter().map(|t| parse_config(t).unwrap()).collect();
        NetworkModel::from_configs(configs, VsbProfile::ground_truth).unwrap()
    }

    #[test]
    fn sessions_require_mutual_declaration() {
        let net = build(&[
            "hostname A\ninterface e0\n peer B\nrouter bgp 100\n neighbor B remote-as 200\n",
            "hostname B\ninterface e0\n peer A\nrouter bgp 200\n neighbor A remote-as 100\n",
            "hostname C\n", // no interfaces, no bgp
        ]);
        let a = net.topology.node("A").unwrap();
        let b = net.topology.node("B").unwrap();
        assert_eq!(net.sessions_of(a).len(), 1);
        assert_eq!(net.sessions_of(a)[0].peer, b);
        assert_eq!(net.sessions_of(a)[0].kind, SessionKind::Ebgp);
        assert!(net.sessions_of(a)[0].link.is_some());
    }

    #[test]
    fn mismatched_as_numbers_do_not_form_a_session() {
        let net = build(&[
            "hostname A\ninterface e0\n peer B\nrouter bgp 100\n neighbor B remote-as 999\n",
            "hostname B\ninterface e0\n peer A\nrouter bgp 200\n neighbor A remote-as 100\n",
        ]);
        let a = net.topology.node("A").unwrap();
        assert!(net.sessions_of(a).is_empty());
    }

    #[test]
    fn local_as_satisfies_the_peer_expectation() {
        // B expects AS 150; A's real AS is 100 but presents local-as 150.
        let net = build(&[
            "hostname A\ninterface e0\n peer B\nrouter bgp 100\n neighbor B remote-as 200\n neighbor B local-as 150\n",
            "hostname B\ninterface e0\n peer A\nrouter bgp 200\n neighbor A remote-as 150\n",
        ]);
        let a = net.topology.node("A").unwrap();
        assert_eq!(net.sessions_of(a).len(), 1);
    }

    #[test]
    fn ibgp_session_without_direct_link() {
        let net = build(&[
            "hostname A\ninterface e0\n peer M\nrouter bgp 100\n neighbor B remote-as 100\nrouter isis\n area 1\n",
            "hostname B\ninterface e0\n peer M\nrouter bgp 100\n neighbor A remote-as 100\nrouter isis\n area 1\n",
            "hostname M\ninterface e0\n peer A\ninterface e1\n peer B\nrouter isis\n area 1\n",
        ]);
        let a = net.topology.node("A").unwrap();
        assert_eq!(net.sessions_of(a).len(), 1);
        assert_eq!(net.sessions_of(a)[0].kind, SessionKind::Ibgp);
        assert!(net.sessions_of(a)[0].link.is_none());
    }

    #[test]
    fn isis_adjacency_levels_and_areas() {
        let net = build(&[
            "hostname A\ninterface e0\n peer B\ninterface e1\n peer C\nrouter isis\n area 1\n is-level level-1\n",
            "hostname B\ninterface e0\n peer A\nrouter isis\n area 2\n is-level level-1\n",
            "hostname C\ninterface e0\n peer A\nrouter isis\n area 2\n is-level level-1-2\n",
        ]);
        let a = net.topology.node("A").unwrap();
        let b = net.topology.node("B").unwrap();
        let c = net.topology.node("C").unwrap();
        // Different areas, both L1-only: no adjacency.
        assert!(!net.isis_adjacency(a, b));
        // A is L1 in area 1; C is L1L2 in area 2: no L1 (area differs), no
        // L2 (A is not L2-capable).
        assert!(!net.isis_adjacency(a, c));
        // Same check is symmetric.
        assert!(!net.isis_adjacency(c, a));
    }

    #[test]
    fn ospf_uses_the_same_machinery() {
        // "OSPF follows the same process" (§5.4): two OSPF routers in area
        // 0 form an adjacency; an OSPF and an IS-IS router do not.
        let net = build(&[
            "hostname A
interface e0
 peer B
interface e1
 peer C
router ospf
 area 0
",
            "hostname B
interface e0
 peer A
router ospf
 area 5
",
            "hostname C
interface e0
 peer A
router isis
 area 0
",
        ]);
        let a = net.topology.node("A").unwrap();
        let b = net.topology.node("B").unwrap();
        let c = net.topology.node("C").unwrap();
        assert!(net.isis_adjacency(a, b), "ABR adjacency via backbone");
        assert!(!net.isis_adjacency(a, c), "mixed protocols never adjacent");
        let d = net.igp_distances(a);
        assert_eq!(d[b.0 as usize], Some(10));
    }

    #[test]
    fn igp_distances_respect_metrics() {
        let net = build(&[
            "hostname A\ninterface e0\n peer B\n link-metric 10\ninterface e1\n peer C\n link-metric 100\nrouter isis\n area 1\n",
            "hostname B\ninterface e0\n peer A\n link-metric 10\ninterface e1\n peer C\n link-metric 10\nrouter isis\n area 1\n",
            "hostname C\ninterface e0\n peer A\n link-metric 100\ninterface e1\n peer B\n link-metric 10\nrouter isis\n area 1\n",
        ]);
        let a = net.topology.node("A").unwrap();
        let c = net.topology.node("C").unwrap();
        let d = net.igp_distances(a);
        assert_eq!(d[c.0 as usize], Some(20)); // via B, not the direct 100
    }
}
