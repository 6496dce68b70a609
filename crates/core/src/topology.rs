//! Network topology, derived from device configurations.
//!
//! Two devices are linked when each has an interface whose `peer` names the
//! other. Every link owns a Boolean *aliveness variable* — its [`LinkId`]
//! doubles as the BDD variable index used in topology conditions.

use std::collections::HashMap;

use hoyan_config::DeviceConfig;
use hoyan_nettypes::{Ipv4Addr, Ipv4Prefix, LinkId, NodeId};

/// An error constructing a topology from configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// Two devices share a hostname.
    DuplicateHostname(String),
    /// An interface names a peer with no configuration.
    UnknownPeer {
        /// The device with the dangling interface.
        device: String,
        /// The peer it names.
        peer: String,
    },
    /// Device X has an interface to Y, but Y has none back to X.
    AsymmetricLink {
        /// The device declaring the link.
        device: String,
        /// The peer missing the reverse declaration.
        peer: String,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateHostname(h) => write!(f, "duplicate hostname {h}"),
            TopologyError::UnknownPeer { device, peer } => {
                write!(f, "{device} has an interface to unknown device {peer}")
            }
            TopologyError::AsymmetricLink { device, peer } => {
                write!(f, "{device} declares a link to {peer} but not vice versa")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The physical topology: named nodes and undirected links.
#[derive(Clone, Debug)]
pub struct Topology {
    names: Vec<String>,
    links: Vec<(NodeId, NodeId)>,
    link_metrics: Vec<(u32, u32)>, // (metric at .0 side, metric at .1 side)
    by_name: HashMap<String, NodeId>,
    link_by_pair: HashMap<(NodeId, NodeId), LinkId>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Derives the topology from a set of device configurations.
    pub fn from_configs(configs: &[DeviceConfig]) -> Result<Topology, TopologyError> {
        let mut by_name = HashMap::new();
        for (i, c) in configs.iter().enumerate() {
            if by_name.insert(c.hostname.clone(), NodeId(i as u32)).is_some() {
                return Err(TopologyError::DuplicateHostname(c.hostname.clone()));
            }
        }
        let mut links = Vec::new();
        let mut link_metrics = Vec::new();
        let mut link_by_pair = HashMap::new();
        for (i, c) in configs.iter().enumerate() {
            let a = NodeId(i as u32);
            for iface in &c.interfaces {
                let b = *by_name
                    .get(&iface.peer)
                    .ok_or_else(|| TopologyError::UnknownPeer {
                        device: c.hostname.clone(),
                        peer: iface.peer.clone(),
                    })?;
                let peer_cfg = &configs[b.0 as usize];
                let reverse = peer_cfg.interface_to(&c.hostname);
                let reverse = reverse.ok_or_else(|| TopologyError::AsymmetricLink {
                    device: c.hostname.clone(),
                    peer: iface.peer.clone(),
                })?;
                if a.0 < b.0 {
                    let id = LinkId(links.len() as u32);
                    links.push((a, b));
                    link_metrics.push((iface.link_metric, reverse.link_metric));
                    link_by_pair.insert((a, b), id);
                    link_by_pair.insert((b, a), id);
                }
            }
        }
        let mut adjacency = vec![Vec::new(); configs.len()];
        for (idx, (a, b)) in links.iter().enumerate() {
            adjacency[a.0 as usize].push((*b, LinkId(idx as u32)));
            adjacency[b.0 as usize].push((*a, LinkId(idx as u32)));
        }
        Ok(Topology {
            names: configs.iter().map(|c| c.hostname.clone()).collect(),
            links,
            link_metrics,
            by_name,
            link_by_pair,
            adjacency,
        })
    }

    /// Whether `other` is the same graph under the same numbering: the
    /// same node names in the same order, and the same links in the same
    /// order with the same per-side metrics. Everything else in a
    /// topology is derived from these.
    pub fn same_graph(&self, other: &Topology) -> bool {
        self.names == other.names
            && self.links == other.links
            && self.link_metrics == other.link_metrics
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of links (also the number of aliveness variables).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Node id by hostname.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Hostname of a node.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.0 as usize]
    }

    /// The link between two nodes, if directly connected.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.link_by_pair.get(&(a, b)).copied()
    }

    /// The endpoints of a link.
    pub fn link_ends(&self, l: LinkId) -> (NodeId, NodeId) {
        self.links[l.0 as usize]
    }

    /// Neighbors of `n` with the connecting link.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n.0 as usize]
    }

    /// The IS-IS metric of the link as configured on `from`'s side.
    pub fn metric_from(&self, from: NodeId, link: LinkId) -> u32 {
        let (a, _b) = self.links[link.0 as usize];
        let (ma, mb) = self.link_metrics[link.0 as usize];
        if from == a {
            ma
        } else {
            mb
        }
    }

    /// The synthetic loopback /32 of a node, used as the destination prefix
    /// when IS-IS is run as a path-vector protocol (Appendix C).
    pub fn loopback(&self, n: NodeId) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::new(10, 255, (n.0 >> 8) as u8, n.0 as u8), 32)
    }

    /// Inverse of [`Topology::loopback`].
    pub fn node_of_loopback(&self, p: Ipv4Prefix) -> Option<NodeId> {
        if p.len() != 32 {
            return None;
        }
        let [a, b, c, d] = p.network().octets();
        if a != 10 || b != 255 {
            return None;
        }
        let id = ((c as u32) << 8) | d as u32;
        (id < self.names.len() as u32).then_some(NodeId(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_config::parse_config;

    fn cfg(text: &str) -> DeviceConfig {
        parse_config(text).unwrap()
    }

    fn triangle() -> Vec<DeviceConfig> {
        vec![
            cfg("hostname A\ninterface e0\n peer B\ninterface e1\n peer C\n link-metric 5\n"),
            cfg("hostname B\ninterface e0\n peer A\ninterface e1\n peer C\n"),
            cfg("hostname C\ninterface e0\n peer A\n link-metric 7\ninterface e1\n peer B\n"),
        ]
    }

    #[test]
    fn builds_triangle() {
        let t = Topology::from_configs(&triangle()).unwrap();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        let a = t.node("A").unwrap();
        let b = t.node("B").unwrap();
        let c = t.node("C").unwrap();
        assert!(t.link_between(a, b).is_some());
        assert_eq!(t.link_between(a, b), t.link_between(b, a));
        assert_eq!(t.neighbors(a).len(), 2);
        assert_eq!(t.name(c), "C");
    }

    #[test]
    fn per_side_metrics() {
        let t = Topology::from_configs(&triangle()).unwrap();
        let a = t.node("A").unwrap();
        let c = t.node("C").unwrap();
        let l = t.link_between(a, c).unwrap();
        assert_eq!(t.metric_from(a, l), 5);
        assert_eq!(t.metric_from(c, l), 7);
    }

    #[test]
    fn rejects_duplicate_hostname() {
        let cfgs = vec![cfg("hostname A\n"), cfg("hostname A\n")];
        assert_eq!(
            Topology::from_configs(&cfgs).err(),
            Some(TopologyError::DuplicateHostname("A".into()))
        );
    }

    #[test]
    fn rejects_unknown_peer() {
        let cfgs = vec![cfg("hostname A\ninterface e0\n peer GHOST\n")];
        assert!(matches!(
            Topology::from_configs(&cfgs),
            Err(TopologyError::UnknownPeer { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_link() {
        let cfgs = vec![cfg("hostname A\ninterface e0\n peer B\n"), cfg("hostname B\n")];
        assert!(matches!(
            Topology::from_configs(&cfgs),
            Err(TopologyError::AsymmetricLink { .. })
        ));
    }

    #[test]
    fn loopback_roundtrip() {
        let t = Topology::from_configs(&triangle()).unwrap();
        for n in t.nodes() {
            assert_eq!(t.node_of_loopback(t.loopback(n)), Some(n));
        }
        assert_eq!(t.node_of_loopback("10.255.0.200/32".parse().unwrap()), None);
        assert_eq!(t.node_of_loopback("10.254.0.0/32".parse().unwrap()), None);
    }
}
