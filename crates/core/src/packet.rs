//! Packet reachability (§5.5, Appendix D): symbolic execution of a packet
//! over the conditioned FIBs, with per-branch topology conditions, LPM rule
//! ranking, data-plane ACLs, and recursive next-hop resolution through the
//! conditioned IS-IS database.

use hoyan_device::Packet;
use hoyan_logic::Bdd;
use hoyan_nettypes::{Ipv4Prefix, NodeId};

/// How equal-cost IGP alternatives are treated during next-hop resolution.
/// The paper's Hoyan defers ECMP-level reasoning (Appendix D, future work);
/// this reproduction implements it as an extension.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EcmpMode {
    /// Follow one deterministic best alternative per scenario (the paper's
    /// behavior, justified by its device-group architecture).
    #[default]
    ExclusiveBest,
    /// The packet is delivered if **any** equal-cost copy reaches the
    /// gateway (hash luck).
    AnyPath,
    /// The packet is delivered only if **every** equal-cost copy reaches
    /// the gateway (no flow may blackhole regardless of hashing).
    AllPaths,
}

use crate::fib::{fib_rules_for, is_gateway, FibAction};
use crate::isis::IsisDb;
use crate::network::NetworkModel;
use crate::propagate::{SimError, Simulation};

/// Outcome of a symbolic packet walk.
#[derive(Clone, Debug)]
pub struct PacketWalk {
    /// Condition under which the packet reaches a gateway of the subnet.
    pub reach_cond: Bdd,
    /// Number of branches explored.
    pub branches: u64,
    /// Branches abandoned because a forwarding loop appeared.
    pub loops: u64,
}

struct Walker<'a, 'n> {
    sim: &'a mut Simulation<'n>,
    net: &'a NetworkModel,
    isis: Option<&'a IsisDb>,
    dst_prefix: Ipv4Prefix,
    packet: Packet,
    k: Option<u32>,
    ecmp: EcmpMode,
    reach: Bdd,
    branches: u64,
    loops: u64,
    /// The first failed IGP simulation; once set, every branch is pruned.
    error: Option<SimError>,
}

impl Walker<'_, '_> {
    fn prune(&mut self, cond: Bdd) -> Option<Bdd> {
        if cond.is_false() || self.error.is_some() {
            return None;
        }
        if let Some(k) = self.k {
            if self.sim.mgr.min_failures_to_satisfy(cond) > k {
                return None;
            }
        }
        Some(cond)
    }

    /// Forwards the packet across the link `from -> to` (egress ACL, link
    /// aliveness, ingress ACL at the receiver) and continues the walk,
    /// returning the condition under which the packet reaches the gateway
    /// through this hop.
    fn hop(&mut self, from: NodeId, to: NodeId, cond: Bdd, visited: &mut Vec<NodeId>) -> Bdd {
        let from_name = self.net.topology.name(from).to_string();
        let to_name = self.net.topology.name(to).to_string();
        if !self.net.device(from).data_egress(&to_name, &self.packet) {
            return Bdd::FALSE;
        }
        let Some(link) = self.net.topology.link_between(from, to) else {
            return Bdd::FALSE; // next hop is not physically adjacent
        };
        let link_var = self.sim.mgr.var(link.0);
        let cond = self.sim.mgr.and(cond, link_var);
        let Some(cond) = self.prune(cond) else {
            return Bdd::FALSE;
        };
        if !self.net.device(to).data_ingress(&from_name, &self.packet) {
            return Bdd::FALSE;
        }
        self.walk(to, cond, visited)
    }

    /// Returns the condition under which the packet, entering `node` under
    /// `cond`, reaches a gateway of the destination subnet.
    fn walk(&mut self, node: NodeId, cond: Bdd, visited: &mut Vec<NodeId>) -> Bdd {
        self.branches += 1;
        if visited.contains(&node) {
            self.loops += 1;
            return Bdd::FALSE;
        }
        visited.push(node);

        // Delivered? The gateway of the destination subnet absorbs it.
        if is_gateway(self.sim, self.net, node, self.dst_prefix) {
            visited.pop();
            return cond;
        }

        let mut reached = Bdd::FALSE;
        // FIB lookup with the §5.5 exclusivity chain.
        let rules = fib_rules_for(self.sim, self.net, node, self.packet.dst);
        let mut neg_acc = Bdd::TRUE;
        for rule in rules {
            let exists_here = self.sim.mgr.and(neg_acc, rule.cond);
            neg_acc = self.sim.mgr.and_not(neg_acc, rule.cond);
            let branch = self.sim.mgr.and(cond, exists_here);
            let Some(branch) = self.prune(branch) else {
                continue;
            };
            match rule.action {
                FibAction::Local => {
                    // A local rule on a non-gateway node means the route
                    // points at this device (e.g. an aggregate): the packet
                    // terminates here without reaching the subnet.
                }
                FibAction::Forward(nh) => {
                    let sub = if self.net.topology.link_between(node, nh).is_some() {
                        self.hop(node, nh, branch, visited)
                    } else {
                        // Remote BGP next hop: the packet is carried along
                        // the IGP toward `nh` (transit nodes forward on the
                        // IGP underlay, not per-hop BGP lookups) and BGP
                        // lookup resumes at `nh`.
                        self.tunnel_step(node, nh, branch, visited)
                    };
                    reached = self.sim.mgr.or(reached, sub);
                }
            }
        }
        visited.pop();
        reached
    }

    /// Crossing one IGP hop toward the tunnel endpoint `nh`: the landing
    /// node continues tunneling unless it *is* `nh` (where BGP forwarding
    /// resumes via the normal walk).
    fn tunnel_hop(
        &mut self,
        from: NodeId,
        to: NodeId,
        nh: NodeId,
        cond: Bdd,
        visited: &mut Vec<NodeId>,
    ) -> Bdd {
        let from_name = self.net.topology.name(from).to_string();
        let to_name = self.net.topology.name(to).to_string();
        if !self.net.device(from).data_egress(&to_name, &self.packet) {
            return Bdd::FALSE;
        }
        let Some(link) = self.net.topology.link_between(from, to) else {
            return Bdd::FALSE;
        };
        let link_var = self.sim.mgr.var(link.0);
        let cond = self.sim.mgr.and(cond, link_var);
        let Some(cond) = self.prune(cond) else {
            return Bdd::FALSE;
        };
        if !self.net.device(to).data_ingress(&from_name, &self.packet) {
            return Bdd::FALSE;
        }
        if to == nh {
            return self.walk(to, cond, visited);
        }
        if visited.contains(&to) {
            self.loops += 1;
            return Bdd::FALSE;
        }
        visited.push(to);
        let out = self.tunnel_step(to, nh, cond, visited);
        visited.pop();
        out
    }

    /// One IGP forwarding decision toward the tunnel endpoint `nh`, with
    /// ECMP handling over equal-metric alternatives.
    fn tunnel_step(
        &mut self,
        node: NodeId,
        nh: NodeId,
        branch: Bdd,
        visited: &mut Vec<NodeId>,
    ) -> Bdd {
        let Some(db) = self.isis else {
            return Bdd::FALSE;
        };
        let rows = match db.hops_to(self.net, nh) {
            Ok(rows) => rows,
            Err(e) => {
                self.error.get_or_insert(e);
                return Bdd::FALSE;
            }
        };
        let ihops: Vec<(Bdd, NodeId, u64)> = rows
            .from(node)
            .iter()
            .map(|h| (h.cond, h.next_hop, h.metric))
            .collect();
        // Equal-cost group: the best-metric alternatives. No hops at all
        // means the IGP cannot carry the packet here.
        let Some(best_metric) = ihops.iter().map(|(_, _, m)| *m).min() else {
            return Bdd::FALSE;
        };
        let ecmp_group: Vec<(Bdd, NodeId, u64)> = ihops
            .iter()
            .filter(|(_, _, m)| *m == best_metric)
            .cloned()
            .collect();
        let mut reached = Bdd::FALSE;
        if self.ecmp != EcmpMode::ExclusiveBest && ecmp_group.len() > 1 {
            // Branch to every equal-cost copy; combine per the mode. The
            // copies apply under the conjunction of the branch and the
            // group member's existence condition.
            let mut combined: Option<Bdd> = None;
            for (hcond_src, ihop, _) in &ecmp_group {
                let hcond = self.sim.mgr.import(&rows.mgr, *hcond_src);
                let b = self.sim.mgr.and(branch, hcond);
                let sub = match self.prune(b) {
                    None => Bdd::FALSE,
                    Some(b) => self.tunnel_hop(node, *ihop, nh, b, visited),
                };
                combined = Some(match (combined, self.ecmp) {
                    (None, _) => sub,
                    (Some(acc), EcmpMode::AnyPath) => self.sim.mgr.or(acc, sub),
                    (Some(acc), EcmpMode::AllPaths) => self.sim.mgr.and(acc, sub),
                    (Some(acc), EcmpMode::ExclusiveBest) => acc, // unreachable
                });
            }
            reached = self.sim.mgr.or(reached, combined.unwrap_or(Bdd::FALSE));
            // Non-best alternatives still apply when the whole group is
            // conditioned away; fall through the exclusivity chain below
            // for them only.
        }
        // Exclusivity chain over (remaining) alternatives — the default
        // deterministic-single-path semantics.
        let mut ineg = Bdd::TRUE;
        for (hcond_src, ihop, metric) in &ihops {
            if self.ecmp != EcmpMode::ExclusiveBest
                && ecmp_group.len() > 1
                && *metric == best_metric
            {
                // Consume the group's conditions so worse alternatives only
                // fire when every group member is absent.
                let hcond = self.sim.mgr.import(&rows.mgr, *hcond_src);
                ineg = self.sim.mgr.and_not(ineg, hcond);
                continue;
            }
            let hcond = self.sim.mgr.import(&rows.mgr, *hcond_src);
            let active = self.sim.mgr.and(ineg, hcond);
            ineg = self.sim.mgr.and_not(ineg, hcond);
            let b = self.sim.mgr.and(branch, active);
            let Some(b) = self.prune(b) else {
                continue;
            };
            let sub = self.tunnel_hop(node, *ihop, nh, b, visited);
            reached = self.sim.mgr.or(reached, sub);
        }
        reached
    }
}

/// Symbolically executes `packet` from `src` toward the gateway(s) of
/// `dst_prefix`, returning the reachability condition and walk statistics.
///
/// `sim` must be a converged BGP simulation whose prefix family covers
/// `dst_prefix` (and any covering aggregates/less-specifics of interest).
/// Fails if an IS-IS forwarding simulation the walk needs fails
/// ([`IsisDb::hops_to`]).
pub fn packet_reach(
    sim: &mut Simulation<'_>,
    net: &NetworkModel,
    isis: Option<&IsisDb>,
    src: NodeId,
    dst_prefix: Ipv4Prefix,
    packet: Packet,
    k: Option<u32>,
) -> Result<PacketWalk, SimError> {
    packet_reach_ecmp(sim, net, isis, src, dst_prefix, packet, k, EcmpMode::ExclusiveBest)
}

/// [`packet_reach`] with explicit ECMP semantics over equal-cost IGP
/// alternatives (extension; the paper defers ECMP reasoning).
#[allow(clippy::too_many_arguments)]
pub fn packet_reach_ecmp(
    sim: &mut Simulation<'_>,
    net: &NetworkModel,
    isis: Option<&IsisDb>,
    src: NodeId,
    dst_prefix: Ipv4Prefix,
    packet: Packet,
    k: Option<u32>,
    ecmp: EcmpMode,
) -> Result<PacketWalk, SimError> {
    let mut w = Walker {
        sim,
        net,
        isis,
        dst_prefix,
        packet,
        k,
        ecmp,
        reach: Bdd::FALSE,
        branches: 0,
        loops: 0,
        error: None,
    };
    let mut visited = Vec::new();
    let reach = w.walk(src, Bdd::TRUE, &mut visited);
    w.reach = reach;
    if let Some(e) = w.error {
        return Err(e);
    }
    Ok(PacketWalk {
        reach_cond: w.reach,
        branches: w.branches,
        loops: w.loops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_config::{parse_config, AclProto};
    use hoyan_device::VsbProfile;
    use hoyan_nettypes::pfx;

    fn packet_to(dst: &str) -> Packet {
        Packet {
            src: "1.1.1.1".parse().unwrap(),
            dst: dst.parse().unwrap(),
            proto: AclProto::Tcp,
        }
    }

    fn diamond() -> NetworkModel {
        // GW announces 10.0.1.0/24; S can reach it via M1 or M2.
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
    fn packet_survives_single_failure_in_diamond() {
        let net = diamond();
        let mut sim = Simulation::new_bgp(&net, vec![pfx("10.0.1.0/24")], Some(3), None);
        sim.run().unwrap();
        let s = net.topology.node("S").unwrap();
        let walk = packet_reach(
            &mut sim,
            &net,
            None,
            s,
            pfx("10.0.1.0/24"),
            packet_to("10.0.1.5"),
            Some(3),
        )
        .unwrap();
        // Two disjoint 2-link paths: disconnecting needs 2 failures.
        assert_eq!(sim.mgr.min_failures_to_falsify(walk.reach_cond), 2);
        assert_eq!(walk.loops, 0);
    }

    #[test]
    fn gateway_reaches_itself() {
        let net = diamond();
        let mut sim = Simulation::new_bgp(&net, vec![pfx("10.0.1.0/24")], Some(3), None);
        sim.run().unwrap();
        let gw = net.topology.node("GW").unwrap();
        let walk = packet_reach(
            &mut sim,
            &net,
            None,
            gw,
            pfx("10.0.1.0/24"),
            packet_to("10.0.1.5"),
            Some(3),
        )
        .unwrap();
        assert!(walk.reach_cond.is_true());
    }

    #[test]
    fn acl_blocks_packets_but_not_routes() {
        // Paper §5.1: route reachability does not imply packet reachability.
        let mut configs = diamond();
        // Rebuild with an inbound ACL at GW denying TCP to the subnet on
        // both interfaces.
        let texts = [
            concat!(
                "hostname GW\ninterface e0\n peer M1\n access-group BLOCK in\ninterface e1\n peer M2\n access-group BLOCK in\n",
                "access-list BLOCK deny tcp any 10.0.1.0/24\naccess-list BLOCK permit ip any any\n",
                "router bgp 100\n network 10.0.1.0/24\n neighbor M1 remote-as 200\n neighbor M2 remote-as 300\n",
            ).to_string(),
        ];
        let gw_cfg = parse_config(&texts[0]).unwrap();
        configs.devices[0] =
            hoyan_device::BehaviorModel::new(gw_cfg, VsbProfile::ground_truth(hoyan_config::Vendor::A));
        let net = configs;
        let mut sim = Simulation::new_bgp(&net, vec![pfx("10.0.1.0/24")], Some(3), None);
        sim.run().unwrap();
        let s = net.topology.node("S").unwrap();
        // Route still propagates to S.
        let rc = sim.reach_cond(s, pfx("10.0.1.0/24"));
        assert!(!rc.is_false());
        // Packet is dropped by the ACL on GW's ingress.
        let walk = packet_reach(
            &mut sim,
            &net,
            None,
            s,
            pfx("10.0.1.0/24"),
            packet_to("10.0.1.5"),
            Some(3),
        )
        .unwrap();
        assert!(walk.reach_cond.is_false());
    }
}
