//! Data-plane properties on generated WANs:
//! - §5.1's necessary-condition rule: packet reachability implies route
//!   reachability, under every considered failure scenario;
//! - injecting a data-plane ACL on a transit device blocks packets without
//!   touching route reachability (the reason "route reachable" must never
//!   be read as "packets arrive").

use std::collections::HashSet;

use hoyan::baselines::failure_sets;
use hoyan::config::apply_update;
use hoyan::core::{packet_reach, IsisDb, NetworkModel, Verifier};
use hoyan::device::{Packet, VsbProfile};
use hoyan::nettypes::LinkId;
use hoyan::topogen::WanSpec;

#[test]
fn packet_reachability_implies_route_reachability() {
    let wan = WanSpec::tiny(2).build();
    let net = NetworkModel::from_configs(wan.configs.clone(), VsbProfile::ground_truth).unwrap();
    let isis = IsisDb::build(&net, Some(2)).unwrap();
    for p in &wan.customer_prefixes {
        let mut sim = hoyan::core::Simulation::new_bgp(&net, vec![*p], Some(2), Some(&isis));
        sim.run().unwrap();
        for src in net.topology.nodes() {
            let packet = Packet {
                src: "192.0.2.7".parse().unwrap(),
                dst: p.network(),
                proto: hoyan::config::AclProto::Udp,
            };
            let walk = packet_reach(&mut sim, &net, Some(&isis), src, *p, packet, Some(2)).unwrap();
            let route = sim.reach_cond(src, *p);
            for dead_links in failure_sets(net.topology.link_count(), 2) {
                let dead: HashSet<LinkId> = dead_links.iter().copied().collect();
                let mut assign = vec![true; net.topology.link_count()];
                for l in &dead {
                    assign[l.0 as usize] = false;
                }
                let pkt_ok = sim.mgr.eval(walk.reach_cond, &assign);
                let route_ok = sim.mgr.eval(route, &assign);
                // Exception: the gateway itself needs no route.
                let is_gw = net
                    .device(src)
                    .config
                    .bgp
                    .as_ref()
                    .map(|b| b.networks.contains(p))
                    .unwrap_or(false);
                assert!(
                    !pkt_ok || route_ok || is_gw,
                    "packet without route: src {} prefix {p} dead {:?}",
                    net.topology.name(src),
                    dead_links
                );
            }
        }
    }
}

#[test]
fn injected_transit_acl_blocks_packets_but_not_routes() {
    let wan = WanSpec::tiny(6).build();
    let p = wan.customer_prefixes[0];

    // Inject: PE0x0 (the prefix's PE) drops UDP toward the prefix on both
    // core-facing interfaces — an §7-style data-plane misconfiguration.
    let mut configs = wan.configs.clone();
    let idx = configs.iter().position(|c| c.hostname == "PE0x0").unwrap();
    let script = format!(
        "access-list BLK deny udp any {p}\naccess-list BLK permit ip any any\n\
         interface eth0\n access-group BLK in\ninterface eth1\n access-group BLK in\n\
         interface eth2\n access-group BLK in\n"
    );
    configs[idx] = apply_update(&configs[idx], &script).unwrap();

    let verifier = Verifier::new(configs, VsbProfile::ground_truth, Some(1)).unwrap();
    // Route reachability at a far core is untouched by the data-plane ACL.
    let route = verifier.route_reachability(p, "CR1x0", 1).unwrap();
    assert!(route.reachable_now);
    // Packets from the far core are blocked at the PE's ingress.
    let packet = Packet {
        src: "192.0.2.7".parse().unwrap(),
        dst: p.network(),
        proto: hoyan::config::AclProto::Udp,
    };
    let pr = verifier
        .packet_reachability("CR1x0", p, packet, 1)
        .unwrap();
    assert!(!pr.reachable_now, "ACL must block UDP: {pr:?}");
    // TCP still flows (the ACL is protocol-specific).
    let tcp = Packet {
        proto: hoyan::config::AclProto::Tcp,
        ..packet
    };
    let pr_tcp = verifier.packet_reachability("CR1x0", p, tcp, 1).unwrap();
    assert!(pr_tcp.reachable_now);
}
