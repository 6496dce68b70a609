//! The central correctness invariant of the reproduction: Hoyan's
//! conditioned simulation must agree, scenario for scenario, with the
//! enumerative Batfish-like baseline (which shares only the device models)
//! on randomly generated WANs — and the formula-based and model-checking
//! baselines must agree on the aggregate verdicts.

use std::collections::HashSet;

use hoyan::baselines::{concrete::converge, failure_sets, BatfishLike, MinesweeperLike, PlanktonLike};
use hoyan::core::{NetworkModel, Simulation};
use hoyan::device::VsbProfile;
use hoyan::nettypes::LinkId;
use hoyan::topogen::WanSpec;

fn build_net(seed: u64) -> (hoyan::topogen::Wan, NetworkModel) {
    let wan = WanSpec::tiny(seed).build();
    let net = NetworkModel::from_configs(wan.configs.clone(), VsbProfile::ground_truth).unwrap();
    (wan, net)
}

#[test]
fn hoyan_agrees_with_concrete_simulation_on_every_scenario() {
    for seed in [1u64, 2, 3] {
        let (wan, net) = build_net(seed);
        // IS-IS database for iBGP session conditions.
        let isis = hoyan::core::IsisDb::build(&net, None).unwrap();
        for p in &wan.customer_prefixes {
            let mut sim = Simulation::new_bgp(&net, vec![*p], None, Some(&isis));
            sim.run().unwrap();
            for dead_links in failure_sets(net.topology.link_count(), 2) {
                let dead: HashSet<LinkId> = dead_links.iter().copied().collect();
                let state = converge(&net, &[*p], &dead);
                let mut assign = vec![true; net.topology.link_count()];
                for l in &dead {
                    assign[l.0 as usize] = false;
                }
                for n in net.topology.nodes() {
                    let cond = sim.reach_cond(n, *p);
                    let hoyan_reach = sim.mgr.eval(cond, &assign);
                    let concrete_reach = state.has_route(n, *p);
                    assert_eq!(
                        hoyan_reach,
                        concrete_reach,
                        "seed {seed}, prefix {p}, node {}, dead {:?}",
                        net.topology.name(n),
                        dead_links
                    );
                }
            }
        }
    }
}

#[test]
fn all_four_verifiers_agree_on_k_failure_verdicts() {
    let (wan, net) = build_net(4);
    let isis = hoyan::core::IsisDb::build(&net, None).unwrap();
    let p = wan.customer_prefixes[0];
    for k in 0..=2usize {
        for name in ["CR0x0", "CR1x1", "MAN1x0", "PE1x0"] {
            let node = net.topology.node(name).unwrap();

            // Hoyan.
            let mut sim = Simulation::new_bgp(&net, vec![p], Some(k as u32), Some(&isis));
            sim.run().unwrap();
            let v = sim.reach_cond(node, p);
            let hoyan_verdict = sim.mgr.min_failures_to_falsify(v) > k as u32;

            // Batfish-like.
            let mut bf = BatfishLike::new(&net);
            let bf_verdict = bf.route_reachable_under_k(p, node, k).unwrap();

            // Plankton-like.
            let mut pl = PlanktonLike::new(&net);
            let pl_verdict = pl.route_reachable_under_k(p, node, k).unwrap();

            assert_eq!(hoyan_verdict, bf_verdict, "hoyan vs batfish at {name}, k={k}");
            assert_eq!(bf_verdict, pl_verdict, "batfish vs plankton at {name}, k={k}");
        }
    }
}

#[test]
fn minesweeper_agrees_where_its_encoding_is_exact() {
    // The Minesweeper-like iBGP encoding approximates the session condition
    // with the shortest IGP path, so compare on a prefix whose propagation
    // is pure eBGP: the external ISP prefix toward its own MAN.
    let (wan, net) = build_net(5);
    let p = wan.external_prefixes[0];
    let man = net.topology.node("MAN0x0").unwrap();
    let mut ms = MinesweeperLike::new(&net);
    let mut bf = BatfishLike::new(&net);
    for k in 0..=1usize {
        let ms_v = ms.route_reachable_under_k(p, man, k);
        let bf_v = bf.route_reachable_under_k(p, man, k).unwrap();
        assert_eq!(ms_v, bf_v, "k={k}");
    }
}

#[test]
fn packet_reachability_agrees_with_concrete_walk() {
    let (wan, net) = build_net(6);
    let isis = hoyan::core::IsisDb::build(&net, None).unwrap();
    let p = wan.customer_prefixes[0];
    let src = net.topology.node("MAN1x0").unwrap();
    let packet = hoyan::device::Packet {
        src: "198.18.0.1".parse().unwrap(),
        dst: p.network(),
        proto: hoyan::config::AclProto::Tcp,
    };
    let mut sim = Simulation::new_bgp(&net, vec![p], None, Some(&isis));
    sim.run().unwrap();
    let walk =
        hoyan::core::packet_reach(&mut sim, &net, Some(&isis), src, p, packet, None).unwrap();

    // All-alive: the packet must arrive (route exists and FIBs resolve).
    assert!(sim.mgr.eval(walk.reach_cond, &[]));
    // Killing the destination DC's uplink must break it.
    let gw = net.topology.node("DC0x0").unwrap();
    let pe = net.topology.node("PE0x0").unwrap();
    let uplink = net.topology.link_between(gw, pe).unwrap();
    let mut assign = vec![true; net.topology.link_count()];
    assign[uplink.0 as usize] = false;
    assert!(!sim.mgr.eval(walk.reach_cond, &assign));
}
