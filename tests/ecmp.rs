//! ECMP extension tests: equal-cost IGP alternatives during packet
//! next-hop resolution, under the three semantics of
//! [`hoyan::core::EcmpMode`]. (The paper defers ECMP reasoning to future
//! work; this reproduction implements it.)

use hoyan::config::parse_config;
use hoyan::core::{packet_reach_ecmp, EcmpMode, IsisDb, NetworkModel, Simulation};
use hoyan::device::{Packet, VsbProfile};
use hoyan::nettypes::pfx;

/// PE learns the prefix over eBGP and relays it over iBGP to CR with
/// next-hop-self; CR resolves PE via *two equal-cost* IGP paths (M1/M2).
/// M1 carries a data-plane ACL dropping UDP — so the two equal-cost copies
/// behave differently, which is exactly what the modes must distinguish.
fn ecmp_net() -> NetworkModel {
    let texts = [
        concat!(
            "hostname E\ninterface e0\n peer PE\n",
            "router bgp 900\n network 10.3.0.0/24\n neighbor PE remote-as 100\n",
        )
        .to_string(),
        concat!(
            "hostname PE\ninterface e0\n peer E\ninterface e1\n peer M1\ninterface e2\n peer M2\n",
            "router bgp 100\n neighbor E remote-as 900\n neighbor CR remote-as 100\n neighbor CR next-hop-self\n",
            "router isis\n area 1\n",
        )
        .to_string(),
        concat!(
            "hostname M1\ninterface e0\n peer PE\ninterface e1\n peer CR\n access-group NOUDP in\n",
            "access-list NOUDP deny udp any 10.3.0.0/24\naccess-list NOUDP permit ip any any\n",
            "router isis\n area 1\n",
        )
        .to_string(),
        concat!(
            "hostname M2\ninterface e0\n peer PE\ninterface e1\n peer CR\n",
            "router isis\n area 1\n",
        )
        .to_string(),
        concat!(
            "hostname CR\ninterface e0\n peer M1\ninterface e1\n peer M2\n",
            "router bgp 100\n neighbor PE remote-as 100\n",
            "router isis\n area 1\n",
        )
        .to_string(),
    ];
    let configs = texts.iter().map(|t| parse_config(t).unwrap()).collect();
    NetworkModel::from_configs(configs, VsbProfile::ground_truth).unwrap()
}

fn reach_under(mode: EcmpMode, proto: hoyan::config::AclProto) -> bool {
    let net = ecmp_net();
    let isis = IsisDb::build(&net, Some(2)).unwrap();
    let p = pfx("10.3.0.0/24");
    let mut sim = Simulation::new_bgp(&net, vec![p], Some(2), Some(&isis));
    sim.run().unwrap();
    let cr = net.topology.node("CR").unwrap();
    let packet = Packet {
        src: "192.0.2.1".parse().unwrap(),
        dst: "10.3.0.9".parse().unwrap(),
        proto,
    };
    let walk =
        packet_reach_ecmp(&mut sim, &net, Some(&isis), cr, p, packet, Some(2), mode).unwrap();
    sim.mgr.eval(walk.reach_cond, &[])
}

#[test]
fn any_path_succeeds_through_the_clean_copy() {
    // UDP is dropped on the M1 leg but the M2 copy delivers.
    assert!(reach_under(EcmpMode::AnyPath, hoyan::config::AclProto::Udp));
}

#[test]
fn all_paths_fails_because_one_leg_blackholes() {
    assert!(!reach_under(EcmpMode::AllPaths, hoyan::config::AclProto::Udp));
}

#[test]
fn all_modes_agree_when_both_legs_are_clean() {
    // TCP passes the ACL, so every mode delivers.
    for mode in [EcmpMode::ExclusiveBest, EcmpMode::AnyPath, EcmpMode::AllPaths] {
        assert!(
            reach_under(mode, hoyan::config::AclProto::Tcp),
            "mode {mode:?} must deliver TCP"
        );
    }
}

#[test]
fn exclusive_best_is_deterministic_single_path() {
    // The default mode picks one deterministic alternative; with the ACL on
    // one leg the verdict depends on which leg ranks first, but it must be
    // stable across runs.
    let a = reach_under(EcmpMode::ExclusiveBest, hoyan::config::AclProto::Udp);
    let b = reach_under(EcmpMode::ExclusiveBest, hoyan::config::AclProto::Udp);
    assert_eq!(a, b);
}
