//! Tests reproducing the paper's worked examples end-to-end:
//! Figure 4 (route propagation with topology conditions), Figure 5 (packet
//! propagation), §5.3 (route aggregation with exclusive conditions), and
//! Appendix C (iBGP sessions conditioned on IS-IS reachability).

use hoyan_config::{parse_config, DeviceConfig};
use hoyan_core::{packet_reach, NetworkModel, Simulation, Verifier};
use hoyan_device::{Packet, VsbProfile};
use hoyan_nettypes::pfx;

fn cfgs(texts: &[&str]) -> Vec<DeviceConfig> {
    texts.iter().map(|t| parse_config(t).unwrap()).collect()
}

fn network(texts: &[&str]) -> NetworkModel {
    NetworkModel::from_configs(cfgs(texts), VsbProfile::ground_truth).unwrap()
}

/// The Figure 4 network: A(AS100) announces subnet N; A-C (Link1), A-B
/// (Link2), B-C (Link3), C-D (Link4).
fn figure4() -> NetworkModel {
    network(&figure4_strs())
}

fn figure4_texts() -> Vec<DeviceConfig> {
    cfgs(&figure4_strs())
}

fn figure4_strs() -> [&'static str; 4] {
    [
        concat!(
            "hostname A\nrouter-id 1\n",
            "interface e0\n peer C\ninterface e1\n peer B\n",
            "router bgp 100\n network 10.0.0.0/24\n",
            " neighbor C remote-as 300\n neighbor B remote-as 200\n",
        ),
        concat!(
            "hostname B\nrouter-id 2\n",
            "interface e0\n peer A\ninterface e1\n peer C\n",
            "router bgp 200\n neighbor A remote-as 100\n neighbor C remote-as 300\n",
        ),
        concat!(
            "hostname C\nrouter-id 3\n",
            "interface e0\n peer A\ninterface e1\n peer B\ninterface e2\n peer D\n",
            "router bgp 300\n neighbor A remote-as 100\n neighbor B remote-as 200\n neighbor D remote-as 400\n",
        ),
        concat!(
            "hostname D\nrouter-id 4\n",
            "interface e0\n peer C\n",
            "router bgp 400\n neighbor C remote-as 300\n",
        ),
    ]
}

#[test]
fn figure4_c_rib_has_two_exclusive_routes() {
    let net = figure4();
    let mut sim = Simulation::new_bgp(&net, vec![pfx("10.0.0.0/24")], Some(3), None);
    sim.run().unwrap();
    let c = net.topology.node("C").unwrap();
    let rib = sim.rib(c, pfx("10.0.0.0/24"));
    assert_eq!(rib.len(), 2, "C holds r1 (direct) and r2 (via B)");
    // r1: AS path "100", direct from A. (The paper prints paths origin-
    // first, e.g. "100-200"; we use standard nearest-first order.)
    assert_eq!(rib[0].attrs.as_path.to_string(), "100");
    // r2: via B, paper's "100-200" (our nearest-first "200-100").
    assert_eq!(rib[1].attrs.as_path.to_string(), "200-100");

    let a = net.topology.node("A").unwrap();
    let b = net.topology.node("B").unwrap();
    let l1 = net.topology.link_between(a, c).unwrap();
    let l2 = net.topology.link_between(a, b).unwrap();
    let l3 = net.topology.link_between(b, c).unwrap();
    // r1 exists iff Link1 alive.
    let expect_r1 = sim.mgr.var(l1.0);
    assert_eq!(rib[0].cond, expect_r1);
    // r2 exists iff Link2 and Link3 alive.
    let a2 = sim.mgr.var(l2.0);
    let a3 = sim.mgr.var(l3.0);
    let expect_r2 = sim.mgr.and(a2, a3);
    assert_eq!(rib[1].cond, expect_r2);
}

#[test]
fn figure4_d_rib_conditions_and_min_cut() {
    let net = figure4();
    let mut sim = Simulation::new_bgp(&net, vec![pfx("10.0.0.0/24")], Some(3), None);
    sim.run().unwrap();
    let a = net.topology.node("A").unwrap();
    let b = net.topology.node("B").unwrap();
    let c = net.topology.node("C").unwrap();
    let d = net.topology.node("D").unwrap();
    let l1 = net.topology.link_between(a, c).unwrap();
    let l2 = net.topology.link_between(a, b).unwrap();
    let l3 = net.topology.link_between(b, c).unwrap();
    let l4 = net.topology.link_between(c, d).unwrap();

    let rib = sim.rib(d, pfx("10.0.0.0/24"));
    assert_eq!(rib.len(), 2, "D holds r3 and r4");
    // r3 = a1 ∧ a4 (paper step 6).
    let a1 = sim.mgr.var(l1.0);
    let a4v = sim.mgr.var(l4.0);
    let expect_r3 = sim.mgr.and(a1, a4v);
    assert_eq!(rib[0].cond, expect_r3);
    // r4 = ¬a1 ∧ a2 ∧ a3 ∧ a4.
    let na1 = sim.mgr.not(a1);
    let a2 = sim.mgr.var(l2.0);
    let a3 = sim.mgr.var(l3.0);
    let e = sim.mgr.and(na1, a2);
    let e = sim.mgr.and(e, a3);
    let expect_r4 = sim.mgr.and(e, a4v);
    assert_eq!(rib[1].cond, expect_r4);

    // "failure of Link 4 makes D unreachable from A" — the minimal cut.
    let v = sim.reach_cond(d, pfx("10.0.0.0/24"));
    assert_eq!(sim.mgr.min_failures_to_falsify(v), 1);
    assert_eq!(sim.mgr.min_falsifying_failures(v), Some(vec![l4.0]));
}

#[test]
fn figure5_packet_reaches_a_from_d_unless_link4_or_both_paths_die() {
    let net = figure4();
    let mut sim = Simulation::new_bgp(&net, vec![pfx("10.0.0.0/24")], Some(3), None);
    sim.run().unwrap();
    let d = net.topology.node("D").unwrap();
    let packet = Packet {
        src: "192.168.0.1".parse().unwrap(),
        dst: "10.0.0.9".parse().unwrap(),
        proto: hoyan_config::AclProto::Tcp,
    };
    let walk = packet_reach(&mut sim, &net, None, d, pfx("10.0.0.0/24"), packet, Some(3)).unwrap();
    // The packet follows FIBs D→C→A; Figure 5 shows p6 (the branch pairing
    // r4's condition with r1's next hop) is always-false and pruned.
    assert!(sim.mgr.eval(walk.reach_cond, &[]));
    assert_eq!(sim.mgr.min_failures_to_falsify(walk.reach_cond), 1);
    assert_eq!(walk.loops, 0);
}

#[test]
fn aggregation_produces_exclusive_conditions() {
    // §5.3: GW1 announces 10.0.1.0/32-like subs; AGG aggregates to /31 with
    // summary-only. The aggregate exists iff both contributors are present;
    // contributors' announcements are suppressed exactly then.
    let net = network(&[
        concat!(
            "hostname G1\ninterface e0\n peer AGG\n",
            "router bgp 101\n network 10.0.1.0/32\n neighbor AGG remote-as 500\n",
        ),
        concat!(
            "hostname G2\ninterface e0\n peer AGG\n",
            "router bgp 102\n network 10.0.1.1/32\n neighbor AGG remote-as 500\n",
        ),
        concat!(
            "hostname AGG\ninterface e0\n peer G1\ninterface e1\n peer G2\ninterface e2\n peer X\n",
            "router bgp 500\n aggregate-address 10.0.1.0/31 summary-only\n",
            " neighbor G1 remote-as 101\n neighbor G2 remote-as 102\n neighbor X remote-as 600\n",
        ),
        concat!(
            "hostname X\ninterface e0\n peer AGG\n",
            "router bgp 600\n neighbor AGG remote-as 500\n",
        ),
    ]);
    let fam = vec![pfx("10.0.1.0/32"), pfx("10.0.1.1/32"), pfx("10.0.1.0/31")];
    let mut sim = Simulation::new_bgp(&net, fam, Some(3), None);
    sim.run().unwrap();

    let agg = net.topology.node("AGG").unwrap();
    let x = net.topology.node("X").unwrap();
    let g1 = net.topology.node("G1").unwrap();
    let g2 = net.topology.node("G2").unwrap();
    let i1 = sim.mgr.var(net.topology.link_between(g1, agg).unwrap().0);
    let i2 = sim.mgr.var(net.topology.link_between(g2, agg).unwrap().0);

    // At AGG: the aggregate rule condition is I1 ∧ I2.
    let agg_rib = sim.rib(agg, pfx("10.0.1.0/31"));
    assert_eq!(agg_rib.len(), 1);
    let expect_trigger = sim.mgr.and(i1, i2);
    assert_eq!(agg_rib[0].cond, expect_trigger);

    // The suppressed /32 rules at AGG have conditions I1 ∧ ¬(I1 ∧ I2) =
    // I1 ∧ ¬I2 and symmetrically (mutually exclusive with the aggregate).
    let sub1 = sim.rib(agg, pfx("10.0.1.0/32"));
    assert_eq!(sub1.len(), 1);
    let ni2 = sim.mgr.not(i2);
    let expect_sub1 = sim.mgr.and(i1, ni2);
    assert_eq!(sub1[0].cond, expect_sub1);

    // All three rules are pairwise exclusive.
    let sub2 = sim.rib(agg, pfx("10.0.1.1/32"));
    let pairs = [
        (agg_rib[0].cond, sub1[0].cond),
        (agg_rib[0].cond, sub2[0].cond),
        (sub1[0].cond, sub2[0].cond),
    ];
    for (p, q) in pairs {
        assert!(sim.mgr.and(p, q).is_false(), "rules must be exclusive");
    }

    // X receives the aggregate (condition includes both uplinks) and the
    // suppressed /32s only under partial failure.
    let x_agg = sim.reach_cond(x, pfx("10.0.1.0/31"));
    assert!(sim.mgr.eval(x_agg, &[]));
    let x_sub = sim.reach_cond(x, pfx("10.0.1.0/32"));
    assert!(!sim.mgr.eval(x_sub, &[]), "suppressed while both present");
    assert!(!x_sub.is_false(), "appears when the other contributor fails");
}

#[test]
fn ibgp_session_condition_rides_on_isis() {
    // E announces a prefix over eBGP to PE1; PE1 relays over iBGP to PE2.
    // PE1-PE2 have no direct link: the iBGP session condition is IS-IS
    // reachability through M (two disjoint IGP paths → survives 1 failure,
    // but the whole chain also needs the E-PE1 link).
    let texts = [
        concat!(
            "hostname E\ninterface e0\n peer PE1\n",
            "router bgp 900\n network 77.0.0.0/16\n neighbor PE1 remote-as 100\n",
        )
        .to_string(),
        concat!(
            "hostname PE1\ninterface e0\n peer E\ninterface e1\n peer M1\ninterface e2\n peer M2\n",
            "router bgp 100\n neighbor E remote-as 900\n neighbor PE2 remote-as 100\n neighbor PE2 next-hop-self\n",
            "router isis\n area 1\n",
        )
        .to_string(),
        concat!(
            "hostname M1\ninterface e0\n peer PE1\ninterface e1\n peer PE2\n",
            "router isis\n area 1\n",
        )
        .to_string(),
        concat!(
            "hostname M2\ninterface e0\n peer PE1\ninterface e1\n peer PE2\n",
            "router isis\n area 1\n",
        )
        .to_string(),
        concat!(
            "hostname PE2\ninterface e0\n peer M1\ninterface e1\n peer M2\n",
            "router bgp 100\n neighbor PE1 remote-as 100\n",
            "router isis\n area 1\n",
        )
        .to_string(),
    ];
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
    let configs = cfgs(&refs);
    let verifier = Verifier::new(configs, VsbProfile::ground_truth, Some(4)).unwrap();
    let report = verifier.route_reachability(pfx("77.0.0.0/16"), "PE2", 3).unwrap();
    assert!(report.reachable_now);
    // Breaking it needs either the single E-PE1 link (1 failure) — so the
    // minimum cut is 1.
    assert_eq!(report.min_failures_to_break, 1);
    assert_eq!(report.witness.as_deref(), Some(&["E-PE1".to_string()][..]));

    // Role equivalence: M1 and M2 are equivalent (pure IGP nodes), PE1 and
    // PE2 are not (different RIB contents).
    let eq = verifier.role_equivalence("M1", "M2").unwrap();
    assert!(eq.equivalent);
    let ne = verifier.role_equivalence("PE1", "PE2").unwrap();
    assert!(!ne.equivalent);
}

#[test]
fn late_higher_priority_route_is_handled() {
    // A worse route that arrives/propagates first must be withdrawn when a
    // better one shows up: ring A-B-C-D where the origin G peers with both A
    // and D. C prefers the short path via D; the long path via A-B must
    // carry the negation of the short one.
    let net = network(&[
        concat!(
            "hostname G\ninterface e0\n peer A\ninterface e1\n peer D\n",
            "router bgp 10\n network 50.0.0.0/16\n neighbor A remote-as 1\n neighbor D remote-as 4\n",
        ),
        concat!(
            "hostname A\ninterface e0\n peer G\ninterface e1\n peer B\n",
            "router bgp 1\n neighbor G remote-as 10\n neighbor B remote-as 2\n",
        ),
        concat!(
            "hostname B\ninterface e0\n peer A\ninterface e1\n peer C\n",
            "router bgp 2\n neighbor A remote-as 1\n neighbor C remote-as 3\n",
        ),
        concat!(
            "hostname C\ninterface e0\n peer B\ninterface e1\n peer D\n",
            "router bgp 3\n neighbor B remote-as 2\n neighbor D remote-as 4\n",
        ),
        concat!(
            "hostname D\ninterface e0\n peer C\ninterface e1\n peer G\n",
            "router bgp 4\n neighbor C remote-as 3\n neighbor G remote-as 10\n",
        ),
    ]);
    let mut sim = Simulation::new_bgp(&net, vec![pfx("50.0.0.0/16")], Some(3), None);
    sim.run().unwrap();
    let c = net.topology.node("C").unwrap();
    let rib = sim.rib(c, pfx("50.0.0.0/16"));
    assert_eq!(rib.len(), 2);
    // Best: via D (path 4-10). Alternative: via B (path 2-1-10).
    assert_eq!(rib[0].attrs.as_path.to_string(), "4-10");
    assert_eq!(rib[1].attrs.as_path.to_string(), "2-1-10");
    
    // Reachability survives any single failure (two disjoint paths).
    let v = sim.reach_cond(c, pfx("50.0.0.0/16"));
    assert_eq!(sim.mgr.min_failures_to_falsify(v), 2);
    // Both RIB rules can exist simultaneously (conditions overlap) — the
    // exclusivity lives in what gets *announced*, not the RIB itself.
    let both = sim.mgr.and(rib[0].cond, rib[1].cond);
    assert!(!both.is_false());
    // B holds C's relayed best route (path 3-4-10), valid with all links
    // alive, alongside its own direct route (path 1-10).
    let b = net.topology.node("B").unwrap();
    let b_rib = sim.rib(b, pfx("50.0.0.0/16"));
    let relayed = b_rib
        .iter()
        .find(|r| r.attrs.as_path.to_string() == "3-4-10")
        .expect("B receives C's best route");
    assert!(sim.mgr.eval(relayed.cond, &[]));
    // When C's best route dies (e.g. link D-G fails), the withdraw cascade
    // must leave B's relayed entry conditioned out: kill D-G and the
    // relayed condition must evaluate false.
    let d = net.topology.node("D").unwrap();
    let g = net.topology.node("G").unwrap();
    let dg = net.topology.link_between(d, g).unwrap();
    let mut assign = vec![true; net.topology.link_count()];
    assign[dg.0 as usize] = false;
    assert!(!sim.mgr.eval(relayed.cond, &assign));
}

#[test]
fn verifier_families_group_overlapping_prefixes() {
    let net_texts = [
        concat!(
            "hostname A\ninterface e0\n peer B\n",
            "router bgp 1\n network 10.0.0.0/16\n network 10.0.1.0/24\n network 20.0.0.0/8\n",
            " neighbor B remote-as 2\n",
        )
        .to_string(),
        "hostname B\ninterface e0\n peer A\nrouter bgp 2\n neighbor A remote-as 1\n".to_string(),
    ];
    let refs: Vec<&str> = net_texts.iter().map(|s| s.as_str()).collect();
    let verifier = Verifier::new(cfgs(&refs), VsbProfile::ground_truth, Some(3)).unwrap();
    let fams = verifier.families();
    assert_eq!(fams.len(), 2);
    let sizes: Vec<usize> = fams.iter().map(|f| f.len()).collect();
    assert!(sizes.contains(&2) && sizes.contains(&1));
}

#[test]
fn parallel_sweep_matches_serial_queries() {
    let net_texts = [
        concat!(
            "hostname A\ninterface e0\n peer B\n",
            "router bgp 1\n network 10.0.0.0/16\n network 30.0.0.0/16\n neighbor B remote-as 2\n",
        )
        .to_string(),
        concat!(
            "hostname B\ninterface e0\n peer A\ninterface e1\n peer C\n",
            "router bgp 2\n neighbor A remote-as 1\n neighbor C remote-as 3\n",
        )
        .to_string(),
        "hostname C\ninterface e0\n peer B\nrouter bgp 3\n neighbor B remote-as 2\n".to_string(),
    ];
    let refs: Vec<&str> = net_texts.iter().map(|s| s.as_str()).collect();
    let verifier = Verifier::new(cfgs(&refs), VsbProfile::ground_truth, Some(3)).unwrap();
    let reports = verifier.verify_all_routes(1, 4).unwrap().reports;
    assert_eq!(reports.len(), 2);
    for r in &reports {
        // Chain topology: a single failure cuts C off; all nodes in scope.
        assert_eq!(r.scope.len(), 3);
        assert!(!r.fragile.is_empty());
        let serial = verifier
            .route_reachability(r.prefix, "C", 1)
            .unwrap();
        assert!(!serial.resilient);
        assert_eq!(serial.min_failures_to_break, 1);
    }
}

#[test]
fn router_failure_tolerance_finds_single_points_of_failure() {
    // Chain GW - M - S: router M is a single point of failure for S;
    // in the figure-4 diamond, no single transit router is.
    let chain = [
        concat!(
            "hostname GW\ninterface e0\n peer M\n",
            "router bgp 1\n network 10.0.0.0/24\n neighbor M remote-as 2\n",
        )
        .to_string(),
        concat!(
            "hostname M\ninterface e0\n peer GW\ninterface e1\n peer S\n",
            "router bgp 2\n neighbor GW remote-as 1\n neighbor S remote-as 3\n",
        )
        .to_string(),
        concat!(
            "hostname S\ninterface e0\n peer M\n",
            "router bgp 3\n neighbor M remote-as 2\n",
        )
        .to_string(),
    ];
    let refs: Vec<&str> = chain.iter().map(|s| s.as_str()).collect();
    let verifier = Verifier::new(cfgs(&refs), VsbProfile::ground_truth, Some(4)).unwrap();
    let fatal = verifier
        .router_failure_tolerance(pfx("10.0.0.0/24"), "S")
        .unwrap();
    assert_eq!(fatal, vec!["GW".to_string(), "M".to_string()]);

    // The figure-4 diamond: D reaches N via C only — C and A are fatal,
    // B is not (the A-C path survives B).
    let net_cfgs: Vec<hoyan_config::DeviceConfig> = figure4_texts();
    let verifier = Verifier::new(net_cfgs, VsbProfile::ground_truth, Some(4)).unwrap();
    let fatal = verifier
        .router_failure_tolerance(pfx("10.0.0.0/24"), "D")
        .unwrap();
    assert!(fatal.contains(&"A".to_string()));
    assert!(fatal.contains(&"C".to_string()));
    assert!(!fatal.contains(&"B".to_string()));
}
