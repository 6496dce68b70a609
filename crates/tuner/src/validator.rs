//! The behavior model validator: detects mismatches between the verifier's
//! computed ext-RIBs and the network's actual ones, localizes the root
//! cause to one device and one VSB class, and drives the patch loop.
//!
//! Localization follows §6's methodology:
//! 1. compare **ext-RIBs** (not plain RIBs) node by node *in propagation
//!    order from the prefix's gateway*, so the first divergent device is
//!    found even when the visible symptom is far downstream (Figure 6);
//! 2. when a node's ext-RIB matches but the update it *sent* differs,
//!    compare the update streams to pin the VSB between the ingress policy
//!    and the route selector of the sender;
//! 3. confirm the suspected device by *candidate patching*: re-run the
//!    model with each VSB class of the suspect's vendor corrected and keep
//!    the one that resolves the mismatch (this plays the operator's role of
//!    checking the real device's behavior before writing the patch).

use std::collections::VecDeque;

use hoyan_config::DeviceConfig;
use hoyan_core::{NetworkModel, SimError, Simulation};
use hoyan_device::{VsbKind, VsbProfile};
use hoyan_nettypes::{Ipv4Prefix, NodeId};

use crate::extrib::ExtRib;
use crate::registry::ModelRegistry;

/// A detected model/reality divergence.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The prefix whose propagation diverges.
    pub prefix: Ipv4Prefix,
    /// The first device (in propagation order) whose ext-RIB differs.
    pub node: NodeId,
    /// Whether the incoming updates to `node` already differ (root cause is
    /// upstream) or only the ext-RIB does (root cause is local ingress).
    pub updates_differ: bool,
    /// The upstream sender whose update differs, if any.
    pub divergent_sender: Option<NodeId>,
}

/// The localized root cause of a mismatch.
#[derive(Clone, Debug)]
pub struct Localization {
    /// The device carrying the flawed behavior model.
    pub device: NodeId,
    /// Device hostname.
    pub hostname: String,
    /// The vendor whose model needs the patch.
    pub vendor: hoyan_config::Vendor,
    /// The VSB class that, when corrected, resolves the mismatch.
    pub vsb: VsbKind,
    /// Number of configuration lines in the implicated device block — the
    /// "within O(10) configuration lines" claim of §1.
    pub config_lines: usize,
}

/// Result of a full tuning run.
#[derive(Clone, Debug)]
pub struct TunerOutcome {
    /// Patches applied, in order.
    pub localizations: Vec<Localization>,
    /// Per-prefix accuracy before tuning (fraction of devices matching).
    pub accuracy_before: Vec<(Ipv4Prefix, f64)>,
    /// Per-prefix accuracy after tuning.
    pub accuracy_after: Vec<(Ipv4Prefix, f64)>,
    /// Tuning rounds executed.
    pub rounds: usize,
}

/// The validator: owns the configuration snapshot and the oracle network.
pub struct Validator {
    configs: Vec<DeviceConfig>,
    oracle_net: NetworkModel,
}

impl Validator {
    /// Builds a validator over a snapshot. The oracle network uses the true
    /// vendor profiles (it stands in for production RIB/BMP feeds).
    pub fn new(configs: Vec<DeviceConfig>) -> Result<Validator, hoyan_core::TopologyError> {
        let oracle_net =
            NetworkModel::from_configs(configs.clone(), VsbProfile::ground_truth)?;
        Ok(Validator {
            configs,
            oracle_net,
        })
    }

    /// The configuration snapshot.
    pub fn configs(&self) -> &[DeviceConfig] {
        &self.configs
    }

    /// The oracle network model.
    pub fn oracle(&self) -> &NetworkModel {
        &self.oracle_net
    }

    fn ext_rib_of(net: &NetworkModel, family: &[Ipv4Prefix]) -> Result<ExtRib, SimError> {
        let mut sim = Simulation::new_bgp(net, family.to_vec(), Some(0), None);
        sim.run()?;
        Ok(ExtRib::from_simulation(&mut sim, net.topology.nodes()))
    }

    /// The oracle's ext-RIB for a family (production ground truth).
    pub fn oracle_ext_rib(&self, family: &[Ipv4Prefix]) -> Result<ExtRib, SimError> {
        Self::ext_rib_of(&self.oracle_net, family)
    }

    /// The model's ext-RIB for a family under `registry`.
    pub fn model_ext_rib(
        &self,
        registry: &ModelRegistry,
        family: &[Ipv4Prefix],
    ) -> Result<ExtRib, SimError> {
        let net = NetworkModel::from_configs(self.configs.clone(), registry.profile_fn())
            .expect("same configs already formed a topology");
        Self::ext_rib_of(&net, family)
    }

    /// Nodes in propagation order: BFS from the gateways of the family over
    /// BGP sessions, then any stragglers.
    fn propagation_order(&self, oracle: &ExtRib, family: &[Ipv4Prefix]) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut seen = vec![false; self.oracle_net.topology.node_count()];
        let mut queue = VecDeque::new();
        for ((n, _p), rows) in &oracle.routes {
            if rows.iter().any(|r| r.from.is_none()) && !seen[n.0 as usize] {
                seen[n.0 as usize] = true;
                queue.push_back(*n);
            }
        }
        let _ = family;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for s in self.oracle_net.sessions_of(u) {
                if !seen[s.peer.0 as usize] {
                    seen[s.peer.0 as usize] = true;
                    queue.push_back(s.peer);
                }
            }
        }
        for n in self.oracle_net.topology.nodes() {
            if !seen[n.0 as usize] {
                order.push(n);
            }
        }
        order
    }

    /// Checks one prefix family, returning the first mismatch in
    /// propagation order, if any.
    pub fn check(
        &self,
        registry: &ModelRegistry,
        family: &[Ipv4Prefix],
    ) -> Result<Option<Mismatch>, SimError> {
        let _sp = hoyan_obs::span("tuner.check");
        hoyan_obs::metric!(counter "tuner.checks").inc();
        let oracle = self.oracle_ext_rib(family)?;
        let model = self.model_ext_rib(registry, family)?;
        let m = self.first_divergence(&oracle, &model, family);
        if m.is_some() {
            hoyan_obs::metric!(counter "tuner.mismatches").inc();
        }
        Ok(m)
    }

    fn first_divergence(
        &self,
        oracle: &ExtRib,
        model: &ExtRib,
        family: &[Ipv4Prefix],
    ) -> Option<Mismatch> {
        let order = self.propagation_order(oracle, family);
        for n in order {
            for p in family {
                if oracle.node_matches(model, n, *p) {
                    continue;
                }
                // Ext-RIB differs at n. Do the *incoming updates* differ
                // too? If so the root cause is upstream of n.
                let mut divergent_sender = None;
                let mut updates_differ = false;
                for s in self.oracle_net.sessions_of(n) {
                    let key = (s.peer, n, *p);
                    if oracle.updates.get(&key) != model.updates.get(&key) {
                        updates_differ = true;
                        divergent_sender = Some(s.peer);
                        break;
                    }
                }
                return Some(Mismatch {
                    prefix: *p,
                    node: n,
                    updates_differ,
                    divergent_sender,
                });
            }
        }
        None
    }

    /// Localizes a mismatch to a device and a VSB class by candidate
    /// patching: the suspect device is the divergent sender (egress-side
    /// VSB) or the mismatching node itself (ingress-side VSB); each VSB
    /// class of its vendor is test-patched and the first one that makes the
    /// node match is reported.
    pub fn localize(
        &self,
        registry: &ModelRegistry,
        mismatch: &Mismatch,
        family: &[Ipv4Prefix],
    ) -> Result<Option<Localization>, SimError> {
        let _sp = hoyan_obs::span("tuner.localize");
        let mut suspects = Vec::new();
        if let Some(s) = mismatch.divergent_sender {
            suspects.push(s);
        }
        suspects.push(mismatch.node);
        // Also consider every device on the oracle propagation path of the
        // routes at the mismatching node (a VSB may sit further upstream
        // while intermediate ext-RIBs coincide by accident).
        let oracle = self.oracle_ext_rib(family)?;
        for ((n, p), rows) in &oracle.routes {
            if *p != mismatch.prefix || *n != mismatch.node {
                continue;
            }
            for r in rows {
                if let Some(f) = r.from {
                    if !suspects.contains(&f) {
                        suspects.push(f);
                    }
                }
            }
        }

        // A device may carry *several* VSBs at once (e.g. a vendor-B relay
        // both strips communities and rewrites the next hop). A candidate
        // patch is accepted when it makes the node match outright, or —
        // failing that — the patch that most reduces the attribute-level
        // distance is reported so the tune loop can peel VSBs one by one.
        let base_model = self.model_ext_rib(registry, family)?;
        let base_dist = row_distance(
            oracle.routes.get(&(mismatch.node, mismatch.prefix)),
            base_model.routes.get(&(mismatch.node, mismatch.prefix)),
        );
        let mut best: Option<(usize, Localization)> = None;
        for suspect in suspects {
            let vendor = self.configs[suspect.0 as usize].vendor;
            let truth = VsbProfile::ground_truth(vendor);
            for kind in VsbKind::ALL {
                let mut candidate = registry.clone();
                candidate.apply_patch(vendor, kind, &truth);
                if candidate.profile(vendor) == registry.profile(vendor) {
                    continue; // patch is a no-op
                }
                hoyan_obs::metric!(counter "tuner.localization_candidates").inc();
                let model = self.model_ext_rib(&candidate, family)?;
                let cfg = &self.configs[suspect.0 as usize];
                let loc = Localization {
                    device: suspect,
                    hostname: cfg.hostname.clone(),
                    vendor,
                    vsb: kind,
                    config_lines: relevant_block_lines(cfg, kind),
                };
                if oracle.node_matches(&model, mismatch.node, mismatch.prefix) {
                    return Ok(Some(loc));
                }
                let dist = row_distance(
                    oracle.routes.get(&(mismatch.node, mismatch.prefix)),
                    model.routes.get(&(mismatch.node, mismatch.prefix)),
                );
                if dist < base_dist && best.as_ref().is_none_or(|(d, _)| dist < *d) {
                    best = Some((dist, loc));
                }
            }
        }
        Ok(best.map(|(_, loc)| loc))
    }

    /// Compares a data-plane probe between the model and the oracle: does
    /// the packet reach the gateway of `dst_prefix` from `src` in both?
    /// Data-plane VSBs (the "default ACL" row of Table 2) are invisible to
    /// ext-RIBs; the deployed system compares FIB behavior too (§4.1:
    /// "compare the RIB/FIB Hoyan gets from simulations and the ground
    /// truth").
    pub fn check_probe(
        &self,
        registry: &ModelRegistry,
        family: &[Ipv4Prefix],
        src_device: &str,
        dst: hoyan_nettypes::Ipv4Addr,
    ) -> Result<bool, SimError> {
        let oracle = self.probe_result(&self.oracle_net, family, src_device, dst)?;
        let model_net = NetworkModel::from_configs(self.configs.clone(), registry.profile_fn())
            .expect("same configs already formed a topology");
        let model = self.probe_result(&model_net, family, src_device, dst)?;
        Ok(oracle == model)
    }

    fn probe_result(
        &self,
        net: &NetworkModel,
        family: &[Ipv4Prefix],
        src_device: &str,
        dst: hoyan_nettypes::Ipv4Addr,
    ) -> Result<bool, SimError> {
        let src = net.topology.node(src_device).expect("probe source exists");
        let dst_prefix = family
            .iter()
            .copied()
            .filter(|p| p.contains_addr(dst))
            .max_by_key(|p| p.len())
            .expect("probe destination inside the family");
        let mut sim = Simulation::new_bgp(net, family.to_vec(), Some(0), None);
        sim.run()?;
        let packet = hoyan_device::Packet {
            src: hoyan_nettypes::Ipv4Addr::new(192, 0, 2, 1),
            dst,
            proto: hoyan_config::AclProto::Udp,
        };
        let walk =
            hoyan_core::packet_reach(&mut sim, net, None, src, dst_prefix, packet, Some(0))?;
        Ok(sim.mgr.eval(walk.reach_cond, &[]))
    }

    /// Localizes a probe mismatch by candidate patching over every device's
    /// vendor and every VSB class until the probe agrees.
    pub fn localize_probe(
        &self,
        registry: &ModelRegistry,
        family: &[Ipv4Prefix],
        src_device: &str,
        dst: hoyan_nettypes::Ipv4Addr,
    ) -> Result<Option<Localization>, SimError> {
        for (i, cfg) in self.configs.iter().enumerate() {
            let vendor = cfg.vendor;
            let truth = VsbProfile::ground_truth(vendor);
            for kind in VsbKind::ALL {
                let mut candidate = registry.clone();
                candidate.apply_patch(vendor, kind, &truth);
                if candidate.profile(vendor) == registry.profile(vendor) {
                    continue;
                }
                if self.check_probe(&candidate, family, src_device, dst)? {
                    return Ok(Some(Localization {
                        device: NodeId(i as u32),
                        hostname: cfg.hostname.clone(),
                        vendor,
                        vsb: kind,
                        config_lines: relevant_block_lines(cfg, kind),
                    }));
                }
            }
        }
        Ok(None)
    }

    /// Per-prefix verification accuracy under `registry`: the fraction of
    /// devices whose (non-empty side) ext-RIB rows match the oracle's —
    /// the Figure 14 metric.
    pub fn accuracy(
        &self,
        registry: &ModelRegistry,
        families: &[Vec<Ipv4Prefix>],
    ) -> Result<Vec<(Ipv4Prefix, f64)>, SimError> {
        let mut out = Vec::new();
        for fam in families {
            let oracle = self.oracle_ext_rib(fam)?;
            let model = self.model_ext_rib(registry, fam)?;
            for p in fam {
                let mut total = 0usize;
                let mut matching = 0usize;
                for n in self.oracle_net.topology.nodes() {
                    let o = oracle.routes.get(&(n, *p));
                    let m = model.routes.get(&(n, *p));
                    if o.is_none() && m.is_none() {
                        continue;
                    }
                    total += 1;
                    if o == m {
                        matching += 1;
                    }
                }
                let acc = if total == 0 {
                    1.0
                } else {
                    matching as f64 / total as f64
                };
                out.push((*p, acc));
            }
        }
        Ok(out)
    }

    /// The full tuning loop: repeatedly detect, localize and patch until
    /// all families are clean or no further patch helps. Returns the
    /// before/after accuracy and the applied patches.
    pub fn tune(
        &self,
        registry: &mut ModelRegistry,
        families: &[Vec<Ipv4Prefix>],
        max_rounds: usize,
    ) -> Result<TunerOutcome, SimError> {
        let accuracy_before = self.accuracy(registry, families)?;
        let mut localizations = Vec::new();
        let mut rounds = 0usize;
        'outer: for _ in 0..max_rounds {
            rounds += 1;
            let mut progressed = false;
            for fam in families {
                let Some(mismatch) = self.check(registry, fam)? else {
                    continue;
                };
                match self.localize(registry, &mismatch, fam)? {
                    Some(loc) => {
                        let truth = VsbProfile::ground_truth(loc.vendor);
                        registry.apply_patch(loc.vendor, loc.vsb, &truth);
                        localizations.push(loc);
                        progressed = true;
                    }
                    None => continue,
                }
            }
            if !progressed {
                break 'outer;
            }
        }
        let accuracy_after = self.accuracy(registry, families)?;
        Ok(TunerOutcome {
            localizations,
            accuracy_before,
            accuracy_after,
            rounds,
        })
    }
}

/// Attribute-level distance between two ext-RIB row lists: the number of
/// differing fields across ranks (used to peel compound VSBs one patch at
/// a time).
fn row_distance(
    oracle: Option<&Vec<crate::extrib::ExtRoute>>,
    model: Option<&Vec<crate::extrib::ExtRoute>>,
) -> usize {
    let empty = Vec::new();
    let o = oracle.unwrap_or(&empty);
    let m = model.unwrap_or(&empty);
    let mut dist = o.len().abs_diff(m.len()) * 8;
    for (a, b) in o.iter().zip(m.iter()) {
        dist += usize::from(a.attrs.weight != b.attrs.weight)
            + usize::from(a.attrs.local_pref != b.attrs.local_pref)
            + usize::from(a.attrs.as_path != b.attrs.as_path)
            + usize::from(a.attrs.origin != b.attrs.origin)
            + usize::from(a.attrs.med != b.attrs.med)
            + usize::from(a.attrs.communities != b.attrs.communities)
            + usize::from(a.learned != b.learned)
            + usize::from(a.next_hop != b.next_hop)
            + usize::from(a.from != b.from);
    }
    dist
}

/// Size of the configuration block a VSB patch touches (the "localized to
/// O(10) lines" metric): neighbor blocks for BGP-side VSBs, ACL blocks for
/// the default-ACL VSB, and so on.
fn relevant_block_lines(cfg: &DeviceConfig, kind: VsbKind) -> usize {
    let emitted = hoyan_config::emit::emit_config(cfg);
    let lines: Vec<&str> = emitted.lines().collect();
    let pred: Box<dyn Fn(&str) -> bool> = match kind {
        VsbKind::DefaultAcl => Box::new(|l: &str| l.starts_with("access-list")),
        VsbKind::DefaultRoutePolicy => {
            Box::new(|l: &str| l.starts_with("route-map") || l.trim_start().starts_with("match"))
        }
        VsbKind::Community => Box::new(|l: &str| l.contains("community")),
        VsbKind::RouteRedistribution => Box::new(|l: &str| l.contains("redistribute")),
        VsbKind::AsLoop => Box::new(|l: &str| l.contains("allowas-in")),
        VsbKind::RemovePrivateAs => Box::new(|l: &str| l.contains("remove-private-as")),
        VsbKind::SelfNextHop => Box::new(|l: &str| l.contains("next-hop-self")),
        VsbKind::LocalAs => Box::new(|l: &str| l.contains("local-as")),
    };
    lines.iter().filter(|l| pred(l)).count().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_config::parse_config;
    use hoyan_config::Vendor;
    use hoyan_nettypes::pfx;

    /// The Figure 6 chain: R1(A) -> R2(B) -> R3(A) -> R4(A). R1's egress to
    /// R2 tags community 920 on everything; R3's ingress from R2 tags 920 on
    /// 20/8; R4 drops anything without 920. Vendor B strips communities by
    /// default — a VSB the naive model misses.
    fn figure6_configs() -> Vec<DeviceConfig> {
        let r1 = concat!(
            "hostname R1\nvendor A\nrouter-id 1\ninterface e0\n peer R2\n",
            "route-map TAG permit 10\n set community 100:920 additive\n",
            "router bgp 100\n network 10.0.0.0/8\n network 20.0.0.0/8\n",
            " neighbor R2 remote-as 200\n neighbor R2 route-map TAG out\n",
        );
        let r2 = concat!(
            "hostname R2\nvendor B\nrouter-id 2\ninterface e0\n peer R1\ninterface e1\n peer R3\n",
            "router bgp 200\n neighbor R1 remote-as 100\n neighbor R3 remote-as 300\n",
        );
        let r3 = concat!(
            "hostname R3\nvendor A\nrouter-id 3\ninterface e0\n peer R2\ninterface e1\n peer R4\n",
            "ip prefix-list P20 permit 20.0.0.0/8\n",
            "route-map TAG20 permit 10\n match prefix-list P20\n set community 100:920 additive\n",
            "route-map TAG20 permit 20\n",
            "router bgp 300\n neighbor R2 remote-as 200\n neighbor R2 route-map TAG20 in\n",
            " neighbor R4 remote-as 400\n",
        );
        let r4 = concat!(
            "hostname R4\nvendor A\nrouter-id 4\ninterface e0\n peer R3\n",
            "ip community-list GOLD permit 100:920\n",
            "route-map NEED920 permit 10\n match community-list GOLD\n",
            "route-map NEED920 deny 20\n",
            "router bgp 400\n neighbor R3 remote-as 300\n neighbor R3 route-map NEED920 in\n",
        );
        [r1, r2, r3, r4]
            .iter()
            .map(|t| parse_config(t).unwrap())
            .collect()
    }

    #[test]
    fn figure6_mismatch_localized_to_r2_community_vsb() {
        let validator = Validator::new(figure6_configs()).unwrap();
        let registry = ModelRegistry::naive();
        let family = vec![pfx("10.0.0.0/8"), pfx("20.0.0.0/8")];
        let mismatch = validator
            .check(&registry, &family)
            .unwrap()
            .expect("naive model must mismatch");
        let loc = validator
            .localize(&registry, &mismatch, &family)
            .unwrap()
            .expect("localizable");
        // The root cause is R2 (vendor B community stripping), even though
        // visible symptoms appear at R3/R4.
        assert_eq!(loc.hostname, "R2");
        assert_eq!(loc.vendor, Vendor::B);
        assert_eq!(loc.vsb, VsbKind::Community);
        assert!(loc.config_lines <= 20, "localized within O(10) lines");
    }

    #[test]
    fn figure6_tuning_restores_full_accuracy() {
        let validator = Validator::new(figure6_configs()).unwrap();
        let mut registry = ModelRegistry::naive();
        let families = vec![vec![pfx("10.0.0.0/8"), pfx("20.0.0.0/8")]];
        let outcome = validator.tune(&mut registry, &families, 16).unwrap();
        assert!(!outcome.localizations.is_empty());
        let before_avg: f64 = outcome.accuracy_before.iter().map(|(_, a)| a).sum::<f64>()
            / outcome.accuracy_before.len() as f64;
        let after_avg: f64 = outcome.accuracy_after.iter().map(|(_, a)| a).sum::<f64>()
            / outcome.accuracy_after.len() as f64;
        assert!(before_avg < 1.0, "naive model is wrong somewhere");
        assert_eq!(after_avg, 1.0, "tuned model matches production");
        // Remaining checks are clean.
        assert!(validator.check(&registry, &families[0]).unwrap().is_none());
    }

    #[test]
    fn correct_model_has_no_mismatch() {
        let validator = Validator::new(figure6_configs()).unwrap();
        let registry = ModelRegistry::ground_truth();
        let family = vec![pfx("10.0.0.0/8"), pfx("20.0.0.0/8")];
        assert!(validator.check(&registry, &family).unwrap().is_none());
        let acc = validator.accuracy(&registry, &[family]).unwrap();
        assert!(acc.iter().all(|(_, a)| *a == 1.0));
    }
}
