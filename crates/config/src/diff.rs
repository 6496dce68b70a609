//! Snapshot diffing: the first stage of the incremental verification
//! pipeline (ISSUE 3, mirroring the paper's continuous deployment where
//! "configurations change a few devices at a time").
//!
//! A [`ConfigSnapshot`] is the parsed IR of one configuration directory
//! plus a stable per-device content hash (FNV-1a over the canonical
//! emitted text, so two configs hash equal iff they emit equal).
//! [`ConfigSnapshot::diff`] produces a [`SnapshotDelta`]: added / removed /
//! modified devices, added / removed links, and per-modified-device
//! *change-kind* classification — which of the device's origin
//! announcements, session/policy surface, interfaces, or IGP block
//! changed. The verifier's dirty rules (`hoyan-core::snapshot`) consume
//! that classification, so its granularity is what decides how selective
//! incremental re-verification can be.

use std::collections::{BTreeMap, BTreeSet};

use hoyan_nettypes::Ipv4Prefix;

use crate::emit::emit_config;
use crate::ir::{DeviceConfig, RedistSource};

/// Stable 64-bit content hash of a device configuration: FNV-1a over the
/// canonical emitted text. Identical across runs, platforms and processes
/// (no randomized hashing), so snapshot deltas are reproducible.
pub fn content_hash(cfg: &DeviceConfig) -> u64 {
    let text = emit_config(cfg);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every peer hostname the device declares: interface peers (physical
/// links) plus BGP neighbor statements. A route can only enter or leave a
/// device through one of these, which is what makes peer sets usable as a
/// sound "who could this change affect" frontier.
pub fn declared_peers(cfg: &DeviceConfig) -> BTreeSet<String> {
    let mut peers: BTreeSet<String> =
        cfg.interfaces.iter().map(|i| i.peer.clone()).collect();
    if let Some(bgp) = cfg.bgp.as_ref() {
        peers.extend(bgp.neighbors.iter().map(|n| n.peer.clone()));
    }
    peers
}

/// A parsed configuration snapshot: the stage-one artifact of the
/// snapshot → compiled-network → simulation pipeline. Devices are held in
/// hostname order with a content hash per device.
#[derive(Clone, Debug)]
pub struct ConfigSnapshot {
    devices: Vec<DeviceConfig>,
    hashes: BTreeMap<String, u64>,
}

impl ConfigSnapshot {
    /// Builds a snapshot (sorts devices by hostname; later duplicates of a
    /// hostname are dropped).
    pub fn new(mut devices: Vec<DeviceConfig>) -> ConfigSnapshot {
        devices.sort_by(|a, b| a.hostname.cmp(&b.hostname));
        devices.dedup_by(|b, a| a.hostname == b.hostname);
        let hashes = devices
            .iter()
            .map(|c| (c.hostname.clone(), content_hash(c)))
            .collect();
        ConfigSnapshot { devices, hashes }
    }

    /// The devices, sorted by hostname.
    pub fn devices(&self) -> &[DeviceConfig] {
        &self.devices
    }

    /// Consumes the snapshot, yielding its devices.
    pub fn into_devices(self) -> Vec<DeviceConfig> {
        self.devices
    }

    /// Looks a device up by hostname.
    pub fn device(&self, hostname: &str) -> Option<&DeviceConfig> {
        self.devices
            .binary_search_by(|c| c.hostname.as_str().cmp(hostname))
            .ok()
            .map(|i| &self.devices[i])
    }

    /// The content hash of a device.
    pub fn device_hash(&self, hostname: &str) -> Option<u64> {
        self.hashes.get(hostname).copied()
    }

    /// Physical links of the snapshot: normalized `(a, b)` hostname pairs
    /// (`a < b`) where both ends declare each other as interface peers —
    /// the same mutual-declaration rule the topology builder uses.
    pub fn links(&self) -> BTreeSet<(String, String)> {
        let mut out = BTreeSet::new();
        for cfg in &self.devices {
            for itf in &cfg.interfaces {
                let Some(peer) = self.device(&itf.peer) else {
                    continue;
                };
                if !peer.interfaces.iter().any(|i| i.peer == cfg.hostname) {
                    continue;
                }
                let pair = if cfg.hostname < itf.peer {
                    (cfg.hostname.clone(), itf.peer.clone())
                } else {
                    (itf.peer.clone(), cfg.hostname.clone())
                };
                out.insert(pair);
            }
        }
        out
    }

    /// Diffs `self` (the baseline) against `other` (the proposed
    /// snapshot), producing the delta the incremental verifier consumes.
    pub fn diff(&self, other: &ConfigSnapshot) -> SnapshotDelta {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let mut modified = Vec::new();
        for cfg in &self.devices {
            if other.device(&cfg.hostname).is_none() {
                removed.push(DeviceRef::of(cfg));
            }
        }
        for cfg in &other.devices {
            match self.device(&cfg.hostname) {
                None => added.push(DeviceRef::of(cfg)),
                Some(old) => {
                    if self.device_hash(&cfg.hostname) != other.device_hash(&cfg.hostname) {
                        modified.push(ModifiedDevice::classify(old, cfg));
                    }
                }
            }
        }

        let old_links = self.links();
        let new_links = other.links();
        let links_added = new_links.difference(&old_links).cloned().collect();
        let links_removed = old_links.difference(&new_links).cloned().collect();

        // IS-IS invalidation rule: iBGP session conditions ride on *global*
        // IS-IS reachability, so any change that can alter the IGP graph
        // (an IGP block edit, interface changes on an IGP speaker, or an
        // IGP speaker appearing/disappearing) invalidates every family.
        let igp_affecting = modified.iter().any(|m| {
            m.igp_changed || (m.interfaces_changed && m.runs_igp)
        }) || added.iter().chain(removed.iter()).any(|d| d.runs_igp);

        SnapshotDelta {
            added,
            removed,
            modified,
            links_added,
            links_removed,
            igp_affecting,
        }
    }
}

/// A device named by a delta (added or removed), with the facts the dirty
/// rules need about it.
#[derive(Clone, Debug)]
pub struct DeviceRef {
    /// The device hostname.
    pub hostname: String,
    /// Every peer the device declares (interfaces + BGP neighbors).
    pub peers: BTreeSet<String>,
    /// Every prefix the device can originate (networks, aggregates,
    /// statics). An added device announcing an already-known prefix leaves
    /// the family's cache key unchanged, so peer intersection alone cannot
    /// catch it — the dirty rules overlap this set with family prefixes.
    pub origin_prefixes: BTreeSet<Ipv4Prefix>,
    /// Whether the device has an IGP (IS-IS/OSPF) block.
    pub runs_igp: bool,
}

impl DeviceRef {
    fn of(cfg: &DeviceConfig) -> DeviceRef {
        DeviceRef {
            hostname: cfg.hostname.clone(),
            peers: declared_peers(cfg),
            origin_prefixes: origin_fingerprints(cfg).into_keys().collect(),
            runs_igp: cfg.isis.is_some(),
        }
    }
}

/// A device present in both snapshots whose content hash changed, with the
/// change classified by *kind*. The kinds are what let the verifier keep a
/// family clean when, say, only an unrelated origin announcement moved.
#[derive(Clone, Debug)]
pub struct ModifiedDevice {
    /// The device hostname.
    pub hostname: String,
    /// Origin announcements changed: `network` statements, aggregates,
    /// static routes, or redistribution sources.
    pub origins_changed: bool,
    /// The session/policy surface changed: route-maps, prefix-lists,
    /// community-lists, ACLs, BGP neighbors or AS, vendor, router-id, or
    /// protocol preferences.
    pub policy_changed: bool,
    /// The interface list changed (links may appear/disappear or change
    /// metric).
    pub interfaces_changed: bool,
    /// The IGP block changed.
    pub igp_changed: bool,
    /// Prefixes whose origin fingerprint differs between the two versions
    /// (used for the origin-overlap dirty rule).
    pub origin_prefix_delta: BTreeSet<Ipv4Prefix>,
    /// Declared peers, old ∪ new (session formation with an unmodified
    /// counterpart that pre-declared us goes through one of these).
    pub peers: BTreeSet<String>,
    /// Whether either version has an IGP block.
    pub runs_igp: bool,
}

/// Origin fingerprints of a config: for every prefix the device can
/// originate, a stable description of *how*. A differing fingerprint means
/// the seeding of that prefix (or the suppression of its aggregate
/// siblings) may change — the dirty rules compare them across snapshots,
/// and the sweep's behaviour classes compare them across prefixes.
pub fn origin_fingerprints(cfg: &DeviceConfig) -> BTreeMap<Ipv4Prefix, Vec<String>> {
    let mut out: BTreeMap<Ipv4Prefix, Vec<String>> = BTreeMap::new();
    let redistributes_static = cfg
        .bgp
        .as_ref()
        .map(|b| b.redistribute.contains(&RedistSource::Static))
        .unwrap_or(false);
    if let Some(bgp) = cfg.bgp.as_ref() {
        for p in &bgp.networks {
            out.entry(*p).or_default().push("net".to_string());
        }
        for a in &bgp.aggregates {
            out.entry(a.prefix)
                .or_default()
                .push(format!("agg:{}", a.summary_only));
        }
    }
    for s in &cfg.static_routes {
        out.entry(s.prefix).or_default().push(format!(
            "static:{}:{}:{redistributes_static}",
            s.next_hop, s.preference
        ));
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

impl ModifiedDevice {
    fn classify(old: &DeviceConfig, new: &DeviceConfig) -> ModifiedDevice {
        let origin_face = |c: &DeviceConfig| {
            (
                c.bgp
                    .as_ref()
                    .map(|b| (b.networks.clone(), b.aggregates.clone(), b.redistribute.clone())),
                c.static_routes.clone(),
            )
        };
        let policy_face = |c: &DeviceConfig| {
            (
                c.bgp.as_ref().map(|b| (b.asn, b.neighbors.clone())),
                c.route_maps.clone(),
                c.prefix_lists.clone(),
                c.community_lists.clone(),
                c.acls.clone(),
                c.vendor,
                c.router_id,
                c.preferences,
            )
        };
        let origins_changed = origin_face(old) != origin_face(new);
        let policy_changed = policy_face(old) != policy_face(new);
        let interfaces_changed = old.interfaces != new.interfaces;
        let igp_changed = old.isis != new.isis;

        let old_fp = origin_fingerprints(old);
        let new_fp = origin_fingerprints(new);
        let mut origin_prefix_delta: BTreeSet<Ipv4Prefix> = old_fp
            .keys()
            .chain(new_fp.keys())
            .filter(|p| old_fp.get(*p) != new_fp.get(*p))
            .copied()
            .collect();
        // A policy edit can flip what static redistribution admits, which
        // re-seeds statics even though no origin statement moved: treat
        // every static prefix as origin-dirty in that case.
        let redist_static = |c: &DeviceConfig| {
            c.bgp
                .as_ref()
                .map(|b| b.redistribute.contains(&RedistSource::Static))
                .unwrap_or(false)
        };
        if policy_changed && (redist_static(old) || redist_static(new)) {
            origin_prefix_delta.extend(old.static_routes.iter().map(|s| s.prefix));
            origin_prefix_delta.extend(new.static_routes.iter().map(|s| s.prefix));
        }

        let mut peers = declared_peers(old);
        peers.extend(declared_peers(new));
        ModifiedDevice {
            hostname: new.hostname.clone(),
            origins_changed,
            policy_changed,
            interfaces_changed,
            igp_changed,
            origin_prefix_delta,
            peers,
            runs_igp: old.isis.is_some() || new.isis.is_some(),
        }
    }

    /// Short `[origins policy interfaces igp]`-style tag for display.
    pub fn kinds(&self) -> String {
        let mut tags = Vec::new();
        if self.origins_changed {
            tags.push("origins");
        }
        if self.policy_changed {
            tags.push("policy");
        }
        if self.interfaces_changed {
            tags.push("interfaces");
        }
        if self.igp_changed {
            tags.push("igp");
        }
        tags.join("+")
    }
}

/// The difference between two configuration snapshots.
#[derive(Clone, Debug)]
pub struct SnapshotDelta {
    /// Devices present only in the new snapshot.
    pub added: Vec<DeviceRef>,
    /// Devices present only in the baseline.
    pub removed: Vec<DeviceRef>,
    /// Devices present in both whose content changed.
    pub modified: Vec<ModifiedDevice>,
    /// Links present only in the new snapshot (normalized pairs).
    pub links_added: Vec<(String, String)>,
    /// Links present only in the baseline.
    pub links_removed: Vec<(String, String)>,
    /// Whether the delta can alter the IGP graph — if so, the conditioned
    /// IS-IS database (and with it every iBGP session condition) is stale
    /// and every family must be re-simulated.
    pub igp_affecting: bool,
}

impl SnapshotDelta {
    /// Whether the snapshots are identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.modified.is_empty()
    }

    /// Total number of devices named by the delta.
    pub fn device_count(&self) -> usize {
        self.added.len() + self.removed.len() + self.modified.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_config;

    fn cfg(text: &str) -> DeviceConfig {
        parse_config(text).unwrap()
    }

    fn pair() -> Vec<DeviceConfig> {
        vec![
            cfg("hostname A\ninterface e0\n peer B\nrouter bgp 1\n network 10.0.0.0/24\n neighbor B remote-as 2\n"),
            cfg("hostname B\ninterface e0\n peer A\nrouter bgp 2\n neighbor A remote-as 1\n"),
        ]
    }

    #[test]
    fn identical_snapshots_have_empty_delta() {
        let a = ConfigSnapshot::new(pair());
        let b = ConfigSnapshot::new(pair());
        let d = a.diff(&b);
        assert!(d.is_empty());
        assert!(!d.igp_affecting);
        assert_eq!(a.device_hash("A"), b.device_hash("A"));
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = ConfigSnapshot::new(pair());
        let h1 = a.device_hash("A").unwrap();
        assert_eq!(h1, content_hash(a.device("A").unwrap()));
        let mut devs = pair();
        devs[0].bgp.as_mut().unwrap().networks.push("10.9.0.0/24".parse().unwrap());
        let b = ConfigSnapshot::new(devs);
        assert_ne!(h1, b.device_hash("A").unwrap());
    }

    #[test]
    fn origin_change_is_classified_with_prefix_delta() {
        let a = ConfigSnapshot::new(pair());
        let mut devs = pair();
        devs[0].bgp.as_mut().unwrap().networks.push("10.9.0.0/24".parse().unwrap());
        let b = ConfigSnapshot::new(devs);
        let d = a.diff(&b);
        assert_eq!(d.modified.len(), 1);
        let m = &d.modified[0];
        assert!(m.origins_changed && !m.policy_changed && !m.interfaces_changed);
        assert_eq!(
            m.origin_prefix_delta.iter().copied().collect::<Vec<_>>(),
            vec!["10.9.0.0/24".parse::<Ipv4Prefix>().unwrap()]
        );
        assert!(m.peers.contains("B"));
    }

    #[test]
    fn policy_change_is_classified_without_origin_delta() {
        let a = ConfigSnapshot::new(pair());
        let mut devs = pair();
        devs[0].bgp.as_mut().unwrap().neighbors[0].next_hop_self = true;
        let b = ConfigSnapshot::new(devs);
        let m = &a.diff(&b).modified[0];
        assert!(m.policy_changed && !m.origins_changed);
        assert!(m.origin_prefix_delta.is_empty());
    }

    #[test]
    fn add_and_remove_devices_and_links() {
        let a = ConfigSnapshot::new(pair());
        let mut devs = pair();
        devs[0].interfaces.push(crate::ir::InterfaceConfig {
            name: "e1".into(),
            peer: "C".into(),
            link_metric: 10,
            acl_in: None,
            acl_out: None,
        });
        devs.push(cfg(
            "hostname C\ninterface e0\n peer A\nrouter bgp 3\n network 10.3.0.0/24\n neighbor A remote-as 1\n",
        ));
        let b = ConfigSnapshot::new(devs);
        let d = a.diff(&b);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].hostname, "C");
        assert!(d.added[0].peers.contains("A"));
        assert!(d.added[0].origin_prefixes.contains(&"10.3.0.0/24".parse().unwrap()));
        assert_eq!(d.links_added, vec![("A".to_string(), "C".to_string())]);
        // And the reverse direction: C disappears.
        let r = b.diff(&a);
        assert_eq!(r.removed.len(), 1);
        assert_eq!(r.links_removed, vec![("A".to_string(), "C".to_string())]);
    }

    #[test]
    fn igp_edits_are_flagged_as_igp_affecting() {
        let isis_pair = || {
            vec![
                cfg("hostname A\ninterface e0\n peer B\nrouter isis\n area 0\n"),
                cfg("hostname B\ninterface e0\n peer A\nrouter isis\n area 0\n"),
            ]
        };
        let a = ConfigSnapshot::new(isis_pair());
        // Metric change on an IGP speaker: interfaces changed, IGP-affecting.
        let mut devs = isis_pair();
        devs[0].interfaces[0].link_metric = 77;
        let d = a.diff(&ConfigSnapshot::new(devs));
        assert!(d.modified[0].interfaces_changed);
        assert!(d.igp_affecting);
        // The same metric change on a BGP-only device is not.
        let plain = ConfigSnapshot::new(pair());
        let mut devs = pair();
        devs[0].interfaces[0].link_metric = 77;
        let d = plain.diff(&ConfigSnapshot::new(devs));
        assert!(!d.igp_affecting);
    }

    #[test]
    fn policy_edit_with_static_redistribution_dirties_static_prefixes() {
        let base = || {
            vec![cfg(
                "hostname A\ninterface e0\n peer B\n\
                 route-map RM permit 10\nrouter bgp 1\n neighbor B remote-as 2\n redistribute static\n\
                 ip route 10.5.0.0/24 B preference 1\n",
            )]
        };
        let a = ConfigSnapshot::new(base());
        let mut devs = base();
        devs[0].route_maps.get_mut("RM").unwrap().entries[0].action = crate::ir::Action::Deny;
        let d = a.diff(&ConfigSnapshot::new(devs));
        let m = &d.modified[0];
        assert!(m.policy_changed);
        assert!(m.origin_prefix_delta.contains(&"10.5.0.0/24".parse().unwrap()));
    }
}
