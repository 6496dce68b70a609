//! Behaviour classes: the sweep's unit of work.
//!
//! A prefix family's simulation reads its prefixes in only a few places.
//! Everywhere else it sees sessions, links, attributes and conditions,
//! none of which depend on the prefix. Two families that agree on every
//! prefix-dependent input, member for member, therefore run *isomorphic*
//! simulations: the same worklist steps in the same order, the same BDD
//! operations on the same link variables, and the same drops. Only the
//! prefix names differ. The sweep simulates one representative per class
//! (its lowest family index) and renames the reports to the other members.
//! This is Plankton's packet-equivalence-class split, applied to Hoyan's
//! prefix families.
//!
//! ## The key
//!
//! Two families share a class only when their keys are *exactly* equal.
//! The key has one entry per member, in family order (the root first):
//!
//! - the family's *shape*: the member's length and its offset from the
//!   root. Aggregation couples members through containment, so
//!   `aggregate_trigger`, suppression and `mark_dirty` read only shape plus
//!   which aggregates exist;
//! - `is_default`, which `redistribution_admits` reads;
//! - on every device, the member's origin fingerprint
//!   ([`hoyan_config::origin_fingerprints`]): `network`, aggregate with
//!   `summary_only`, static with next hop, preference and redistribution.
//!   `seed`, `refresh_aggregates_for`, `suppression_cond` and `mark_dirty`
//!   read these;
//! - the outcome of every `match prefix-list` and `match prefix` clause of
//!   every route-map bound to a BGP neighbor. `clause_matches` evaluates
//!   these clauses in the ingress and egress policies.
//!
//! That is the complete list of prefix-dependent inputs. A new one must
//! extend the key, or classes become unsound. `tests/hermetic.rs` audits
//! the readers of these config fields and fails when one appears that this
//! module does not know about.

use std::collections::HashMap;

use hoyan_config::{Action, DeviceConfig, MatchClause, PrefixList, PrefixListEntry};
use hoyan_nettypes::Ipv4Prefix;
use hoyan_rt::hash::FxHashMap;

use crate::network::NetworkModel;

/// Groups `families` into behaviour classes. Each class is a list of family
/// indices in ascending order, so its first entry is the representative.
/// Classes are ordered by representative. A family with no twin is a class
/// of one.
pub(crate) fn partition(net: &NetworkModel, families: &[Vec<Ipv4Prefix>]) -> Vec<Vec<usize>> {
    let inputs = PrefixInputs::build(net);
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut by_key: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
    let mut key = Vec::new();
    for (i, fam) in families.iter().enumerate() {
        key.clear();
        inputs.family_key(fam, &mut key);
        match by_key.get(&key) {
            Some(&c) => classes[c].push(i),
            None => {
                by_key.insert(key.clone(), classes.len());
                classes.push(vec![i]);
            }
        }
    }
    classes
}

/// Every prefix-dependent input of a simulation, indexed by prefix.
struct PrefixInputs<'n> {
    /// Per origin prefix: `(device, interned fingerprint)` pairs, ascending
    /// by device.
    origins: FxHashMap<Ipv4Prefix, Vec<(u32, u32)>>,
    /// Per prefix: the exact-only bound lists that permit it, ascending.
    exact_permits: FxHashMap<Ipv4Prefix, Vec<u32>>,
    /// Bound lists with `ge`/`le` entries, evaluated per member.
    ranged: Vec<(u32, IndexedList<'n>)>,
    /// Per `match prefix` operand: its predicate id.
    prefix_clauses: FxHashMap<Ipv4Prefix, u32>,
}

impl<'n> PrefixInputs<'n> {
    fn build(net: &'n NetworkModel) -> PrefixInputs<'n> {
        let mut fingerprint_ids: HashMap<Vec<String>, u32> = HashMap::new();
        let mut origins: FxHashMap<Ipv4Prefix, Vec<(u32, u32)>> = FxHashMap::default();
        let mut exact_permits: FxHashMap<Ipv4Prefix, Vec<u32>> = FxHashMap::default();
        let mut ranged = Vec::new();
        let mut prefix_clauses: FxHashMap<Ipv4Prefix, u32> = FxHashMap::default();
        let mut n_lists = 0u32;
        let mut bound_clauses = Vec::new();
        for (d, dev) in net.devices.iter().enumerate() {
            for (p, fp) in hoyan_config::origin_fingerprints(&dev.config) {
                let next = fingerprint_ids.len() as u32;
                let id = *fingerprint_ids.entry(fp).or_insert(next);
                origins.entry(p).or_default().push((d as u32, id));
            }
            // One predicate per (device, bound prefix-list); a list named
            // by several clauses is evaluated once.
            let mut lists: Vec<&str> = Vec::new();
            bound_clauses.clear();
            bound_prefix_clauses(&dev.config, &mut bound_clauses);
            for clause in &bound_clauses {
                match clause {
                    MatchClause::PrefixList(name) if !lists.contains(&name.as_str()) => {
                        lists.push(name);
                    }
                    MatchClause::Prefix(q) => {
                        let next = prefix_clauses.len() as u32;
                        prefix_clauses.entry(*q).or_insert(next);
                    }
                    _ => {}
                }
            }
            for name in lists {
                // A missing list never matches: a constant, not an input.
                let Some(pl) = dev.config.prefix_lists.get(name) else {
                    continue;
                };
                let id = n_lists;
                n_lists += 1;
                let list = IndexedList::new(pl);
                if list.ranged.is_empty() {
                    // Exact-only: invert it, so a member costs one lookup
                    // however many such lists there are.
                    for (p, &(_, permit)) in &list.exact {
                        if permit {
                            exact_permits.entry(*p).or_default().push(id);
                        }
                    }
                } else {
                    ranged.push((id, list));
                }
            }
        }
        // `match prefix` predicates number after the lists.
        for id in prefix_clauses.values_mut() {
            *id += n_lists;
        }
        PrefixInputs {
            origins,
            exact_permits,
            ranged,
            prefix_clauses,
        }
    }

    /// Appends `fam`'s key to `key`. Every variable-length part carries its
    /// length, so equal keys decode to equal inputs.
    fn family_key(&self, fam: &[Ipv4Prefix], key: &mut Vec<u32>) {
        let Some(root) = fam.first() else {
            return;
        };
        let mut preds = Vec::new();
        for &p in fam {
            key.push(u32::from(p.len()));
            key.push(p.network().0.wrapping_sub(root.network().0));
            key.push(u32::from(p.is_default()));
            let origins = self.origins.get(&p).map_or(&[][..], Vec::as_slice);
            key.push(origins.len() as u32);
            for &(d, fp) in origins {
                key.push(d);
                key.push(fp);
            }
            preds.clear();
            if let Some(ids) = self.exact_permits.get(&p) {
                preds.extend_from_slice(ids);
            }
            for (id, list) in &self.ranged {
                if list.permits(p) {
                    preds.push(*id);
                }
            }
            if let Some(&id) = self.prefix_clauses.get(&p) {
                preds.push(id);
            }
            preds.sort_unstable();
            key.push(preds.len() as u32);
            key.extend_from_slice(&preds);
        }
    }
}

/// The prefix-dependent match clauses of every route-map bound to one of
/// `cfg`'s BGP neighbors, in or out.
fn bound_prefix_clauses<'c>(cfg: &'c DeviceConfig, out: &mut Vec<&'c MatchClause>) {
    let Some(bgp) = cfg.bgp.as_ref() else {
        return;
    };
    let bound = bgp
        .neighbors
        .iter()
        .flat_map(|n| [n.route_map_in.as_deref(), n.route_map_out.as_deref()])
        .flatten();
    for name in bound {
        let Some(rm) = cfg.route_maps.get(name) else {
            continue;
        };
        for entry in &rm.entries {
            out.extend(
                entry
                    .matches
                    .iter()
                    .filter(|m| matches!(m, MatchClause::PrefixList(_) | MatchClause::Prefix(_))),
            );
        }
    }
}

/// A prefix-list with its exact entries (no `ge`/`le`) indexed by prefix.
/// An exact entry matches only its own prefix, so one lookup finds the
/// first exact match, and only the `ge`/`le` entries before it need a scan.
struct IndexedList<'n> {
    /// First exact entry per prefix: `(position, permits)`.
    exact: FxHashMap<Ipv4Prefix, (usize, bool)>,
    /// Entries with `ge` or `le`, with their positions, in list order.
    ranged: Vec<(usize, &'n PrefixListEntry)>,
}

impl<'n> IndexedList<'n> {
    fn new(pl: &'n PrefixList) -> IndexedList<'n> {
        let mut exact = FxHashMap::default();
        let mut ranged = Vec::new();
        for (i, e) in pl.entries.iter().enumerate() {
            if e.ge.is_none() && e.le.is_none() {
                exact
                    .entry(e.prefix)
                    .or_insert((i, e.action == Action::Permit));
            } else {
                ranged.push((i, e));
            }
        }
        IndexedList { exact, ranged }
    }

    /// [`PrefixList::permits`]: the first matching entry decides, and an
    /// unmatched prefix is denied.
    fn permits(&self, p: Ipv4Prefix) -> bool {
        let exact = self.exact.get(&p).copied();
        let before = exact.map_or(usize::MAX, |(i, _)| i);
        for &(i, e) in &self.ranged {
            if i > before {
                break;
            }
            if e.matches(p) {
                return e.action == Action::Permit;
            }
        }
        exact.is_some_and(|(_, permit)| permit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_device::VsbProfile;
    use hoyan_nettypes::{pfx, Ipv4Addr};
    use hoyan_rt::rng::StdRng;

    #[test]
    fn indexed_lists_agree_with_the_linear_scan() {
        let mut rng = StdRng::seed_from_u64(7);
        let prefix = |rng: &mut StdRng| {
            let len = rng.gen_range(20u8..27);
            Ipv4Prefix::new(Ipv4Addr(0x0a00_0000 | (rng.gen_range(0u32..64) << 8)), len)
        };
        for _ in 0..200 {
            let entries = (0..rng.gen_range(0usize..12))
                .map(|_| {
                    let p = prefix(&mut rng);
                    let ranged = rng.gen_bool(0.3);
                    PrefixListEntry {
                        action: if rng.gen_bool(0.7) {
                            Action::Permit
                        } else {
                            Action::Deny
                        },
                        prefix: p,
                        ge: (ranged && rng.gen_bool(0.5)).then(|| p.len() + 1),
                        le: ranged.then_some(28),
                    }
                })
                .collect();
            let pl = PrefixList { entries };
            let indexed = IndexedList::new(&pl);
            for e in &pl.entries {
                assert_eq!(indexed.permits(e.prefix), pl.permits(e.prefix));
            }
            for _ in 0..50 {
                let p = prefix(&mut rng);
                assert_eq!(indexed.permits(p), pl.permits(p), "{pl:?} on {p}");
            }
        }
    }

    fn net(texts: &[&str]) -> NetworkModel {
        let configs = texts
            .iter()
            .map(|t| hoyan_config::parse_config(t).unwrap())
            .collect();
        NetworkModel::from_configs(configs, VsbProfile::ground_truth).unwrap()
    }

    #[test]
    fn families_split_on_every_prefix_dependent_input() {
        let n = net(&[
            "hostname DC\ninterface e0\n peer PE\nrouter bgp 65001\n network 10.0.0.0/22\n network 10.0.0.0/24\n network 10.0.4.0/22\n network 10.0.4.0/24\n network 10.0.8.0/22\n network 10.0.9.0/24\n network 10.0.12.0/22\n network 10.0.12.0/24\n network 10.0.16.0/22\n network 10.0.16.0/24\n neighbor PE remote-as 100\n",
            "hostname PE\ninterface e0\n peer DC\nip prefix-list L permit 10.0.0.0/16 ge 24 le 24\nip prefix-list L permit 10.0.0.0/22\nip prefix-list L permit 10.0.4.0/22\nip prefix-list L permit 10.0.8.0/22\nip prefix-list L permit 10.0.16.0/22\nroute-map IN deny 5\n match prefix 10.0.16.0/24\nroute-map IN permit 10\n match prefix-list L\nrouter bgp 100\n neighbor DC remote-as 65001\n neighbor DC route-map IN in\n",
        ]);
        let fam = |a: &str, b: &str| vec![pfx(a), pfx(b)];
        let families = vec![
            fam("10.0.0.0/22", "10.0.0.0/24"),
            fam("10.0.4.0/22", "10.0.4.0/24"),
            // Same prefix-list outcomes, different shape: the /24 sits at
            // another offset inside its /22.
            fam("10.0.8.0/22", "10.0.9.0/24"),
            // Same shape, but L does not permit the /22.
            fam("10.0.12.0/22", "10.0.12.0/24"),
            // Same as the first, except a `match prefix` clause hits the /24.
            fam("10.0.16.0/22", "10.0.16.0/24"),
        ];
        assert_eq!(
            partition(&n, &families),
            vec![vec![0, 1], vec![2], vec![3], vec![4]]
        );
    }

    #[test]
    fn origin_fingerprints_split_classes() {
        let n = net(&[
            "hostname A\nrouter bgp 1\n network 10.0.0.0/24\n network 10.0.1.0/24\n network 10.0.3.0/24\n aggregate-address 10.0.3.0/24\n",
            "hostname B\nrouter bgp 2\n network 10.0.2.0/24\n",
            "hostname C\nip route 10.0.1.0/24 A preference 5\n",
        ]);
        let families: Vec<Vec<Ipv4Prefix>> =
            ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"]
                .iter()
                .map(|p| vec![pfx(p)])
                .collect();
        // 10.0.1/24 also has a static on C; 10.0.2/24 is B's; 10.0.3/24 is
        // also an aggregate: four inputs, four classes.
        assert_eq!(partition(&n, &families).len(), 4);
        let twins = vec![vec![pfx("10.0.0.0/24")], vec![pfx("10.0.0.0/24")]];
        assert_eq!(partition(&n, &twins), vec![vec![0, 1]]);
    }
}
