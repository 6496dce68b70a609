//! `Verifier::family_of` / `families` answer from a prefix → family index
//! built once per verifier. The reference here is the definition the index
//! replaced: the overlap closure computed by a fixed-point scan over all
//! known prefixes. Both must agree on every known prefix and on unknown
//! prefixes that cover, are covered by, or miss the known ones.

use std::collections::BTreeSet;

use hoyan::core::Verifier;
use hoyan::device::VsbProfile;
use hoyan::nettypes::{Ipv4Addr, Ipv4Prefix};
use hoyan::rt::rng::StdRng;
use hoyan::topogen::WanSpec;

/// The overlap closure of `prefix` among `known`, by fixed-point scan.
fn family_by_scan(known: &[Ipv4Prefix], prefix: Ipv4Prefix) -> Vec<Ipv4Prefix> {
    let mut family = vec![prefix];
    loop {
        let mut grew = false;
        for q in known {
            if family.contains(q) {
                continue;
            }
            if family.iter().any(|p| p.contains(*q) || q.contains(*p)) {
                family.push(*q);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    family.sort();
    family
}

fn families_by_scan(known: &[Ipv4Prefix]) -> Vec<Vec<Ipv4Prefix>> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for p in known {
        if seen.contains(p) {
            continue;
        }
        let fam = family_by_scan(known, *p);
        seen.extend(fam.iter().copied());
        out.push(fam);
    }
    out
}

#[test]
fn family_index_matches_the_overlap_closure_scan() {
    for (name, spec) in [
        ("tiny", WanSpec::tiny(7)),
        ("small", WanSpec::small(7)),
        ("wan_large", WanSpec::wan_large(7)),
        // The presets above announce flat /24s only; this one nests four
        // /24 leaves under an announced /22 per block, like `wan_paper`.
        (
            "small, /22 blocks",
            WanSpec {
                prefixes_per_pe: 8,
                block_prefixes: 4,
                ..WanSpec::small(7)
            },
        ),
    ] {
        let wan = spec.build();
        // The index does not depend on the IS-IS budget; 0 keeps the build
        // of the database cheap.
        let v = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(0)).unwrap();
        let known = v.known_prefixes().to_vec();
        assert!(known.len() > 2, "{name}: fixture announces prefixes");

        let families = families_by_scan(&known);
        assert_eq!(
            families.iter().any(|f| f.len() > 1),
            name.contains("blocks"),
            "{name}: nesting of the fixture"
        );
        assert_eq!(v.families(), families, "{name}: families");
        for p in &known {
            assert_eq!(v.family_of(*p), family_by_scan(&known, *p), "{name}: {p}");
        }

        // Unknown prefixes derived from known ones: shorter (covering, down
        // to spans that swallow several families), longer (covered), and
        // uniformly random ones (mostly disjoint from everything).
        let mut rng = StdRng::seed_from_u64(0xfa31_1e5);
        let mut probes = vec![Ipv4Prefix::DEFAULT];
        for _ in 0..300 {
            let p = known[rng.gen_range(0..known.len())];
            let shorter = rng.gen_range(0..p.len().max(1));
            probes.push(Ipv4Prefix::new(p.network(), shorter));
            if p.len() < 32 {
                let longer = rng.gen_range(p.len() + 1..33);
                let host = rng.next_u64() as u32
                    & !(u32::MAX.checked_shl(32 - p.len() as u32).unwrap_or(0));
                probes.push(Ipv4Prefix::new(Ipv4Addr(p.network().0 | host), longer));
            }
            probes.push(Ipv4Prefix::new(
                Ipv4Addr(rng.next_u64() as u32),
                rng.gen_range(0..33u8),
            ));
        }
        let mut unknown = 0;
        for p in probes {
            unknown += usize::from(!known.contains(&p));
            assert_eq!(
                v.family_of(p),
                family_by_scan(&known, p),
                "{name}: probe {p}"
            );
        }
        assert!(unknown > 300, "{name}: only {unknown} unknown probes");
    }
}
