//! The IS-IS budget follows the query (DESIGN.md, "IS-IS budget"). A
//! conditioned IS-IS database built at budget `k'` is exact on every
//! scenario of at most `k'` failures, so a sweep at failure budget `k` over a
//! database built at exactly `k` must report what one over the budget-3
//! database reports: the same scope and the same fragile devices for every
//! prefix.

use hoyan::core::{SweepReport, Verifier};
use hoyan::device::VsbProfile;
use hoyan::nettypes::{Ipv4Prefix, NodeId};
use hoyan::topogen::WanSpec;

type Verdicts = Vec<(Ipv4Prefix, Vec<NodeId>, Vec<NodeId>)>;

fn verdicts(swept: SweepReport) -> Verdicts {
    assert!(swept.quarantined.is_empty());
    swept
        .reports
        .into_iter()
        .map(|r| (r.prefix, r.scope, r.fragile))
        .collect()
}

fn check(spec: WanSpec) {
    let configs = spec.build().configs;
    let at_3 = Verifier::new(configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    for k in 0..=2 {
        let at_k = Verifier::new(configs.clone(), VsbProfile::ground_truth, Some(k)).unwrap();
        let want = verdicts(at_3.verify_all_routes(k, 2).unwrap());
        let got = verdicts(at_k.verify_all_routes(k, 2).unwrap());
        assert!(
            k == 0 || want.iter().any(|(_, _, fragile)| !fragile.is_empty()),
            "k={k}: no fragile verdict to compare"
        );
        assert_eq!(got, want, "k={k}");
    }
}

#[test]
fn small_at_the_query_budget_gives_the_budget_3_verdicts() {
    check(WanSpec::small(7));
}

/// The budget-3 database of `medium` takes about a minute to build
/// unoptimized (2 s optimized), so this leg runs in optimized test builds:
/// `cargo test --release --test isis_budget`.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
fn medium_at_the_query_budget_gives_the_budget_3_verdicts() {
    check(WanSpec::medium(42));
}
