//! The route selector: the BGP decision process, extended with the
//! transitive IS-IS weight attribute of Appendix C.
//!
//! Appendix C translates IS-IS into a path-vector protocol whose routes
//! carry an accumulated weight ranked *above* AS-path length; using one
//! comparator for both protocols lets one propagation engine serve both.

use std::cmp::Ordering;

use hoyan_nettypes::RouteAttrs;

/// Everything route selection may consult about one candidate route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The route's attributes.
    pub attrs: RouteAttrs,
    /// Learned over eBGP (preferred over iBGP late in the process).
    pub from_ebgp: bool,
    /// IGP metric to the next hop (lower preferred).
    pub igp_metric: u64,
    /// Number of iBGP reflection hops the route took (a proxy for BGP's
    /// cluster-list-length rule; lower preferred).
    pub ibgp_hops: u32,
    /// Router id of the advertising peer (final deterministic tie-break;
    /// lower preferred).
    pub peer_router_id: u32,
}

impl Candidate {
    /// A candidate with neutral tie-breakers.
    pub fn new(attrs: RouteAttrs) -> Self {
        Candidate {
            attrs,
            from_ebgp: true,
            igp_metric: 0,
            ibgp_hops: 0,
            peer_router_id: 0,
        }
    }
}

/// A borrowed [`Candidate`]: the same fields over a `&RouteAttrs`, so hot
/// paths (RIB insertion in `hoyan-core`) can rank routes without cloning
/// AS paths and community sets.
#[derive(Clone, Copy, Debug)]
pub struct CandidateRef<'a> {
    /// The route's attributes.
    pub attrs: &'a RouteAttrs,
    /// See [`Candidate::from_ebgp`].
    pub from_ebgp: bool,
    /// See [`Candidate::igp_metric`].
    pub igp_metric: u64,
    /// See [`Candidate::ibgp_hops`].
    pub ibgp_hops: u32,
    /// See [`Candidate::peer_router_id`].
    pub peer_router_id: u32,
}

impl Candidate {
    /// This candidate, borrowed.
    pub fn borrowed(&self) -> CandidateRef<'_> {
        CandidateRef {
            attrs: &self.attrs,
            from_ebgp: self.from_ebgp,
            igp_metric: self.igp_metric,
            ibgp_hops: self.ibgp_hops,
            peer_router_id: self.peer_router_id,
        }
    }
}

/// Compares two candidates; `Ordering::Less` means `a` is **better**.
///
/// The steps, in order (Figure 3's route selector):
/// 1. higher weight;
/// 2. higher local preference;
/// 3. lower accumulated IS-IS weight (Appendix C — outranks AS-path length);
/// 4. shorter AS path;
/// 5. lower origin code;
/// 6. lower MED;
/// 7. eBGP over iBGP;
/// 8. lower IGP metric to the next hop;
/// 9. fewer iBGP reflection hops (the cluster-list-length rule);
/// 10. lower peer router id.
pub fn cmp_candidates(a: &Candidate, b: &Candidate) -> Ordering {
    cmp_candidate_refs(&a.borrowed(), &b.borrowed())
}

/// [`cmp_candidates`] on borrowed candidates — the one place the decision
/// order is written down.
pub fn cmp_candidate_refs(a: &CandidateRef<'_>, b: &CandidateRef<'_>) -> Ordering {
    b.attrs
        .weight
        .cmp(&a.attrs.weight)
        .then(b.attrs.local_pref.cmp(&a.attrs.local_pref))
        .then(a.attrs.isis_weight.cmp(&b.attrs.isis_weight))
        .then(a.attrs.as_path.len().cmp(&b.attrs.as_path.len()))
        .then(a.attrs.origin.cmp(&b.attrs.origin))
        .then(a.attrs.med.cmp(&b.attrs.med))
        .then(b.from_ebgp.cmp(&a.from_ebgp))
        .then(a.igp_metric.cmp(&b.igp_metric))
        .then(a.ibgp_hops.cmp(&b.ibgp_hops))
        .then(a.peer_router_id.cmp(&b.peer_router_id))
}

/// Sorts candidates best-first. The sort is stable, so equal candidates
/// keep arrival order (and a final router-id tie-break makes true ties rare).
pub fn rank(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
    candidates.sort_by(cmp_candidates);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoyan_nettypes::{AsPath, Origin};

    fn base() -> Candidate {
        Candidate::new(RouteAttrs::default())
    }

    #[test]
    fn weight_beats_local_pref() {
        // The Figure 1 lesson: "larger weight overrides the larger local
        // preference".
        let mut hi_weight = base();
        hi_weight.attrs.weight = 100;
        hi_weight.attrs.local_pref = 300;
        let mut hi_lp = base();
        hi_lp.attrs.local_pref = 500;
        assert_eq!(cmp_candidates(&hi_weight, &hi_lp), Ordering::Less);
    }

    #[test]
    fn local_pref_beats_path_length() {
        let mut a = base();
        a.attrs.local_pref = 200;
        a.attrs.as_path = AsPath::from_slice(&[1, 2, 3, 4]);
        let mut b = base();
        b.attrs.as_path = AsPath::from_slice(&[1]);
        assert_eq!(cmp_candidates(&a, &b), Ordering::Less);
    }

    #[test]
    fn isis_weight_outranks_as_path_length() {
        let mut a = base();
        a.attrs.isis_weight = 10;
        a.attrs.as_path = AsPath::from_slice(&[1, 2, 3]);
        let mut b = base();
        b.attrs.isis_weight = 20;
        b.attrs.as_path = AsPath::from_slice(&[1]);
        assert_eq!(cmp_candidates(&a, &b), Ordering::Less);
    }

    #[test]
    fn shorter_path_wins() {
        let mut a = base();
        a.attrs.as_path = AsPath::from_slice(&[100]);
        let mut b = base();
        b.attrs.as_path = AsPath::from_slice(&[100, 200]);
        assert_eq!(cmp_candidates(&a, &b), Ordering::Less);
        // Figure 4: C ranks r1 (path "100") above r2 (path "100-200").
    }

    #[test]
    fn origin_then_med_then_ebgp() {
        let mut igp = base();
        igp.attrs.origin = Origin::Igp;
        let mut incomplete = base();
        incomplete.attrs.origin = Origin::Incomplete;
        assert_eq!(cmp_candidates(&igp, &incomplete), Ordering::Less);

        let mut low_med = base();
        low_med.attrs.med = 5;
        let mut high_med = base();
        high_med.attrs.med = 50;
        assert_eq!(cmp_candidates(&low_med, &high_med), Ordering::Less);

        let ebgp = base();
        let mut ibgp = base();
        ibgp.from_ebgp = false;
        assert_eq!(cmp_candidates(&ebgp, &ibgp), Ordering::Less);
    }

    #[test]
    fn cluster_list_proxy_breaks_reflection_ties() {
        let direct = base();
        let mut reflected = base();
        reflected.ibgp_hops = 1;
        assert_eq!(cmp_candidates(&direct, &reflected), Ordering::Less);
    }

    #[test]
    fn igp_metric_and_router_id_tiebreaks() {
        let mut near = base();
        near.igp_metric = 10;
        let mut far = base();
        far.igp_metric = 100;
        assert_eq!(cmp_candidates(&near, &far), Ordering::Less);

        let mut low_id = base();
        low_id.peer_router_id = 1;
        let mut high_id = base();
        high_id.peer_router_id = 9;
        assert_eq!(cmp_candidates(&low_id, &high_id), Ordering::Less);
    }

    #[test]
    fn rank_orders_best_first() {
        let mut worst = base();
        worst.attrs.as_path = AsPath::from_slice(&[1, 2, 3]);
        let mut mid = base();
        mid.attrs.as_path = AsPath::from_slice(&[1, 2]);
        let mut best = base();
        best.attrs.weight = 10;
        let ranked = rank(vec![worst.clone(), mid.clone(), best.clone()]);
        assert_eq!(ranked, vec![best, mid, worst]);
    }
}
