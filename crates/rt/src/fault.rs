//! Seeded, site-keyed fault injection.
//!
//! Production code marks *injection sites* — places where a fault-tolerance
//! path can be exercised — with [`hit`]:
//!
//! ```
//! match hoyan_rt::fault::hit("verify.family", 3) {
//!     None => { /* normal path */ }
//!     Some(fault) => { /* surface `fault` through the error channel */ }
//! }
//! ```
//!
//! With no plan installed the call is a single relaxed atomic load — sites
//! compile to no-ops for every production run. Tests (and the `experiments
//! faults` harness) arm the process with [`install`], after which each site
//! decides **deterministically from `(site, index)` alone** whether it
//! fires: explicit index lists match exactly, and seeded probabilistic rules
//! hash `(seed, site, index)` through SplitMix64, so the fired set is
//! independent of call order, thread count and wall-clock time. That is what
//! lets the quarantine tests assert byte-identical outcomes at 1, 2 and 8
//! worker threads.
//!
//! A planned [`FaultKind::Panic`] fires *inside* [`hit`] (the caller never
//! sees it), so unwind-recovery paths are exercised exactly where a real
//! panic would originate. The other kinds are returned as a [`Fault`] for
//! the caller to route through its own error type.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::rng::SplitMix64;

/// What an armed rule does when its site fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Report an injected error ([`Fault::Error`]) to the caller.
    Error,
    /// Panic inside [`hit`] — exercises `catch_unwind` recovery paths.
    Panic,
    /// Report injected resource-budget exhaustion ([`Fault::OverBudget`]).
    OverBudget,
}

/// An injected fault returned to the caller. [`FaultKind::Panic`] never
/// reaches the caller — [`hit`] panics directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Surface an injected error through the caller's error channel.
    Error,
    /// Behave as if the caller's resource budget were exhausted.
    OverBudget,
}

/// Which `(site, index)` pairs a rule fires at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Selector {
    /// Fire at exactly these indices.
    Indices(BTreeSet<u64>),
    /// Fire at roughly `permille`/1000 of the indices, chosen by hashing
    /// `(seed, site, index)` — deterministic per pair, independent of call
    /// order.
    Seeded {
        /// Decorrelation seed mixed into the per-index hash.
        seed: u64,
        /// Firing rate out of 1000 (clamped to 1000).
        permille: u16,
    },
}

impl Selector {
    fn fires(&self, site: &str, index: u64) -> bool {
        match self {
            Selector::Indices(set) => set.contains(&index),
            Selector::Seeded { seed, permille } => {
                let mut g = SplitMix64(seed ^ fnv1a(site) ^ index.wrapping_mul(0x9E37_79B9));
                g.next_u64() % 1000 < u64::from(*permille).min(1000)
            }
        }
    }
}

/// One injection rule: at `site`, for the selected indices, do `kind`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// The site key passed to [`hit`] (e.g. `"verify.family"`).
    pub site: String,
    /// Which indices fire.
    pub selector: Selector,
    /// What firing does.
    pub kind: FaultKind,
}

/// A set of injection rules; the first rule matching `(site, index)` wins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no site ever fires).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends a rule firing `kind` at `site` for exactly `indices`.
    pub fn at(mut self, site: &str, indices: &[u64], kind: FaultKind) -> FaultPlan {
        self.rules.push(FaultRule {
            site: site.to_string(),
            selector: Selector::Indices(indices.iter().copied().collect()),
            kind,
        });
        self
    }

    /// Appends a seeded probabilistic rule: `kind` at `site` for about
    /// `permille`/1000 of the indices, decided by hashing `(seed, site,
    /// index)`.
    pub fn seeded(mut self, site: &str, seed: u64, permille: u16, kind: FaultKind) -> FaultPlan {
        self.rules.push(FaultRule {
            site: site.to_string(),
            selector: Selector::Seeded { seed, permille },
            kind,
        });
        self
    }

    /// Parses the `HOYAN_FAULTS` grammar: `;`-separated rules, each
    /// `site@selector=kind` where `selector` is a comma-separated index list
    /// or `~permille/seed`, and `kind` is `error`, `panic` or `overbudget`.
    ///
    /// ```
    /// use hoyan_rt::fault::FaultPlan;
    /// let plan = FaultPlan::parse("verify.family@3=panic;verify.family@~100/42=error");
    /// assert!(plan.is_ok());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for rule in spec.split(';').filter(|r| !r.trim().is_empty()) {
            let rule = rule.trim();
            let (head, kind) = rule
                .rsplit_once('=')
                .ok_or_else(|| format!("fault rule `{rule}` has no `=kind`"))?;
            let kind = match kind.trim() {
                "error" => FaultKind::Error,
                "panic" => FaultKind::Panic,
                "overbudget" => FaultKind::OverBudget,
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            let (site, sel) = head
                .split_once('@')
                .ok_or_else(|| format!("fault rule `{rule}` has no `@selector`"))?;
            let selector = if let Some(rest) = sel.strip_prefix('~') {
                let (permille, seed) = rest
                    .split_once('/')
                    .ok_or_else(|| format!("seeded selector `{sel}` needs `~permille/seed`"))?;
                Selector::Seeded {
                    seed: seed
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad seed in `{sel}`"))?,
                    permille: permille
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad permille in `{sel}`"))?,
                }
            } else {
                let indices: Result<BTreeSet<u64>, String> = sel
                    .split(',')
                    .map(|i| {
                        i.trim()
                            .parse()
                            .map_err(|_| format!("bad index `{i}` in `{sel}`"))
                    })
                    .collect();
                Selector::Indices(indices?)
            };
            plan.rules.push(FaultRule {
                site: site.trim().to_string(),
                selector,
                kind,
            });
        }
        Ok(plan)
    }

    fn decide(&self, site: &str, index: u64) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| r.site == site && r.selector.fires(site, index))
            .map(|r| r.kind)
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Arms the process-wide fault plan. Replaces any previous plan.
pub fn install(plan: FaultPlan) {
    *PLAN.lock().unwrap_or_else(|p| p.into_inner()) = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms fault injection; every site goes back to the no-op fast path.
pub fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.lock().unwrap_or_else(|p| p.into_inner()) = None;
}

/// Whether a plan is currently armed.
pub fn enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The injection point. Disabled: one relaxed atomic load, returns `None`.
/// Armed: decides from `(site, index)` alone whether — and how — to fire;
/// a planned [`FaultKind::Panic`] panics *here*, the other kinds are
/// returned for the caller to surface.
#[inline]
pub fn hit(site: &str, index: u64) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    hit_armed(site, index)
}

/// Whether [`hit`] would fire at `(site, index)`, asked without firing —
/// a planned panic does not unwind here. Lets a caller that would
/// otherwise skip the site (the sweep's behaviour classes do not run
/// their non-representative members) route a planned fault through it.
pub fn planned(site: &str, index: u64) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let guard = PLAN.lock().unwrap_or_else(|p| p.into_inner());
    guard
        .as_ref()
        .is_some_and(|p| p.decide(site, index).is_some())
}

#[cold]
fn hit_armed(site: &str, index: u64) -> Option<Fault> {
    let kind = {
        let guard = PLAN.lock().unwrap_or_else(|p| p.into_inner());
        guard.as_ref().and_then(|p| p.decide(site, index))?
    };
    match kind {
        FaultKind::Error => Some(Fault::Error),
        FaultKind::OverBudget => Some(Fault::OverBudget),
        FaultKind::Panic => panic!("injected fault: panic at {site}[{index}]"),
    }
}

/// FNV-1a over the site key: cheap, deterministic, stable across platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan installation is process-global; serialize the tests that arm it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sites_never_fire() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        assert!(!enabled());
        assert_eq!(hit("verify.family", 0), None);
    }

    #[test]
    fn index_rules_fire_exactly_where_planned() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(
            FaultPlan::new()
                .at("verify.family", &[1, 4], FaultKind::Error)
                .at("other.site", &[1], FaultKind::OverBudget),
        );
        assert_eq!(hit("verify.family", 0), None);
        assert_eq!(hit("verify.family", 1), Some(Fault::Error));
        assert_eq!(hit("verify.family", 4), Some(Fault::Error));
        assert_eq!(hit("other.site", 1), Some(Fault::OverBudget));
        assert_eq!(hit("unplanned.site", 1), None);
        assert!(planned("verify.family", 4) && !planned("verify.family", 0));
        clear();
        assert!(!planned("verify.family", 4));
        assert_eq!(hit("verify.family", 1), None);
    }

    #[test]
    fn planned_panic_fires_inside_hit() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(FaultPlan::new().at("panic.site", &[2], FaultKind::Panic));
        assert!(planned("panic.site", 2), "asking does not fire");
        let caught = std::panic::catch_unwind(|| hit("panic.site", 2));
        clear();
        let payload = caught.expect_err("planned panic must unwind");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("panic.site[2]"), "payload: {msg}");
    }

    #[test]
    fn seeded_rules_are_a_pure_function_of_site_and_index() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(FaultPlan::new().seeded("verify.family", 42, 250, FaultKind::Error));
        let first: Vec<Option<Fault>> = (0..64).map(|i| hit("verify.family", i)).collect();
        // Same pairs, different order: identical decisions.
        let second: Vec<Option<Fault>> = (0..64)
            .rev()
            .map(|i| hit("verify.family", i))
            .rev()
            .collect();
        assert_eq!(first, second);
        let fired = first.iter().filter(|f| f.is_some()).count();
        assert!(
            (1..64).contains(&fired),
            "a 25% rule over 64 indices should fire some but not all ({fired})"
        );
        clear();
    }

    #[test]
    fn parse_roundtrips_the_env_grammar() {
        let plan = FaultPlan::parse("verify.family@3=panic; verify.family@~100/7=error")
            .expect("valid spec");
        assert_eq!(
            plan,
            FaultPlan::new()
                .at("verify.family", &[3], FaultKind::Panic)
                .seeded("verify.family", 7, 100, FaultKind::Error)
        );
        assert_eq!(FaultPlan::parse("").expect("empty ok"), FaultPlan::new());
        assert!(FaultPlan::parse("site@1").is_err(), "missing kind");
        assert!(FaultPlan::parse("site@x=error").is_err(), "bad index");
        assert!(FaultPlan::parse("site@1=explode").is_err(), "bad kind");
        assert!(FaultPlan::parse("site@~5=error").is_err(), "missing seed");
    }
}
