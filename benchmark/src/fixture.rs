//! Seeded inputs: the configuration directory handed to `hoyan`, the
//! request universe, and the pool of config pushes.
//!
//! A fixture is a fixed WAN (`WanSpec::<preset>(topology_seed)`) with
//! `FIXTURE_EDITS` seeded operator edits applied on top — new origin
//! prefixes at DC edges and retuned pinning statics, drawn by
//! `PerturbationPlan::generate_local(wan, seed, ..)`. The WAN's shape stays
//! put while `--seed` varies the snapshot, because the shape alone moves a
//! paper-scale sweep by ±20 % (8.3 s to 12.3 s over seeds 1–6 and 42):
//! drawn per run it would drown every bound this benchmark sets. The
//! topology seed is its own argument (`--topology-seed`, default 42), and a
//! claim must also hold on another one (see README.md, held-out seeds).
//!
//! The program under test only ever sees the written directory or the
//! pushed texts.

use std::path::Path;

use hoyan_config::emit::emit_config;
use hoyan_config::DeviceConfig;
use hoyan_topogen::{Perturbation, PerturbationPlan, Wan, WanSpec};

/// Operator edits applied to the base WAN to make the snapshot of a seed.
pub const FIXTURE_EDITS: usize = 16;
/// Further edits drawn from the same plan and kept for `whatif` pushes
/// (same plan, later indices: an added origin never repeats a prefix).
pub const PUSH_POOL: usize = 48;

/// Which WAN a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// `WanSpec::wan_paper`: 112 devices, ~10 k prefixes, ~2 k families.
    Paper,
    /// `WanSpec::medium`: 150 devices, 80 IS-IS core routers, ~110 prefixes.
    Igp,
    /// `WanSpec::small`, the `--quick` stand-in for `Paper`.
    QuickPaper,
    /// `WanSpec::tiny`, the `--quick` stand-in for `Igp`.
    QuickIgp,
}

impl Topology {
    /// The small stand-in `--quick` runs on.
    pub fn quick(self) -> Topology {
        match self {
            Topology::Paper | Topology::QuickPaper => Topology::QuickPaper,
            Topology::Igp | Topology::QuickIgp => Topology::QuickIgp,
        }
    }

    fn spec(self, topology_seed: u64) -> WanSpec {
        match self {
            Topology::Paper => WanSpec::wan_paper(topology_seed),
            Topology::Igp => WanSpec::medium(topology_seed),
            Topology::QuickPaper => WanSpec::small(topology_seed),
            Topology::QuickIgp => WanSpec::tiny(topology_seed),
        }
    }
}

/// One generated snapshot plus what the workloads draw from.
pub struct Fixture {
    /// The unedited WAN (wide / IGP pushes are drawn against it).
    pub wan: Wan,
    /// The snapshot: the WAN with this seed's edits applied.
    pub configs: Vec<DeviceConfig>,
    /// Local edits not yet applied, in plan order — the push pool.
    pub pushes: Vec<Perturbation>,
}

impl Fixture {
    /// Deterministic in `(topology, topology_seed, seed)`.
    pub fn generate(topology: Topology, topology_seed: u64, seed: u64) -> Fixture {
        let wan = topology.spec(topology_seed).build();
        let mut plan =
            PerturbationPlan::generate_local(&wan, seed, FIXTURE_EDITS + PUSH_POOL).perturbations;
        let pushes = plan.split_off(FIXTURE_EDITS.min(plan.len()));
        let configs = PerturbationPlan {
            perturbations: plan,
        }
        .apply(&wan.configs);
        Fixture {
            wan,
            configs,
            pushes,
        }
    }

    /// Every announced prefix of the snapshot, sorted and distinct.
    pub fn prefixes(&self) -> Vec<String> {
        let mut all: Vec<_> = self
            .configs
            .iter()
            .filter_map(|c| c.bgp.as_ref())
            .flat_map(|b| b.networks.iter().copied())
            .collect();
        all.sort();
        all.dedup();
        all.into_iter().map(|p| p.to_string()).collect()
    }

    /// Every hostname of the snapshot, in generator order.
    pub fn devices(&self) -> Vec<String> {
        self.configs.iter().map(|c| c.hostname.clone()).collect()
    }
}

/// Writes one `<hostname>.cfg` per device into a fresh `dir`.
pub fn write_dir(configs: &[DeviceConfig], dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for cfg in configs {
        std::fs::write(dir.join(format!("{}.cfg", cfg.hostname)), emit_config(cfg))?;
    }
    Ok(())
}

/// Applies one edit; returns the edited snapshot and the texts of the
/// devices it changed (empty when the edit is a no-op on this snapshot,
/// e.g. a static already at the drawn preference).
pub fn apply_push(
    configs: &[DeviceConfig],
    push: &Perturbation,
) -> (Vec<DeviceConfig>, Vec<String>) {
    let next = PerturbationPlan {
        perturbations: vec![push.clone()],
    }
    .apply(configs);
    let changed = configs
        .iter()
        .zip(&next)
        .filter(|(old, new)| old != new)
        .map(|(_, new)| emit_config(new))
        .collect();
    (next, changed)
}

/// Walks a push pool over an evolving snapshot: yields each edit that
/// changes it, with the texts to push, and skips the no-ops.
pub struct PushWalk<'a> {
    /// The snapshot with every yielded edit applied.
    pub state: Vec<DeviceConfig>,
    pool: std::slice::Iter<'a, Perturbation>,
}

impl<'a> PushWalk<'a> {
    /// Starts at `configs` with all of `pool` ahead.
    pub fn new(configs: &[DeviceConfig], pool: &'a [Perturbation]) -> PushWalk<'a> {
        PushWalk {
            state: configs.to_vec(),
            pool: pool.iter(),
        }
    }
}

impl<'a> Iterator for PushWalk<'a> {
    type Item = (&'a Perturbation, Vec<String>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let push = self.pool.next()?;
            let (next, texts) = apply_push(&self.state, push);
            if !texts.is_empty() {
                self.state = next;
                return Some((push, texts));
            }
        }
    }
}

/// The first policy-wide (`PolicyLocalPref`) and the first IGP-affecting
/// (`LinkMetric`) edit of a mixed plan drawn from `seed`.
pub fn wide_and_igp_push(wan: &Wan, seed: u64) -> (Option<Perturbation>, Option<Perturbation>) {
    let plan = PerturbationPlan::generate(wan, seed, 32).perturbations;
    let wide = plan
        .iter()
        .find(|p| matches!(p, Perturbation::PolicyLocalPref { .. }))
        .cloned();
    let igp = plan
        .iter()
        .find(|p| matches!(p, Perturbation::LinkMetric { .. }))
        .cloned();
    (wide, igp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(f: &Fixture) -> Vec<String> {
        f.configs.iter().map(emit_config).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_fixture_and_pushes() {
        let a = Fixture::generate(Topology::QuickPaper, 42, 7);
        let b = Fixture::generate(Topology::QuickPaper, 42, 7);
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(a.pushes, b.pushes);
        assert_eq!(a.prefixes(), b.prefixes());
    }

    #[test]
    fn another_seed_gives_another_snapshot_on_the_same_wan() {
        let a = Fixture::generate(Topology::QuickPaper, 42, 7);
        let b = Fixture::generate(Topology::QuickPaper, 42, 8);
        assert_eq!(a.devices(), b.devices());
        assert_ne!(texts(&a), texts(&b));
        let c = Fixture::generate(Topology::QuickPaper, 43, 7);
        assert_ne!(texts(&a), texts(&c));
    }

    #[test]
    fn the_snapshot_differs_from_the_bare_wan_and_round_trips() {
        let f = Fixture::generate(Topology::QuickIgp, 42, 3);
        assert_ne!(f.configs, f.wan.configs);
        for cfg in &f.configs {
            let parsed = hoyan_config::parse_config(&emit_config(cfg)).unwrap();
            assert_eq!(&parsed, cfg);
        }
    }

    #[test]
    fn pushes_change_exactly_the_devices_they_name() {
        let f = Fixture::generate(Topology::QuickPaper, 42, 5);
        let mut walk = PushWalk::new(&f.configs, &f.pushes);
        let mut effective = 0;
        for (_, changed) in walk.by_ref() {
            assert_eq!(changed.len(), 1, "a local edit touches one device");
            effective += 1;
        }
        assert!(effective >= PUSH_POOL / 2);
        // Re-applying an applied edit is the no-op the walk skips.
        let (_, again) = apply_push(&walk.state, f.pushes.last().unwrap());
        assert!(again.is_empty());
        assert!(PushWalk::new(&walk.state, &f.pushes[PUSH_POOL - 1..])
            .next()
            .is_none());
    }
}
