//! The adapter between the benchmark and the hoyan library: every call the
//! traced run (and the oracle) makes into `hoyan_config`, `hoyan_core`,
//! `hoyan_logic`, `hoyan_obs` and `hoyan_baselines` lives in this file, so a
//! later API-collapsing change knows exactly which signatures are
//! load-bearing (README.md lists them).
//!
//! Three things are built here:
//!
//! * [`run_pipeline`] — the CLI's `sweep` sequence performed in-process,
//!   one benchmark-side span per layer call and one `hoyan_obs` snapshot
//!   per call, which is where every per-layer batch metric comes from;
//! * [`push_replica`] — the daemon's `whatif` steps replayed in-process,
//!   for the push-path breakdown;
//! * [`oracle_cases`] — the independent sampled oracle
//!   (`hoyan_baselines::concrete::converge`), which shares only the device
//!   models with the verifier under test.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hoyan_baselines::concrete::converge;
use hoyan_config::{parse_config, ConfigSnapshot, DeviceConfig};
use hoyan_core::{CompiledNetwork, FamilyCache, IsisDb, NetworkModel, SweepOptions, Verifier};
use hoyan_device::VsbProfile;
use hoyan_logic::{Bdd, BddManager};
use hoyan_nettypes::{Ipv4Prefix, LinkId};
use hoyan_rt::rng::StdRng;

use crate::stats::median;
use crate::trace::Tracer;

/// Metric name → value, as reported under `per_layer`.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The failure budget of the IS-IS precomputation, as the CLI and the
/// daemon both derive it from the sweep's `k`.
fn isis_k(k: u32) -> Option<u32> {
    Some(k.max(3))
}

/// Everything `hoyan_obs` accumulated since the previous take; the
/// registry is zeroed so the next layer starts from nothing.
struct ObsTake {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    spans: BTreeMap<String, hoyan_obs::SpanAgg>,
}

impl ObsTake {
    fn take() -> ObsTake {
        let take = ObsTake {
            counters: hoyan_obs::counter_values(),
            gauges: hoyan_obs::gauge_values(),
            spans: hoyan_obs::span_values(),
        };
        hoyan_obs::reset();
        take
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0) as f64
    }

    /// Thread-seconds under every span path whose last segment is `name`.
    fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .map(|(_, agg)| agg.total_ns as f64 / 1e9)
            .sum::<f64>()
            + 0.0
    }
}

fn ratio(useful: f64, attempted: f64) -> f64 {
    if attempted > 0.0 {
        useful / attempted
    } else {
        0.0
    }
}

/// One in-process pass over the CLI's `sweep` sequence.
pub struct PipelineRun {
    /// Per-layer metrics (walls always; counts only on a traced pass).
    pub metrics: Metrics,
    /// First call to last drop: the in-process end-to-end wall.
    pub wall_s: f64,
    /// Sum of the layer walls; must cover `wall_s` (the sum invariant).
    pub layer_sum_s: f64,
    /// The report exactly as the CLI prints it.
    pub report: String,
    /// Devices holding a route now, for each prefix asked for in `scope_of`.
    pub scope: BTreeMap<String, BTreeSet<String>>,
}

/// Read dir → parse → snapshot → network model → IS-IS → verifier → sweep
/// → render, as `hoyan sweep <dir> --k K --threads T` does it. With
/// `traced`, `hoyan_obs` spans are on and the registry is read and zeroed
/// after every layer; without, the pass is the untraced reference the
/// tracing overhead is measured against.
pub fn run_pipeline(
    dir: &Path,
    k: u32,
    threads: usize,
    traced: bool,
    scope_of: &[String],
    tracer: &mut Tracer,
) -> Result<PipelineRun, String> {
    hoyan_obs::set_enabled(traced);
    hoyan_obs::set_quiet(true);
    hoyan_obs::reset();
    let mut m = Metrics::new();
    let mut layer_sum_s = 0.0;
    let start = Instant::now();

    let (texts, load_s) = tracer.span("config.load", |_| -> Result<Vec<String>, String> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "cfg"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect()
    });
    let texts = texts?;
    let bytes: usize = texts.iter().map(String::len).sum();
    let lines: usize = texts.iter().map(|t| t.lines().count()).sum();
    m.insert("config.load_s", load_s);
    m.insert("config.bytes", bytes as f64);
    layer_sum_s += load_s;

    let (configs, parse_s) = tracer.span("config.parse", |_| {
        texts
            .iter()
            .map(|t| parse_config(t).map_err(|e| e.to_string()))
            .collect::<Result<Vec<DeviceConfig>, String>>()
    });
    let configs = configs?;
    drop(texts);
    m.insert("config.parse_s", parse_s);
    m.insert("config.parse_lines_per_s", ratio(lines as f64, parse_s));
    layer_sum_s += parse_s;

    let (devices, snapshot_s) = tracer.span("config.snapshot", |_| {
        ConfigSnapshot::new(configs).into_devices()
    });
    m.insert("config.snapshot_s", snapshot_s);
    layer_sum_s += snapshot_s;

    let (net, network_s) = tracer.span("network.build", |_| {
        NetworkModel::from_configs(devices, VsbProfile::ground_truth).map_err(|e| e.to_string())
    });
    let net = net?;
    m.insert("network.build_s", network_s);
    m.insert("network.devices", net.topology.node_count() as f64);
    m.insert("network.links", net.topology.link_count() as f64);
    m.insert(
        "network.sessions",
        net.sessions.iter().map(Vec::len).sum::<usize>() as f64,
    );
    layer_sum_s += network_s;
    if traced {
        ObsTake::take();
    }

    let (isis, isis_s) = tracer.span("isis.build", |_| {
        IsisDb::build(&net, isis_k(k)).map_err(|e| e.to_string())
    });
    let isis = isis?;
    m.insert("isis.build_s", isis_s);
    layer_sum_s += isis_s;
    if traced {
        // The per-destination managers flushed on drop inside `build`; the
        // merged database's own manager is still alive, so its tallies are
        // added by hand.
        let obs = ObsTake::take();
        let own = isis.mgr.tallies();
        let hits = obs.counter("bdd.ite_cache_hits") + own.ite_cache_hits as f64;
        let misses = obs.counter("bdd.ite_cache_misses") + own.ite_cache_misses as f64;
        m.insert("isis.bdd_ops", obs.counter("bdd.ops") + own.ops as f64);
        m.insert("isis.ite_hit_rate", ratio(hits, hits + misses));
        m.insert("isis.spf_runs", obs.counter("isis.spf_runs"));
        m.insert(
            "isis.peak_nodes",
            obs.gauge("bdd.peak_nodes").max(own.peak_live as f64),
        );
        m.insert("isis.thread_s", obs.span_s("isis.spf"));
    }

    let (verifier, construct_s) = tracer.span("verifier.new", |_| {
        Verifier::from_compiled(CompiledNetwork {
            net: Arc::new(net),
            isis: Arc::new(isis),
            isis_k: isis_k(k),
        })
    });
    layer_sum_s += construct_s;

    let (swept, sweep_s) = tracer.span("sweep", |_| {
        verifier
            .verify_all_routes_opts(k, threads, &SweepOptions::default())
            .map_err(|e| e.to_string())
    });
    let swept = swept?;
    m.insert("sweep.wall_s", sweep_s);
    m.insert("sweep.quarantined", swept.quarantined.len() as f64);
    layer_sum_s += sweep_s;
    if traced {
        let obs = ObsTake::take();
        let hits = obs.counter("bdd.ite_cache_hits");
        m.insert("sweep.sim_thread_s", obs.span_s("verify.sim"));
        m.insert("sweep.query_thread_s", obs.span_s("verify.query"));
        m.insert("sweep.shared_base_s", obs.span_s("verify.shared_base"));
        m.insert("sweep.schedule_s", obs.span_s("verify.schedule"));
        m.insert("sweep.families", obs.counter("verify.families"));
        m.insert("sweep.prefixes", obs.counter("verify.prefixes"));
        m.insert("sweep.propagate_steps", obs.counter("propagate.steps"));
        m.insert("sweep.delivered", obs.counter("propagate.delivered"));
        m.insert(
            "sweep.dropped_over_k",
            obs.counter("propagate.dropped_over_k"),
        );
        m.insert(
            "sweep.dropped_policy",
            obs.counter("propagate.dropped_policy"),
        );
        m.insert("sweep.sched_batches", obs.counter("verify.sched_batches"));
        m.insert("sweep.bdd_ops", obs.counter("bdd.ops"));
        m.insert(
            "sweep.ite_hit_rate",
            ratio(hits, hits + obs.counter("bdd.ite_cache_misses")),
        );
        m.insert("sweep.gc_runs", obs.counter("bdd.gc_runs"));
        m.insert("sweep.peak_nodes", obs.gauge("bdd.peak_nodes"));
    }

    let (report, render_s) = tracer.span("report.render", |_| {
        let mut out = format!("swept {} prefixes at k={k} in 0s\n", swept.reports.len());
        for r in swept.reports.iter().filter(|r| !r.fragile.is_empty()) {
            let names: Vec<&str> = r
                .fragile
                .iter()
                .map(|n| verifier.net.topology.name(*n))
                .collect();
            out.push_str(&format!(
                "  {}: not {k}-failure resilient at {:?}\n",
                r.prefix, names
            ));
        }
        out
    });
    m.insert("report.render_s", render_s);
    m.insert("report.bytes", report.len() as f64);
    m.insert("report.fragile_lines", (report.lines().count() - 1) as f64);
    layer_sum_s += render_s;

    let wanted: HashSet<Ipv4Prefix> = scope_of.iter().filter_map(|p| p.parse().ok()).collect();
    let scope = swept
        .reports
        .iter()
        .filter(|r| wanted.contains(&r.prefix))
        .map(|r| {
            let holders = r
                .scope
                .iter()
                .map(|n| verifier.net.topology.name(*n).to_string())
                .collect();
            (r.prefix.to_string(), holders)
        })
        .collect();

    // The CLI drops the report and the verifier before `main` returns, so
    // teardown is part of config dir → exit and gets its own layer.
    let ((), drop_s) = tracer.span("pipeline.drop", |_| {
        drop(swept);
        drop(verifier);
    });
    m.insert("pipeline.drop_s", drop_s);
    layer_sum_s += drop_s;
    let wall_s = start.elapsed().as_secs_f64();
    hoyan_obs::set_enabled(false);
    hoyan_obs::reset();

    Ok(PipelineRun {
        metrics: m,
        wall_s,
        layer_sum_s,
        report,
        scope,
    })
}

/// Fixed-size formula workload on the public `BddManager` API. Each round
/// builds two reachability-style conditions (an OR of 8 four-link paths
/// over 40 link variables: a few thousand nodes each, ~40 k ops per round), combines them the way a conditioned RIB merge
/// does (`and`, `or`, `and_not`) and asks each result for its cheapest
/// falsifying failure set. Rounds share one manager, so the unique table
/// and the ITE cache see reuse, and a GC with no roots between rounds keeps
/// the arena bounded (`quick` runs a tenth of the rounds). The seed is
/// fixed: this is a kernel speed probe, not a workload input.
pub fn bdd_kernel_ops_per_s(quick: bool) -> f64 {
    const VARS: u32 = 40;
    let rounds = if quick { 30 } else { 300 };
    let mut rng = StdRng::seed_from_u64(0x6b65_726e_656c);
    let mut mgr = BddManager::new();
    let mut condition = |mgr: &mut BddManager| {
        let paths: Vec<Bdd> = (0..8)
            .map(|_| {
                let links: Vec<Bdd> = (0..4).map(|_| mgr.var(rng.gen_range(0..VARS))).collect();
                mgr.and_all(links)
            })
            .collect();
        mgr.or_all(paths)
    };
    let start = Instant::now();
    for _ in 0..rounds {
        let (a, b) = (condition(&mut mgr), condition(&mut mgr));
        for merged in [mgr.and(a, b), mgr.or(a, b), mgr.and_not(a, b)] {
            std::hint::black_box(mgr.min_failures_to_falsify(merged));
        }
        if mgr.should_gc() {
            mgr.gc([]);
        }
    }
    mgr.tallies().ops as f64 / start.elapsed().as_secs_f64()
}

/// One sampled oracle case: a prefix and a single dead link, converged by
/// the concrete simulator with and without the failure.
pub struct OracleCase {
    /// The sampled prefix.
    pub prefix: String,
    /// The failed link, as its two end hostnames.
    pub dead_link: (String, String),
    /// Devices holding a route with every link alive: each must be
    /// reported reachable.
    pub reachable: BTreeSet<String>,
    /// Devices that hold a route until the link dies: each must be in the
    /// prefix's fragile list (a single failure breaks it).
    pub loses_route: BTreeSet<String>,
}

/// Draws `n` seeded (prefix, dead link) pairs and converges each. Odd
/// draws take the link from the neighbourhood of the prefix's origin (where
/// a single failure actually bites), even draws from the whole topology.
pub fn oracle_cases(
    configs: &[DeviceConfig],
    seed: u64,
    n: usize,
) -> Result<Vec<OracleCase>, String> {
    let net = NetworkModel::from_configs(configs.to_vec(), VsbProfile::ground_truth)
        .map_err(|e| e.to_string())?;
    let topo = &net.topology;
    // Everything a family can contain: the overlap closure couples a prefix
    // with its aggregates, covering statics and more-specifics.
    let mut known: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    let mut announced: Vec<(Ipv4Prefix, &str)> = Vec::new();
    for cfg in configs {
        if let Some(bgp) = cfg.bgp.as_ref() {
            known.extend(bgp.networks.iter().copied());
            known.extend(bgp.aggregates.iter().map(|a| a.prefix));
            announced.extend(bgp.networks.iter().map(|p| (*p, cfg.hostname.as_str())));
        }
        known.extend(cfg.static_routes.iter().map(|s| s.prefix));
    }
    announced.sort();
    if announced.is_empty() || topo.link_count() == 0 {
        return Err("fixture announces no prefix or has no link".to_string());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::with_capacity(n);
    for i in 0..n {
        let (prefix, origin) = announced[rng.gen_range(0..announced.len())];
        let mut family = vec![prefix];
        loop {
            let before = family.len();
            for q in &known {
                if !family.contains(q) && family.iter().any(|p| p.contains(*q) || q.contains(*p)) {
                    family.push(*q);
                }
            }
            if family.len() == before {
                break;
            }
        }
        let near: Vec<LinkId> = topo
            .node(origin)
            .map(|o| {
                let mut links: Vec<LinkId> = topo.neighbors(o).iter().map(|(_, l)| *l).collect();
                for (peer, _) in topo.neighbors(o) {
                    links.extend(topo.neighbors(*peer).iter().map(|(_, l)| *l));
                }
                links.sort();
                links.dedup();
                links
            })
            .unwrap_or_default();
        let link = if i % 2 == 1 && !near.is_empty() {
            near[rng.gen_range(0..near.len())]
        } else {
            LinkId(rng.gen_range(0..topo.link_count() as u32))
        };
        let alive = converge(&net, &family, &HashSet::new());
        let failed = converge(&net, &family, &HashSet::from([link]));
        let mut reachable = BTreeSet::new();
        let mut loses_route = BTreeSet::new();
        for node in topo.nodes() {
            if alive.has_route(node, prefix) {
                reachable.insert(topo.name(node).to_string());
                if !failed.has_route(node, prefix) {
                    loses_route.insert(topo.name(node).to_string());
                }
            }
        }
        let (a, b) = topo.link_ends(link);
        cases.push(OracleCase {
            prefix: prefix.to_string(),
            dead_link: (topo.name(a).to_string(), topo.name(b).to_string()),
            reachable,
            loses_route,
        });
    }
    Ok(cases)
}

/// The resident state a push replaces: what the daemon keeps behind its
/// `RwLock<Arc<..>>`.
struct Resident {
    snapshot: ConfigSnapshot,
    cache: FamilyCache,
}

/// Walls and counts of one replayed `whatif`.
struct PushSteps {
    parse_s: f64,
    diff_s: f64,
    model_s: f64,
    isis_s: f64,
    classify_s: f64,
    reverify_s: f64,
    recomputed: usize,
    reused: usize,
}

impl PushSteps {
    fn total_s(&self) -> f64 {
        self.parse_s + self.diff_s + self.model_s + self.isis_s + self.classify_s + self.reverify_s
    }
}

/// Replays the daemon's `handle_whatif` on `texts`: parse and merge, diff,
/// rebuild model and IS-IS, classify, re-verify the dirty families, swap.
fn replay_push(
    cur: &mut Resident,
    texts: &[String],
    k: u32,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<PushSteps, String> {
    let (devices, parse_s) = tracer.span("push.parse", |_| -> Result<_, String> {
        let mut devices = cur.snapshot.devices().to_vec();
        for text in texts {
            let cfg = parse_config(text).map_err(|e| e.to_string())?;
            match devices.iter_mut().find(|d| d.hostname == cfg.hostname) {
                Some(slot) => *slot = cfg,
                None => devices.push(cfg),
            }
        }
        Ok(devices)
    });
    let devices = devices?;
    let ((next, delta), diff_s) = tracer.span("push.diff", |_| {
        let next = ConfigSnapshot::new(devices);
        let delta = cur.snapshot.diff(&next);
        (next, delta)
    });
    if delta.is_empty() {
        return Err("replayed push changed nothing".to_string());
    }
    let (net, model_s) = tracer.span("push.model", |_| {
        NetworkModel::from_configs(next.devices().to_vec(), VsbProfile::ground_truth)
            .map_err(|e| e.to_string())
    });
    let net = net?;
    let (isis, isis_s) = tracer.span("push.isis", |_| {
        IsisDb::build(&net, isis_k(k)).map_err(|e| e.to_string())
    });
    let verifier = Verifier::from_compiled(CompiledNetwork {
        net: Arc::new(net),
        isis: Arc::new(isis?),
        isis_k: isis_k(k),
    });
    // `reverify_opts` classifies internally; the separate call prices that
    // bookkeeping on its own and is subtracted from the reverify wall.
    let (_, classify_s) = tracer.span("push.classify", |_| {
        std::hint::black_box(verifier.classify_families(&delta, &cur.cache, k))
    });
    let (outcome, reverify_s) = tracer.span("push.reverify", |_| {
        verifier
            .reverify_opts(&delta, &cur.cache, k, threads, &SweepOptions::default())
            .map_err(|e| e.to_string())
    });
    let outcome = outcome?;
    let steps = PushSteps {
        parse_s,
        diff_s,
        model_s,
        isis_s,
        classify_s,
        reverify_s: (reverify_s - classify_s).max(0.0),
        recomputed: outcome.recomputed,
        reused: outcome.reused,
    };
    *cur = Resident {
        snapshot: next,
        cache: outcome.cache,
    };
    Ok(steps)
}

/// The push-path breakdown: compiles `configs` and runs the warm sweep as
/// `Server::bind` does, then replays `local` pushes (one dirty family
/// each), one policy-wide push and one IGP-affecting push in-process.
pub fn push_replica(
    configs: &[DeviceConfig],
    local: &[Vec<String>],
    wide: Option<&[String]>,
    igp: Option<&[String]>,
    k: u32,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    hoyan_obs::set_enabled(false);
    hoyan_obs::set_quiet(true);
    let (resident, _) = tracer.span("push.baseline", |_| -> Result<Resident, String> {
        let snapshot = ConfigSnapshot::new(configs.to_vec());
        let verifier = Verifier::new(
            snapshot.devices().to_vec(),
            VsbProfile::ground_truth,
            isis_k(k),
        )
        .map_err(|e| e.to_string())?;
        let (_, cache) = verifier
            .verify_all_routes_cached(k, threads)
            .map_err(|e| e.to_string())?;
        Ok(Resident { snapshot, cache })
    });
    let mut resident = resident?;
    let mut m = Metrics::new();
    let mut steps = Vec::new();
    for (i, texts) in local.iter().enumerate() {
        tracer.set_unit(&format!("serve-push/replica-local-{i}"));
        steps.push(replay_push(&mut resident, texts, k, threads, tracer)?);
    }
    if !steps.is_empty() {
        let med = |f: fn(&PushSteps) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
        m.insert("push.parse_s", med(|s| s.parse_s));
        m.insert("push.diff_s", med(|s| s.diff_s));
        m.insert("push.model_s", med(|s| s.model_s));
        m.insert("push.isis_s", med(|s| s.isis_s));
        m.insert("push.classify_s", med(|s| s.classify_s));
        m.insert("push.reverify_s", med(|s| s.reverify_s));
        m.insert("push.local_s", med(PushSteps::total_s));
        m.insert(
            "push.families_recomputed",
            steps.iter().map(|s| s.recomputed).sum::<usize>() as f64,
        );
        m.insert(
            "push.families_reused",
            steps.iter().map(|s| s.reused).sum::<usize>() as f64,
        );
    }
    if let Some(texts) = wide {
        tracer.set_unit("serve-push/replica-wide");
        let s = replay_push(&mut resident, texts, k, threads, tracer)?;
        m.insert("push.wide_s", s.total_s());
        m.insert("push.wide_recomputed", s.recomputed as f64);
    }
    if let Some(texts) = igp {
        tracer.set_unit("serve-push/replica-igp");
        let s = replay_push(&mut resident, texts, k, threads, tracer)?;
        m.insert("push.igp_s", s.total_s());
        m.insert("push.igp_recomputed", s.recomputed as f64);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_probe_terminates_with_work_done() {
        let t = Instant::now();
        let rate = bdd_kernel_ops_per_s(true);
        eprintln!("kernel: {rate} ops/s in {:?}", t.elapsed());
        assert!(rate > 0.0);
    }
}
