//! The workloads: what each one feeds `hoyan`, what it times, and how it
//! checks what came back. Every size and count lives in the table at the top.
//!
//! End-to-end numbers come through the surfaces an operator uses — the
//! release `hoyan` binary (`sweep`, `serve`) and the daemon's line-JSON
//! protocol — with tracing off. The traced run (`traced = true`) adds the
//! per-layer numbers: the in-process pipeline of `layers.rs` for the batch
//! workloads, client-side per-kind timing and the in-process push replica
//! for the daemon workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hoyan_rt::json;
use hoyan_rt::rng::StdRng;

use crate::child::{run_sweep, Client, Daemon};
use crate::digest::Verdict;
use crate::fixture::{apply_push, wide_and_igp_push, write_dir, Fixture, PushWalk, Topology};
use crate::layers::{self, OracleCase};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{max, median, median_of_batch_p99, percentile};
use crate::trace::Tracer;

// ---------------------------------------------------------------------------
// The table.

/// The measured window when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Failure budget of every sweep and of the daemon's resident cache.
pub const K: u32 = 1;
/// Times the inputs are prepared per run — fixture generated and written,
/// oracle converged — with the median reported.
const SETUP_REPEATS: usize = 9;
/// Sampled (prefix, dead link) oracle cases per fixture.
const ORACLE_CASES: usize = 32;
/// Cache-hit `reach` requests per read batch.
const READ_BATCH: usize = 2000;
/// Off-cache `reach … "k":2` requests interleaved per read batch.
const MISSES_PER_BATCH: usize = 20;
/// The `equiv` pair of the traced run: fixed, because the request's cost is
/// bimodal — about a second when the pair differs on an early family, a full
/// unbounded re-simulation of every family (~24 s on the paper WAN) when it
/// does not — so it stays out of the timed read mix and off the seed.
const EQUIV_PAIR: (&str, &str) = ("PE0x0", "PE0x1");
/// Sampled `reach` replies checked against a fresh sweep after the pushes.
const POST_PUSH_CHECKS: usize = 200;
/// Local pushes replayed in-process for the push-path breakdown.
const REPLICA_LOCAL_PUSHES: usize = 3;
/// No single child operation may take longer.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// What a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fresh `hoyan sweep` processes, back to back.
    Batch,
    /// Closed-loop reads against the resident daemon.
    ServeRead,
    /// Sequential `whatif` pushes with a concurrent closed-loop reader.
    ServePush,
}

/// One row of the workload table.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Why it is there (one line, as in BENCHMARK.json).
    pub why: &'static str,
    /// The surface it drives.
    pub kind: Kind,
    /// The WAN it runs on (`--quick` swaps in its small stand-in).
    pub topology: Topology,
    /// Sweeps or pushes a run times at the least, however long they take:
    /// the window is `--seconds` or this many operations, whichever ends
    /// later, so a slow machine never reports a median of one sample.
    pub min_ops: usize,
}

/// The workload table.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch-paper",
        why: "paper-scale snapshot audit (112 devices, 10k prefixes) as fresh `hoyan sweep` processes with default flags: BGP sweep ~80% of wall, IS-IS ~20%",
        kind: Kind::Batch,
        topology: Topology::Paper,
        min_ops: 3,
    },
    Workload {
        name: "batch-igp",
        why: "same command on the 80-core-router WAN with ~110 prefixes: isis.build is >=90% of wall, the sweep <5%, so sweep-only work must not move it",
        kind: Kind::Batch,
        topology: Topology::Igp,
        min_ops: 4,
    },
    Workload {
        name: "serve-read",
        why: "resident daemon on the paper WAN, one closed-loop connection: cache-hit reach with seeded k=2 misses and stats; bypasses every simulate layer",
        kind: Kind::ServeRead,
        topology: Topology::Paper,
        min_ops: 1,
    },
    Workload {
        name: "serve-push",
        why: "sequential one-family whatif pushes into the same daemon beside a closed-loop reader: the incremental path, ~75% IS-IS rebuild per push",
        kind: Kind::ServePush,
        topology: Topology::Paper,
        min_ops: 4,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Threads everywhere: `min(nproc, 4)`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(4)
}

// ---------------------------------------------------------------------------
// Run plumbing.

/// Where and how one run executes.
#[derive(Clone)]
pub struct RunCfg {
    /// The release `hoyan` binary.
    pub hoyan: PathBuf,
    /// Scratch and output directory (inside the checkout).
    pub out: PathBuf,
    /// Workload seed: snapshot edits, request schedule, oracle sample.
    pub seed: u64,
    /// Seed of the WAN's shape (see `fixture.rs`).
    pub topology_seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Small fixtures, every metric still emitted.
    pub quick: bool,
}

/// What one run produced.
pub struct Outcome {
    /// Operations attempted: sweep runs, requests, oracle cases.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Every metric of the requested table, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Digest of the workload's verdict (exact; must repeat across runs).
    pub digest: String,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

/// Counts operations and remembers the first failures.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Generated inputs plus what preparing them cost.
struct Setup {
    fixture: Fixture,
    dir: PathBuf,
    /// Median wall of preparing the inputs: generate, write, oracle.
    setup_s: f64,
    oracle: Vec<OracleCase>,
}

fn setup(w: &Workload, cfg: &RunCfg) -> Result<Setup, String> {
    let topology = if cfg.quick {
        w.topology.quick()
    } else {
        w.topology
    };
    let dir =
        cfg.out
            .join("fixtures")
            .join(format!("{}-{}-{}", w.name, cfg.seed, std::process::id()));
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let fixture = Fixture::generate(topology, cfg.topology_seed, cfg.seed);
        write_dir(&fixture.configs, &dir).map_err(|e| io_err("writing fixture", e))?;
        // Push workloads check the oracle against the pushed snapshot instead.
        let oracle = if w.kind == Kind::ServePush {
            Vec::new()
        } else {
            layers::oracle_cases(&fixture.configs, cfg.seed ^ 0x6f72_6163, ORACLE_CASES)?
        };
        walls.push(t.elapsed().as_secs_f64());
        last = Some((fixture, oracle));
    }
    let (fixture, oracle) = last.expect("SETUP_REPEATS >= 1");
    Ok(Setup {
        fixture,
        dir,
        setup_s: median(&walls),
        oracle,
    })
}

/// Removes the run's scratch directories when the run ends, however it ends.
struct Scratch(Vec<PathBuf>);

impl Drop for Scratch {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Fills the requested table from `values`; a metric the workload does not
/// exercise is 0 in the per-layer table and an error in the end-to-end one.
fn fill(
    traced: bool,
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let table = if traced { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|def| match values.get(def.name) {
            Some(v) if v.is_finite() => Ok((def.name, *v)),
            Some(v) => Err(format!("metric {} is {v}", def.name)),
            None if traced => Ok((def.name, 0.0)),
            None => Err(format!("metric {} was not measured", def.name)),
        })
        .collect()
}

/// Runs one workload once.
pub fn run(w: &Workload, cfg: &RunCfg, traced: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| io_err("creating the output directory", e))?;
    let mut tracer = Tracer::new(traced, &format!("{}/0", w.name));
    let mut checks = Checks::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("run.threads", default_threads() as f64);
    let digest = match w.kind {
        Kind::Batch => batch(w, cfg, traced, &mut tracer, &mut checks, &mut values)?,
        Kind::ServeRead => serve_read(w, cfg, &mut tracer, &mut checks, &mut values)?,
        Kind::ServePush => serve_push(w, cfg, traced, &mut tracer, &mut checks, &mut values)?,
    };
    if traced {
        let path = cfg.out.join(format!("trace-{}.json", w.name));
        tracer
            .write_json(&path)
            .map_err(|e| io_err("writing the trace", e))?;
    }
    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: fill(traced, &values)?,
        digest,
        notes: checks.notes,
    })
}

// ---------------------------------------------------------------------------
// Verdict checks shared by the workloads.

/// Oracle against a batch report: every device that loses the route when
/// the sampled link dies must be listed fragile, and nothing may be listed
/// fragile that holds no route with all links alive. One operation per case.
fn check_oracle_report(oracle: &[OracleCase], verdict: &Verdict, checks: &mut Checks) {
    for case in oracle {
        let listed = verdict.fragile.get(&case.prefix);
        let missed: Vec<&String> = case
            .loses_route
            .iter()
            .filter(|d| !listed.is_some_and(|l| l.contains(*d)))
            .collect();
        let phantom: Vec<&String> = listed
            .into_iter()
            .flatten()
            .filter(|d| !case.reachable.contains(*d))
            .collect();
        checks.check(missed.is_empty() && phantom.is_empty(), || {
            format!(
                "oracle: {} with {}-{} dead: not listed fragile {missed:?}, listed without a route {phantom:?}",
                case.prefix, case.dead_link.0, case.dead_link.1
            )
        });
    }
}

/// What the checks need from one reply line.
struct Answer {
    /// `ok:true`.
    ok: bool,
    /// Answered from the resident reports (`source:"cache"`).
    cached: bool,
    /// `(reachable_now, resilient)` of a successful `reach`.
    bits: Option<(bool, bool)>,
}

impl Answer {
    fn parse(reply: std::io::Result<&str>) -> Answer {
        let line = reply.unwrap_or("");
        Answer {
            ok: line.contains("\"ok\":true"),
            cached: line.contains("\"source\":\"cache\""),
            bits: reach_bits(line),
        }
    }
}

/// The two verdict bits of a `reach` reply, or `None` when the request was
/// refused or failed.
fn reach_bits(reply: &str) -> Option<(bool, bool)> {
    reply.contains("\"ok\":true").then(|| {
        (
            reply.contains("\"reachable_now\":true"),
            reply.contains("\"resilient\":true"),
        )
    })
}

/// A `reach` reply at the report's own `k` against that report:
/// `resilient` implies reachable and not listed; reachable but not
/// resilient is exactly "listed fragile"; unreachable is never listed.
fn consistent_with_report(
    verdict: &Verdict,
    prefix: &str,
    device: &str,
    bits: (bool, bool),
) -> bool {
    let listed = verdict.is_fragile(prefix, device);
    match bits {
        (true, true) => !listed,
        (true, false) => listed,
        (false, resilient) => !resilient && !listed,
    }
}

/// Oracle against the live daemon: for every case, every device's `reach`
/// reply must say reachable exactly when the concrete simulator holds a
/// route, and never resilient for a device that loses it to one failure.
fn check_oracle_daemon(
    oracle: &[OracleCase],
    devices: &[String],
    client: &mut Client,
    checks: &mut Checks,
) {
    for case in oracle {
        let mut wrong = Vec::new();
        for device in devices {
            let request = reach_request(&case.prefix, device, None);
            let bits = client.request(&request).ok().and_then(reach_bits);
            let expect_reach = case.reachable.contains(device);
            let ok = match bits {
                Some((reachable, resilient)) => {
                    reachable == expect_reach && !(resilient && case.loses_route.contains(device))
                }
                None => false,
            };
            if !ok {
                wrong.push(device.as_str());
            }
        }
        checks.check(wrong.is_empty(), || {
            format!(
                "oracle: {} with {}-{} dead: daemon disagrees at {wrong:?}",
                case.prefix, case.dead_link.0, case.dead_link.1
            )
        });
    }
}

// ---------------------------------------------------------------------------
// batch-*: config dir → printed verdict.

fn batch(
    w: &Workload,
    cfg: &RunCfg,
    traced: bool,
    tracer: &mut Tracer,
    checks: &mut Checks,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let threads = default_threads();
    let s = setup(w, cfg)?;
    let _scratch = Scratch(vec![s.dir.clone()]);
    values.insert("setup_s", s.setup_s);

    // Timed sweeps: as many whole runs as the window holds (one when traced:
    // the traced run only needs the CLI wall for `cli.residual_s`).
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<Verdict> = None;
    let window = Instant::now();
    loop {
        let run = run_sweep(&cfg.hoyan, &s.dir, K, threads, CHILD_TIMEOUT)
            .map_err(|e| io_err("spawning hoyan sweep", e))?;
        let verdict = Verdict::parse(&run.stdout);
        let same = match (&verdict, &first) {
            (Ok(v), Some(f)) => v.digest() == f.digest(),
            (Ok(_), None) => true,
            (Err(_), _) => false,
        };
        let clean = verdict.as_ref().is_ok_and(|v| v.quarantined == 0);
        checks.check(run.ok && same && clean, || {
            format!(
                "sweep run {}: exit ok={}, verdict {}",
                walls.len(),
                run.ok,
                match &verdict {
                    Ok(v) => format!("digest {} ({} quarantined)", v.digest(), v.quarantined),
                    Err(e) => format!("unparsable: {e}"),
                }
            )
        });
        if first.is_none() {
            first = verdict.ok();
        }
        walls.push(run.wall_s);
        rss.push(run.peak_rss_kb as f64);
        let enough = walls.len() >= w.min_ops && window.elapsed().as_secs_f64() >= cfg.seconds;
        if traced || enough {
            break;
        }
    }
    let verdict = first.ok_or("no sweep run produced a parsable report")?;
    check_oracle_report(&s.oracle, &verdict, checks);

    let verdict_s = median(&walls);
    values.insert("op_p50_ms", verdict_s * 1e3);
    values.insert("op_tail_ms", max(&walls) * 1e3);
    values.insert("prefixes_per_s", verdict.prefixes as f64 / verdict_s);
    values.insert("peak_rss_mb", median(&rss) / 1024.0);
    println!(
        "# {}: {} sweep run(s), wall min {:.3}s max {:.3}s, {} prefixes, digest {}",
        w.name,
        walls.len(),
        walls.iter().copied().fold(f64::MAX, f64::min),
        max(&walls),
        verdict.prefixes,
        verdict.digest()
    );
    if !traced {
        return Ok(verdict.digest());
    }

    // The traced run: the CLI's sequence in-process, untraced first (the
    // reference for the overhead), then with spans and counters.
    let scope_of: Vec<String> = s.oracle.iter().map(|c| c.prefix.clone()).collect();
    let mut quiet = Tracer::new(false, "");
    let untraced = layers::run_pipeline(&s.dir, K, threads, false, &[], &mut quiet)?;
    tracer.set_unit(&format!("{}/pipeline", w.name));
    let traced_run = layers::run_pipeline(&s.dir, K, threads, true, &scope_of, tracer)?;
    values.extend(traced_run.metrics.iter().map(|(k, v)| (*k, *v)));
    values.insert("pipeline.untraced_s", untraced.wall_s);
    values.insert("cli.verdict_s", verdict_s);
    values.insert("cli.residual_s", verdict_s - untraced.wall_s);
    values.insert(
        "trace.overhead_share",
        (traced_run.wall_s - untraced.wall_s) / untraced.wall_s,
    );
    let gap = (traced_run.wall_s - traced_run.layer_sum_s) / traced_run.wall_s;
    values.insert("trace.sum_gap_share", gap);
    values.insert(
        "bdd.kernel_ops_per_s",
        layers::bdd_kernel_ops_per_s(cfg.quick),
    );

    // The in-process path must print the CLI's verdict, twice over.
    for (name, run) in [("untraced", &untraced), ("traced", &traced_run)] {
        let same = Verdict::parse(&run.report).is_ok_and(|v| v.digest() == verdict.digest());
        checks.check(same, || {
            format!("{name} in-process verdict differs from the CLI's")
        });
    }
    // With the library's own reports at hand the oracle's other half is
    // checkable: every device holding a route must be in the prefix's scope.
    for case in &s.oracle {
        let scope = traced_run.scope.get(&case.prefix);
        let missing: Vec<&String> = case
            .reachable
            .iter()
            .filter(|d| !scope.is_some_and(|s| s.contains(*d)))
            .collect();
        checks.check(missing.is_empty(), || {
            format!(
                "oracle: {} reachable at {missing:?} but not in scope",
                case.prefix
            )
        });
    }
    // On the `--quick` fixtures the whole pipeline is ~20 ms and a scheduler
    // hiccup between two spans is 5 % of it: reported above, not counted.
    if !cfg.quick {
        checks.check(gap.abs() <= 0.05, || {
            format!(
                "sum invariant: layer walls leave {:.1}% of the in-process wall uncovered",
                gap * 1e2
            )
        });
    }
    if verdict_s - untraced.wall_s > 0.15 * verdict_s {
        println!(
            "# warning: cli.residual_s is {:.3}s, over 15% of verdict_s ({:.3}s): time is hiding outside the layers",
            verdict_s - untraced.wall_s,
            verdict_s
        );
    }
    Ok(verdict.digest())
}

// ---------------------------------------------------------------------------
// serve-read: closed-loop reads against the resident daemon.

fn reach_request(prefix: &str, device: &str, k: Option<u32>) -> String {
    match k {
        None => format!(r#"{{"kind":"reach","prefix":"{prefix}","device":"{device}"}}"#),
        Some(k) => format!(r#"{{"kind":"reach","prefix":"{prefix}","device":"{device}","k":{k}}}"#),
    }
}

/// What a scheduled request is, for timing by kind and for checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// `reach` at the cache's `k`: answered from the resident reports.
    Hit,
    /// `reach` at `k = 2`: a fresh family simulation.
    Miss,
    /// Daemon counters.
    Stats,
}

/// One scheduled request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Its kind.
    pub kind: ReqKind,
    /// The line sent.
    pub line: String,
    /// Indices into the prefix and device universes (reach only).
    pub target: (usize, usize),
}

/// The seeded request schedule of read batch `batch`: `READ_BATCH` uniform
/// (prefix × device) hits with `MISSES_PER_BATCH` misses and one `stats` at
/// seeded positions. Deterministic in `(seed, batch)`.
pub fn read_schedule(
    seed: u64,
    batch: usize,
    prefixes: &[String],
    devices: &[String],
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x7265_6164 + batch as u64 * 0x9e37_79b9));
    let mut draw = |kind: ReqKind, k: Option<u32>| {
        let target = (
            rng.gen_range(0..prefixes.len()),
            rng.gen_range(0..devices.len()),
        );
        Request {
            kind,
            line: reach_request(&prefixes[target.0], &devices[target.1], k),
            target,
        }
    };
    let mut out: Vec<Request> = (0..READ_BATCH).map(|_| draw(ReqKind::Hit, None)).collect();
    let misses: Vec<Request> = (0..MISSES_PER_BATCH)
        .map(|_| draw(ReqKind::Miss, Some(K + 1)))
        .collect();
    for miss in misses {
        out.insert(rng.gen_range(0..out.len() + 1), miss);
    }
    let extra = Request {
        kind: ReqKind::Stats,
        line: r#"{"kind":"stats"}"#.to_string(),
        target: (0, 0),
    };
    out.insert(rng.gen_range(0..out.len() + 1), extra);
    out
}

fn serve_read(
    w: &Workload,
    cfg: &RunCfg,
    tracer: &mut Tracer,
    checks: &mut Checks,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let threads = default_threads();
    let s = setup(w, cfg)?;
    let _scratch = Scratch(vec![s.dir.clone()]);
    // Golden: the batch report of the same snapshot.
    let t = Instant::now();
    let golden = run_sweep(&cfg.hoyan, &s.dir, K, threads, CHILD_TIMEOUT)
        .map_err(|e| io_err("spawning the golden sweep", e))?;
    let verdict = Verdict::parse(&golden.stdout).map_err(|e| format!("golden sweep: {e}"))?;
    let golden_s = t.elapsed().as_secs_f64();
    let daemon = Daemon::spawn(&cfg.hoyan, &s.dir, K, threads, CHILD_TIMEOUT)?;
    values.insert("setup_s", s.setup_s + golden_s + daemon.bind_s);
    values.insert("serve.bind_s", daemon.bind_s);

    let prefixes = s.fixture.prefixes();
    let devices = s.fixture.devices();
    let mut client =
        Client::connect(daemon.addr, CHILD_TIMEOUT).map_err(|e| io_err("connecting", e))?;

    // The measured window: whole batches until it has elapsed. On a traced
    // run odd batches also record one span per request, so the two halves
    // price the recording.
    let mut hits: Vec<Vec<f64>> = Vec::new();
    let mut misses: Vec<f64> = Vec::new();
    let mut stats_us: Vec<f64> = Vec::new();
    let mut replies = 0u64;
    let mut busy_s = 0.0;
    let mut batch = 0;
    while busy_s < cfg.seconds {
        let schedule = read_schedule(cfg.seed, batch, &prefixes, &devices);
        let record = tracer.enabled() && batch % 2 == 1;
        tracer.set_unit(&format!("{}/read-batch-{batch}", w.name));
        let mut batch_hits = Vec::with_capacity(READ_BATCH);
        let mut answers = Vec::with_capacity(schedule.len());
        let batch_start = Instant::now();
        for req in &schedule {
            let t0 = Instant::now();
            let reply = client.request(&req.line);
            let t1 = Instant::now();
            let us = (t1 - t0).as_secs_f64() * 1e6;
            let (name, samples) = match req.kind {
                ReqKind::Hit => ("reach.hit", &mut batch_hits),
                ReqKind::Miss => ("reach.miss", &mut misses),
                ReqKind::Stats => ("stats", &mut stats_us),
            };
            samples.push(us);
            if record {
                tracer.leaf(name, t0, t1);
            }
            answers.push(Answer::parse(reply));
        }
        busy_s += batch_start.elapsed().as_secs_f64();
        replies += schedule.len() as u64;
        // Checked after the batch, outside every request's round trip.
        for (req, answer) in schedule.iter().zip(answers) {
            let (p, d) = (&prefixes[req.target.0], &devices[req.target.1]);
            let good = match (req.kind, answer.bits) {
                (ReqKind::Stats, _) => answer.ok,
                (ReqKind::Hit, Some(bits)) => {
                    answer.cached && consistent_with_report(&verdict, p, d, bits)
                }
                // One more tolerated failure can only break more: resilient
                // at k+1 must not be listed fragile at k.
                (ReqKind::Miss, Some((reachable, resilient))) => {
                    let optimistic = resilient && (!reachable || verdict.is_fragile(p, d));
                    !answer.cached && !optimistic
                }
                (_, None) => false,
            };
            checks.check(good, || {
                format!("read batch {batch}: wrong reply to {}", req.line)
            });
        }
        hits.push(batch_hits);
        batch += 1;
    }

    // Outside the window: the oracle, the daemon's own counters, its memory,
    // and (traced) the one `equiv`.
    check_oracle_daemon(&s.oracle, &devices, &mut client, checks);
    if tracer.enabled() {
        let (a, b) = EQUIV_PAIR;
        let t0 = Instant::now();
        let ok = client
            .request(&format!(r#"{{"kind":"equiv","a":"{a}","b":"{b}"}}"#))
            .is_ok_and(|r| r.contains("\"ok\":true"));
        let t1 = Instant::now();
        tracer.leaf("equiv", t0, t1);
        checks.check(ok, || format!("equiv {a} {b} failed"));
        values.insert("serve.equiv_p50_ms", (t1 - t0).as_secs_f64() * 1e3);
    }
    let stats = client
        .request(r#"{"kind":"stats"}"#)
        .map_err(|e| io_err("final stats", e))
        .and_then(|r| json::parse(r).map_err(|e| e.to_string()))?;
    let stat = |key: &str| stats.get(key).and_then(json::Value::as_f64).unwrap_or(0.0);
    let rss_mb = daemon.peak_rss_kb() as f64 / 1024.0;
    drop(client);
    drop(daemon);

    let all_hits: Vec<f64> = hits.concat();
    values.insert("op_p50_ms", median(&all_hits) / 1e3);
    values.insert("op_tail_ms", median_of_batch_p99(&hits) / 1e3);
    values.insert("prefixes_per_s", replies as f64 / busy_s);
    values.insert("peak_rss_mb", rss_mb);
    values.insert("serve.hit_p50_us", median(&all_hits));
    values.insert("serve.hit_p99_us", median_of_batch_p99(&hits));
    values.insert("serve.miss_p50_ms", median(&misses) / 1e3);
    values.insert("serve.miss_p90_ms", percentile(&misses, 90.0) / 1e3);
    values.insert("serve.stats_p50_us", median(&stats_us));
    let lookups = stat("cache_hits") + stat("cache_misses");
    values.insert(
        "serve.cache_hit_ratio",
        if lookups > 0.0 {
            stat("cache_hits") / lookups
        } else {
            0.0
        },
    );
    values.insert("serve.rejected", stat("rejected"));
    values.insert("serve.over_budget", stat("over_budget"));
    if tracer.enabled() && hits.len() >= 2 {
        let p50 = |odd: bool| {
            let v: Vec<f64> = hits
                .iter()
                .skip(odd as usize)
                .step_by(2)
                .map(|b| median(b))
                .collect();
            median(&v)
        };
        values.insert(
            "trace.overhead_share",
            (p50(true) - p50(false)) / p50(false),
        );
    }
    println!(
        "# {}: {} batch(es), {} replies, reach hits n={}, golden digest {}",
        w.name,
        hits.len(),
        replies,
        all_hits.len(),
        verdict.digest()
    );
    Ok(verdict.digest())
}

// ---------------------------------------------------------------------------
// serve-push: whatif pushes beside a closed-loop reader.

fn whatif_request(texts: &[String]) -> String {
    let configs = json::Value::Arr(texts.iter().cloned().map(json::Value::Str).collect());
    json::Value::Obj(vec![
        ("kind".into(), json::Value::Str("whatif".into())),
        ("configs".into(), configs),
    ])
    .to_string()
}

fn serve_push(
    w: &Workload,
    cfg: &RunCfg,
    traced: bool,
    tracer: &mut Tracer,
    checks: &mut Checks,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let threads = default_threads();
    let s = setup(w, cfg)?;
    let pushed_dir = s.dir.with_extension("pushed");
    let _scratch = Scratch(vec![s.dir.clone(), pushed_dir.clone()]);
    let daemon = Daemon::spawn(&cfg.hoyan, &s.dir, K, threads, CHILD_TIMEOUT)?;
    values.insert("setup_s", s.setup_s + daemon.bind_s);
    values.insert("serve.bind_s", daemon.bind_s);
    let prefixes = s.fixture.prefixes();
    let devices = s.fixture.devices();
    let mut writer =
        Client::connect(daemon.addr, CHILD_TIMEOUT).map_err(|e| io_err("connecting", e))?;
    let mut reader =
        Client::connect(daemon.addr, CHILD_TIMEOUT).map_err(|e| io_err("connecting", e))?;

    // The window: pushes one after another on the writer connection while
    // the reader connection keeps a closed loop of cache hits going.
    let pushing = AtomicBool::new(true);
    let mut walk = PushWalk::new(&s.fixture.configs, &s.fixture.pushes);
    let mut push_s: Vec<f64> = Vec::new();
    let (during, reader_failed) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7075_7368);
            let mut lat = Vec::new();
            let mut failed = 0u64;
            while pushing.load(Ordering::Acquire) {
                let line = reach_request(
                    &prefixes[rng.gen_range(0..prefixes.len())],
                    &devices[rng.gen_range(0..devices.len())],
                    None,
                );
                let t0 = Instant::now();
                let answer = Answer::parse(reader.request(&line));
                lat.push(t0.elapsed().as_secs_f64() * 1e6);
                failed += !(answer.ok && answer.cached) as u64;
            }
            (lat, failed)
        });
        let window = Instant::now();
        while push_s.len() < w.min_ops || window.elapsed().as_secs_f64() < cfg.seconds {
            let Some((push, texts)) = walk.next() else {
                break;
            };
            let i = push_s.len();
            tracer.set_unit(&format!("{}/push-{i}", w.name));
            let request = whatif_request(&texts);
            let t0 = Instant::now();
            let reply = writer.request(&request).map(str::to_string);
            let t1 = Instant::now();
            tracer.leaf("whatif", t0, t1);
            let parsed = reply.ok().and_then(|r| json::parse(&r).ok());
            let field = |key: &str| {
                parsed
                    .as_ref()
                    .and_then(|v| v.get(key))
                    .and_then(json::Value::as_f64)
            };
            let good = parsed.as_ref().and_then(|v| v.get("ok")) == Some(&json::Value::Bool(true))
                && field("dirty").is_some_and(|d| d >= 1.0)
                && field("quarantined") == Some(0.0);
            checks.check(good, || format!("push {i} ({push}): bad reply {parsed:?}"));
            push_s.push((t1 - t0).as_secs_f64());
        }
        pushing.store(false, Ordering::Release);
        reader_thread.join().expect("reader thread panicked")
    });
    if push_s.is_empty() {
        return Err("the window held no push".to_string());
    }
    checks.attempted += during.len() as u64;
    checks.failed += reader_failed;
    if reader_failed > 0 {
        checks.notes.push(format!(
            "{reader_failed} reads during the pushes failed or missed the cache"
        ));
    }

    // After the last push: a fresh sweep of what the daemon now holds, the
    // sampled replies against it, and the oracle on the pushed snapshot.
    let current = walk.state;
    write_dir(&current, &pushed_dir).map_err(|e| io_err("writing the pushed snapshot", e))?;
    let fresh = run_sweep(&cfg.hoyan, &pushed_dir, K, threads, CHILD_TIMEOUT)
        .map_err(|e| io_err("spawning the post-push sweep", e))?;
    let verdict = Verdict::parse(&fresh.stdout).map_err(|e| format!("post-push sweep: {e}"))?;
    let mut all_prefixes: Vec<String> = verdict.fragile.keys().cloned().collect();
    all_prefixes.extend(prefixes.iter().cloned());
    all_prefixes.sort();
    all_prefixes.dedup();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x706f_7374);
    for _ in 0..POST_PUSH_CHECKS {
        let p = &all_prefixes[rng.gen_range(0..all_prefixes.len())];
        let d = &devices[rng.gen_range(0..devices.len())];
        let bits = writer
            .request(&reach_request(p, d, None))
            .ok()
            .and_then(reach_bits);
        checks.check(
            bits.is_some_and(|b| consistent_with_report(&verdict, p, d, b)),
            || format!("after the pushes: reach {p} at {d} disagrees with a fresh sweep: {bits:?}"),
        );
    }
    let oracle = layers::oracle_cases(&current, cfg.seed ^ 0x6f72_6163, ORACLE_CASES)?;
    check_oracle_daemon(&oracle, &devices, &mut writer, checks);
    let rss_mb = daemon.peak_rss_kb() as f64 / 1024.0;
    drop((writer, reader));
    drop(daemon);

    let total_push_s: f64 = push_s.iter().sum();
    values.insert("op_p50_ms", median(&push_s) * 1e3);
    values.insert("op_tail_ms", max(&push_s) * 1e3);
    values.insert(
        "prefixes_per_s",
        (verdict.prefixes * push_s.len()) as f64 / total_push_s,
    );
    values.insert("peak_rss_mb", rss_mb);
    if !during.is_empty() {
        values.insert("serve.reach_during_push_p50_us", median(&during));
        values.insert("serve.reach_during_push_p99_us", percentile(&during, 99.0));
        values.insert("serve.reach_during_push_max_ms", max(&during) / 1e3);
    }
    println!(
        "# {}: {} push(es), {} reads beside them, post-push digest {}",
        w.name,
        push_s.len(),
        during.len(),
        verdict.digest()
    );
    if traced {
        // The push path, step by step, on the same snapshot and plan.
        let mut walk = PushWalk::new(&s.fixture.configs, &s.fixture.pushes);
        let local: Vec<Vec<String>> = walk
            .by_ref()
            .take(REPLICA_LOCAL_PUSHES)
            .map(|(_, texts)| texts)
            .collect();
        let mut state = walk.state;
        let (wide, igp) = wide_and_igp_push(&s.fixture.wan, cfg.seed);
        let wide = wide
            .map(|p| apply_push(&state, &p))
            .filter(|(_, t)| !t.is_empty());
        if let Some((next, _)) = &wide {
            state = next.clone();
        }
        let igp = igp
            .map(|p| apply_push(&state, &p))
            .filter(|(_, t)| !t.is_empty());
        let replica = layers::push_replica(
            &s.fixture.configs,
            &local,
            wide.as_ref().map(|(_, t)| t.as_slice()),
            igp.as_ref().map(|(_, t)| t.as_slice()),
            K,
            threads,
            tracer,
        )?;
        let one_family = replica.get("push.families_recomputed") == Some(&(local.len() as f64));
        checks.check(one_family, || {
            format!(
                "replica: {} local pushes recomputed {:?} families",
                local.len(),
                replica.get("push.families_recomputed")
            )
        });
        values.extend(replica);
    }
    Ok(verdict.digest())
}

/// Path of the default output directory: `<benchmark crate>/out`.
pub fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> (Vec<String>, Vec<String>) {
        let f = Fixture::generate(Topology::QuickPaper, 42, 1);
        (f.prefixes(), f.devices())
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let (p, d) = universe();
        assert_eq!(read_schedule(7, 0, &p, &d), read_schedule(7, 0, &p, &d));
        assert_ne!(read_schedule(7, 0, &p, &d), read_schedule(8, 0, &p, &d));
        assert_ne!(read_schedule(7, 0, &p, &d), read_schedule(7, 1, &p, &d));
    }

    #[test]
    fn a_batch_holds_the_stated_mix() {
        let (p, d) = universe();
        let s = read_schedule(3, 0, &p, &d);
        let count = |k: ReqKind| s.iter().filter(|r| r.kind == k).count();
        assert_eq!(count(ReqKind::Hit), READ_BATCH);
        assert_eq!(count(ReqKind::Miss), MISSES_PER_BATCH);
        assert_eq!(count(ReqKind::Stats), 1);
        assert!(s.iter().all(|r| json::parse(&r.line).is_ok()));
    }

    #[test]
    fn reply_consistency_rules() {
        let v = Verdict::parse(
            "swept 2 prefixes at k=1 in 1s\n  10.0.0.0/24: not 1-failure resilient at [\"A\"]\n",
        )
        .unwrap();
        assert!(consistent_with_report(
            &v,
            "10.0.0.0/24",
            "A",
            (true, false)
        ));
        assert!(!consistent_with_report(
            &v,
            "10.0.0.0/24",
            "A",
            (true, true)
        ));
        assert!(consistent_with_report(&v, "10.0.0.0/24", "B", (true, true)));
        assert!(!consistent_with_report(
            &v,
            "10.0.0.0/24",
            "B",
            (true, false)
        ));
        assert!(consistent_with_report(
            &v,
            "10.0.0.0/24",
            "C",
            (false, false)
        ));
        assert!(!consistent_with_report(
            &v,
            "10.0.0.0/24",
            "A",
            (false, false)
        ));
        assert_eq!(reach_bits(r#"{"ok":false,"error":"overloaded"}"#), None);
        assert_eq!(
            reach_bits(r#"{"ok":true,"kind":"reach","reachable_now":true,"resilient":false}"#),
            Some((true, false))
        );
    }

    #[test]
    fn every_workload_row_fits_the_contract() {
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(workload("nope").is_none());
    }
}
