//! The `hoyan` command-line tool: the operator-facing frontend (§4's
//! "user-friendly interfaces for our operators").
//!
//! ```text
//! hoyan gen <dir> [--size tiny|small|medium|reference|wan-large|wan-paper] [--seed N]
//! hoyan verify <dir> --prefix 10.0.0.0/24 --device CR1x0 [--k 2]
//! hoyan packet <dir> --prefix 10.0.0.0/24 --from MAN1x0 [--k 2] [--proto tcp|udp]
//! hoyan scope  <dir> --prefix 10.0.0.0/24
//! hoyan racing <dir> --prefix 10.0.0.0/24
//! hoyan routers <dir> --prefix 10.0.0.0/24 --device CR1x0
//! hoyan equiv  <dir> --a CR0x0 --b CR0x1
//! hoyan sweep  <dir> [--k 1] [--baseline <dirA>] [--fail-fast]
//!              [--family-node-budget N] [--family-op-budget N]
//!              [--family-deadline-ms MS] [--stream]
//! hoyan diff   <dirA> <dirB> [--k 1]
//! hoyan audit  <before-dir> <after-dir> [--k 1] [--prefix P]...
//! hoyan tune   <dir>
//! hoyan serve  <dir> [--addr 127.0.0.1:7411] [--k 1] [--workers N] [--queue N]
//!              [--family-node-budget N] [--family-op-budget N]
//!              [--family-deadline-ms MS]
//! ```
//!
//! `diff` prints the snapshot delta between two directories and classifies
//! every prefix family as dirty (must re-simulate) or clean (cached reports
//! still valid). `sweep --baseline` runs the incremental pipeline: sweep
//! the baseline once, then re-verify only the dirty families — output is
//! identical to a from-scratch sweep of the target directory.
//!
//! `sweep` quarantines families that fail (a simulation error, a budget
//! breach, a panic): the rest of the sweep completes and quarantined
//! families are listed after the report. `--fail-fast` restores the old
//! abort-on-first-error behavior; the surfaced error is the lowest-index
//! failing family regardless of `--threads`. The per-family budgets are
//! operation-counted and deterministic; `--family-deadline-ms` is the one
//! wall-clock (hence non-deterministic) guard and is opt-in only.
//!
//! Every `sweep` without `--baseline` consumes one streaming sweep and
//! keeps only each fragile prefix's node ids and the quarantined families,
//! so peak report memory is O(threads), not O(families). `--stream` adds
//! progress output: one line per family in the order workers finish them,
//! then a summary line with family counts; it does not combine with
//! `--baseline`.
//!
//! `serve` starts the resident verification daemon: it compiles the
//! directory once, runs the warm-up sweep, then answers `reach` / `equiv` /
//! `whatif` / `stats` / `shutdown` requests over a line-delimited JSON
//! protocol (see `hoyan::core::serve` and the README's "Resident daemon"
//! section). The `--family-*-budget` flags become the per-request admission
//! caps; `--workers` and `--queue` bound concurrency.
//!
//! Each subcommand accepts only its own flags: an unknown one (a typo such
//! as `--thread 4`, or a retired option) is a usage error, exit code 2.
//!
//! Global flags (any subcommand): `--stats` prints a span-tree/metrics
//! table, `--stats-json PATH` writes the metrics registry as deterministic
//! JSON, `--attribution` prints the per-family cost table recorded by the
//! sweep flight recorder, `--trace PATH` writes a chrome://tracing /
//! Perfetto-loadable timeline of the sweep, `--timing` opts into wall-clock
//! timestamps (non-deterministic outputs), and `--quiet` suppresses
//! degradation warnings on stderr.
//!
//! The `HOYAN_FAULTS` environment variable arms the seeded fault-injection
//! plan (`site@index[,index...]=error|panic|overbudget` or
//! `site@~permille/seed=...`; `;`-separated rules) — see `hoyan::rt::fault`.
//!
//! A configuration directory holds one `<hostname>.cfg` per device in the
//! dialect of `hoyan::config` (see `hoyan gen` for samples).

use std::io::{BufWriter, ErrorKind, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::process::ExitCode;

use hoyan::config::{parse_config, ConfigSnapshot, DeviceConfig};
use hoyan::core::{FamilyBudget, PrefixReport, StreamedFamily, SweepOptions, Verifier};
use hoyan::device::{Packet, VsbProfile};
use hoyan::nettypes::{Ipv4Prefix, NodeId};
use hoyan::topogen::WanSpec;
use hoyan::tuner::{ModelRegistry, Validator};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags, valid on every subcommand; stripped before dispatch so
    // positional arguments keep their places.
    let stats = take_flag(&mut args, "--stats");
    let stats_json = take_value_flag(&mut args, "--stats-json");
    let trace = take_value_flag(&mut args, "--trace");
    let attribution = take_flag(&mut args, "--attribution");
    let timing = take_flag(&mut args, "--timing");
    hoyan::obs::set_quiet(take_flag(&mut args, "--quiet"));
    // Seeded fault injection, for drills and tests: disarmed (the default)
    // the hooks are a single relaxed atomic load.
    if let Ok(spec) = std::env::var("HOYAN_FAULTS") {
        if !spec.is_empty() {
            match hoyan::rt::fault::FaultPlan::parse(&spec) {
                Ok(plan) => hoyan::rt::fault::install(plan),
                Err(e) => {
                    eprintln!("error: bad HOYAN_FAULTS: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if stats || stats_json.is_some() || trace.is_some() || attribution {
        hoyan::obs::set_enabled(true);
        // Pin the export schema: all standard metrics present (zeroed) even
        // when this subcommand never exercises their subsystem.
        hoyan::obs::register_default_metrics();
        // Arm the flight recorder: any consumer of events or per-family
        // costs turns recording on for all of them.
        hoyan::obs::set_events_enabled(true);
    }
    // `--timing` swaps the recorder's deterministic logical clock for wall
    // time: richer traces and wall_ns/wall_ms columns, at the price of
    // run-to-run (and thread-count) variation in the outputs.
    hoyan::obs::set_timing(timing);
    let outcome = run(&args);
    // Sinks run even when the command failed: the stats explain the failure.
    // A reader that closed stdout early (`hoyan sweep d | head -1`) got what
    // it asked for: exit quietly, and print nothing more to the closed pipe.
    let closed = matches!(outcome, Err(CliError::Closed));
    if stats && !closed {
        print!("{}", hoyan::obs::render_table());
    }
    if attribution && !closed {
        print!("{}", hoyan::obs::render_attribution(20));
    }
    if let Some(path) = stats_json {
        if let Err(e) = std::fs::write(&path, hoyan::obs::export_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = trace {
        if let Err(e) = std::fs::write(&path, hoyan::obs::export_chrome_trace()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match outcome {
        Ok(()) | Err(CliError::Closed) => ExitCode::SUCCESS,
        // Usage errors (bad flag values, missing operands) exit with 2,
        // the conventional "wrong invocation" code; runtime failures
        // (bad configs, failed verifications) keep exit code 1.
        Err(CliError::Usage(e)) => {
            eprintln!("usage error: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// CLI failure, split by exit code: `Usage` exits 2 (the invocation is
/// wrong), `Run` exits 1 (the invocation was fine; the work failed), and
/// `Closed` exits 0 (the reader of stdout went away before the end).
enum CliError {
    Usage(String),
    Run(String),
    Closed,
}

/// Only stdout writes raise `io::Error`s through `?` here (every file
/// operation maps its error to text first).
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        match e.kind() {
            ErrorKind::BrokenPipe => CliError::Closed,
            _ => CliError::Run(format!("cannot write to stdout: {e}")),
        }
    }
}

impl From<String> for CliError {
    fn from(e: String) -> CliError {
        CliError::Run(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> CliError {
        CliError::Run(e.to_string())
    }
}

fn usage(e: impl Into<String>) -> CliError {
    CliError::Usage(e.into())
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

fn take_value_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.remove(i);
    if i < args.len() {
        Some(args.remove(i))
    } else {
        None
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    // Both spellings are accepted: `--flag value` and `--flag=value`. A
    // flag that is present but valueless (`sweep d --threads`, or
    // `--threads --fail-fast`) is a usage error, not a silent
    // fall-through to the default.
    if let Some(v) = args
        .iter()
        .find_map(|a| a.strip_prefix(name)?.strip_prefix('=').map(String::from))
    {
        return Ok(Some(v));
    }
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(usage(format!("{name} needs a value"))),
        },
    }
}

fn flags(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

fn load_dir(dir: &str) -> Result<Vec<DeviceConfig>, String> {
    let mut configs = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|x| x == "cfg").unwrap_or(false))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .cfg files in {dir}"));
    }
    // A bulk snapshot typically has more than one problem; aborting on the
    // first bad file hides the rest, so collect everything and report once.
    let mut errors = Vec::new();
    for p in paths {
        match std::fs::read_to_string(&p) {
            Err(e) => errors.push(format!("{}: {e}", p.display())),
            Ok(text) => match parse_config(&text) {
                Err(e) => errors.push(format!("{}: {e}", p.display())),
                Ok(cfg) => configs.push(cfg),
            },
        }
    }
    if !errors.is_empty() {
        return Err(format!(
            "{} bad config file(s) in {dir}:\n{}",
            errors.len(),
            errors.join("\n")
        ));
    }
    Ok(configs)
}

/// Loads `dir` and compiles it with the IS-IS database built at `isis_k`.
fn verifier_for(dir: &str, isis_k: u32) -> Result<Verifier, String> {
    let configs = load_dir(dir)?;
    Verifier::new(configs, VsbProfile::ground_truth, Some(isis_k))
        .map_err(|e| format!("model construction failed: {e}"))
}

/// The IS-IS budget floor of the commands that print a witness or run
/// unbounded (`k = None`) simulations: `verify` and `packet` build at
/// `max(k, 3)`, `scope`, `racing` and `equiv` at 3. Their output can depend
/// on conditions outside the `k`-failure ball, which a database built at
/// `k` alone does not keep. The sweep-shaped commands (`sweep`, `diff`)
/// report only verdicts inside the ball and build at exactly `k` (DESIGN.md,
/// "IS-IS budget").
const WITNESS_ISIS_K: u32 = 3;

fn parse_prefix(s: &str) -> Result<Ipv4Prefix, CliError> {
    s.parse().map_err(|_| usage(format!("bad prefix `{s}`")))
}

fn get_k(args: &[String]) -> Result<u32, CliError> {
    match flag(args, "--k")? {
        None => Ok(1),
        Some(v) => v.parse().map_err(|_| usage(format!("bad --k `{v}`"))),
    }
}

fn get_threads(args: &[String]) -> Result<usize, CliError> {
    match flag(args, "--threads")? {
        None => Ok(std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)),
        Some(t) => t
            .parse()
            .map_err(|_| usage(format!("bad --threads `{t}`"))),
    }
}

/// Parses one optional numeric flag; an unparsable value is a usage error
/// (exit 2), never a silent fall-back to the default.
fn num_flag(args: &[String], name: &str) -> Result<Option<u64>, CliError> {
    match flag(args, name)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| usage(format!("bad {name} `{v}`"))),
    }
}

/// The per-family budget flags shared by `sweep` and `serve`.
fn get_budget(args: &[String]) -> Result<FamilyBudget, CliError> {
    Ok(FamilyBudget {
        max_live_nodes: num_flag(args, "--family-node-budget")?.map(|v| v as usize),
        max_ite_ops: num_flag(args, "--family-op-budget")?,
        deadline_ms: num_flag(args, "--family-deadline-ms")?,
    })
}

fn get_sweep_options(args: &[String]) -> Result<SweepOptions, CliError> {
    Ok(SweepOptions {
        fail_fast: has_flag(args, "--fail-fast"),
        budget: get_budget(args)?,
    })
}

/// The flags a subcommand accepts once the global flags are stripped:
/// `(takes a value, switches)`. `None` for the usage screen.
fn subcommand_flags(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match cmd {
        "gen" => (&["--size", "--seed"], &[]),
        "verify" => (&["--prefix", "--device", "--k"], &[]),
        "packet" => (&["--prefix", "--from", "--k", "--proto"], &[]),
        "scope" | "racing" => (&["--prefix"], &[]),
        "routers" => (&["--prefix", "--device"], &[]),
        "equiv" => (&["--a", "--b"], &[]),
        "sweep" => (
            &[
                "--k",
                "--threads",
                "--baseline",
                "--family-node-budget",
                "--family-op-budget",
                "--family-deadline-ms",
            ],
            &["--fail-fast", "--stream"],
        ),
        "diff" => (&["--k", "--threads"], &[]),
        "audit" => (&["--k", "--prefix"], &[]),
        "tune" => (&[], &[]),
        "serve" => (
            &[
                "--addr",
                "--k",
                "--workers",
                "--queue",
                "--threads",
                "--family-node-budget",
                "--family-op-budget",
                "--family-deadline-ms",
            ],
            &[],
        ),
        _ => return None,
    })
}

/// Rejects any `--flag` the subcommand does not accept, so a typo (or a
/// retired option) never silently runs something other than what the
/// caller asked for. Values never start with `--` (see [`flag`]), so only
/// flag names are checked; missing values are left to [`flag`] to report.
fn reject_unknown_flags(cmd: &str, args: &[String]) -> Result<(), CliError> {
    let Some((valued, switches)) = subcommand_flags(cmd) else {
        return Ok(());
    };
    for arg in args.iter().skip(1).filter(|a| a.starts_with("--")) {
        let name = arg.split_once('=').map_or(arg.as_str(), |(n, _)| n);
        if !(valued.contains(&name) || switches.contains(&arg.as_str())) {
            return Err(usage(format!("unknown flag `{arg}` for `{cmd}`")));
        }
    }
    Ok(())
}

fn print_delta(delta: &hoyan::config::SnapshotDelta, snap_b: &ConfigSnapshot) {
    println!(
        "delta: {} device(s) changed, {} link(s) added, {} link(s) removed{}",
        delta.device_count(),
        delta.links_added.len(),
        delta.links_removed.len(),
        if delta.igp_affecting {
            " [IGP-affecting]"
        } else {
            ""
        }
    );
    // Added/removed devices are surfaced explicitly. A device absent from
    // the target snapshot must never collapse to `hash 0` — that made a
    // rename look like a modification of a hash-0 device.
    for d in &delta.added {
        match snap_b.device_hash(&d.hostname) {
            Some(h) => println!("  + {} (added, hash {h:016x})", d.hostname),
            None => println!("  + {} (added, missing from target snapshot)", d.hostname),
        }
    }
    for d in &delta.removed {
        println!("  - {} (removed)", d.hostname);
    }
    for m in &delta.modified {
        match snap_b.device_hash(&m.hostname) {
            Some(h) => println!("  ~ {} [{}] (hash {h:016x})", m.hostname, m.kinds()),
            None => println!(
                "  ~ {} [{}] (missing from target snapshot)",
                m.hostname,
                m.kinds()
            ),
        }
    }
    for (a, b) in &delta.links_added {
        println!("  + link {a}-{b}");
    }
    for (a, b) in &delta.links_removed {
        println!("  - link {a}-{b}");
    }
}

fn fam_label(fam: &[Ipv4Prefix]) -> String {
    match fam.len() {
        0 => "<empty>".to_string(),
        1 => fam[0].to_string(),
        n => format!("{} (+{} more)", fam[0], n - 1),
    }
}

/// The `(prefix, fragile nodes)` of every report with a fragile node.
fn fragile_of(reports: Vec<PrefixReport>) -> impl Iterator<Item = (Ipv4Prefix, Vec<NodeId>)> {
    reports
        .into_iter()
        .filter(|r| !r.fragile.is_empty())
        .map(|r| (r.prefix, r.fragile))
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    reject_unknown_flags(cmd, args)?;
    match cmd {
        "gen" => {
            let dir = args.get(1).ok_or_else(|| usage("gen needs a target directory"))?;
            let seed: u64 = flag(args, "--seed")?
                .map(|s| s.parse().map_err(|_| usage(format!("bad --seed `{s}`"))))
                .transpose()?
                .unwrap_or(7);
            let spec = match flag(args, "--size")?.as_deref() {
                None | Some("small") => WanSpec::small(seed),
                Some("tiny") => WanSpec::tiny(seed),
                Some("medium") => WanSpec::medium(seed),
                Some("reference") => WanSpec::reference(seed),
                Some("wan-large") => WanSpec::wan_large(seed),
                Some("wan-paper") => WanSpec::wan_paper(seed),
                Some(other) => return Err(usage(format!("unknown --size `{other}`"))),
            };
            let wan = spec.build();
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            for (cfg, text) in wan.configs.iter().zip(&wan.texts) {
                let path = Path::new(dir).join(format!("{}.cfg", cfg.hostname));
                std::fs::write(&path, text).map_err(|e| e.to_string())?;
            }
            println!(
                "wrote {} device configs to {dir} ({} customer prefixes, e.g. {})",
                wan.configs.len(),
                wan.customer_prefixes.len(),
                wan.customer_prefixes[0]
            );
            Ok(())
        }
        "verify" => {
            let dir = args.get(1).ok_or_else(|| usage("verify needs a config directory"))?;
            let prefix = parse_prefix(&flag(args, "--prefix")?.ok_or_else(|| usage("--prefix required"))?)?;
            let device = flag(args, "--device")?.ok_or_else(|| usage("--device required"))?;
            let k = get_k(args)?;
            let v = verifier_for(dir, k.max(WITNESS_ISIS_K))?;
            let r = v
                .route_reachability(prefix, &device, k)
                .map_err(|e| e.to_string())?;
            println!("route {prefix} -> {device}:");
            println!("  reachable now:          {}", r.reachable_now);
            println!("  resilient to {k} failures: {}", r.resilient);
            match r.witness {
                Some(w) => println!("  minimal breaking cut:   {w:?}"),
                None => println!("  minimal breaking cut:   none within budget"),
            }
            Ok(())
        }
        "packet" => {
            let dir = args.get(1).ok_or_else(|| usage("packet needs a config directory"))?;
            let prefix = parse_prefix(&flag(args, "--prefix")?.ok_or_else(|| usage("--prefix required"))?)?;
            let from = flag(args, "--from")?.ok_or_else(|| usage("--from required"))?;
            let k = get_k(args)?;
            let proto = match flag(args, "--proto")?.as_deref() {
                None | Some("tcp") => hoyan::config::AclProto::Tcp,
                Some("udp") => hoyan::config::AclProto::Udp,
                Some("ip") => hoyan::config::AclProto::Ip,
                Some(other) => return Err(usage(format!("unknown --proto `{other}`"))),
            };
            let v = verifier_for(dir, k.max(WITNESS_ISIS_K))?;
            let packet = Packet {
                src: "192.0.2.1".parse().expect("literal address"),
                dst: prefix.network(),
                proto,
            };
            let r = v
                .packet_reachability(&from, prefix, packet, k)
                .map_err(|e| e.to_string())?;
            println!("packet {from} -> {prefix}:");
            println!("  delivered now:          {}", r.reachable_now);
            println!("  resilient to {k} failures: {}", r.resilient);
            if let Some(w) = r.witness {
                println!("  minimal breaking cut:   {w:?}");
            }
            Ok(())
        }
        "scope" => {
            let dir = args.get(1).ok_or_else(|| usage("scope needs a config directory"))?;
            let prefix = parse_prefix(&flag(args, "--prefix")?.ok_or_else(|| usage("--prefix required"))?)?;
            let v = verifier_for(dir, WITNESS_ISIS_K)?;
            let scope = v.propagation_scope(prefix).map_err(|e| e.to_string())?;
            println!("{} devices hold a route for {prefix}:", scope.len());
            for n in scope {
                println!("  {}", v.net.topology.name(n));
            }
            Ok(())
        }
        "routers" => {
            let dir = args.get(1).ok_or_else(|| usage("routers needs a config directory"))?;
            let prefix = parse_prefix(&flag(args, "--prefix")?.ok_or_else(|| usage("--prefix required"))?)?;
            let device = flag(args, "--device")?.ok_or_else(|| usage("--device required"))?;
            // A router failure fails all its links at once: a generous
            // budget, whatever the query's `k`.
            let v = verifier_for(dir, 4)?;
            let fatal = v
                .router_failure_tolerance(prefix, &device)
                .map_err(|e| e.to_string())?;
            if fatal.is_empty() {
                println!("{prefix} at {device} survives any single router failure");
            } else {
                println!(
                    "{prefix} at {device}: single points of failure: {fatal:?}"
                );
            }
            Ok(())
        }
        "racing" => {
            let dir = args.get(1).ok_or_else(|| usage("racing needs a config directory"))?;
            let prefix = parse_prefix(&flag(args, "--prefix")?.ok_or_else(|| usage("--prefix required"))?)?;
            let v = verifier_for(dir, WITNESS_ISIS_K)?;
            let r = v.racing(prefix);
            println!(
                "racing analysis for {prefix}: candidates={} solutions={} ambiguous={}",
                r.candidates, r.solutions, r.ambiguous
            );
            if r.ambiguous {
                println!("  convergence depends on route-update arrival order — fix before deploying");
            }
            Ok(())
        }
        "equiv" => {
            let dir = args.get(1).ok_or_else(|| usage("equiv needs a config directory"))?;
            let a = flag(args, "--a")?.ok_or_else(|| usage("--a required"))?;
            let b = flag(args, "--b")?.ok_or_else(|| usage("--b required"))?;
            let v = verifier_for(dir, WITNESS_ISIS_K)?;
            let r = v.role_equivalence(&a, &b).map_err(|e| e.to_string())?;
            println!(
                "{a} ~ {b}: {}{}",
                if r.equivalent { "equivalent" } else { "NOT equivalent" },
                r.first_difference
                    .map(|p| format!(" (first differs on {p})"))
                    .unwrap_or_default()
            );
            Ok(())
        }
        "sweep" => {
            let dir = args.get(1).ok_or_else(|| usage("sweep needs a config directory"))?;
            let k = get_k(args)?;
            let threads = get_threads(args)?;
            let opts = get_sweep_options(args)?;
            let t0 = std::time::Instant::now();
            let stream = has_flag(args, "--stream");
            let baseline = flag(args, "--baseline")?;
            if stream && baseline.is_some() {
                return Err(usage("--stream does not combine with --baseline"));
            }
            // The report can run to megabytes (one line per fragile
            // prefix): one lock and one buffer for all of it.
            let mut out = BufWriter::with_capacity(1 << 16, std::io::stdout().lock());
            // Only the fragile node ids of each prefix and the quarantined
            // families outlive the sweep; names are resolved at print time.
            let mut fragile: Vec<(Ipv4Prefix, Vec<NodeId>)> = Vec::new();
            let (v, quarantined) = match baseline {
                None => {
                    let v = verifier_for(dir, k)?;
                    let mut quarantined = Vec::new();
                    // The sink cannot return an error: the first write
                    // failure is kept, stops the sweep, and is surfaced once
                    // it ends. Only `--stream` writes while the sweep runs:
                    // one line per family, in the order workers finish them.
                    let mut written: std::io::Result<()> = Ok(());
                    let mut sink = |item: StreamedFamily| {
                        written = match item {
                            StreamedFamily::Done { reports, cost, .. } => {
                                let line = match reports.first() {
                                    Some(head) if stream => writeln!(
                                        out,
                                        "  family {} ({} prefix(es)): {} ops",
                                        head.prefix,
                                        reports.len(),
                                        cost.ops
                                    ),
                                    _ => Ok(()),
                                };
                                fragile.extend(fragile_of(reports));
                                line
                            }
                            StreamedFamily::Quarantined(q) if stream => writeln!(
                                out,
                                "  QUARANTINED {}: {}",
                                fam_label(&q.prefixes),
                                q.outcome
                            ),
                            StreamedFamily::Quarantined(q) => {
                                quarantined.push(q);
                                Ok(())
                            }
                        };
                        match written {
                            Ok(()) => ControlFlow::Continue(()),
                            Err(_) => ControlFlow::Break(()),
                        }
                    };
                    let swept = v.verify_all_routes_streaming(k, threads, &opts, &mut sink);
                    written?;
                    let summary = swept.map_err(|e| e.to_string())?;
                    let (n, elapsed) = (summary.prefixes, t0.elapsed());
                    if stream {
                        let (f, q) = (summary.families, summary.quarantined);
                        writeln!(
                            out,
                            "swept {n} prefixes ({f} family(ies), {q} quarantined) at k={k} in {elapsed:?} [streaming]"
                        )?;
                    } else {
                        writeln!(out, "swept {n} prefixes at k={k} in {elapsed:?}")?;
                    }
                    (v, quarantined)
                }
                Some(base_dir) => {
                    // Incremental path: sweep the baseline once (building the
                    // dependency-indexed cache), diff, then re-simulate only
                    // the dirty families of the target directory.
                    let base_snap = ConfigSnapshot::new(load_dir(&base_dir)?);
                    let new_snap = ConfigSnapshot::new(load_dir(dir)?);
                    let delta = base_snap.diff(&new_snap);
                    let v_base = Verifier::new(
                        base_snap.into_devices(),
                        VsbProfile::ground_truth,
                        Some(k),
                    )
                    .map_err(|e| format!("baseline model construction failed: {e}"))?;
                    let (_, cache) = v_base
                        .verify_all_routes_cached(k, threads)
                        .map_err(|e| e.to_string())?;
                    let v = Verifier::new(
                        new_snap.into_devices(),
                        VsbProfile::ground_truth,
                        Some(k),
                    )
                    .map_err(|e| format!("model construction failed: {e}"))?;
                    let outcome = v
                        .reverify_opts(&delta, &cache, k, threads, &opts)
                        .map_err(|e| e.to_string())?;
                    writeln!(
                        out,
                        "incremental sweep of {} prefixes at k={k} in {:?}: {} family(ies) recomputed, {} reused",
                        outcome.reports.len(),
                        t0.elapsed(),
                        outcome.recomputed,
                        outcome.reused
                    )?;
                    fragile.extend(fragile_of(outcome.reports));
                    (v, outcome.quarantined)
                }
            };
            if !quarantined.is_empty() {
                writeln!(
                    out,
                    "{} family(ies) quarantined (reports above exclude them):",
                    quarantined.len()
                )?;
                for q in &quarantined {
                    writeln!(out, "  QUARANTINED {}: {}", fam_label(&q.prefixes), q.outcome)?;
                }
            }
            fragile.sort_unstable_by_key(|&(p, _)| p);
            for (p, nodes) in &fragile {
                let names: Vec<&str> = nodes.iter().map(|n| v.net.topology.name(*n)).collect();
                writeln!(out, "  {p}: not {k}-failure resilient at {names:?}")?;
            }
            out.flush()?;
            Ok(())
        }
        "diff" => {
            let dir_a = args.get(1).ok_or_else(|| usage("diff needs <dirA> <dirB>"))?;
            let dir_b = args.get(2).ok_or_else(|| usage("diff needs <dirA> <dirB>"))?;
            let k = get_k(args)?;
            let threads = get_threads(args)?;
            let snap_a = ConfigSnapshot::new(load_dir(dir_a)?);
            let snap_b = ConfigSnapshot::new(load_dir(dir_b)?);
            let delta = snap_a.diff(&snap_b);
            print_delta(&delta, &snap_b);
            if delta.is_empty() {
                println!("families: all clean (no config changes)");
                return Ok(());
            }
            let v_a = Verifier::new(snap_a.into_devices(), VsbProfile::ground_truth, Some(k))
            .map_err(|e| format!("model construction failed for {dir_a}: {e}"))?;
            let (_, cache) = v_a
                .verify_all_routes_cached(k, threads)
                .map_err(|e| e.to_string())?;
            let v_b = Verifier::new(snap_b.into_devices(), VsbProfile::ground_truth, Some(k))
            .map_err(|e| format!("model construction failed for {dir_b}: {e}"))?;
            let classes = v_b.classify_families(&delta, &cache, k);
            let dirty = classes.iter().filter(|(_, r)| r.is_some()).count();
            println!(
                "families: {} total, {} dirty, {} clean",
                classes.len(),
                dirty,
                classes.len() - dirty
            );
            for (fam, reason) in &classes {
                match reason {
                    Some(r) => println!("  DIRTY {}: {r}", fam_label(fam)),
                    None => println!("  clean {}", fam_label(fam)),
                }
            }
            Ok(())
        }
        "audit" => {
            let before_dir = args.get(1).ok_or_else(|| usage("audit needs <before-dir> <after-dir>"))?;
            let after_dir = args.get(2).ok_or_else(|| usage("audit needs <before-dir> <after-dir>"))?;
            let k = get_k(args)?;
            let before = load_dir(before_dir)?;
            let after = load_dir(after_dir)?;
            let mut focus: Vec<Ipv4Prefix> = Vec::new();
            for p in flags(args, "--prefix") {
                focus.push(parse_prefix(&p)?);
            }
            if focus.is_empty() {
                // Default: every prefix whose origin set changed plus all
                // announced prefixes (bounded).
                let all: std::collections::BTreeSet<Ipv4Prefix> = after
                    .iter()
                    .chain(before.iter())
                    .filter_map(|c| c.bgp.as_ref())
                    .flat_map(|b| b.networks.iter().copied())
                    .collect();
                focus = all.into_iter().collect();
            }
            let report = hoyan::audit::audit_update(&before, &after, &focus, &[], k)
                .map_err(|e| e.to_string())?;
            if report.passed() {
                println!("audit PASSED: no findings on {} focus prefixes", focus.len());
            } else {
                println!("audit FAILED: {} finding(s)", report.findings.len());
                for f in &report.findings {
                    println!("  {f:?}");
                }
                return Err("update rejected".into());
            }
            Ok(())
        }
        "tune" => {
            let dir = args.get(1).ok_or_else(|| usage("tune needs a config directory"))?;
            let configs = load_dir(dir)?;
            let validator = Validator::new(configs.clone()).map_err(|e| e.to_string())?;
            let mut registry = ModelRegistry::naive();
            let prefixes: Vec<Vec<Ipv4Prefix>> = configs
                .iter()
                .filter_map(|c| c.bgp.as_ref())
                .flat_map(|b| b.networks.iter().map(|p| vec![*p]))
                .collect();
            let outcome = validator
                .tune(&mut registry, &prefixes, 64)
                .map_err(|e| e.to_string())?;
            println!(
                "tuner: {} patches over {} rounds",
                outcome.localizations.len(),
                outcome.rounds
            );
            for l in &outcome.localizations {
                println!(
                    "  {} on {} (vendor {}): ~{} config lines implicated",
                    l.vsb.name(),
                    l.hostname,
                    l.vendor.letter(),
                    l.config_lines
                );
            }
            let avg = |v: &[(Ipv4Prefix, f64)]| {
                100.0 * v.iter().map(|(_, a)| a).sum::<f64>() / v.len().max(1) as f64
            };
            println!(
                "accuracy: {:.1}% -> {:.1}%",
                avg(&outcome.accuracy_before),
                avg(&outcome.accuracy_after)
            );
            Ok(())
        }
        "serve" => {
            let dir = args.get(1).ok_or_else(|| usage("serve needs a config directory"))?;
            let addr = flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7411".to_string());
            let k = get_k(args)?;
            let workers = match num_flag(args, "--workers")? {
                Some(0) => return Err(usage("--workers must be at least 1")),
                Some(n) => n as usize,
                None => 4,
            };
            let queue_cap = num_flag(args, "--queue")?.unwrap_or(64) as usize;
            let budget = get_budget(args)?;
            let configs = load_dir(dir)?;
            let server = hoyan::core::Server::bind(
                configs,
                &addr,
                hoyan::core::ServeOptions {
                    workers,
                    queue_cap,
                    k,
                    sweep_threads: get_threads(args)?,
                    budget,
                    retry_after_ms: 100,
                },
            )
            .map_err(|e| e.to_string())?;
            // The "listening on" line is the startup handshake: scripts
            // bind port 0 and scrape the resolved ephemeral port from it.
            println!(
                "hoyan serve: {} device(s), {} resident family(ies) at k={k}; listening on {}",
                server.device_count(),
                server.family_count(),
                server.local_addr()
            );
            let _ = std::io::stdout().flush();
            let summary = server.run();
            println!(
                "hoyan serve: drained after {} request(s) ({} connection(s) rejected)",
                summary.requests, summary.rejected
            );
            Ok(())
        }
        _ => {
            println!(
                "hoyan — configuration verifier (SIGCOMM'20 reproduction)\n\
                 \n\
                 usage:\n\
                 \x20 hoyan gen <dir> [--size tiny|small|medium|reference|wan-large|wan-paper] [--seed N]\n\
                 \x20 hoyan verify <dir> --prefix P --device D [--k K]\n\
                 \x20 hoyan packet <dir> --prefix P --from D [--k K] [--proto tcp|udp|ip]\n\
                 \x20 hoyan scope  <dir> --prefix P\n\
                 \x20 hoyan racing <dir> --prefix P\n\
                 \x20 hoyan routers <dir> --prefix P --device D\n\
                 \x20 hoyan equiv  <dir> --a D1 --b D2\n\
                 \x20 hoyan sweep  <dir> [--k K] [--threads N] [--baseline <dirA>] [--fail-fast]\n\
                 \x20              [--family-node-budget N] [--family-op-budget N] [--family-deadline-ms MS]\n\
                 \x20              [--stream]\n\
                 \x20 hoyan diff   <dirA> <dirB> [--k K] [--threads N]\n\
                 \x20 hoyan audit  <before-dir> <after-dir> [--k K] [--prefix P ...]\n\
                 \x20 hoyan tune   <dir>\n\
                 \x20 hoyan serve  <dir> [--addr A:P] [--k K] [--workers N] [--queue N]\n\
                 \x20              [--family-node-budget N] [--family-op-budget N] [--family-deadline-ms MS]\n\
                 \n\
                 global flags (any subcommand):\n\
                 \x20 --stats            print a span-tree/metrics table after the command\n\
                 \x20 --stats-json PATH  write the metrics registry as deterministic JSON\n\
                 \x20 --attribution      print the per-family cost attribution table (top 20)\n\
                 \x20 --trace PATH       write a chrome://tracing / Perfetto timeline JSON\n\
                 \x20 --timing           record wall-clock times (non-deterministic outputs)\n\
                 \x20 --quiet            suppress degradation warnings on stderr"
            );
            Ok(())
        }
    }
}
