//! The repo benchmark's entry point. `run.sh` builds `hoyan` and this
//! binary, then passes its arguments through.
//!
//! ```text
//! hoyan-benchmark --hoyan BIN --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last stdout line is the result object
//!     {"correct", "attempted", "failed", "metrics"} (BENCHMARK.json contract)
//! hoyan-benchmark --hoyan BIN [--seed N] [--seconds S]
//!     every workload, untraced then traced; writes <out>/results.json
//! hoyan-benchmark --hoyan BIN repeat [--seed N] [--seconds S]
//!     two untraced sets on the same build, compared against the bounds
//!
//! common: [--quick] [--topology-seed N] [--out DIR]
//! ```
//!
//! Every run also prints one line per metric: `workload metric value unit`.

use std::path::PathBuf;
use std::process::ExitCode;

use hoyan_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use hoyan_benchmark::workloads::{
    self, default_threads, Outcome, RunCfg, Workload, DEFAULT_SECONDS, WORKLOADS,
};
use hoyan_rt::json::Value;

enum Mode {
    /// Every workload, untraced then traced.
    All,
    /// One run of one workload: the driver's invocation.
    One(String),
    Repeat,
}

struct Args {
    mode: Mode,
    trace: bool,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = Mode::All;
    let mut trace = false;
    let mut hoyan = None;
    let mut cfg = RunCfg {
        hoyan: PathBuf::new(),
        out: workloads::default_out(),
        seed: 42,
        topology_seed: 42,
        seconds: DEFAULT_SECONDS,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {name} `{v}`"))
        }
        match arg.as_str() {
            "repeat" => mode = Mode::Repeat,
            "--quick" => cfg.quick = true,
            "--workload" => mode = Mode::One(value("--workload")?),
            "--hoyan" => hoyan = Some(PathBuf::from(value("--hoyan")?)),
            "--out" => cfg.out = PathBuf::from(value("--out")?),
            "--seed" => cfg.seed = num("--seed", value("--seed")?)?,
            "--topology-seed" => {
                cfg.topology_seed = num("--topology-seed", value("--topology-seed")?)?
            }
            "--seconds" => cfg.seconds = num("--seconds", value("--seconds")?)?,
            "--trace" => trace = num::<u8>("--trace", value("--trace")?)? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.hoyan = hoyan.ok_or("--hoyan <path to the release hoyan binary> is required")?;
    if !cfg.hoyan.is_file() {
        return Err(format!("{} is not a file", cfg.hoyan.display()));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { mode, trace, cfg })
}

fn table(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `workload metric value unit`, one line per metric, plus the counts.
fn print_lines(w: &Workload, traced: bool, outcome: &Outcome) {
    for ((name, value), def) in outcome.metrics.iter().zip(table(traced)) {
        println!("{} {name} {value} {}", w.name, def.unit);
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{} failed_share {share} ratio ({} failed of {} attempted)",
        w.name, outcome.failed, outcome.attempted
    );
    for note in &outcome.notes {
        println!("# FAILED {}: {note}", w.name);
    }
}

fn metrics_value(traced: bool, outcome: &Outcome) -> Value {
    Value::Obj(
        outcome
            .metrics
            .iter()
            .zip(table(traced))
            .map(|((name, value), def)| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(*value)),
                    ("unit".into(), Value::Str(def.unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_object(traced: bool, outcome: &Outcome) -> Value {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), metrics_value(traced, outcome)),
    ])
}

/// One run of one workload, as the driver invokes it.
fn run_one(w: &Workload, traced: bool, cfg: &RunCfg) -> Result<bool, String> {
    println!(
        "# {} seed={} topology-seed={} seconds={} trace={} threads={} nproc={}{}",
        w.name,
        cfg.seed,
        cfg.topology_seed,
        cfg.seconds,
        traced as u8,
        default_threads(),
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        if cfg.quick { " quick" } else { "" }
    );
    let outcome = workloads::run(w, cfg, traced)?;
    print_lines(w, traced, &outcome);
    println!("{}", result_object(traced, &outcome));
    Ok(outcome.failed == 0)
}

/// Every workload, untraced then traced; `results.json` holds both.
fn run_all(cfg: &RunCfg) -> Result<bool, String> {
    let mut clean = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let mut row = vec![("workload".to_string(), Value::Str(w.name.into()))];
        for traced in [false, true] {
            let outcome = workloads::run(w, cfg, traced)?;
            print_lines(w, traced, &outcome);
            clean &= outcome.failed == 0;
            let key = if traced { "per_layer" } else { "end_to_end" };
            row.push((key.into(), result_object(traced, &outcome)));
            row.push((format!("{key}_digest"), Value::Str(outcome.digest)));
        }
        rows.push(Value::Obj(row));
    }
    let doc = Value::Obj(vec![
        ("seed".into(), Value::Num(cfg.seed as f64)),
        ("topology_seed".into(), Value::Num(cfg.topology_seed as f64)),
        ("seconds".into(), Value::Num(cfg.seconds)),
        ("threads".into(), Value::Num(default_threads() as f64)),
        ("quick".into(), Value::Bool(cfg.quick)),
        ("workloads".into(), Value::Arr(rows)),
    ]);
    let path = cfg.out.join("results.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(clean)
}

/// Two untraced sets on the same build: every (workload, end-to-end metric)
/// pair must agree within its bound, and the verdict digests exactly.
fn run_repeat(cfg: &RunCfg) -> Result<bool, String> {
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for set in 0..2 {
        println!("# set {}", set + 1);
        let mut outcomes = Vec::new();
        for w in WORKLOADS {
            let outcome = workloads::run(w, cfg, false)?;
            print_lines(w, false, &outcome);
            outcomes.push(outcome);
        }
        sets.push(outcomes);
    }
    let mut clean = true;
    println!("# workload metric set1 set2 worsening bound verdict");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for (def, ((_, v1), (_, v2))) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            // Worsening of the second set relative to the first, and of the
            // first relative to the second: neither order may exceed the bound.
            let worse = (v2 / v1 - 1.0).max(v1 / v2 - 1.0);
            let ok = worse <= def.bound;
            clean &= ok;
            println!(
                "{} {} {v1} {v2} {worse:.4} {} {}",
                w.name,
                def.name,
                def.bound,
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
        let same = a.digest == b.digest;
        let failed = a.failed + b.failed;
        clean &= same && failed == 0;
        println!(
            "{} digest {} {} {}; {failed} failed operation(s)",
            w.name,
            a.digest,
            b.digest,
            if same { "identical" } else { "DIFFERENT" }
        );
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.mode {
        Mode::One(name) => match workloads::workload(name) {
            Some(w) => run_one(w, args.trace, &args.cfg),
            None => Err(format!(
                "unknown workload `{name}` (have: {})",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        },
        Mode::Repeat => run_repeat(&args.cfg),
        Mode::All => run_all(&args.cfg),
    };
    match outcome {
        // A wrong answer is reported in the result object, not by the exit
        // code: the driver reads `correct` and `failed`. The human modes
        // (all, repeat) exit 1 on any failure.
        Ok(clean) if clean || matches!(args.mode, Mode::One(_)) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
