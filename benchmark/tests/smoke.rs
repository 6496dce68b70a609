//! `--quick` end to end: every workload through the real `hoyan` binary on
//! small fixtures, every metric name emitted, results written, seeds plumbed.
//!
//! The `hoyan` binary comes from `$HOYAN_BIN`, or is built (release, offline)
//! from the repository root into this crate's target directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use hoyan_benchmark::metrics::{END_TO_END, PER_LAYER};
use hoyan_benchmark::workloads::WORKLOADS;
use hoyan_rt::json::{self, Value};

fn target_dir() -> PathBuf {
    // <target>/<profile>/hoyan-benchmark
    Path::new(env!("CARGO_BIN_EXE_hoyan-benchmark"))
        .ancestors()
        .nth(2)
        .expect("binary lives in <target>/<profile>/")
        .to_path_buf()
}

fn hoyan() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("HOYAN_BIN") {
            return PathBuf::from(bin);
        }
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "hoyan",
            ])
            .arg("--manifest-path")
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .env("CARGO_TARGET_DIR", target_dir())
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building hoyan failed");
        target_dir().join("release/hoyan")
    })
}

fn bench(out: &str, args: &[&str]) -> (bool, String) {
    let out_dir = target_dir().join("benchmark-smoke").join(out);
    let run = Command::new(env!("CARGO_BIN_EXE_hoyan-benchmark"))
        .arg("--hoyan")
        .arg(hoyan())
        .arg("--out")
        .arg(&out_dir)
        .args(["--quick", "--seconds", "0.3"])
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
    if !run.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&run.stderr));
    }
    (run.status.success(), stdout)
}

#[test]
fn quick_run_emits_every_metric_and_writes_results() {
    let _ = hoyan();
    let (ok, stdout) = bench("all", &[]);
    assert!(ok, "quick run failed");
    for w in WORKLOADS {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let prefix = format!("{} {} ", w.name, def.name);
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line `{prefix}…`"));
            assert!(line.ends_with(&format!(" {}", def.unit)), "{line}");
        }
        assert!(stdout.contains(&format!("{} failed_share 0 ratio (0 failed of ", w.name)));
    }
    let results = target_dir().join("benchmark-smoke/all/results.json");
    let doc = json::parse(&std::fs::read_to_string(results).unwrap()).unwrap();
    assert_eq!(
        doc.get("workloads").and_then(Value::as_arr).unwrap().len(),
        WORKLOADS.len()
    );
    for w in WORKLOADS {
        let trace = target_dir().join(format!("benchmark-smoke/all/trace-{}.json", w.name));
        let spans = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        assert!(
            !spans
                .get("spans")
                .and_then(Value::as_arr)
                .unwrap()
                .is_empty(),
            "{}",
            w.name
        );
    }
}

fn digest_of(stdout: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.contains(" digest "))
        .expect("a digest line");
    line.rsplit(' ').next().unwrap().to_string()
}

#[test]
fn driver_mode_prints_the_result_object_and_seeds_are_plumbed() {
    let (ok, stdout) = bench(
        "one",
        &["--workload", "batch-paper", "--seed", "1", "--trace", "0"],
    );
    assert!(ok);
    let result = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
            "{name} must never be 0"
        );
    }

    let (_, again) = bench(
        "one",
        &["--workload", "batch-paper", "--seed", "1", "--trace", "0"],
    );
    let (_, other) = bench(
        "one",
        &["--workload", "batch-paper", "--seed", "2", "--trace", "0"],
    );
    assert_eq!(
        digest_of(&stdout),
        digest_of(&again),
        "same seed, same verdict"
    );
    assert_ne!(
        digest_of(&stdout),
        digest_of(&other),
        "another seed, another snapshot"
    );

    let (ok, traced) = bench(
        "one",
        &["--workload", "batch-paper", "--seed", "1", "--trace", "1"],
    );
    assert!(ok);
    let result = json::parse(traced.lines().last().unwrap()).unwrap();
    let names: Vec<&str> = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
    assert_eq!(
        digest_of(&stdout),
        digest_of(&traced),
        "CLI and traced path agree"
    );
}

#[test]
fn a_missing_hoyan_binary_is_an_error_not_a_result() {
    let run = Command::new(env!("CARGO_BIN_EXE_hoyan-benchmark"))
        .args([
            "--hoyan",
            "/nonexistent/hoyan",
            "--workload",
            "batch-igp",
            "--quick",
        ])
        .output()
        .unwrap();
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}
