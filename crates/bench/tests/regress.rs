//! The `experiments regress` gate: exit codes and tolerance rules, plus the
//! tier-1 wiring — fresh `experiments bdd` / `serve` / `wan` runs diffed
//! against the committed `BENCH_bdd.json` / `BENCH_serve.json` /
//! `BENCH_wan.json` baselines. The tier-1 gates run *strictly* (no `--warn-only`) under
//! `--counters-only`: deterministic counters are pure functions of the
//! seeded workload, so they must match the committed release-mode baselines
//! exactly even in a debug test run, while machine-dependent wall-clock
//! leaves stay out of scope.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn write(dir: &std::path::Path, name: &str, body: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path.to_str().unwrap().to_string()
}

fn bench_json(ops: u64, median_ns: f64) -> String {
    format!(
        r#"{{
  "suite": "t",
  "results": [
    {{"name": "sweep", "samples": 2, "iters_per_sample": 1, "median_ns": {median_ns}, "mean_ns": {median_ns}, "min_ns": 1.0, "max_ns": 9.0}}
  ],
  "metrics": {{ "sweep": {{ "schema": 2, "counters": {{ "bdd.ops": {ops} }} }} }}
}}
"#
    )
}

#[test]
fn identical_inputs_pass_and_synthetic_regression_fails() {
    let dir = std::env::temp_dir().join(format!("hoyan-regress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = write(&dir, "base.json", &bench_json(1000, 100.0));
    let same = write(&dir, "same.json", &bench_json(1000, 100.0));
    // +20% on a deterministic counter: over the 2% tolerance.
    let worse = write(&dir, "worse.json", &bench_json(1200, 100.0));
    // +30% wall clock: within the 40% timing tolerance. -1% ops: an
    // improvement, never a failure.
    let noisy = write(&dir, "noisy.json", &bench_json(990, 130.0));
    // +100% wall clock (a timing regression) but identical counters.
    let slow = write(&dir, "slow.json", &bench_json(1000, 200.0));

    let run = |args: &[&str]| {
        let out = experiments().args(args).output().unwrap();
        (out.status.code(), String::from_utf8_lossy(&out.stdout).to_string())
    };

    let (code, _) = run(&["regress", &base, &same]);
    assert_eq!(code, Some(0), "identical inputs must pass");

    let (code, stdout) = run(&["regress", &base, &worse]);
    assert_eq!(code, Some(1), "20% ops growth must fail:\n{stdout}");
    assert!(stdout.contains("REGRESS"), "{stdout}");
    assert!(stdout.contains("bdd.ops"), "{stdout}");

    let (code, stdout) = run(&["regress", &base, &worse, "--warn-only"]);
    assert_eq!(code, Some(0), "warn-only never fails:\n{stdout}");
    assert!(stdout.contains("REGRESS"), "{stdout}");

    let (code, stdout) = run(&["regress", &base, &noisy]);
    assert_eq!(code, Some(0), "timing noise and improvements pass:\n{stdout}");
    assert!(stdout.contains("improve"), "{stdout}");

    // `--counters-only` still catches counter regressions strictly…
    let (code, stdout) = run(&["regress", &base, &worse, "--counters-only"]);
    assert_eq!(code, Some(1), "counters-only must still gate counters:\n{stdout}");
    assert!(stdout.contains("[counters-only]"), "{stdout}");

    // …but a pure timing blowup is out of scope for it (and the timing
    // leaves are not even compared).
    let (code, stdout) = run(&["regress", &base, &slow, "--counters-only"]);
    assert_eq!(code, Some(0), "counters-only must ignore timing leaves:\n{stdout}");
    assert!(!stdout.contains("median_ns"), "{stdout}");

    let (code, _) = run(&["regress", &base]);
    assert_eq!(code, Some(2), "missing operand is a usage error");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tier-1 gate: regenerate the BDD bench on this machine and diff its
/// deterministic counters against the committed baseline — strictly. Any
/// change to the BDD workload (ops, cache traffic, GC behaviour) fails the
/// build until `BENCH_bdd.json` is regenerated on purpose.
#[test]
fn committed_bdd_baseline_gates_counters_strictly() {
    let dir = std::env::temp_dir().join(format!("hoyan-regress-bdd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bdd.json");
    assert!(
        std::path::Path::new(committed).exists(),
        "committed BENCH_bdd.json baseline is missing"
    );

    let out = experiments()
        .args(["bdd"])
        .env("HOYAN_BENCH_DIR", dir.to_str().unwrap())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = dir.join("BENCH_bdd.json");
    assert!(fresh.exists());

    let out = experiments()
        .args(["regress", committed, fresh.to_str().unwrap(), "--counters-only"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "deterministic counters drifted from the committed BENCH_bdd.json — \
         regenerate the baseline if the change is intentional:\n{stdout}"
    );
    assert!(stdout.contains("[counters-only]"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pulls the integer value of `"key": <n>` out of a JSON string. Enough
/// for the flat `summary/counters` blocks the serve and wan suites write.
fn json_counter(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\"");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {needle} in baseline"));
    json[at + needle.len()..]
        .trim_start_matches([':', ' '])
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The second tier-1 gate, on the resident-daemon baseline: the committed
/// `BENCH_serve.json` must show the acceptance-level load (≥200 mixed
/// requests from the 8-client mix, both hostile probes quarantined, zero
/// rejected connections, a real cache-hit majority), and a fresh
/// `experiments serve` run must reproduce its deterministic counters
/// exactly. Latency percentiles live outside the `counters` section and
/// are never compared.
#[test]
fn committed_serve_baseline_gates_counters_strictly() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let text = std::fs::read_to_string(committed)
        .expect("committed BENCH_serve.json baseline is missing");
    let requests = json_counter(&text, "requests");
    assert!(requests >= 200, "baseline must cover >=200 mixed requests, has {requests}");
    assert_eq!(json_counter(&text, "over_budget"), 2, "both hostile probes quarantined");
    assert_eq!(json_counter(&text, "rejected"), 0);
    let hits = json_counter(&text, "cache_hits");
    let misses = json_counter(&text, "cache_misses");
    assert!(
        hits > misses,
        "the resident cache must answer the majority of the mix ({hits} hits / {misses} misses)"
    );
    assert!(json_counter(&text, "reverify_dirty") >= 1, "the whatif push must dirty a family");

    let dir = std::env::temp_dir().join(format!("hoyan-regress-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = experiments()
        .args(["serve"])
        .env("HOYAN_BENCH_DIR", dir.to_str().unwrap())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = dir.join("BENCH_serve.json");
    assert!(fresh.exists());

    let out = experiments()
        .args(["regress", committed, fresh.to_str().unwrap(), "--counters-only"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "deterministic counters drifted from the committed BENCH_serve.json — \
         regenerate the baseline if the change is intentional:\n{stdout}"
    );
    assert!(stdout.contains("[counters-only]"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper-scale WAN gate, on the committed `BENCH_wan.json` baseline:
/// the committed file must describe a paper-scale sweep, and a fresh
/// `experiments wan` run (which itself asserts that the streamed sweep
/// matches the materialized one) must reproduce every deterministic
/// counter exactly.
#[test]
fn committed_wan_baseline_gates_counters_strictly() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wan.json");
    let text = std::fs::read_to_string(committed)
        .expect("committed BENCH_wan.json baseline is missing");
    let families = json_counter(&text, "families");
    assert!(families >= 2000, "paper-scale fixture must carry O(1k) families, has {families}");
    assert!(json_counter(&text, "prefixes") >= 10_000, "paper-scale fixture must carry O(10k) prefixes");

    let dir = std::env::temp_dir().join(format!("hoyan-regress-wan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = experiments()
        .args(["wan"])
        .env("HOYAN_BENCH_DIR", dir.to_str().unwrap())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = dir.join("BENCH_wan.json");
    assert!(fresh.exists());

    let out = experiments()
        .args(["regress", committed, fresh.to_str().unwrap(), "--counters-only"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "deterministic counters drifted from the committed BENCH_wan.json — \
         regenerate the baseline if the change is intentional:\n{stdout}"
    );
    assert!(stdout.contains("[counters-only]"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
