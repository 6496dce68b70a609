//! End-to-end tests of the `hoyan` CLI binary: generate a WAN to disk,
//! then drive every subcommand against the on-disk configs (this exercises
//! the full text → parse → verify pipeline exactly as an operator would).

use std::process::Command;

fn hoyan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hoyan"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hoyan-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_verify_scope_racing_equiv() {
    let dir = tempdir("main");
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("CR0x0.cfg").exists());

    let out = hoyan()
        .args([
            "verify",
            dir.to_str().unwrap(),
            "--prefix",
            "10.0.0.0/24",
            "--device",
            "CR1x0",
            "--k",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reachable now:          true"), "{stdout}");

    let out = hoyan()
        .args(["scope", dir.to_str().unwrap(), "--prefix", "10.0.0.0/24"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("devices hold a route"));

    let out = hoyan()
        .args(["racing", dir.to_str().unwrap(), "--prefix", "10.0.0.0/24"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ambiguous=false"));

    let out = hoyan()
        .args(["equiv", dir.to_str().unwrap(), "--a", "CR0x0", "--b", "CR0x1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("equivalent"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_rejects_ip_conflict() {
    let before = tempdir("audit-before");
    let after = tempdir("audit-after");
    for d in [&before, &after] {
        let out = hoyan()
            .args(["gen", d.to_str().unwrap(), "--size", "tiny", "--seed", "7"])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    // Introduce an IP conflict in the after snapshot.
    let victim = after.join("DC1x0.cfg");
    let text = std::fs::read_to_string(&victim).unwrap();
    let text = text.replace("router bgp 65001\n", "router bgp 65001\n  network 10.0.0.0/24\n");
    std::fs::write(&victim, text).unwrap();

    let out = hoyan()
        .args([
            "audit",
            before.to_str().unwrap(),
            after.to_str().unwrap(),
            "--k",
            "1",
            "--prefix",
            "10.0.0.0/24",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "conflicting update must be rejected");
    assert!(String::from_utf8_lossy(&out.stdout).contains("IpConflict"));

    // Identical snapshots pass.
    let out = hoyan()
        .args([
            "audit",
            before.to_str().unwrap(),
            before.to_str().unwrap(),
            "--k",
            "1",
            "--prefix",
            "10.0.0.0/24",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASSED"));

    let _ = std::fs::remove_dir_all(&before);
    let _ = std::fs::remove_dir_all(&after);
}

#[test]
fn stats_json_export_has_required_keys() {
    let dir = tempdir("stats");
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let json_path = dir.join("stats.json");
    let out = hoyan()
        .args([
            "sweep",
            dir.to_str().unwrap(),
            "--k",
            "1",
            "--stats",
            "--stats-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // --stats prints the human-readable table after the command output.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("spans (total / max / count):"), "{stdout}");
    assert!(stdout.contains("counters:"), "{stdout}");

    let json = std::fs::read_to_string(&json_path).unwrap();
    // Parses well enough: balanced structure and every required top-level
    // key of the schema present.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    for key in ["\"schema\"", "\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\""] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    // Counters from every instrumented subsystem are present (zeroed when
    // the subcommand didn't exercise them).
    for sub in ["propagate.", "isis.", "verify.", "bdd.", "sat.", "tuner."] {
        assert!(json.contains(&format!("\"{sub}")), "missing {sub}* in:\n{json}");
    }
    // The sweep actually recorded work and span timings.
    assert!(!json.contains("\"propagate.runs\": 0"), "{json}");
    assert!(json.contains("\"verify.sweep\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_config_reports_file_and_line() {
    let dir = tempdir("bad");
    std::fs::write(dir.join("X.cfg"), "hostname X\nbogus command here\n").unwrap();
    let out = hoyan()
        .args(["scope", dir.to_str().unwrap(), "--prefix", "10.0.0.0/24"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("X.cfg") && err.contains("line 2"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_malformed_configs_are_reported_at_once() {
    let dir = tempdir("bad-many");
    std::fs::write(dir.join("GOOD.cfg"), "hostname GOOD\n").unwrap();
    std::fs::write(dir.join("X.cfg"), "hostname X\nbogus command here\n").unwrap();
    std::fs::write(dir.join("Y.cfg"), "hostname Y\ninterface eth0\n  bogus-stmt\n").unwrap();
    let out = hoyan()
        .args(["scope", dir.to_str().unwrap(), "--prefix", "10.0.0.0/24"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    // One failing run must surface *every* bad file, not just the first.
    assert!(err.contains("X.cfg") && err.contains("line 2"), "{err}");
    assert!(err.contains("Y.cfg") && err.contains("line 3"), "{err}");
    assert!(err.contains("2 bad config file"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Makes a `dirA`/`dirB` pair: a generated tiny WAN and a copy with one
/// PE static-preference edit.
fn diff_pair(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let a = tempdir(&format!("{tag}-a"));
    let b = tempdir(&format!("{tag}-b"));
    let out = hoyan()
        .args(["gen", a.to_str().unwrap(), "--size", "tiny", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    for entry in std::fs::read_dir(&a).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, b.join(p.file_name().unwrap())).unwrap();
    }
    let victim = b.join("PE0x0.cfg");
    let text = std::fs::read_to_string(&victim).unwrap();
    let edited = text.replace("preference 1", "preference 9");
    assert_ne!(edited, text, "tiny WAN PE0x0 must carry a pinning static");
    std::fs::write(&victim, edited).unwrap();
    (a, b)
}

#[test]
fn diff_classifies_families() {
    let (a, b) = diff_pair("diff");
    let out = hoyan()
        .args(["diff", a.to_str().unwrap(), b.to_str().unwrap(), "--k", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("~ PE0x0"), "{stdout}");
    assert!(stdout.contains("origins"), "{stdout}");
    assert!(stdout.contains("DIRTY"), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
    // A one-static edit must not dirty everything on the tiny WAN.
    assert!(stdout.contains("1 dirty"), "{stdout}");

    // Identical directories: no families classified, delta empty.
    let out = hoyan()
        .args(["diff", a.to_str().unwrap(), a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all clean"), "{stdout}");

    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn unparsable_numeric_flags_exit_with_usage_code_2() {
    let dir = tempdir("usage");
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "tiny", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let d = dir.to_str().unwrap();

    let cases: &[&[&str]] = &[
        &["sweep", d, "--threads", "nope"],
        &["sweep", d, "--k", "many"],
        &["sweep", d, "--family-node-budget", "1e9"],
        &["sweep", d, "--family-op-budget", "-5"],
        &["gen", d, "--seed", "0x2a"],
        // A flag present without a value must be a usage error, not a
        // silent fall-back to the default.
        &["sweep", d, "--threads"],
        &["sweep", d, "--k", "--threads", "2"],
        &["serve", d, "--workers", "0"],
    ];
    for args in cases {
        let out = hoyan().args(*args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2 (usage), got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage error:"), "{args:?}: {err}");
    }

    // Runtime failures (not operator typos) keep exit code 1.
    let out = hoyan()
        .args(["scope", "/nonexistent-hoyan-dir", "--prefix", "10.0.0.0/24"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_reports_renamed_device_as_add_plus_remove() {
    let (a, b) = diff_pair("rename");
    // Rename PE1x0 → PE9x0 everywhere in the target snapshot (file name,
    // hostname, and every neighbor's `peer`/session reference, so the
    // configs stay consistent): the device genuinely disappears from one
    // side and appears on the other.
    for entry in std::fs::read_dir(&b).unwrap() {
        let p = entry.unwrap().path();
        let text = std::fs::read_to_string(&p).unwrap();
        if text.contains("PE1x0") {
            std::fs::write(&p, text.replace("PE1x0", "PE9x0")).unwrap();
        }
    }
    std::fs::rename(b.join("PE1x0.cfg"), b.join("PE9x0.cfg")).unwrap();

    let out = hoyan()
        .args(["diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("+ PE9x0 (added"), "{stdout}");
    assert!(stdout.contains("- PE1x0 (removed)"), "{stdout}");
    // The old bug: missing devices collapsed to `unwrap_or(0)` and
    // printed as an all-zero hash instead of being surfaced.
    assert!(!stdout.contains("hash 0000000000000000"), "{stdout}");
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn incremental_sweep_matches_fresh_sweep_output() {
    let (a, b) = diff_pair("basesweep");
    let fresh = hoyan()
        .args(["sweep", b.to_str().unwrap(), "--k", "1", "--threads", "2"])
        .output()
        .unwrap();
    assert!(fresh.status.success(), "{}", String::from_utf8_lossy(&fresh.stderr));
    let json_path = a.join("incr-stats.json");
    let incr = hoyan()
        .args([
            "sweep",
            b.to_str().unwrap(),
            "--baseline",
            a.to_str().unwrap(),
            "--k",
            "1",
            "--threads",
            "2",
            "--stats-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(incr.status.success(), "{}", String::from_utf8_lossy(&incr.stderr));
    let fresh_out = String::from_utf8_lossy(&fresh.stdout);
    let incr_out = String::from_utf8_lossy(&incr.stdout);
    assert!(incr_out.contains("recomputed"), "{incr_out}");
    // Everything below the summary line (the per-prefix fragility findings)
    // must be identical between the fresh and incremental sweeps.
    let body = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
    assert_eq!(body(&fresh_out), body(&incr_out));
    // The pinned metrics schema carries the new counters, with real values.
    let json = std::fs::read_to_string(&json_path).unwrap();
    for key in ["\"verify.families_recomputed\"", "\"verify.families_reused\""] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    assert!(!json.contains("\"verify.families_reused\": 0"), "{json}");
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn unknown_flags_exit_with_usage_code_2() {
    let dir = tempdir("unknown-flag");
    let out = hoyan()
        .args([
            "gen",
            dir.to_str().unwrap(),
            "--size",
            "tiny",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let d = dir.to_str().unwrap();

    // Retired options and typos must not quietly run a different sweep
    // than the caller asked for.
    let cases: &[(&[&str], &str)] = &[
        (&["sweep", d, "--modular"], "--modular"),
        (&["sweep", d, "--abstraction", "full"], "--abstraction"),
        (&["sweep", d, "--thread", "4"], "--thread"),
        (&["sweep", d, "--k=1", "--fail-fast=yes"], "--fail-fast=yes"),
        (
            &[
                "verify",
                d,
                "--prefix",
                "10.0.0.0/24",
                "--device",
                "CR1x0",
                "--threads",
                "2",
            ],
            "--threads",
        ),
        (&["serve", d, "--schedule", "deps"], "--schedule"),
        (&["sweep", d, "--schedule", "deps"], "--schedule"),
        (&["sweep", d, "--bdd-order", "dfs"], "--bdd-order"),
    ];
    for (args, bad) in cases {
        let out = hoyan().args(*args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2 (usage): {err}"
        );
        assert!(
            err.contains(&format!("unknown flag `{bad}`")),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }

    // Accepted spellings still work, global flags included.
    let out = hoyan()
        .args([
            "sweep",
            d,
            "--k=1",
            "--threads",
            "2",
            "--fail-fast",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_into_a_reader_that_closes_early_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // `medium` at k=1 prints ~135 KB: more than the output buffer plus the
    // pipe's capacity, so the sweep is still writing when the reader goes.
    let dir = tempdir("closed-pipe");
    let out = hoyan()
        .args(["gen", dir.to_str().unwrap(), "--size", "medium", "--seed", "42"])
        .output()
        .unwrap();
    assert!(out.status.success());
    for extra in [None, Some("--stream")] {
        let mut child = hoyan()
            .args(["sweep", dir.to_str().unwrap(), "--k", "1", "--threads", "2"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut first = String::new();
        // `hoyan sweep … | head -1`: one line, then the read end closes.
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut first)
            .unwrap();
        assert!(!first.is_empty(), "{extra:?}: no first line");
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{extra:?}: {err}");
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_and_streamed_sweeps_agree() {
    let dir = tempdir("stream-agree");
    let d = dir.to_str().unwrap();
    let out = hoyan()
        .args(["gen", d, "--size", "small", "--seed", "42"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let sweep = |stream: bool, faults: &str| {
        let out = hoyan()
            .args(["sweep", d, "--k", "1", "--threads", "2"])
            .args(stream.then_some("--stream"))
            .env("HOYAN_FAULTS", faults)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    // The prefix count is the number right after "swept ".
    let swept = |s: &str| -> usize {
        let line = s
            .lines()
            .find(|l| l.starts_with("swept "))
            .expect("summary line");
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    let lines = |s: &str, pat: &str| -> Vec<String> {
        let mut v: Vec<String> = s
            .lines()
            .filter(|l| l.contains(pat))
            .map(String::from)
            .collect();
        v.sort();
        v
    };
    for faults in ["", "verify.family@1=error"] {
        let (default, streamed) = (sweep(false, faults), sweep(true, faults));
        assert!(streamed.contains("[streaming]"), "{streamed}");
        assert_eq!(swept(&default), swept(&streamed), "{faults:?}");
        let fragile = lines(&default, "-failure resilient at");
        assert!(!fragile.is_empty(), "{default}");
        assert_eq!(
            fragile,
            lines(&streamed, "-failure resilient at"),
            "{faults:?}"
        );
        let quarantined = lines(&default, "QUARANTINED");
        assert_eq!(
            quarantined.len(),
            usize::from(!faults.is_empty()),
            "{default}"
        );
        assert_eq!(quarantined, lines(&streamed, "QUARANTINED"), "{faults:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
