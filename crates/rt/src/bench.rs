//! A minimal benchmark harness (the in-tree `criterion` replacement).
//!
//! Each benchmark is timed as: a warmup phase (to populate caches and pick
//! an iteration count such that one sample takes a measurable slice of
//! time), then `samples` timed samples of `iters` iterations each. The
//! reported statistics are per-iteration nanoseconds; the headline number is
//! the **median** (robust to scheduler noise, unlike the mean).
//!
//! Results print as human-readable rows and, on [`BenchSuite::finish`], are
//! written to `BENCH_<suite>.json` (in `HOYAN_BENCH_DIR`, default the
//! current directory) so tooling can diff runs:
//!
//! ```json
//! {
//!   "suite": "bdd",
//!   "results": [
//!     {"name": "sweep", "samples": 5, "iters_per_sample": 1,
//!      "median_ns": 13400682.0, "mean_ns": 13390230.6,
//!      "min_ns": 13260896.0, "max_ns": 13582302.0}
//!   ]
//! }
//! ```
//!
//! Environment knobs: `HOYAN_BENCH_QUICK=1` (shorter samples and warmup
//! — for smoke runs), `HOYAN_BENCH_DIR=<dir>` (JSON output directory).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Statistics for one benchmark, in per-iteration nanoseconds.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (conventionally `group/name`).
    pub name: String,
    /// Number of timed samples.
    pub samples: u32,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// A named collection of benchmarks that shares configuration and emits one
/// JSON report.
pub struct BenchSuite {
    suite: String,
    results: Vec<BenchResult>,
    metrics_json: Option<String>,
    /// Target wall time for one sample; the warmup phase picks an iteration
    /// count to hit it.
    pub sample_target: Duration,
    /// Warmup duration before sampling.
    pub warmup: Duration,
}

impl BenchSuite {
    /// Creates a suite. `HOYAN_BENCH_QUICK=1` shrinks all budgets.
    pub fn new(suite: &str) -> BenchSuite {
        let quick = std::env::var("HOYAN_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
        BenchSuite {
            suite: suite.to_string(),
            results: Vec::new(),
            metrics_json: None,
            sample_target: Duration::from_millis(if quick { 5 } else { 25 }),
            warmup: Duration::from_millis(if quick { 20 } else { 200 }),
        }
    }

    /// Times `f` over `samples` timed samples, printing a row and recording
    /// the result.
    pub fn bench_with_samples<R>(&mut self, name: &str, samples: u32, f: &mut impl FnMut() -> R) {
        // Warmup: run until the warmup budget elapses, counting iterations
        // to estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        // Pick iterations per sample to hit the sample target, at least 1.
        let iters = ((self.sample_target.as_secs_f64() / per_iter.max(1e-9)) as u64).max(1);

        let mut sample_ns: Vec<f64> = Vec::with_capacity(samples as usize);
        for _ in 0..samples.max(1) {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            sample_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        sample_ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = sample_ns[sample_ns.len() / 2];
        let mean = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;
        let result = BenchResult {
            name: name.to_string(),
            samples: samples.max(1),
            iters_per_sample: iters,
            median_ns: median,
            mean_ns: mean,
            min_ns: sample_ns[0],
            max_ns: *sample_ns.last().expect("nonempty"),
        };
        println!(
            "{:<44} median {:>12} mean {:>12} min {:>12} max {:>12}  ({} x {} iters)",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.mean_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.max_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Attaches a pre-serialized JSON value (e.g. `hoyan_obs::export_json()`)
    /// to be embedded verbatim as the report's `"metrics"` field, so perf
    /// numbers carry the counters that explain them. The string must be
    /// valid JSON; it is not escaped or validated here (this keeps the
    /// harness independent of the observability crate).
    pub fn set_metrics_json(&mut self, json: String) {
        self.metrics_json = Some(json);
    }

    /// Serializes the suite report as JSON (hand-rolled: the format above).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape(&self.suite)));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"samples\": {}, \"iters_per_sample\": {}, \
                 \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{}\n",
                escape(&r.name),
                r.samples,
                r.iters_per_sample,
                r.median_ns,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        match &self.metrics_json {
            None => out.push_str("  ]\n}\n"),
            Some(m) => {
                out.push_str("  ],\n  \"metrics\": ");
                out.push_str(m.trim_end());
                out.push_str("\n}\n");
            }
        }
        out
    }

    /// Writes `BENCH_<suite>.json` into `HOYAN_BENCH_DIR` (default `.`) and
    /// prints where it went. Call once at the end of a bench binary.
    pub fn finish(self) {
        let dir = std::env::var("HOYAN_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.suite));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_suite(name: &str) -> BenchSuite {
        let mut s = BenchSuite::new(name);
        s.sample_target = Duration::from_micros(200);
        s.warmup = Duration::from_micros(200);
        s
    }

    #[test]
    fn bench_produces_sane_stats() {
        let mut s = quick_suite("selftest");
        s.bench_with_samples("busy/sum", 3, &mut || (0..100u64).sum::<u64>());
        let r = &s.results()[0];
        assert_eq!(r.samples, 3);
        assert!(r.iters_per_sample >= 1);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.median_ns > 0.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut s = quick_suite("fmt");
        s.bench_with_samples("a/b", 3, &mut || 1 + 1);
        let j = s.to_json();
        assert!(j.contains("\"suite\": \"fmt\""));
        assert!(j.contains("\"name\": \"a/b\""));
        assert!(j.contains("\"median_ns\""));
        // Valid-enough JSON: balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn metrics_json_is_embedded_verbatim() {
        let mut s = quick_suite("m");
        s.bench_with_samples("a/b", 3, &mut || 1 + 1);
        s.set_metrics_json("{\"schema\": 1}\n".to_string());
        let j = s.to_json();
        assert!(j.contains("\"metrics\": {\"schema\": 1}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.3), "12.3ns");
        assert_eq!(fmt_ns(12_300.0), "12.30us");
        assert_eq!(fmt_ns(12_300_000.0), "12.30ms");
        assert_eq!(fmt_ns(2_000_000_000.0), "2.00s");
    }
}
