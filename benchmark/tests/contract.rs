//! `BENCHMARK.json` is what the driver reads; `src/metrics.rs` and
//! `src/workloads.rs` are what the benchmark reports. They must not drift.

use hoyan_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use hoyan_benchmark::workloads::{DEFAULT_SECONDS, WORKLOADS};
use hoyan_rt::json::{self, Value};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing `{key}` in {v}"))
}

fn check_table(listed: &[Value], table: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
    let expect: Vec<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(names, expect);
    for (m, def) in listed.iter().zip(table) {
        assert_eq!(text(m, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(m, "better"), def.better.word(), "{}", def.name);
        let keys = m.as_obj().unwrap().len();
        if with_bound {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert_eq!(bound, def.bound, "{}", def.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
            assert_eq!(keys, 4, "{}", def.name);
        } else {
            assert_eq!(keys, 3, "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let c = contract();
    let keys: Vec<&str> = c
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strs = |key: &str| -> Vec<&str> {
        c.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect()
    };
    assert_eq!(strs("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strs("paths"), ["benchmark"]);
    assert_eq!(
        c.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );

    let workloads = c.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(listed, "name"), w.name);
        assert_eq!(text(listed, "why"), w.why);
        assert_eq!(listed.as_obj().unwrap().len(), 2);
    }
    check_table(
        c.get("end_to_end").and_then(Value::as_arr).unwrap(),
        END_TO_END,
        true,
    );
    check_table(
        c.get("per_layer").and_then(Value::as_arr).unwrap(),
        PER_LAYER,
        false,
    );
}

#[test]
fn names_and_units_fit_the_contract() {
    let ok_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(ok_name(def.name), "{}", def.name);
        assert!(ok_unit(def.unit), "{} {}", def.name, def.unit);
        assert!(seen.insert(def.name), "{} listed twice", def.name);
    }
    for w in WORKLOADS {
        assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}
