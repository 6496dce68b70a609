//! Sinks: the deterministic-schema JSON export and the human-readable
//! span-tree/metrics table.
//!
//! JSON schema (version [`SCHEMA_VERSION`]); every map is emitted in
//! lexicographic key order, so two exports with equal metric values are
//! byte-identical:
//!
//! ```json
//! {
//!   "schema": 5,
//!   "counters": {"bdd.ops": 12034, "...": 0},
//!   "gauges": {"bdd.peak_nodes": 4096},
//!   "histograms": {"propagate.steps_per_run":
//!       {"bounds": [1, 2, 4], "counts": [0, 1, 2, 0], "sum": 9, "count": 3}},
//!   "spans": {"verify.sweep/verify.family":
//!       {"count": 4, "total_ns": 1200, "max_ns": 400}},
//!   "family_cost": [
//!       {"family": 0, "label": "10.0.0.0/24", "ops": 812, "peak_nodes": 96,
//!        "ite_hits": 120, "ite_misses": 64, "gc_runs": 0, "wall_ns": 0,
//!        "quarantined": false, "reused": false}]
//! }
//! ```
//!
//! Versioning rule: `schema` bumps when a section is *added* or a
//! pre-registered key is *removed*; the keys that remain never change shape
//! or meaning within the lifetime of this exporter. Schema 2 added the
//! `family_cost` section (per-family cost attribution from the sweep flight
//! recorder, empty unless the recorder was armed) and the
//! `obs.events_dropped` counter (flight-recorder ring overflow). Schema 3
//! removed `verify.families_abstract_proved`, `verify.families_refined`,
//! `verify.regions` and `verify.region_boundary_links` together with the
//! abstract first pass and region partitioning they described. Schema 4
//! added the `verify.classes` counter (simulations a sweep ran, one per
//! behaviour class, beside the per-family `verify.families`). Schema 5
//! removed `verify.sched_batches`, `verify.sched_steals`,
//! `bdd.order.passes` and `bdd.order.links` together with the
//! dependency-aware scheduler and the topology-aware variable orderings
//! they described.
//!
//! Counters and histograms are deterministic for a fixed workload (they
//! count work, not time); gauges may reflect runtime configuration (e.g.
//! thread counts) and spans carry wall-clock nanoseconds, so consumers that
//! diff runs should compare the `counters` and `histograms` sections.
//! `family_cost` is deterministic too, except its `wall_ns` fields, which
//! stay 0 unless `--timing` opted into wall-clock capture.

use std::fmt::Write as _;

/// Version stamped into the `schema` field of the JSON export.
pub const SCHEMA_VERSION: u32 = 5;

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

fn write_u64_list(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Serializes the full registry (counters, gauges, histograms, spans) as
/// deterministic JSON.
pub fn export_json() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");

    out.push_str("  \"counters\": {");
    let counters = crate::counter_values();
    for (i, (name, v)) in counters.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{}\": {v}",
            if i > 0 { "," } else { "" },
            escape(name)
        );
    }
    out.push_str(if counters.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"gauges\": {");
    let gauges = crate::gauge_values();
    for (i, (name, v)) in gauges.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{}\": {v}",
            if i > 0 { "," } else { "" },
            escape(name)
        );
    }
    out.push_str(if gauges.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"histograms\": {");
    let histograms = crate::histogram_values();
    for (i, (name, h)) in histograms.iter().enumerate() {
        let _ = write!(out, "{}\n    \"{}\": {{\"bounds\": ", if i > 0 { "," } else { "" }, escape(name));
        write_u64_list(&mut out, &h.bounds);
        out.push_str(", \"counts\": ");
        write_u64_list(&mut out, &h.counts);
        let _ = write!(out, ", \"sum\": {}, \"count\": {}}}", h.sum, h.count);
    }
    out.push_str(if histograms.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"spans\": {");
    let spans = crate::span_values();
    for (i, (path, a)) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
            if i > 0 { "," } else { "" },
            escape(path),
            a.count,
            a.total_ns,
            a.max_ns
        );
    }
    out.push_str(if spans.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"family_cost\": [");
    let costs = crate::unit_costs();
    for (i, c) in costs.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"family\": {}, \"label\": \"{}\", \"ops\": {}, \"peak_nodes\": {}, \
             \"ite_hits\": {}, \"ite_misses\": {}, \"gc_runs\": {}, \"wall_ns\": {}, \
             \"quarantined\": {}, \"reused\": {}}}",
            if i > 0 { "," } else { "" },
            c.unit,
            escape(&c.label),
            c.ops,
            c.peak_nodes,
            c.ite_hits,
            c.ite_misses,
            c.gc_runs,
            c.wall_ns,
            c.quarantined,
            c.reused
        );
    }
    out.push_str(if costs.is_empty() { "]\n" } else { "\n  ]\n" });

    out.push_str("}\n");
    out
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Renders the span tree and all metrics as a human-readable table (the
/// CLI's `--stats` output).
pub fn render_table() -> String {
    let mut out = String::new();

    let spans = crate::ordered_span_values();
    if !spans.is_empty() {
        out.push_str("spans (total / max / count):\n");
        // Discovery order: children under their parent, siblings by when
        // the workload first reached them (see `ordered_span_values`).
        for (path, a) in &spans {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "  {:indent$}{:<32} {:>10}  {:>10}  x{}",
                "",
                leaf,
                fmt_ns(a.total_ns),
                fmt_ns(a.max_ns),
                a.count,
                indent = depth * 2
            );
        }
    }

    let counters = crate::counter_values();
    if counters.iter().any(|(_, v)| *v > 0) {
        out.push_str("counters:\n");
        for (name, v) in &counters {
            if *v > 0 {
                let _ = writeln!(out, "  {name:<40} {v}");
            }
        }
    }

    let gauges = crate::gauge_values();
    if gauges.iter().any(|(_, v)| *v > 0) {
        out.push_str("gauges:\n");
        for (name, v) in &gauges {
            if *v > 0 {
                let _ = writeln!(out, "  {name:<40} {v}");
            }
        }
    }

    let histograms = crate::histogram_values();
    if histograms.iter().any(|(_, h)| h.count > 0) {
        out.push_str("histograms (bucket<=bound: count):\n");
        for (name, h) in &histograms {
            if h.count == 0 {
                continue;
            }
            let _ = write!(out, "  {:<40} n={} sum={} ", name, h.count, h.sum);
            let mut first = true;
            for (i, c) in h.counts.iter().enumerate() {
                if *c == 0 {
                    continue;
                }
                if !first {
                    out.push(' ');
                }
                first = false;
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = write!(out, "<={b}:{c}");
                    }
                    None => {
                        let _ = write!(out, ">{}:{c}", h.bounds.last().copied().unwrap_or(0));
                    }
                }
            }
            out.push('\n');
        }
    }

    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

fn fmt_ts(us: f64) -> String {
    if us.fract() == 0.0 {
        format!("{}", us as u64)
    } else {
        format!("{us:.3}")
    }
}

/// Serializes the flight-recorder log as a Chrome trace-event JSON array,
/// loadable in Perfetto / `chrome://tracing` (the CLI's `--trace PATH`
/// sink). Families become complete (`"ph": "X"`) slices carrying their op
/// count and peak node footprint; GC runs, budget breaches, quarantine
/// verdicts and cache reuses become instant events on the same track.
///
/// With timing off, timestamps are logical event sequence numbers (1 µs
/// apart) on a single track, so the file is byte-identical across thread
/// counts. With [`crate::set_timing`] on, timestamps are wall-clock
/// microseconds since the recorder epoch and each worker gets its own
/// track, showing the real parallel timeline.
pub fn export_chrome_trace() -> String {
    let events = crate::events_snapshot();
    let costs = crate::unit_costs();
    let timing = crate::timing();

    let mut labels: std::collections::BTreeMap<u64, &String> = std::collections::BTreeMap::new();
    for c in &costs {
        labels.entry(c.unit).or_insert(&c.label);
    }
    let name_of = |unit: u64| {
        if unit == crate::events::UNATTRIBUTED_UNIT {
            "(unattributed)".to_string()
        } else {
            match labels.get(&unit) {
                Some(l) => format!("family {unit}: {l}"),
                None => format!("family {unit}"),
            }
        }
    };

    let mut entries: Vec<String> = vec![
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"hoyan sweep\"}}"
            .to_string(),
    ];
    let mut tids: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    if timing {
        for e in &events {
            tids.insert(e.worker);
        }
        tids.insert(0);
    } else {
        tids.insert(0);
    }
    for t in &tids {
        let tname = if timing {
            format!("worker {t}")
        } else {
            "families (deterministic logical order)".to_string()
        };
        entries.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {t}, \
             \"args\": {{\"name\": \"{tname}\"}}}}"
        ));
    }

    let tid_of = |e: &crate::Event| if timing { e.worker } else { 0 };
    let mut idx = 0;
    let mut tick = 0u64;
    while idx < events.len() {
        let unit = events[idx].unit;
        let mut block_end = idx;
        while block_end < events.len() && events[block_end].unit == unit {
            block_end += 1;
        }
        let block = &events[idx..block_end];
        let ts: Vec<f64> = block
            .iter()
            .map(|e| {
                if timing {
                    e.t_ns as f64 / 1_000.0
                } else {
                    let t = tick as f64;
                    tick += 1;
                    t
                }
            })
            .collect();
        let start_pos = block
            .iter()
            .position(|e| matches!(e.kind, crate::EventKind::FamilyStart));
        let end_pos = block
            .iter()
            .position(|e| matches!(e.kind, crate::EventKind::FamilyEnd { .. }));
        if let Some(sp) = start_pos {
            let s_ts = ts[sp];
            let e_ts = end_pos.map(|p| ts[p]).unwrap_or(ts[block.len() - 1]);
            let dur = (e_ts - s_ts).max(1.0);
            let args = match end_pos.map(|p| block[p].kind) {
                Some(crate::EventKind::FamilyEnd { ops, peak_nodes }) => {
                    format!(", \"args\": {{\"ops\": {ops}, \"peak_nodes\": {peak_nodes}}}")
                }
                _ => String::new(),
            };
            entries.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
                 \"ts\": {}, \"dur\": {}{}}}",
                escape(&name_of(unit)),
                tid_of(&block[sp]),
                fmt_ts(s_ts),
                fmt_ts(dur),
                args
            ));
        }
        for (k, e) in block.iter().enumerate() {
            let args = match e.kind {
                crate::EventKind::FamilyStart | crate::EventKind::FamilyEnd { .. } => continue,
                crate::EventKind::GcRun { reclaimed } => {
                    format!(", \"args\": {{\"reclaimed\": {reclaimed}}}")
                }
                _ => String::new(),
            };
            entries.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"i\", \"pid\": 0, \"tid\": {}, \
                 \"ts\": {}, \"s\": \"t\"{}}}",
                e.kind.name(),
                tid_of(e),
                fmt_ts(ts[k]),
                args
            ));
        }
        idx = block_end;
    }

    format!("[\n  {}\n]\n", entries.join(",\n  "))
}

/// Renders the "top-K most expensive families" table (the CLI's
/// `sweep --attribution` output) with a reconciliation footer: attributed
/// family ops + shared-base construction ops + work outside the sweep must
/// add up to the global `bdd.ops` counter. Reused (cache-replayed) family
/// costs are shown but excluded from the attributed sum — their ops were
/// burned by an earlier run.
pub fn render_attribution(top_k: usize) -> String {
    let costs = crate::unit_costs();
    let mut out = String::new();
    if costs.is_empty() {
        out.push_str("attribution: no family costs recorded (flight recorder disarmed?)\n");
        return out;
    }
    let mut ranked: Vec<&crate::UnitCost> = costs.iter().collect();
    ranked.sort_by(|a, b| {
        b.ops
            .cmp(&a.ops)
            .then(a.unit.cmp(&b.unit))
            .then(a.label.cmp(&b.label))
    });
    let shown = ranked.len().min(top_k);
    let timing = crate::timing();
    let _ = writeln!(
        out,
        "top {shown} of {} families by bdd.ops:",
        ranked.len()
    );
    let _ = writeln!(
        out,
        "  {:>4}  {:>10}  {:>10}  {:>6}  {:>4}  {:<5}{}  family",
        "#",
        "ops",
        "peak_nodes",
        "ite%",
        "gc",
        "flags",
        if timing { "  wall_ms" } else { "" }
    );
    for (i, c) in ranked.iter().take(shown).enumerate() {
        let flags = match (c.quarantined, c.reused) {
            (true, true) => "QR",
            (true, false) => "Q",
            (false, true) => "R",
            (false, false) => "-",
        };
        let wall = if timing {
            format!("  {:>7.2}", c.wall_ns as f64 / 1e6)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:>4}  {:>10}  {:>10}  {:>6.1}  {:>4}  {:<5}{}  {}",
            i + 1,
            c.ops,
            c.peak_nodes,
            c.ite_hit_rate() * 100.0,
            c.gc_runs,
            flags,
            wall,
            c.label
        );
    }
    let attributed: u64 = costs.iter().filter(|c| !c.reused).map(|c| c.ops).sum();
    let shared = crate::counter("verify.shared_base_ops").get();
    let total = crate::counter("bdd.ops").get();
    let other = total.saturating_sub(attributed + shared);
    let _ = writeln!(
        out,
        "attributed {attributed} ops across {} families + shared base {shared} \
         + outside sweep {other} = global bdd.ops {total}",
        costs.iter().filter(|c| !c.reused).count()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_balanced_and_sorted() {
        crate::counter("test.export.b").add(2);
        crate::counter("test.export.a").inc();
        crate::gauge("test.export.g").set(5);
        crate::histogram("test.export.h", &[1, 10]).observe(3);
        let j = export_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"schema\": 5"));
        assert!(j.contains("\"family_cost\": ["));
        let a = j.find("test.export.a").unwrap();
        let b = j.find("test.export.b").unwrap();
        assert!(a < b, "counters must be sorted");
        assert!(j.contains("\"bounds\": [1, 10]"));
        assert!(j.contains("\"counts\": [0, 1, 0]"));
    }

    #[test]
    fn table_renders_nonzero_metrics() {
        crate::counter("test.table.hits").add(7);
        let t = render_table();
        assert!(t.contains("test.table.hits"));
        assert!(t.contains('7'));
    }

    #[test]
    fn chrome_trace_and_attribution_render_the_recorded_sweep() {
        let _s = crate::events::test_serial();
        crate::set_events_enabled(true);
        crate::reset_events();
        crate::begin_unit(0);
        crate::record(crate::EventKind::FamilyStart);
        crate::record(crate::EventKind::GcRun { reclaimed: 12 });
        crate::record(crate::EventKind::FamilyEnd {
            ops: 100,
            peak_nodes: 40,
        });
        crate::begin_unit(1);
        crate::record(crate::EventKind::FamilyStart);
        crate::record(crate::EventKind::BudgetBreach);
        crate::record(crate::EventKind::FamilyEnd {
            ops: 300,
            peak_nodes: 90,
        });
        crate::record_for(1, crate::EventKind::Quarantined);
        for (unit, ops, quarantined) in [(0u64, 100u64, false), (1, 300, true)] {
            crate::record_unit_cost(crate::UnitCost {
                unit,
                label: format!("10.0.{unit}.0/24"),
                ops,
                peak_nodes: 40,
                ite_hits: 9,
                ite_misses: 1,
                gc_runs: 1,
                wall_ns: 0,
                quarantined,
                reused: false,
            });
        }
        let trace = export_chrome_trace();
        let table = render_attribution(10);
        crate::set_events_enabled(false);
        crate::reset_events();
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
        assert!(trace.starts_with("[\n"));
        assert!(trace.trim_end().ends_with(']'));
        assert!(trace.contains("\"ph\": \"X\""), "{trace}");
        assert!(trace.contains("family 0: 10.0.0.0/24"), "{trace}");
        assert!(trace.contains("\"name\": \"gc\""), "{trace}");
        assert!(trace.contains("\"name\": \"quarantined\""), "{trace}");
        assert!(trace.contains("\"args\": {\"ops\": 300, \"peak_nodes\": 90}"));
        // Most-expensive family first, quarantine flagged.
        let pos0 = table.find("10.0.0.0/24").expect("family 0 in table");
        let pos1 = table.find("10.0.1.0/24").expect("family 1 in table");
        assert!(pos1 < pos0, "{table}");
        assert!(table.contains(" Q "), "{table}");
        assert!(table.contains("attributed 400 ops across 2 families"), "{table}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(12_300), "12.30us");
        assert_eq!(fmt_ns(12_300_000), "12.30ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.00s");
    }
}
