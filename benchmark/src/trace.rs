//! Benchmark-side spans: one per call into a layer, recorded from the
//! benchmark's own files (spans inside the program under test are a later
//! change). Spans stay in memory and are written once, at exit.

use std::path::Path;
use std::time::Instant;

use hoyan_rt::json::Value;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-boundary name, e.g. `isis.build`.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit of work the span belongs to (`<workload>/<iteration>`):
    /// spans of one request or one pipeline pass share it.
    pub unit: String,
}

/// An in-memory span recorder. A disabled tracer still times the closure
/// (callers need the duration either way) but records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: String,
}

impl Tracer {
    /// A tracer whose spans carry `unit` until [`Tracer::set_unit`].
    pub fn new(enabled: bool, unit: &str) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: unit.to_string(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the unit-of-work identifier stamped on later spans.
    pub fn set_unit(&mut self, unit: &str) {
        if self.enabled {
            self.unit = unit.to_string();
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// duration in seconds. Nested calls record the enclosing span as parent.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let slot = if self.enabled {
            let idx = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                unit: self.unit.clone(),
            });
            self.stack.push(idx);
            Some(idx)
        } else {
            None
        };
        let out = f(self);
        let elapsed = start.elapsed();
        if let Some(idx) = slot {
            self.stack.pop();
            self.spans[idx].end_ns = self.spans[idx].start_ns + elapsed.as_nanos() as u64;
        }
        (out, elapsed.as_secs_f64())
    }

    /// Records an already-measured leaf span (a request timed at the client).
    pub fn leaf(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent: self.stack.last().copied(),
            unit: self.unit.clone(),
        });
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let num = |n: u64| Value::Num(n as f64);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Obj(vec![
                    ("id".into(), num(i as u64)),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("unit".into(), Value::Str(s.unit.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| num(p as u64)),
                    ),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    ("self_ns".into(), num(self.self_ns(i))),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![("spans".into(), Value::Arr(spans))]);
        std::fs::write(path, format!("{doc}\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new(true, "w/0");
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert!(outer >= 0.005);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, "w/0");
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(t.self_ns(0), (spans[0].end_ns - spans[0].start_ns) - inner);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false, "w/0");
        let (v, secs) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
