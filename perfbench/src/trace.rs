//! Spans the traced run records around each call it makes into a
//! layer. Spans stay in memory and are written once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::escape;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called (`stage:harvest`, `RUN_UNTIL popularity`, …).
    pub name: String,
    /// The layer the call enters (`core`, `serve`, `tor-sim`, …).
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition or request id the span belongs to.
    pub id: u64,
    /// Start, µs since the trace origin.
    pub start_us: f64,
    /// End, µs since the trace origin.
    pub end_us: f64,
}

/// An in-memory span log sharing one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty log whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The shared origin, for spans timed on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Microseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now and returns its index.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let now = self.at(Instant::now());
        self.push(Span {
            name: name.into(),
            layer,
            parent,
            id,
            start_us: now,
            end_us: now,
        })
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: usize) {
        let now = self.at(Instant::now());
        self.spans[idx].end_us = now;
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, layer, parent, id);
        let out = f();
        self.close(idx);
        out
    }

    /// Sets the interval of span `idx`.
    pub fn set_times(&mut self, idx: usize, start_us: f64, end_us: f64) {
        self.spans[idx].start_us = start_us;
        self.spans[idx].end_us = end_us;
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Each layer's self time in ms: every span's duration minus the
    /// part of it its child spans cover, summed per layer.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let own = (s.end_us - s.start_us) - covered(s.start_us, s.end_us, kids);
            *out.entry(s.layer).or_insert(0.0) += own / 1e3;
        }
        out
    }

    /// The spans as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {parent}, \
                 \"id\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                escape(&s.name),
                s.layer,
                s.id,
                s.start_us,
                s.end_us
            );
        }
        out.push(']');
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: layer.to_owned(),
            layer,
            parent,
            id: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.push(span("core", None, 0.0, 10_000.0));
        t.push(span("tor-sim", Some(root), 1_000.0, 3_000.0));
        // Overlaps the first child: counted once.
        t.push(span("tor-sim", Some(root), 2_000.0, 5_000.0));
        let leaf = t.push(span("onion-crypto", Some(root), 7_000.0, 8_000.0));
        // A grandchild reduces its parent, not the root.
        t.push(span("obs", Some(leaf), 7_500.0, 7_600.0));
        let self_ms = t.self_ms();
        assert!((self_ms["core"] - 5.0).abs() < 1e-9);
        assert!((self_ms["tor-sim"] - 5.0).abs() < 1e-9);
        assert!((self_ms["onion-crypto"] - 0.9).abs() < 1e-9);
        assert!((self_ms["obs"] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut iv = vec![(-5.0, 2.0), (8.0, 20.0)];
        assert!((covered(0.0, 10.0, &mut iv) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spans_serialize_as_a_json_array() {
        let mut t = Tracer::new();
        let root = t.open("rep", "bench", None, 3);
        let idx = t.open("stage:\"x\"", "core", Some(root), 3);
        t.close(root);
        t.close(idx);
        let Ok(crate::json::Value::Array(items)) = crate::json::parse(&t.to_json()) else {
            panic!("array expected");
        };
        assert_eq!(items.len(), 2);
    }
}
