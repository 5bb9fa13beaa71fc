//! Span-based tracing with dual clocks and a Chrome `trace_event`
//! exporter.
//!
//! The trace model is a set of **lanes** (one per pipeline stage plus
//! lane 0 for the run itself), each holding completed [`Span`]s and
//! instant [`TraceEvent`]s. Every span carries two intervals:
//!
//! * a **sim-clock** interval in simulated Unix seconds — a pure
//!   function of the seed and the plan, byte-stable across runs and
//!   machines (this is what `--trace` exports and what the baseline
//!   diff in `scripts_run_experiments.sh trace` pins);
//! * an optional **wall-clock** interval in microseconds since the
//!   run's epoch — real elapsed time, for profiling, never exported in
//!   the deterministic view.
//!
//! [`Trace::to_chrome_json`] renders either view in the Chrome
//! `trace_event` array format: open the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>. In the sim view one trace microsecond
//! equals one simulated second, rebased so the run starts at t=0.
//!
//! Stages that never touch the simulator (the analysis stages) have no
//! sim clock of their own; the engine assigns them synthetic sim
//! intervals — starting at the sim frontier, with duration
//! equal to the number of items processed — so the deterministic view
//! still shows their relative workloads.

use crate::json::escape_json;

/// A completed span on one lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Display name (e.g. `stage:harvest`, `round`, `attempt 2`).
    pub name: String,
    /// Chrome category: `pipeline`, `stage`, `attempt`, `sim`, `ops`,
    /// `shard`. The `shard` category is wall-clock-only profiling data
    /// (one span per measurement-wave shard): the number of shards
    /// varies with the run's thread budget, so the deterministic
    /// sim-clock export drops the category entirely.
    pub cat: &'static str,
    /// Sim-clock start, in simulated Unix seconds.
    pub sim_start: u64,
    /// Sim-clock end, in simulated Unix seconds (`>= sim_start`).
    pub sim_end: u64,
    /// Wall-clock interval in microseconds since the run epoch, when
    /// measured. Sim-internal spans (consensus rounds, traffic ticks)
    /// have no meaningful wall interval and carry `None`.
    pub wall_us: Option<(u64, u64)>,
    /// Numeric arguments, rendered into the Chrome `args` object.
    pub args: Vec<(&'static str, u64)>,
}

/// Typed instant events recorded alongside spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A stage attempt failed and was retried.
    Retry,
    /// The fault layer injected at least one fault during an interval.
    Fault,
    /// A stage exhausted its retry budget and degraded.
    Degraded,
    /// Descriptor-cache activity summary for an interval.
    Cache,
    /// A run stopped early (cancelled, wall deadline, sim budget).
    Halt,
}

impl EventKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Retry => "retry",
            EventKind::Fault => "fault",
            EventKind::Degraded => "degraded",
            EventKind::Cache => "cache",
            EventKind::Halt => "halt",
        }
    }
}

/// An instant event on one lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Sim-clock timestamp, in simulated Unix seconds.
    pub sim_at: u64,
    /// Wall-clock timestamp in microseconds since the run epoch, when
    /// measured.
    pub wall_us: Option<u64>,
    /// Numeric arguments.
    pub args: Vec<(&'static str, u64)>,
}

/// Collects spans and events for one lane (one pipeline stage, or the
/// run itself). Stage bodies are sequential, so a recorder needs no
/// synchronisation; the engine merges recorders into a [`Trace`] in
/// canonical stage order after the (possibly parallel) wave joins,
/// which keeps the merged trace deterministic.
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    events: Vec<TraceEvent>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Records a completed span.
    pub fn span(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Records an instant event.
    pub fn event(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// Consumes the recorder, yielding its spans and events in
    /// recording order.
    pub fn finish(self) -> (Vec<Span>, Vec<TraceEvent>) {
        (self.spans, self.events)
    }
}

/// One lane of a merged trace.
#[derive(Clone, Debug)]
pub struct Lane {
    /// Chrome thread id (0 = pipeline, stage index + 1 otherwise).
    pub tid: u32,
    /// Lane display name (Chrome `thread_name`).
    pub name: String,
    /// Spans in recording order.
    pub spans: Vec<Span>,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
}

/// Which clock a Chrome export reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceClock {
    /// Deterministic simulated time: byte-stable across runs and
    /// machines, 1 trace µs = 1 sim second, rebased to the run start.
    Sim,
    /// Measured wall time in real microseconds since the run epoch.
    /// Spans without a wall interval (sim-internal work) are omitted.
    Wall,
}

/// A merged, ready-to-export trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Lanes in canonical (deterministic) order.
    pub lanes: Vec<Lane>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a lane (engine calls this in canonical stage order).
    pub fn push_lane(&mut self, tid: u32, name: &str, recorder: SpanRecorder) {
        let (spans, events) = recorder.finish();
        self.lanes.push(Lane {
            tid,
            name: name.to_string(),
            spans,
            events,
        });
    }

    /// Total spans across all lanes.
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Total instant events across all lanes.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// The earliest sim timestamp in the trace (the rebase origin for
    /// the sim-clock export). Zero for an empty trace.
    pub fn sim_origin(&self) -> u64 {
        self.lanes
            .iter()
            .flat_map(|l| {
                l.spans
                    .iter()
                    .map(|s| s.sim_start)
                    .chain(l.events.iter().map(|e| e.sim_at))
            })
            .min()
            .unwrap_or(0)
    }

    /// Renders the trace as a Chrome `trace_event` JSON array (one
    /// event per line). With [`TraceClock::Sim`] the output contains
    /// no wall-clock data and is byte-identical for identical seeds
    /// and plans; with [`TraceClock::Wall`] timestamps are measured
    /// microseconds and sim-only spans are omitted.
    pub fn to_chrome_json(&self, clock: TraceClock) -> String {
        let origin = self.sim_origin();
        let mut lines: Vec<String> = Vec::new();
        for lane in &self.lanes {
            lines.push(format!(
                "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                lane.tid,
                escape_json(&lane.name)
            ));
        }
        for lane in &self.lanes {
            for span in &lane.spans {
                // Shard spans are profiling-only: their count depends
                // on the thread budget, which must not leak into the
                // byte-stable sim view.
                if clock == TraceClock::Sim && span.cat == "shard" {
                    continue;
                }
                let (ts, dur) = match clock {
                    TraceClock::Sim => (span.sim_start - origin, span.sim_end - span.sim_start),
                    TraceClock::Wall => match span.wall_us {
                        Some((start, end)) => (start, end - start),
                        None => continue,
                    },
                };
                lines.push(format!(
                    "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                     \"name\": \"{}\", \"cat\": \"{}\", \"args\": {{{}}}}}",
                    lane.tid,
                    ts,
                    dur,
                    escape_json(&span.name),
                    span.cat,
                    fmt_args(&span.args)
                ));
            }
            for event in &lane.events {
                let ts = match clock {
                    TraceClock::Sim => event.sim_at - origin,
                    TraceClock::Wall => match event.wall_us {
                        Some(at) => at,
                        None => continue,
                    },
                };
                lines.push(format!(
                    "{{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": {}, \"ts\": {}, \
                     \"name\": \"{}\", \"cat\": \"event\", \"args\": {{{}}}}}",
                    lane.tid,
                    ts,
                    event.kind.name(),
                    fmt_args(&event.args)
                ));
            }
        }
        let mut out = String::from("[\n");
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]\n");
        out
    }
}

fn fmt_args(args: &[(&'static str, u64)]) -> String {
    args.iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Structural JSON validation for exported traces: balanced and
/// properly nested containers, well-formed strings and numbers, one
/// top-level value. Not a full parser — no number range checks — but
/// strict enough that `JSON.parse`-breaking output cannot slip through.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = Scanner {
        bytes: s.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.at));
    }
    Ok(())
}

struct Scanner<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Scanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.at
            )),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.at,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.at,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(c) = self.peek() {
            self.at += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    // Any escaped byte is accepted; \u needs 4 hex digits.
                    let esc = self.peek();
                    self.at += 1;
                    if esc == Some(b'u') {
                        for _ in 0..4 {
                            match self.peek() {
                                Some(h) if h.is_ascii_hexdigit() => self.at += 1,
                                _ => return Err(format!("bad \\u escape at byte {}", self.at)),
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bare '-' at byte {}", self.at));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut rec = SpanRecorder::new();
        rec.span(Span {
            name: "stage:harvest".to_string(),
            cat: "stage",
            sim_start: 1000,
            sim_end: 2000,
            wall_us: Some((5, 105)),
            args: vec![("descriptors", 42)],
        });
        rec.span(Span {
            name: "round".to_string(),
            cat: "sim",
            sim_start: 1000,
            sim_end: 1500,
            wall_us: None,
            args: vec![("fetches", 7)],
        });
        rec.event(TraceEvent {
            kind: EventKind::Retry,
            sim_at: 1500,
            wall_us: None,
            args: vec![("attempt", 2)],
        });
        let mut trace = Trace::new();
        trace.push_lane(1, "stage harvest", rec);
        trace
    }

    #[test]
    fn sim_export_rebases_and_excludes_wall() {
        let json = sample_trace().to_chrome_json(TraceClock::Sim);
        assert!(json.contains("\"ts\": 0, \"dur\": 1000"), "{json}");
        assert!(json.contains("\"ts\": 0, \"dur\": 500"), "{json}");
        assert!(json.contains("\"name\": \"retry\""), "{json}");
        assert!(!json.contains("105"), "wall data leaked: {json}");
        validate_json(&json).expect("sim export is valid JSON");
    }

    #[test]
    fn wall_export_drops_sim_only_spans() {
        let json = sample_trace().to_chrome_json(TraceClock::Wall);
        assert!(json.contains("\"ts\": 5, \"dur\": 100"), "{json}");
        assert!(!json.contains("\"name\": \"round\""), "{json}");
        validate_json(&json).expect("wall export is valid JSON");
    }

    #[test]
    fn shard_spans_export_wall_only() {
        let mut rec = SpanRecorder::new();
        rec.span(Span {
            name: "stage:port_scan".to_string(),
            cat: "stage",
            sim_start: 1000,
            sim_end: 2000,
            wall_us: Some((0, 90)),
            args: Vec::new(),
        });
        rec.span(Span {
            name: "shard 0".to_string(),
            cat: "shard",
            sim_start: 2000,
            sim_end: 2000,
            wall_us: Some((10, 40)),
            args: vec![("items", 17), ("threads", 4)],
        });
        let mut trace = Trace::new();
        trace.push_lane(1, "stage port_scan", rec);
        let sim = trace.to_chrome_json(TraceClock::Sim);
        assert!(!sim.contains("shard"), "shard leaked into sim view: {sim}");
        validate_json(&sim).expect("sim export is valid JSON");
        let wall = trace.to_chrome_json(TraceClock::Wall);
        assert!(wall.contains("\"name\": \"shard 0\""), "{wall}");
        assert!(wall.contains("\"ts\": 10, \"dur\": 30"), "{wall}");
        validate_json(&wall).expect("wall export is valid JSON");
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_trace().to_chrome_json(TraceClock::Sim);
        let b = sample_trace().to_chrome_json(TraceClock::Sim);
        assert_eq!(a, b);
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json("[1, 2, {\"a\": [true, null]}]").is_ok());
        assert!(validate_json("{\"a\": 1.5e-3, \"b\": \"x\\\"y\\u00e9\"}").is_ok());
        assert!(validate_json("[1, 2").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("[} ]").is_err());
        assert!(validate_json("[1] trailing").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }

    #[test]
    fn empty_trace_exports_an_empty_array_shape() {
        let json = Trace::new().to_chrome_json(TraceClock::Sim);
        validate_json(&json).expect("empty export still parses");
    }
}
