//! Flight recorder: a fixed-size ring of recently completed query
//! records, plus a separate ring pinning the last errors.
//!
//! Every `RUN_UNTIL` query assembles a [`QueryRecord`] — its request
//! line, outcome, and the wall-clock span tree the daemon recorded
//! around parse, admission, the stage attempts, the containment
//! re-hash (`verify`) and the reply render — and deposits it here.
//! The main ring keeps the most recent
//! [`FlightRecorder::capacity`] records; queries that ended in `ERR`
//! or `PARTIAL` are *also* pinned in a last-errors ring so a burst of
//! healthy traffic cannot flush the evidence of the last failure out
//! of the window. Records are `Arc`-shared between the rings, so
//! pinning costs a pointer.
//!
//! `TRACE <id>` renders one record's span tree as indented text;
//! `TRACE DUMP` exports the whole main ring as one Chrome
//! `trace_event` JSON document (wall clock, one lane per query, lane
//! `tid` = query id) for `chrome://tracing` or Perfetto.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use obs::trace::{Span, TraceEvent};
use obs::{Trace, TraceClock};

/// How a recorded query ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryOutcome {
    /// Full `OK` reply.
    Ok,
    /// `PARTIAL` reply (halted or degraded).
    Partial,
    /// `ERR` reply or internal failure.
    Err,
}

impl QueryOutcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Partial => "partial",
            QueryOutcome::Err => "err",
        }
    }

    /// Whether this outcome pins the record in the last-errors ring.
    pub fn is_error(self) -> bool {
        matches!(self, QueryOutcome::Partial | QueryOutcome::Err)
    }
}

/// One completed query's flight record. Spans carry wall-clock
/// intervals in microseconds since the query started; the sim fields
/// are unused (zero) because nothing here may feed a deterministic
/// export.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// The id announced in the `RUNNING` reply.
    pub id: u64,
    /// The request, re-rendered canonically.
    pub request: String,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// Completed spans in recording order (parse, admission, stage
    /// attempts, verify, render).
    pub spans: Vec<Span>,
    /// Instant events (cache hits, degradations, halts).
    pub events: Vec<TraceEvent>,
}

impl QueryRecord {
    /// Renders the span tree as indented text for `TRACE <id>`:
    /// one span per line (`name start_us..end_us [args]`), events
    /// appended with an `!` marker. Spans are indented by containment
    /// (a span nests under the most recent span that covers it).
    pub fn render_tree(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "query id={} outcome={} request={:?}",
            self.id,
            self.outcome.name(),
            self.request
        )];
        let mut open: Vec<(u64, u64)> = Vec::new();
        for span in &self.spans {
            let (start, end) = span.wall_us.unwrap_or((0, 0));
            while let Some(&(_, parent_end)) = open.last() {
                if start >= parent_end {
                    open.pop();
                } else {
                    break;
                }
            }
            let indent = "  ".repeat(open.len() + 1);
            let args = if span.args.is_empty() {
                String::new()
            } else {
                let rendered: Vec<String> =
                    span.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(" [{}]", rendered.join(" "))
            };
            lines.push(format!(
                "{indent}{} {}us..{}us{args}",
                span.name, start, end
            ));
            open.push((start, end));
        }
        for event in &self.events {
            let at = event.wall_us.unwrap_or(0);
            let args = if event.args.is_empty() {
                String::new()
            } else {
                let rendered: Vec<String> =
                    event.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(" [{}]", rendered.join(" "))
            };
            lines.push(format!("  !{} {at}us{args}", event.kind.name()));
        }
        lines
    }
}

/// The two rings. Shared across connection threads behind one mutex;
/// record/get/dump are all short critical sections (clone-out, no I/O
/// under the lock).
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<Rings>,
    capacity: usize,
    error_capacity: usize,
}

#[derive(Debug, Default)]
struct Rings {
    recent: VecDeque<Arc<QueryRecord>>,
    errors: VecDeque<Arc<QueryRecord>>,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` queries and the last
    /// `error_capacity` error/partial queries (each minimum 1).
    pub fn new(capacity: usize, error_capacity: usize) -> Self {
        FlightRecorder {
            inner: Mutex::new(Rings::default()),
            capacity: capacity.max(1),
            error_capacity: error_capacity.max(1),
        }
    }

    /// Deposits one completed query, pinning errors and partials in
    /// the last-errors ring.
    pub fn record(&self, record: QueryRecord) {
        let record = Arc::new(record);
        let mut rings = locked(&self.inner);
        rings.recent.push_back(record.clone());
        while rings.recent.len() > self.capacity {
            rings.recent.pop_front();
        }
        if record.outcome.is_error() {
            rings.errors.push_back(record);
            while rings.errors.len() > self.error_capacity {
                rings.errors.pop_front();
            }
        }
    }

    /// Deposits a synthetic error record for a connection whose pool
    /// job panicked outside any query (query-level panics record
    /// themselves). Uses id 0, which real queries never get, so the
    /// evidence is addressable via `TRACE 0` / `TRACE ERRORS`.
    pub fn record_connection_panic(&self, wall_us: u64) {
        self.record(QueryRecord {
            id: 0,
            request: "<connection panicked>".to_owned(),
            outcome: QueryOutcome::Err,
            spans: vec![Span {
                name: "connection".to_owned(),
                cat: "query",
                sim_start: 0,
                sim_end: 0,
                wall_us: Some((0, wall_us)),
                args: Vec::new(),
            }],
            events: Vec::new(),
        });
    }

    /// The record for a query id, searching the main ring first and
    /// the pinned errors second (so an error stays addressable after
    /// the main ring has moved on).
    pub fn get(&self, id: u64) -> Option<Arc<QueryRecord>> {
        let rings = locked(&self.inner);
        rings
            .recent
            .iter()
            .rev()
            .find(|r| r.id == id)
            .or_else(|| rings.errors.iter().rev().find(|r| r.id == id))
            .cloned()
    }

    /// `(id, outcome, request)` for the pinned error ring, oldest
    /// first.
    pub fn error_summaries(&self) -> Vec<(u64, &'static str, String)> {
        locked(&self.inner)
            .errors
            .iter()
            .map(|r| (r.id, r.outcome.name(), r.request.clone()))
            .collect()
    }

    /// `(main ring occupancy, error ring occupancy)`.
    pub fn occupancy(&self) -> (usize, usize) {
        let rings = locked(&self.inner);
        (rings.recent.len(), rings.errors.len())
    }

    /// Exports the main ring as one wall-clock Chrome trace: a lane
    /// per query, lane `tid` = query id (truncated), lane name carrying
    /// id, outcome and request.
    pub fn dump(&self) -> String {
        let records: Vec<Arc<QueryRecord>> = locked(&self.inner).recent.iter().cloned().collect();
        let mut trace = Trace::new();
        for record in records {
            let mut recorder = obs::SpanRecorder::new();
            for span in &record.spans {
                recorder.span(span.clone());
            }
            for event in &record.events {
                recorder.event(event.clone());
            }
            trace.push_lane(
                record.id as u32,
                &format!(
                    "query {} [{}] {}",
                    record.id,
                    record.outcome.name(),
                    record.request
                ),
                recorder,
            );
        }
        trace.to_chrome_json(TraceClock::Wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::EventKind;

    fn record(id: u64, outcome: QueryOutcome) -> QueryRecord {
        QueryRecord {
            id,
            request: format!("RUN_UNTIL all ({id})"),
            outcome,
            spans: vec![
                Span {
                    name: "query".to_owned(),
                    cat: "pipeline",
                    sim_start: 0,
                    sim_end: 0,
                    wall_us: Some((0, 100)),
                    args: vec![("id", id)],
                },
                Span {
                    name: "stage:setup".to_owned(),
                    cat: "stage",
                    sim_start: 0,
                    sim_end: 0,
                    wall_us: Some((10, 60)),
                    args: Vec::new(),
                },
            ],
            events: vec![TraceEvent {
                kind: EventKind::Cache,
                sim_at: 0,
                wall_us: Some(12),
                args: vec![("hits", 1)],
            }],
        }
    }

    #[test]
    fn rings_bound_occupancy_and_pin_errors() {
        let fr = FlightRecorder::new(3, 2);
        for id in 0..6 {
            let outcome = if id % 2 == 0 {
                QueryOutcome::Ok
            } else {
                QueryOutcome::Partial
            };
            fr.record(record(id, outcome));
        }
        assert_eq!(fr.occupancy(), (3, 2));
        // Main ring holds 3, 4, 5; errors pin 3 and 5.
        assert!(fr.get(4).is_some());
        assert!(fr.get(0).is_none());
        let errors = fr.error_summaries();
        assert_eq!(
            errors.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(),
            vec![3, 5]
        );
        assert!(errors.iter().all(|(_, outcome, _)| *outcome == "partial"));
    }

    #[test]
    fn pinned_errors_survive_main_ring_churn() {
        let fr = FlightRecorder::new(2, 4);
        fr.record(record(1, QueryOutcome::Err));
        for id in 2..8 {
            fr.record(record(id, QueryOutcome::Ok));
        }
        // Query 1 left the main ring long ago but stays addressable.
        let pinned = fr.get(1).expect("error stays pinned");
        assert_eq!(pinned.outcome, QueryOutcome::Err);
    }

    #[test]
    fn tree_rendering_indents_by_containment() {
        let lines = record(9, QueryOutcome::Ok).render_tree();
        assert!(lines[0].starts_with("query id=9 outcome=ok"));
        assert!(lines[1].starts_with("  query 0us..100us"), "{:?}", lines[1]);
        assert!(
            lines[2].starts_with("    stage:setup 10us..60us"),
            "{:?}",
            lines[2]
        );
        assert!(lines[3].contains("!cache 12us [hits=1]"), "{:?}", lines[3]);
    }

    #[test]
    fn dump_is_valid_wall_clock_chrome_trace() {
        let fr = FlightRecorder::new(4, 2);
        fr.record(record(1, QueryOutcome::Ok));
        fr.record(record(2, QueryOutcome::Partial));
        let json = fr.dump();
        obs::validate_json(&json).expect("dump parses");
        assert!(json.contains("\"query 1 [ok]"), "{json}");
        assert!(json.contains("\"query 2 [partial]"), "{json}");
        // Wall-clock view: spans carry measured timestamps.
        assert!(json.contains("\"ts\": 10, \"dur\": 50"), "{json}");
    }

    #[test]
    fn connection_panics_are_pinned_as_id_zero_errors() {
        let fr = FlightRecorder::new(4, 2);
        fr.record_connection_panic(1234);
        let pinned = fr.get(0).expect("panic record addressable");
        assert_eq!(pinned.outcome, QueryOutcome::Err);
        assert_eq!(pinned.request, "<connection panicked>");
        let errors = fr.error_summaries();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 0);
    }

    #[test]
    fn empty_dump_still_validates() {
        let fr = FlightRecorder::new(4, 2);
        obs::validate_json(&fr.dump()).expect("empty dump parses");
    }
}
