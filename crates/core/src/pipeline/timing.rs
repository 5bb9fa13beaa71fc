//! Per-stage instrumentation: wall-clock timings plus the stage's
//! metric registry output (counters, gauges, log2 histograms).
//!
//! Every stage execution records how long it ran, a handful of
//! domain-meaningful counters (descriptors harvested, pages crawled,
//! consensuses scanned, …), and — since the observability layer —
//! gauges and distribution histograms. A [`PipelineTimings`] also
//! remembers which stages the plan *skipped*, so selective runs can
//! prove they did not pay for work they did not need.
//!
//! ## Wall-clock semantics
//!
//! Two different "total wall" numbers exist and they measure different
//! things:
//!
//! * [`PipelineTimings::total_wall`] — the **sum** of per-stage body
//!   durations. A forked level runs stages side by side, so this is
//!   CPU-ish busy time and can exceed real time.
//! * [`PipelineTimings::elapsed`] — the run's true **elapsed** wall
//!   time, measured once around the whole pipeline. This is what a
//!   stopwatch would show.
//!
//! `to_json` exposes both as `summed_wall_ms` and `elapsed_wall_ms`.

use std::fmt::Write as _;
use std::time::Duration;

use obs::Histogram;

use super::stage::StageId;

/// One executed stage's instrumentation record.
#[derive(Clone, Debug)]
pub struct StageTiming {
    /// Which stage ran.
    pub stage: StageId,
    /// Wall-clock duration of the stage body (final attempt included;
    /// failed attempts are folded in).
    pub wall: Duration,
    /// Domain counters, e.g. `("descriptors", 1234)`, in the stage's
    /// historical emission order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges (point-in-time ratios and levels), e.g.
    /// `("scan.coverage", 0.87)`.
    pub gauges: Vec<(&'static str, f64)>,
    /// Distribution histograms, e.g. `("scan.fetch_attempts", …)`.
    pub hists: Vec<(&'static str, Histogram)>,
}

impl StageTiming {
    /// Builds a record from a stage's metric registry.
    pub fn from_registry(stage: StageId, wall: Duration, registry: obs::Registry) -> Self {
        let (counters, gauges, hists) = registry.into_parts();
        StageTiming {
            stage,
            wall,
            counters,
            gauges,
            hists,
        }
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }
}

/// A stage that failed (after exhausting its retry budget) and was
/// degraded out of the run instead of aborting the study.
#[derive(Clone, Debug)]
pub struct DegradedStage {
    /// Which stage failed.
    pub stage: StageId,
    /// The error (or extracted panic message) of the final attempt,
    /// or a note that an upstream dependency degraded first.
    pub error: String,
    /// How many attempts ran. Zero when the stage never ran because a
    /// dependency had already degraded.
    pub attempts: u32,
}

/// The full instrumentation record of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineTimings {
    /// Stages that executed, in execution order.
    pub executed: Vec<StageTiming>,
    /// Stages the plan skipped, in canonical order.
    pub skipped: Vec<StageId>,
    /// Stages that failed and degraded, in canonical [`StageId`] order.
    pub degraded: Vec<DegradedStage>,
    /// Stages the plan wanted but a controlled run abandoned when its
    /// budget expired (cancellation, wall deadline, sim budget), in
    /// canonical order. Always empty for uncontrolled runs.
    pub halted: Vec<StageId>,
    /// True elapsed wall time of the whole run, measured once around
    /// the pipeline. Distinct from [`PipelineTimings::total_wall`],
    /// which sums per-stage durations and over-counts stages that ran
    /// side by side.
    pub elapsed: Duration,
}

impl PipelineTimings {
    /// The record for `stage`, if it executed.
    pub fn stage(&self, stage: StageId) -> Option<&StageTiming> {
        self.executed.iter().find(|t| t.stage == stage)
    }

    /// Whether the plan skipped `stage`.
    pub fn skipped(&self, stage: StageId) -> bool {
        self.skipped.contains(&stage)
    }

    /// The degradation record for `stage`, if it failed.
    pub fn degraded(&self, stage: StageId) -> Option<&DegradedStage> {
        self.degraded.iter().find(|d| d.stage == stage)
    }

    /// **Summed** wall-clock time across executed stage bodies.
    /// Parallel analysis stages overlap in real time, so this is
    /// CPU-ish busy time, not elapsed time — see
    /// [`PipelineTimings::elapsed`] for the stopwatch number.
    pub fn total_wall(&self) -> Duration {
        self.executed.iter().map(|t| t.wall).sum()
    }

    /// Sums a counter across every executed stage that reports it
    /// (e.g. `"sha1_digests"` over the sim stages).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.executed.iter().filter_map(|t| t.counter(name)).sum()
    }

    /// Every histogram recorded by any executed stage, as
    /// `(owner stage, metric name, histogram)` in execution order.
    pub fn histograms(&self) -> Vec<(StageId, &'static str, &Histogram)> {
        self.executed
            .iter()
            .flat_map(|t| t.hists.iter().map(move |(n, h)| (t.stage, *n, h)))
            .collect()
    }

    /// Merges every same-named histogram across stages into one.
    pub fn hist_total(&self, name: &str) -> Histogram {
        let mut total = Histogram::new();
        for t in &self.executed {
            if let Some(h) = t.hist(name) {
                total.merge(h);
            }
        }
        total
    }

    /// Flattens the timings into a wall-style snapshot so the batch
    /// pipeline can reuse the daemon's Prometheus renderer: per-stage
    /// counters and histograms become `stage`-labelled series, stage
    /// wall durations a `stage_wall_us` histogram sample each, and the
    /// run totals plain gauges. Every value here is still a pure
    /// function of the seed except the wall durations — which is
    /// exactly why this export is opt-in (`--metrics-format prom`) and
    /// never part of a committed byte-stable baseline.
    pub fn to_prom_snapshot(&self) -> obs::WallSnapshot {
        let reg = obs::WallRegistry::new();
        let wall_hist = reg.histogram("stage_wall_us", &[]);
        for t in &self.executed {
            let stage = t.stage.to_string();
            let labels: [(&str, &str); 1] = [("stage", &stage)];
            wall_hist.observe(t.wall.as_micros() as u64);
            for (name, value) in &t.counters {
                reg.counter(name, &labels).add(*value);
            }
            for (name, value) in &t.gauges {
                reg.gauge(name, &labels).set(*value);
            }
        }
        reg.gauge("stages_executed", &[])
            .set(self.executed.len() as f64);
        reg.gauge("stages_skipped", &[])
            .set(self.skipped.len() as f64);
        reg.gauge("stages_degraded", &[])
            .set(self.degraded.len() as f64);
        reg.gauge("stages_halted", &[])
            .set(self.halted.len() as f64);
        reg.gauge("elapsed_wall_us", &[])
            .set(self.elapsed.as_micros() as f64);
        let mut snap = reg.snapshot();
        // Stage histograms are spliced in directly: bucket contents
        // are already final, and replaying samples through a handle
        // would lose exact values to bucket resolution.
        for t in &self.executed {
            let stage = t.stage.to_string();
            for (name, h) in &t.hists {
                snap.hists.push((
                    obs::wall::MetricId::new(name, &[("stage", &stage)]),
                    h.clone(),
                ));
            }
        }
        snap.sort();
        snap
    }

    /// Renders the timings as Prometheus text exposition under the
    /// `landscape` namespace (see [`PipelineTimings::to_prom_snapshot`]).
    pub fn to_prom(&self) -> String {
        obs::prom::render(&self.to_prom_snapshot(), "landscape")
    }

    /// Machine-readable JSON (hand-rolled; the workspace carries no
    /// serde). Stage names and metric names are static identifiers, so
    /// no escaping is required outside error strings.
    ///
    /// Layout compatibility: the per-stage `"stage"` lines and the
    /// `"skipped"` line are byte-identical to the historical format —
    /// the committed bench/faults baselines grep exactly those lines.
    /// The observability extensions (`summed_wall_ms`,
    /// `elapsed_wall_ms`, `gauges`, `histograms`) use `"metric"` /
    /// `"owner"` field names precisely so they can never collide with
    /// that grep. The `degraded` section still only appears when a
    /// stage actually failed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"stages\": [\n");
        for (i, t) in self.executed.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"stage\": \"{}\", \"wall_ms\": {:.3}, \"counters\": {{",
                t.stage,
                t.wall.as_secs_f64() * 1e3
            );
            for (j, (name, value)) in t.counters.iter().enumerate() {
                let _ = write!(out, "\"{name}\": {value}");
                if j + 1 < t.counters.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("}}");
            if i + 1 < self.executed.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"skipped\": [");
        for (i, s) in self.skipped.iter().enumerate() {
            let _ = write!(out, "\"{s}\"");
            if i + 1 < self.skipped.len() {
                out.push_str(", ");
            }
        }
        out.push(']');
        // Both wall-clock notions, explicitly named (see module docs).
        let _ = write!(
            out,
            ",\n  \"summed_wall_ms\": {:.3},\n  \"elapsed_wall_ms\": {:.3}",
            self.total_wall().as_secs_f64() * 1e3,
            self.elapsed.as_secs_f64() * 1e3
        );
        out.push_str(",\n  \"gauges\": [");
        let gauges: Vec<String> = self
            .executed
            .iter()
            .flat_map(|t| {
                t.gauges.iter().map(move |(name, value)| {
                    format!(
                        "\n    {{\"metric\": \"{}\", \"owner\": \"{}\", \"value\": {value}}}",
                        name, t.stage
                    )
                })
            })
            .collect();
        out.push_str(&gauges.join(","));
        if !gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        out.push_str(",\n  \"histograms\": [");
        let hists: Vec<String> = self
            .histograms()
            .iter()
            .map(|(owner, name, h)| format!("\n    {}", h.to_json(name, &owner.to_string())))
            .collect();
        out.push_str(&hists.join(","));
        if !hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        // The degraded section only appears when a stage actually
        // failed, so fault-free runs keep the exact historical layout
        // (the bench baseline diff depends on it).
        if !self.degraded.is_empty() {
            out.push_str(",\n  \"degraded\": [\n");
            for (i, d) in self.degraded.iter().enumerate() {
                let _ = write!(
                    out,
                    "    {{\"stage\": \"{}\", \"attempts\": {}, \"error\": \"{}\"}}",
                    d.stage,
                    d.attempts,
                    obs::escape_json(&d.error)
                );
                if i + 1 < self.degraded.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("  ]");
        }
        // Same gating for the halted section: it only exists for
        // controlled (daemon) runs that actually ran out of budget, so
        // batch-mode JSON never changes shape.
        if !self.halted.is_empty() {
            out.push_str(",\n  \"halted\": [");
            for (i, s) in self.halted.iter().enumerate() {
                let _ = write!(out, "\"{s}\"");
                if i + 1 < self.halted.len() {
                    out.push_str(", ");
                }
            }
            out.push(']');
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineTimings {
        let mut scan_hist = Histogram::new();
        scan_hist.record(1);
        scan_hist.record(3);
        PipelineTimings {
            executed: vec![
                StageTiming {
                    stage: StageId::Setup,
                    wall: Duration::from_micros(1500),
                    counters: vec![("relays", 120), ("services", 400)],
                    gauges: Vec::new(),
                    hists: Vec::new(),
                },
                StageTiming {
                    stage: StageId::Harvest,
                    wall: Duration::from_millis(20),
                    counters: vec![("descriptors", 390)],
                    gauges: vec![("harvest.coverage", 0.875)],
                    hists: vec![("harvest.descriptors_per_relay", scan_hist)],
                },
            ],
            skipped: vec![StageId::DeanonWindow, StageId::Tracking],
            degraded: Vec::new(),
            halted: Vec::new(),
            elapsed: Duration::from_millis(15),
        }
    }

    #[test]
    fn lookup_and_totals() {
        let t = sample();
        assert_eq!(
            t.stage(StageId::Setup).unwrap().counter("relays"),
            Some(120)
        );
        assert_eq!(t.stage(StageId::Setup).unwrap().counter("nope"), None);
        assert!(t.stage(StageId::Crawl).is_none());
        assert!(t.skipped(StageId::Tracking));
        assert!(!t.skipped(StageId::Harvest));
        assert_eq!(t.total_wall(), Duration::from_micros(21_500));
        assert_eq!(t.counter_total("services"), 400);
        assert_eq!(t.counter_total("absent"), 0);
        // The elapsed clock is independent of the per-stage sum.
        assert_eq!(t.elapsed, Duration::from_millis(15));
        let hists = t.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, StageId::Harvest);
        assert_eq!(t.hist_total("harvest.descriptors_per_relay").count(), 2);
        assert_eq!(t.hist_total("absent").count(), 0);
        assert_eq!(
            t.stage(StageId::Harvest).unwrap().gauge("harvest.coverage"),
            Some(0.875)
        );
    }

    #[test]
    fn from_registry_preserves_order() {
        let mut reg = obs::Registry::new();
        reg.inc("beta", 2);
        reg.inc("alpha", 1);
        reg.gauge("ratio", 0.25);
        reg.record("depth", 7);
        let t = StageTiming::from_registry(StageId::Crawl, Duration::from_millis(1), reg);
        assert_eq!(t.counters, vec![("beta", 2), ("alpha", 1)]);
        assert_eq!(t.gauge("ratio"), Some(0.25));
        assert_eq!(t.hist("depth").map(|h| h.count()), Some(1));
    }

    #[test]
    fn json_is_well_formed() {
        let json = sample().to_json();
        assert!(json.contains("\"stage\": \"setup\""));
        assert!(json.contains("\"relays\": 120"));
        assert!(json.contains("\"skipped\": [\"deanon_window\", \"tracking\"]"));
        // Both wall-clock notions are exposed.
        assert!(json.contains("\"summed_wall_ms\": 21.500"));
        assert!(json.contains("\"elapsed_wall_ms\": 15.000"));
        // Observability sections use metric/owner keys, never "stage",
        // so the committed baseline greps cannot match them.
        assert!(json.contains("\"metric\": \"harvest.descriptors_per_relay\""));
        assert!(json.contains("\"owner\": \"harvest\""));
        assert!(json.contains("\"p50\": "));
        assert!(json.contains(
            "\"metric\": \"harvest.coverage\", \"owner\": \"harvest\", \"value\": 0.875"
        ));
        for line in json.lines() {
            if line.contains("\"metric\"") {
                assert!(
                    !line.contains("\"stage\""),
                    "metric line matches baseline grep: {line}"
                );
            }
        }
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        obs::trace::validate_json(&json).expect("timings JSON parses");
        // No degraded stages → no degraded section, preserving the
        // historical layout byte-for-byte.
        assert!(!json.contains("degraded"));
        // Same for the halted section.
        assert!(!json.contains("halted"));
    }

    #[test]
    fn prom_export_parses_and_labels_stages() {
        let text = sample().to_prom();
        let parsed = obs::prom::parse_exposition(&text).expect("timings exposition parses");
        assert_eq!(
            parsed.value("landscape_relays_total", &[("stage", "setup")]),
            Some(120.0)
        );
        assert_eq!(
            parsed.value("landscape_descriptors_total", &[("stage", "harvest")]),
            Some(390.0)
        );
        assert_eq!(
            parsed.value("landscape_harvest_coverage", &[("stage", "harvest")]),
            Some(0.875)
        );
        assert_eq!(parsed.value("landscape_stages_executed", &[]), Some(2.0));
        // The stage histogram arrived bucket-for-bucket: two samples.
        assert_eq!(
            parsed.value(
                "landscape_harvest_descriptors_per_relay_count",
                &[("stage", "harvest")]
            ),
            Some(2.0)
        );
        assert_eq!(
            parsed.value("landscape_stage_wall_us_count", &[]),
            Some(2.0)
        );
    }

    #[test]
    fn halted_section_appears_only_when_nonempty() {
        let mut t = sample();
        t.halted = vec![StageId::PortScan, StageId::Certs];
        let json = t.to_json();
        assert!(json.contains("\"halted\": [\"port_scan\", \"certs\"]"));
        obs::trace::validate_json(&json).expect("halted JSON parses");
    }

    #[test]
    fn empty_metric_sections_stay_compact() {
        let mut t = sample();
        for s in &mut t.executed {
            s.gauges.clear();
            s.hists.clear();
        }
        let json = t.to_json();
        assert!(json.contains("\"gauges\": []"));
        assert!(json.contains("\"histograms\": []"));
        obs::trace::validate_json(&json).expect("empty sections parse");
    }

    #[test]
    fn degraded_section_appears_and_escapes() {
        let mut t = sample();
        t.degraded = vec![
            DegradedStage {
                stage: StageId::Certs,
                error: "injected \"quote\"\nand newline".to_owned(),
                attempts: 2,
            },
            DegradedStage {
                stage: StageId::Crawl,
                error: "dependency `certs` degraded".to_owned(),
                attempts: 0,
            },
        ];
        let json = t.to_json();
        assert!(json.contains("\"degraded\": ["));
        assert!(json.contains("{\"stage\": \"certs\", \"attempts\": 2, \"error\": \"injected \\\"quote\\\"\\nand newline\"}"));
        assert!(json.contains("{\"stage\": \"crawl\", \"attempts\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        obs::trace::validate_json(&json).expect("degraded JSON parses");
        assert!(t.degraded(StageId::Certs).is_some());
        assert!(t.degraded(StageId::Setup).is_none());
    }
}
