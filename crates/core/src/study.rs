//! The end-to-end study: everything the paper did, run through the
//! staged [`crate::pipeline`] engine.
//!
//! [`Study`] is the stable front door: [`Study::run`] executes the
//! full pipeline and assembles a
//! [`StudyReport`]; [`Study::run_until`] and [`Study::run_stages`]
//! execute only a dependency closure for callers that need a subset of
//! the artifacts (the bench binaries, the figure-specific CLI
//! commands).

use std::sync::Arc;

use hs_content::{CertSurvey, CrawlReport};
use hs_deanon::DeanonConfig;
use hs_harvest::{HarvestConfig, HarvestOutcome};
use hs_popularity::{BotnetForensics, Ranking, ResolutionReport, SketchConfig, SketchSummary};
use hs_portscan::ScanReport;
use hs_world::World;
use tor_sim::FaultPlan;

use crate::pipeline::timing::DegradedStage;
use crate::pipeline::{
    ExecMode, Pipeline, PipelineRun, PipelineTimings, RunOptions, StageId, StagePayload,
};

pub use crate::pipeline::artifacts::{DeanonReport, TrackingReport};

/// Study parameters.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Deterministic seed for the whole study; per-stage seeds are
    /// derived from it (see [`crate::pipeline::seeds`]).
    pub seed: u64,
    /// World scale (1.0 = the paper's 39,824 addresses).
    pub scale: f64,
    /// Honest relay population.
    pub relays: usize,
    /// Harvesting-attack parameters.
    pub harvest: HarvestConfig,
    /// Port-scan days.
    pub scan_days: usize,
    /// Client pool size for request traffic.
    pub traffic_clients: usize,
    /// Client-deanonymisation parameters.
    pub deanon: DeanonConfig,
    /// Hours the dedicated Sec. VI deanonymisation window runs after
    /// the harvest.
    pub deanon_hours: u64,
    /// Run the (expensive) 3-year tracking analysis.
    pub run_tracking: bool,
    /// Deterministic protocol-level fault injection (relay crashes,
    /// HSDir drops, publish failures, service flaps, crawl flakes).
    /// The default inert plan is the identity: it changes no artifact
    /// byte. The plan's own seed is ignored — the engine derives it
    /// from [`StudyConfig::seed`] via the `Faults` seed domain.
    pub faults: FaultPlan,
    /// Chaos hook: stages that fail every attempt (exercises graceful
    /// degradation end-to-end). Empty by default.
    pub fail_stages: Vec<StageId>,
    /// Chaos hook: stages that fail their first attempt only (the
    /// stage retry budget must absorb them). Empty by default.
    pub flaky_stages: Vec<StageId>,
    /// Streaming popularity aggregation: when set, the harvest feeds
    /// hourly request-log drains into bounded-memory sketches
    /// (count-min, space-saving top-k, HyperLogLog) instead of
    /// materializing the per-request event vector, and the popularity
    /// analysis ranks from the sketch state. `None` (the default)
    /// keeps the exact path and every committed baseline byte-stable.
    pub streaming: Option<SketchConfig>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 0x2013_0204,
            scale: 1.0,
            relays: 1_400,
            harvest: HarvestConfig::default(),
            scan_days: 7,
            traffic_clients: 500,
            deanon: DeanonConfig::default(),
            deanon_hours: 48,
            run_tracking: true,
            faults: FaultPlan::none(),
            fail_stages: Vec::new(),
            flaky_stages: Vec::new(),
            streaming: None,
        }
    }
}

impl StudyConfig {
    /// A configuration small enough for unit tests (~1 % scale).
    pub fn test_scale() -> Self {
        StudyConfig {
            scale: 0.01,
            relays: 120,
            harvest: HarvestConfig {
                fleet: hs_harvest::FleetConfig {
                    ips: 8,
                    relays_per_ip: 8,
                    bandwidth: 300,
                },
                warmup_hours: 26,
                rotation_hours: 2,
            },
            scan_days: 3,
            traffic_clients: 60,
            deanon_hours: 24,
            run_tracking: false,
            ..StudyConfig::default()
        }
    }

    /// The study `landscape --scale <scale>` runs: the 2013 network
    /// scaled down, with relays, fleet and clients scaled along. At
    /// 1.0 it is the paper's setting (~39,824 addresses, 1,400 honest
    /// relays, the 58-IP × 24-instance fleet) that the scale-1.0 gate
    /// runs. Relays are 1,400 × `scale` within 150..=1,400, the fleet
    /// is max(58 × `scale`, 8) IPs of 24 relays at bandwidth 400, the
    /// port scan runs 7 days and max(500 × `scale`, 60) clients make
    /// requests. The full study leaves out the 3-year tracking
    /// analysis, so it measures the simulation, not the tracking
    /// extrapolation; `landscape tracking` runs that stage alone.
    pub fn at_scale(scale: f64) -> Self {
        StudyConfig {
            scale,
            relays: ((1_400.0 * scale) as usize).clamp(150, 1_400),
            harvest: HarvestConfig {
                fleet: hs_harvest::FleetConfig {
                    ips: ((58.0 * scale) as u32).max(8),
                    relays_per_ip: 24,
                    bandwidth: 400,
                },
                warmup_hours: 26,
                rotation_hours: 2,
            },
            scan_days: 7,
            traffic_clients: ((500.0 * scale) as usize).max(60),
            run_tracking: false,
            ..StudyConfig::default()
        }
    }

    /// A deterministic 64-bit fingerprint of every field that can
    /// change an artifact byte. The content-addressed stage cache
    /// folds it into every cache key, so two queries share cached
    /// artifacts only when their *entire* configuration matches — any
    /// tweak (scale, fault rates, chaos hooks, sketch parameters)
    /// yields a disjoint key space. The root seed is deliberately
    /// included even though keys also fold it separately: the
    /// fingerprint must stand alone as a config identity for `STATUS`
    /// output.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x5374_7564_7943_6667; // "StudyCfg"
        let mut fold = |v: u64| h = wave::mix2(h, v);
        fold(self.seed);
        fold(self.scale.to_bits());
        fold(self.relays as u64);
        fold(self.harvest.fleet.ips as u64);
        fold(self.harvest.fleet.relays_per_ip as u64);
        fold(self.harvest.fleet.bandwidth);
        fold(self.harvest.warmup_hours);
        fold(self.harvest.rotation_hours);
        fold(self.scan_days as u64);
        fold(self.traffic_clients as u64);
        fold(u64::from(self.deanon.guards));
        fold(self.deanon.guard_bandwidth);
        fold(self.deanon.signature.padding_run as u64);
        fold(self.deanon_hours);
        fold(u64::from(self.run_tracking));
        fold(self.faults.relay_crash_rate.to_bits());
        fold(self.faults.restart_after_hours);
        fold(self.faults.hsdir_drop_rate.to_bits());
        fold(self.faults.publish_drop_rate.to_bits());
        fold(self.faults.service_flap_rate.to_bits());
        fold(u64::from(self.faults.overload_threshold));
        fold(self.faults.crawl_transient_rate.to_bits());
        fold(self.fail_stages.len() as u64);
        for &s in &self.fail_stages {
            fold(s as u64);
        }
        fold(self.flaky_stages.len() as u64);
        for &s in &self.flaky_stages {
            fold(s as u64);
        }
        match &self.streaming {
            None => fold(0),
            Some(s) => {
                fold(1);
                fold(s.cms_width as u64);
                fold(s.cms_depth as u64);
                fold(s.topk_capacity as u64);
                fold(u64::from(s.hll_precision));
            }
        }
        h
    }

    /// Applies a named fault profile.
    ///
    /// * `"none"` — the inert plan and no chaos (the default);
    /// * `"adversarial"` — the committed adversarial profile: the
    ///   [`FaultPlan::adversarial`] protocol faults, a permanently
    ///   failing `certs` stage (the report must degrade, not abort)
    ///   and a flaky `geomap` stage (the retry budget must absorb it).
    ///
    /// # Errors
    ///
    /// Returns the unknown profile name.
    pub fn apply_fault_profile(&mut self, profile: &str) -> Result<(), String> {
        match profile {
            "none" => {
                self.faults = FaultPlan::none();
                self.fail_stages.clear();
                self.flaky_stages.clear();
                Ok(())
            }
            "adversarial" => {
                self.faults = FaultPlan::adversarial(self.seed);
                self.fail_stages = vec![StageId::Certs];
                self.flaky_stages = vec![StageId::Geomap];
                Ok(())
            }
            other => Err(format!(
                "unknown fault profile `{other}` (expected `none` or `adversarial`)"
            )),
        }
    }
}

/// Checks a command-line scale: the world generator accepts only
/// (0, 1], so `landscape` and `landscaped` reject anything else before
/// they build a world.
///
/// # Errors
///
/// Returns the accepted range for zero, negative, NaN, infinite or
/// larger-than-one values.
pub fn check_scale(scale: f64) -> Result<f64, String> {
    if scale > 0.0 && scale <= 1.0 {
        Ok(scale)
    } else {
        Err("scale must be in (0, 1]".to_owned())
    }
}

/// Everything the study measured.
///
/// Every section is an `Option`: a stage that degraded (see
/// [`PipelineTimings::degraded`]) leaves its sections `None` and the
/// study still returns the rest — a partial report, never an abort.
/// On a fault-free run with no chaos injected, every section the plan
/// produced is `Some` and [`StudyReport::is_complete`] holds.
#[derive(Debug, Default)]
pub struct StudyReport {
    /// The generated ground-truth world.
    pub world: Option<World>,
    /// Sec. II: harvesting outcome.
    pub harvest: Option<HarvestOutcome>,
    /// Sec. III: the port scan (Fig. 1).
    pub scan: Option<ScanReport>,
    /// Sec. III: the certificate survey.
    pub certs: Option<CertSurvey>,
    /// Sec. IV: crawl funnel, Table I, languages, Fig. 2.
    pub crawl: Option<CrawlReport>,
    /// Sec. V: descriptor-request resolution.
    pub resolution: Option<ResolutionReport>,
    /// Sec. V: Table II.
    pub ranking: Option<Ranking>,
    /// Sec. V: Goldnet server-status forensics.
    pub forensics: Option<BotnetForensics>,
    /// Sec. V: share of published services ever requested.
    pub requested_published_share: Option<f64>,
    /// Sec. V: sketch-state snapshot when the study ran with
    /// [`StudyConfig::streaming`]; `None` on the exact path.
    pub sketch: Option<SketchSummary>,
    /// Sec. VI: client deanonymisation.
    pub deanon: Option<DeanonReport>,
    /// Sec. VII: tracking detection (when enabled).
    pub tracking: Option<TrackingReport>,
    /// Per-stage wall-clock timings, domain counters, gauges,
    /// histograms, and the degraded-stage record.
    pub stages: PipelineTimings,
    /// The span trace, when the run was started with
    /// [`crate::RunOptions::trace`] set (see [`Study::run_with`]).
    pub trace: Option<obs::Trace>,
}

impl StudyReport {
    /// Whether every planned stage completed (no degradations).
    pub fn is_complete(&self) -> bool {
        self.stages.degraded.is_empty()
    }

    /// The stages that failed and were degraded out of the run, in
    /// canonical order.
    pub fn degraded_stages(&self) -> &[DegradedStage] {
        &self.stages.degraded
    }
}

/// The study driver.
///
/// # Examples
///
/// ```no_run
/// use hs_landscape::{Study, StudyConfig};
///
/// let report = Study::new(StudyConfig::test_scale()).run();
/// assert!(report.is_complete());
/// assert!(report.harvest.as_ref().unwrap().onion_count() > 0);
/// ```
///
/// Selective runs return the raw artifact store instead of a report:
///
/// ```no_run
/// use hs_landscape::pipeline::StageId;
/// use hs_landscape::{Study, StudyConfig};
///
/// let run = Study::new(StudyConfig::test_scale()).run_until(StageId::PortScan);
/// assert!(run.artifacts.scan().total_open() > 0);
/// assert!(run.timings.skipped(StageId::DeanonWindow));
/// ```
#[derive(Clone, Debug)]
pub struct Study {
    config: StudyConfig,
}

impl Study {
    /// Creates a study.
    pub fn new(config: StudyConfig) -> Self {
        Study { config }
    }

    /// The configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Runs the full pipeline at one wave thread (see
    /// [`ExecMode::parallel`]).
    pub fn run(&self) -> StudyReport {
        self.run_full(ExecMode::parallel(), RunOptions::default())
    }

    /// Runs the full pipeline with explicit observability options
    /// (span tracing, stderr event stream).
    pub fn run_with(&self, opts: RunOptions) -> StudyReport {
        self.run_full(ExecMode::parallel(), opts)
    }

    /// Runs the full pipeline under an explicit execution mode and
    /// thread budget, e.g. `ExecMode::parallel().with_wave_threads(8)`,
    /// which also runs independent stages side by side. Artifacts are
    /// byte-identical at every thread count.
    pub fn run_mode(&self, mode: ExecMode, opts: RunOptions) -> StudyReport {
        self.run_full(mode, opts)
    }

    /// Runs the full pipeline with every stage on the calling thread —
    /// the reference order [`Study::run`] is tested against.
    pub fn run_sequential(&self) -> StudyReport {
        self.run_full(ExecMode::sequential(), RunOptions::default())
    }

    /// Runs the dependency closure of a single stage and returns the
    /// raw artifacts: exactly the work `stage` needs, nothing else.
    pub fn run_until(&self, stage: StageId) -> PipelineRun {
        self.run_stages(&[stage])
    }

    /// Runs the dependency closure of `targets` at one wave thread.
    pub fn run_stages(&self, targets: &[StageId]) -> PipelineRun {
        Pipeline::new(self.config.clone()).run(targets, ExecMode::parallel())
    }

    /// Runs the dependency closure of `targets` with explicit
    /// observability options.
    pub fn run_stages_with(&self, targets: &[StageId], opts: RunOptions) -> PipelineRun {
        Pipeline::new(self.config.clone()).run_with(targets, ExecMode::parallel(), opts)
    }

    /// Runs the dependency closure of `targets` under an explicit
    /// execution mode (see [`Study::run_mode`]).
    pub fn run_stages_mode(
        &self,
        targets: &[StageId],
        mode: ExecMode,
        opts: RunOptions,
    ) -> PipelineRun {
        Pipeline::new(self.config.clone()).run_with(targets, mode, opts)
    }

    fn run_full(&self, mode: ExecMode, opts: RunOptions) -> StudyReport {
        let mut targets = vec![
            StageId::Geomap,
            StageId::Certs,
            StageId::Crawl,
            StageId::Popularity,
        ];
        if self.config.run_tracking {
            targets.push(StageId::Tracking);
        }
        let run = Pipeline::new(self.config.clone()).run_with(&targets, mode, opts);
        let mut report = StudyReport {
            stages: run.timings,
            trace: run.trace,
            ..StudyReport::default()
        };
        // Without a cache the store holds the only reference to each
        // payload, so `unwrap_or_clone` moves the artifacts out and
        // never copies.
        for payload in run.artifacts.into_payloads() {
            match payload {
                StagePayload::Setup(b) => {
                    report.world = Some(Arc::unwrap_or_clone(Arc::unwrap_or_clone(b).world))
                }
                StagePayload::Harvest(b) => report.harvest = Some(Arc::unwrap_or_clone(b).harvest),
                StagePayload::DeanonWindow(_) => {}
                StagePayload::PortScan(s) => report.scan = Some(Arc::unwrap_or_clone(s)),
                StagePayload::Geomap(d) => report.deanon = Some(Arc::unwrap_or_clone(d)),
                StagePayload::Certs(c) => report.certs = Some(Arc::unwrap_or_clone(c)),
                StagePayload::Crawl(c) => report.crawl = Some(Arc::unwrap_or_clone(c)),
                StagePayload::Popularity(p) => {
                    let p = Arc::unwrap_or_clone(p);
                    report.resolution = Some(p.resolution);
                    report.ranking = Some(p.ranking);
                    report.forensics = Some(p.forensics);
                    report.requested_published_share = Some(p.requested_published_share);
                    report.sketch = p.sketch;
                }
                StagePayload::Tracking(t) => report.tracking = Some(Arc::unwrap_or_clone(t)),
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_scale_study_runs_end_to_end() {
        let report = Study::new(StudyConfig::test_scale()).run();
        assert!(report.is_complete(), "{:?}", report.degraded_stages());
        let harvest = report.harvest.as_ref().unwrap();
        assert!(harvest.onion_count() > 50, "harvest crop");
        assert!(report.scan.as_ref().unwrap().total_open() > 0, "open ports");
        assert!(
            !report.crawl.as_ref().unwrap().classified.is_empty(),
            "pages classified"
        );
        assert!(
            report.resolution.as_ref().unwrap().total_requests > 0,
            "requests logged"
        );
        assert!(
            !report.ranking.as_ref().unwrap().rows().is_empty(),
            "ranking built"
        );
        assert!(report.tracking.is_none(), "tracking disabled at test scale");
        assert!(
            report.stages.skipped(StageId::Tracking),
            "tracking stage skipped"
        );
        assert_eq!(report.stages.executed.len(), 8, "eight stages ran");
    }

    #[test]
    fn at_scale_pins_the_scaling_rule() {
        for (scale, relays, ips, clients) in [
            (0.03, 150, 8, 60),
            (0.25, 350, 14, 125),
            (1.0, 1_400, 58, 500),
        ] {
            let cfg = StudyConfig::at_scale(scale);
            assert_eq!(cfg.scale, scale);
            assert_eq!(cfg.relays, relays, "relays at {scale}");
            assert_eq!(cfg.harvest.fleet.ips, ips, "fleet IPs at {scale}");
            assert_eq!(cfg.harvest.fleet.relays_per_ip, 24);
            assert_eq!(cfg.harvest.fleet.bandwidth, 400);
            assert_eq!(cfg.scan_days, 7);
            assert_eq!(cfg.traffic_clients, clients, "clients at {scale}");
            assert!(!cfg.run_tracking);
        }
        // The paper-scale preset `at_scale(1.0)` replaced, field for field.
        let paper = StudyConfig {
            scale: 1.0,
            relays: 1_400,
            harvest: HarvestConfig {
                fleet: hs_harvest::FleetConfig {
                    ips: 58,
                    relays_per_ip: 24,
                    bandwidth: 400,
                },
                warmup_hours: 26,
                rotation_hours: 2,
            },
            scan_days: 7,
            traffic_clients: 500,
            run_tracking: false,
            ..StudyConfig::default()
        };
        assert_eq!(
            format!("{:?}", StudyConfig::at_scale(1.0)),
            format!("{paper:?}")
        );
    }

    #[test]
    fn unknown_fault_profile_is_rejected() {
        let mut cfg = StudyConfig::test_scale();
        assert!(cfg.apply_fault_profile("nope").is_err());
        cfg.apply_fault_profile("adversarial").unwrap();
        assert!(!cfg.faults.is_inert());
        assert_eq!(cfg.fail_stages, vec![StageId::Certs]);
        cfg.apply_fault_profile("none").unwrap();
        assert!(cfg.faults.is_inert());
        assert!(cfg.fail_stages.is_empty() && cfg.flaky_stages.is_empty());
    }
}
