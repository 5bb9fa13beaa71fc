//! The pipeline engine: plans a stage closure, cuts it into dependency
//! levels, and runs the independent stages of a level side by side.
//!
//! Execution contract:
//!
//! * **Every stage takes one path.** An admit step (halt latch, cache
//!   probe, degraded-dependency cascade) decides whether it runs; one
//!   attempt loop runs its body (chaos injection, panic containment,
//!   retry budget, seeded backoff); one settle step records the outcome
//!   (run, cache hit or degraded) and draws the stage's trace lane.
//! * **Levels.** [`StageId::levels`] cuts the plan greedily in
//!   canonical order: a level ends just before the first stage that
//!   depends on one of its stages. The full plan is `[setup]
//!   [harvest] [deanon_window, port_scan] [geomap, certs, crawl,
//!   popularity, tracking]`. Sim stages clone their input [`Network`]
//!   snapshot from the store, so the sim siblings branch independent
//!   timelines off the post-harvest state; analysis stages only read
//!   artifacts.
//! * **The one-thread rule.** [`ExecMode::Sequential`] and any run at
//!   one wave thread fork nothing: each stage is admitted, attempted
//!   and settled in turn, in canonical order. Under
//!   [`ExecMode::Parallel`] with two or more threads, each level
//!   admits its stages, forks one [`WavePool::map`] worker per runnable
//!   stage (every stage keeping the run's full wave width), and settles
//!   them in canonical order.
//! * **A forked level returns what the sequential order returns**:
//!   the same artifacts, `timings.executed` order, degraded and halted
//!   lists, halt reason and sim-clock trace. Settle places synthetic
//!   lane positions at the sim frontier of that moment, and re-checks
//!   the sim-hour budget: a sibling that ran speculatively but that
//!   sequential admission would have refused is dropped (no timing,
//!   lane or cache entry) and lands in `halted`.
//! * Randomness comes only from seeds derived in
//!   [`super::seeds::stage_seed`]; wall-clock time is never consulted
//!   except for instrumentation.
//! * **No stage failure aborts the run.** A stage body returns
//!   `Result` (and panics are caught), failures consume a bounded
//!   retry budget, and a stage that still fails is *degraded*: it is
//!   recorded in [`PipelineTimings::degraded`] together with every
//!   downstream stage that needed its artifact, and the run carries on
//!   with whatever remains.
//!
//! ## Observability
//!
//! Every stage body fills an [`obs::Registry`] (counters in the
//! historical `bench_stages.json` order, plus the newer dotted-name
//! gauges and histograms). With [`RunOptions::trace`] set, the engine
//! additionally collects a span trace: one lane per stage (plus lane 0
//! for the run), with per-stage spans, per-attempt spans, per-consensus
//! -round spans from [`Network::take_round_trace`], coarse client-op
//! spans (traffic ticks, scan days), and typed instant events (retry,
//! fault, degraded, cache). Sim-clock timestamps in the trace are a
//! pure function of the seed and the plan, so the `Sim` export is
//! byte-identical across same-seed runs; wall intervals ride along for
//! the `Wall` view only. Tracing is observational: it never changes an
//! artifact byte (the round recorder itself is proven inert in
//! `tor-sim`).

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{EventKind, Span, SpanRecorder, Trace, TraceEvent};
use onion_crypto::onion::OnionAddress;
use tor_sim::clock::{SimTime, HOUR};
use tor_sim::network::{Network, RoundTrace};
use wave::{WavePool, WaveStats};

use hs_content::{CertSurvey, CrawlConfig, Crawler};
use hs_deanon::{DeanonAttack, GeoMap};
use hs_harvest::Harvester;
use hs_popularity::{
    ranking::requested_published_share, BotnetForensics, Ranking, Resolver, StreamingPopularity,
    TrafficConfig, TrafficDriver,
};
use hs_portscan::{ScanConfig, Scanner};
use hs_tracking::{scenario, ConsensusArchive, DetectorConfig, HistoryConfig, TrackingDetector};
use hs_world::{GeoDb, World, WorldConfig};

use super::artifacts::{
    ArtifactStore, DeanonReport, DeanonWindowOut, PopularityOut, TrackingReport,
};
use super::cache::{derive_keys, CacheKey, HarvestBundle, SetupBundle, StageCache, StagePayload};
use super::control::{Halt, RunControl};
use super::seeds::{stage_seed, SeedDomain};
use super::stage::{StageId, StageKind};
use super::timing::{DegradedStage, PipelineTimings, StageTiming};
use crate::study::StudyConfig;

/// How the pipeline uses threads. `wave_threads` is the worker budget
/// of the measurement waves inside a stage (scan days, traffic ticks,
/// crawl phases, tracking windows); the mode decides whether the
/// independent stages of a dependency level also run side by side.
/// Output is byte-identical in either mode at any thread count, so
/// both are pure wall-clock policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// With two or more wave threads, each level forks one worker per
    /// runnable stage, and every stage keeps the full wave width. At
    /// one thread it forks nothing and runs exactly like `Sequential`.
    Parallel {
        /// Worker threads for in-stage measurement waves.
        wave_threads: usize,
    },
    /// One stage at a time on the calling thread, in canonical order —
    /// the reference order forked levels are tested against, and the
    /// daemon's mode.
    Sequential {
        /// Worker threads for in-stage measurement waves.
        wave_threads: usize,
    },
}

impl ExecMode {
    /// Parallel mode at one wave thread (which forks nothing).
    pub fn parallel() -> Self {
        ExecMode::Parallel { wave_threads: 1 }
    }

    /// Sequential mode at one wave thread.
    pub fn sequential() -> Self {
        ExecMode::Sequential { wave_threads: 1 }
    }

    /// The same mode with `n` wave workers (zero behaves as one).
    pub fn with_wave_threads(self, n: usize) -> Self {
        let n = n.max(1);
        match self {
            ExecMode::Parallel { .. } => ExecMode::Parallel { wave_threads: n },
            ExecMode::Sequential { .. } => ExecMode::Sequential { wave_threads: n },
        }
    }

    /// The wave worker budget.
    pub fn wave_threads(self) -> usize {
        match self {
            ExecMode::Parallel { wave_threads } | ExecMode::Sequential { wave_threads } => {
                wave_threads
            }
        }
    }

    /// Whether independent stages of a level run side by side.
    fn forks_levels(self) -> bool {
        matches!(self, ExecMode::Parallel { wave_threads } if wave_threads >= 2)
    }
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::parallel()
    }
}

/// Per-run observability switches.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Collect a span trace ([`PipelineRun::trace`] becomes `Some`).
    pub trace: bool,
    /// Human-readable event stream on stderr (off by default).
    pub log: obs::Logger,
}

/// The result of one pipeline run: the filled artifact slots plus the
/// per-stage instrumentation.
#[derive(Debug)]
pub struct PipelineRun {
    /// Artifacts produced by the executed stages.
    pub artifacts: ArtifactStore,
    /// What ran, how long it took, and what was skipped.
    pub timings: PipelineTimings,
    /// Why a controlled run stopped early, if it did. Always `None`
    /// for uncontrolled (batch) runs; the abandoned stages are in
    /// [`PipelineTimings::halted`].
    pub halt: Option<Halt>,
    /// The span trace, when [`RunOptions::trace`] was set.
    pub trace: Option<Trace>,
}

/// The engine. Owns nothing but the configuration; every run starts
/// from an empty store.
#[derive(Clone, Debug)]
pub struct Pipeline {
    cfg: StudyConfig,
}

/// Extracts a readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("stage panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("stage panicked: {s}")
    } else {
        "stage panicked with a non-string payload".to_owned()
    }
}

/// How many attempts a stage gets before it degrades. Analysis stages
/// are pure functions of the store, so a transient failure is worth
/// one retry; sim stages are deterministic in their inputs — an
/// identical rerun would fail identically — so they get one shot.
fn retry_budget(stage: StageId) -> u32 {
    match stage.kind() {
        StageKind::Sim => 1,
        StageKind::Analysis => 2,
    }
}

/// Sim-clock seconds to back off after `attempt` of `stage` failed:
/// exponential base (30 s doubled per failed attempt, capped) with a
/// deterministic ±50 % jitter drawn from the dedicated `Backoff` seed
/// domain. A pure function of `(seed, stage, attempt)`, so same-seed
/// runs record byte-identical backoff schedules regardless of wall
/// time, thread count, or which attempt actually recovered.
fn backoff_secs(seed: u64, stage: StageId, attempt: u32) -> u64 {
    let base = 30u64 << (attempt - 1).min(6);
    let roll = wave::mix2(
        stage_seed(seed, SeedDomain::Backoff),
        wave::mix2(stage as u64, u64::from(attempt)),
    );
    base / 2 + roll % base
}

/// The wall-clock pause that accompanies a sim-clock backoff. The sim
/// schedule is the deterministic record; the wall pause only yields
/// the CPU briefly so a transiently overloaded host can recover, and
/// is capped so retries never stall a test run.
fn backoff_pause(secs: u64) {
    std::thread::sleep(Duration::from_millis(secs.min(20)));
}

/// Chaos hook: the configured failure for `stage` at `attempt`, if
/// any. `fail_stages` fail every attempt (a permanently broken stage);
/// `flaky_stages` fail the first attempt only (a transient fault the
/// retry budget should absorb).
fn injected_failure(cfg: &StudyConfig, stage: StageId, attempt: u32) -> Option<String> {
    if cfg.fail_stages.contains(&stage) {
        return Some(format!("injected permanent failure in `{stage}`"));
    }
    if attempt == 1 && cfg.flaky_stages.contains(&stage) {
        return Some(format!("injected transient failure in `{stage}`"));
    }
    None
}

/// Records the traffic sampler's numeric-guard trips accumulated by a
/// stage (the delta over `before`) as counters. Both guards stay at
/// zero under any sane popularity model, and zero-valued trips are
/// *not* emitted — fault-free runs keep the historical counter layout.
fn record_poisson_trips(
    reg: &mut obs::Registry,
    after: hs_popularity::PoissonStats,
    before: hs_popularity::PoissonStats,
) {
    let valve = after.valve_trips - before.valve_trips;
    let clamp = after.clamp_trips - before.clamp_trips;
    if valve > 0 {
        reg.inc("poisson_valve_trips", valve);
    }
    if clamp > 0 {
        reg.inc("poisson_clamp_trips", clamp);
    }
}

/// A coarse client-operation interval recorded inside a sim stage
/// (a driven traffic tick, one scan day) — rendered as an `ops` span.
struct OpSpan {
    name: &'static str,
    start: u64,
    end: u64,
    args: Vec<(&'static str, u64)>,
}

/// What one stage attempt collected: its metric registry plus — when
/// tracing — the sim interval it covered, the consensus rounds it
/// drove, and its client-op intervals.
struct StageObs {
    reg: obs::Registry,
    tracing: bool,
    /// The sim interval a sim stage advanced (set by [`StageObs::begin`]).
    sim: Option<(u64, u64)>,
    /// Synthetic sim-span weight of a stage with no sim clock of its
    /// own (analysis stages): the number of items it processed.
    weight: u64,
    rounds: Vec<RoundTrace>,
    ops: Vec<OpSpan>,
    waves: Vec<WaveStats>,
}

impl StageObs {
    fn new(tracing: bool) -> Self {
        StageObs {
            reg: obs::Registry::new(),
            tracing,
            sim: None,
            weight: 0,
            rounds: Vec::new(),
            ops: Vec::new(),
            waves: Vec::new(),
        }
    }

    /// Records a batch of measurement-wave accounting: the wave worker
    /// budget as a gauge, every shard's item count into the imbalance
    /// histogram, and — when tracing — the raw stats for shard spans.
    /// Gauges and histograms never enter stage-span args or the
    /// committed baseline greps, so thread count stays invisible to
    /// the deterministic outputs.
    fn record_waves(&mut self, waves: Vec<WaveStats>) {
        if let Some(w) = waves.first() {
            self.reg.gauge("wave.threads", w.threads as f64);
        }
        for w in &waves {
            for s in &w.shards {
                self.reg.record("wave.shard_items", s.items as u64);
            }
        }
        self.waves.extend(waves);
    }

    /// Arms (or re-arms) the network round recorder for this stage and
    /// notes the stage's sim start. Re-arming resets the recorder's
    /// marks, so a stage never inherits deltas from the snapshot it
    /// cloned.
    fn begin(&mut self, net: &mut Network) {
        if self.tracing {
            net.set_round_tracing(true);
        }
        self.sim = Some((net.time().unix(), net.time().unix()));
    }

    /// Closes the stage's sim interval and drains its rounds.
    fn end(&mut self, net: &mut Network) {
        if let Some((start, _)) = self.sim {
            self.sim = Some((start, net.time().unix()));
        }
        if self.tracing {
            self.rounds = net.take_round_trace();
        }
    }
}

/// A stage that completed its attempt loop: its payload, plus what
/// settle needs to draw its trace lane.
struct Completed {
    timing: StageTiming,
    payload: StagePayload,
    /// The final attempt's observations (its registry already moved
    /// into `timing`).
    sobs: StageObs,
    /// The attempt loop's wall interval since the run epoch.
    wall: (u64, u64),
    attempts: u32,
    /// The sim-clock backoff after each failed attempt.
    backoffs: Vec<u64>,
}

/// Where a stage stands between admission and settlement.
enum Outcome {
    /// Abandoned: the run's halt has latched.
    Halted,
    /// Served from the content-addressed cache.
    Cached(StagePayload),
    /// Degraded without an attempt: this dependency degraded.
    DepDegraded(StageId),
    /// The attempt loop's result: the completed stage, or its final
    /// error and the attempts consumed.
    Ran(Result<Box<Completed>, (String, u32)>),
}

/// One run in progress: its fixed context, the artifact store, and the
/// bookkeeping every stage settles into.
struct Run<'a> {
    pipeline: &'a Pipeline,
    wave_threads: usize,
    opts: RunOptions,
    epoch: Instant,
    ctl: &'a RunControl,
    cache: Option<KeyedCache<'a>>,
    store: ArtifactStore,
    timings: PipelineTimings,
    failed: BTreeSet<StageId>,
    /// Per-stage trace lanes, filled only when tracing.
    recorders: Vec<(StageId, SpanRecorder)>,
    halt: Option<Halt>,
    sim_hours_used: u64,
    /// The sim frontier: the latest sim instant a settled stage's own
    /// clock reached. Synthetic positions (analysis spans, cache hits,
    /// degradations) start here; analysis spans never move it.
    frontier: u64,
    /// The sim span the settled stages covered, synthetic spans
    /// included.
    sim_lo: u64,
    sim_hi: u64,
}

impl Run<'_> {
    /// The stage boundary every stage passes first. Once any budget
    /// trips, the halt latches and the rest of the plan is abandoned
    /// (never degraded — the stages did not fail, the query ran out of
    /// budget). Returns the stage's outcome when admission decides it
    /// (halted, cache hit, degraded dependency), or `None` when the
    /// stage has to run.
    fn admit(&mut self, stage: StageId) -> Option<Outcome> {
        if self.halt.is_none() {
            self.halt = self.ctl.check(self.sim_hours_used);
            if let Some(h) = self.halt {
                self.opts
                    .log
                    .progress(format_args!("pipeline: halting before {stage} ({h})"));
            }
        }
        if self.halt.is_some() {
            return Some(Outcome::Halted);
        }
        if let Some((cache, keys)) = &self.cache {
            if let Some(payload) = cache.lookup(keys[stage as usize]) {
                return Some(Outcome::Cached(payload));
            }
        }
        stage
            .deps()
            .iter()
            .find(|d| self.failed.contains(d))
            .map(|&dep| Outcome::DepDegraded(dep))
    }

    /// The attempt loop every admitted stage runs through: chaos
    /// injection, panic containment, and the stage's retry budget, with
    /// a [`RunControl`] check and a seeded sim-clock backoff at each
    /// retry boundary (an exhausted budget stops the retry and the
    /// stage degrades with its last error). It only reads the run, so
    /// a forked level runs several stages' loops at once.
    fn attempt(&self, stage: StageId) -> Result<Box<Completed>, (String, u32)> {
        let log = self.opts.log;
        let cfg = &self.pipeline.cfg;
        log.debug(format_args!("stage {stage}: starting"));
        let started = Instant::now();
        let wall_start = self.epoch.elapsed().as_micros() as u64;
        let budget = retry_budget(stage);
        let mut attempts = 0u32;
        let mut backoffs: Vec<u64> = Vec::new();
        let (mut sobs, payload) = loop {
            attempts += 1;
            let mut sobs = StageObs::new(self.opts.trace);
            let result = match injected_failure(cfg, stage, attempts) {
                Some(err) => Err(err),
                None => panic::catch_unwind(AssertUnwindSafe(|| {
                    self.pipeline
                        .body(stage, &self.store, &mut sobs, self.wave_threads)
                }))
                .unwrap_or_else(|payload| Err(panic_message(payload))),
            };
            match result {
                Ok(payload) => break (sobs, payload),
                // Retry boundary: retry while the stage has budget and
                // the query's control has not tripped.
                Err(err) if attempts < budget && self.ctl.check(self.sim_hours_used).is_none() => {
                    let wait = backoff_secs(cfg.seed, stage, attempts);
                    log.debug(format_args!(
                        "stage {stage}: attempt {attempts} failed ({err}); \
                         retrying after {wait} s sim-clock backoff"
                    ));
                    backoffs.push(wait);
                    backoff_pause(wait);
                }
                Err(err) => return Err((err, attempts)),
            }
        };
        if attempts > 1 {
            sobs.reg.inc("retries", u64::from(attempts - 1));
            sobs.reg
                .inc("stage_backoff_secs", backoffs.iter().sum::<u64>());
        }
        let wall = (wall_start, self.epoch.elapsed().as_micros() as u64);
        let reg = std::mem::take(&mut sobs.reg);
        let timing = StageTiming::from_registry(stage, started.elapsed(), reg);
        log.progress(format_args!(
            "stage {stage}: done in {:.1} ms",
            timing.wall.as_secs_f64() * 1e3
        ));
        Ok(Box::new(Completed {
            timing,
            payload,
            sobs,
            wall,
            attempts,
            backoffs,
        }))
    }

    /// Records a stage's outcome, in canonical order. The sim-hour
    /// budget is re-checked first: a stage that ran beside siblings
    /// settled before it is kept only if sequential admission, after
    /// those siblings, would have admitted it. A completed stage is
    /// charged its sim hours and deposited, a cache hit is installed,
    /// a failed one degrades; each draws its lane at the sim frontier
    /// of this moment.
    fn settle(&mut self, stage: StageId, mut outcome: Outcome) {
        let (log, trace) = (self.opts.log, self.opts.trace);
        if self.halt.is_none() && self.ctl.sim_budget_spent(self.sim_hours_used) {
            self.halt = Some(Halt::SimBudget);
            log.progress(format_args!(
                "pipeline: halting before {stage} ({})",
                Halt::SimBudget
            ));
        }
        if self.halt.is_some() {
            outcome = Outcome::Halted;
        }
        let at = self.frontier;
        let lane = match outcome {
            Outcome::Halted => {
                self.timings.halted.push(stage);
                None
            }
            // A hit installs the cached payload (a pointer clone) as if
            // the stage had run, advancing zero sim hours.
            Outcome::Cached(payload) => {
                let started = Instant::now();
                self.store.install(&payload);
                let mut reg = obs::Registry::new();
                reg.inc("stage_cache_hit", 1);
                log.progress(format_args!("stage {stage}: served from cache"));
                self.timings.executed.push(StageTiming::from_registry(
                    stage,
                    started.elapsed(),
                    reg,
                ));
                trace.then(|| cache_hit_recorder(at))
            }
            Outcome::DepDegraded(dep) => {
                log.progress(format_args!(
                    "stage {stage}: skipped, dependency `{dep}` degraded"
                ));
                self.degrade(stage, format!("dependency `{dep}` degraded"), 0);
                trace.then(|| degraded_recorder(at, 0))
            }
            Outcome::Ran(Ok(done)) => {
                let done = *done;
                // A stage without a sim clock of its own gets a
                // synthetic span from the frontier, as long as the
                // items it processed, so the deterministic view still
                // shows relative workloads.
                let sim = done.sobs.sim.unwrap_or((at, at + done.sobs.weight));
                if let Some((start, end)) = done.sobs.sim {
                    self.sim_hours_used += end.saturating_sub(start) / HOUR;
                    self.frontier = self.frontier.max(end);
                }
                self.sim_lo = self.sim_lo.min(sim.0);
                self.sim_hi = self.sim_hi.max(sim.1);
                let lane = trace.then(|| {
                    stage_recorder(
                        stage,
                        sim,
                        done.wall,
                        done.attempts,
                        &done.backoffs,
                        &done.timing,
                        &done.sobs,
                        self.epoch,
                    )
                });
                self.timings.executed.push(done.timing);
                deposit(done.payload, self.cache.as_ref(), &mut self.store);
                lane
            }
            Outcome::Ran(Err((error, attempts))) => {
                log.progress(format_args!(
                    "stage {stage}: DEGRADED after {attempts} attempt(s): {error}"
                ));
                self.degrade(stage, error, attempts);
                trace.then(|| degraded_recorder(at, attempts))
            }
        };
        if let Some(lane) = lane {
            self.recorders.push((stage, lane));
        }
    }

    /// Records `stage` as degraded, so its dependents degrade too.
    fn degrade(&mut self, stage: StageId, error: String, attempts: u32) {
        self.timings.degraded.push(DegradedStage {
            stage,
            error,
            attempts,
        });
        self.failed.insert(stage);
    }
}

impl Pipeline {
    /// Creates an engine for `cfg`.
    pub fn new(cfg: StudyConfig) -> Self {
        Pipeline { cfg }
    }

    /// Runs the dependency closure of `targets` with default options
    /// (no trace, no log). See [`Pipeline::run_with`].
    pub fn run(&self, targets: &[StageId], mode: ExecMode) -> PipelineRun {
        self.run_with(targets, mode, RunOptions::default())
    }

    /// Runs the dependency closure of `targets`, skipping every stage
    /// the targets do not need. Stage failures degrade (recorded in
    /// [`PipelineTimings::degraded`]) instead of aborting the run.
    /// `opts` controls span tracing and the stderr event stream.
    pub fn run_with(&self, targets: &[StageId], mode: ExecMode, opts: RunOptions) -> PipelineRun {
        self.run_controlled(targets, mode, opts, &RunControl::default())
    }

    /// [`Pipeline::run_with`] under a query's [`RunControl`]: the
    /// cancellation token and deadline budgets are consulted at every
    /// stage-attempt boundary (before each stage or forked level,
    /// before each retry), and — when the control carries a
    /// cache — every stage first probes the content-addressed cache
    /// and deposits its output there on completion. Stages abandoned
    /// by an exhausted budget land in [`PipelineTimings::halted`] and
    /// the returned run's `halt` names the reason; everything that
    /// completed before the halt keeps its artifacts.
    pub fn run_controlled(
        &self,
        targets: &[StageId],
        mode: ExecMode,
        opts: RunOptions,
        ctl: &RunControl,
    ) -> PipelineRun {
        let epoch = Instant::now();
        let log = opts.log;
        let plan = StageId::closure(targets);
        // Cache keys are fixed for the whole run: stage identity, root
        // seed, the full config fingerprint, upstream keys, and the
        // caller's epoch salt (folded into `Setup`, chained onward).
        let cache: Option<KeyedCache> = ctl.cache.as_deref().map(|cache| {
            let keys = derive_keys(self.cfg.seed, self.cfg.fingerprint(), ctl.epoch_salt);
            (cache, keys)
        });
        log.progress(format_args!(
            "pipeline: {} stage(s) planned ({mode:?})",
            plan.len()
        ));
        let mut run = Run {
            pipeline: self,
            wave_threads: mode.wave_threads(),
            opts,
            epoch,
            ctl,
            cache,
            store: ArtifactStore::default(),
            timings: PipelineTimings {
                executed: Vec::with_capacity(plan.len()),
                skipped: StageId::ALL
                    .iter()
                    .copied()
                    .filter(|s| !plan.contains(s))
                    .collect(),
                degraded: Vec::new(),
                halted: Vec::new(),
                elapsed: Default::default(),
            },
            failed: BTreeSet::new(),
            recorders: Vec::new(),
            halt: None,
            sim_hours_used: 0,
            frontier: 0,
            sim_lo: u64::MAX,
            sim_hi: 0,
        };

        // A forking run takes a level at a time; any other run takes
        // one stage at a time, which is the sequential order.
        let groups: Vec<&[StageId]> = if mode.forks_levels() {
            StageId::levels(&plan)
        } else {
            plan.chunks(1).collect()
        };
        for group in groups {
            let admitted: Vec<(StageId, Option<Outcome>)> =
                group.iter().map(|&s| (s, run.admit(s))).collect();
            let runnable: Vec<StageId> = admitted
                .iter()
                .filter(|(_, outcome)| outcome.is_none())
                .map(|&(s, _)| s)
                .collect();
            if runnable.len() > 1 {
                log.progress(format_args!(
                    "level: {} stages side by side",
                    runnable.len()
                ));
            }
            // One worker per runnable stage; each keeps the full wave
            // width for its own measurement waves.
            let (ran, _) = WavePool::new(runnable.len())
                .map(&runnable, |_, &stage| Outcome::Ran(run.attempt(stage)));
            // Settle in canonical order regardless of completion order,
            // each runnable stage taking its attempt's result.
            let mut ran = ran.into_iter();
            for (stage, outcome) in admitted {
                if let Some(outcome) = outcome.or_else(|| ran.next()) {
                    run.settle(stage, outcome);
                }
            }
        }

        let Run {
            store,
            mut timings,
            halt,
            recorders,
            sim_lo,
            sim_hi,
            ..
        } = run;
        timings.degraded.sort_by_key(|d| d.stage);
        timings.halted.sort();
        timings.elapsed = epoch.elapsed();
        log.progress(format_args!(
            "pipeline: {} executed, {} degraded, {:.1} ms elapsed",
            timings.executed.len(),
            timings.degraded.len(),
            timings.elapsed.as_secs_f64() * 1e3
        ));

        let trace = opts.trace.then(|| {
            assemble_trace(
                recorders,
                if sim_lo == u64::MAX { 0 } else { sim_lo },
                sim_hi,
                timings.elapsed.as_micros() as u64,
                timings.executed.len() as u64,
                timings.degraded.len() as u64,
            )
        });

        PipelineRun {
            artifacts: store,
            timings,
            halt,
            trace,
        }
    }

    /// Whether this run injects protocol-level faults (and therefore
    /// reports fault counters).
    fn faults_active(&self) -> bool {
        !self.cfg.faults.is_inert()
    }

    /// `stage`'s un-instrumented body: sim bodies advance a network
    /// cloned from the store, analysis bodies only read the store. Each
    /// fills `sobs` and returns the stage's payload.
    fn body(
        &self,
        stage: StageId,
        store: &ArtifactStore,
        sobs: &mut StageObs,
        wave_threads: usize,
    ) -> Result<StagePayload, String> {
        match stage {
            StageId::Setup => self.sim_setup(sobs, wave_threads),
            StageId::Harvest => self.sim_harvest(store, sobs, wave_threads),
            StageId::DeanonWindow => self.sim_deanon_window(store, sobs),
            StageId::PortScan => self.sim_port_scan(store, sobs, wave_threads),
            StageId::Geomap => analysis_geomap(store, sobs),
            StageId::Certs => analysis_certs(store, sobs),
            StageId::Crawl => analysis_crawl(&self.cfg, store, sobs, wave_threads),
            StageId::Popularity => analysis_popularity(&self.cfg, store, sobs),
            StageId::Tracking => analysis_tracking(&self.cfg, sobs, wave_threads),
        }
    }

    /// World generation, network build, guard prepositioning, traffic
    /// driver construction.
    fn sim_setup(&self, sobs: &mut StageObs, wave_threads: usize) -> Result<StagePayload, String> {
        let cfg = &self.cfg;
        let world = World::generate(
            WorldConfig::default()
                .with_seed(stage_seed(cfg.seed, SeedDomain::World))
                .with_scale(cfg.scale),
        );
        let geo = GeoDb::new();
        // The fault plan always flows into the builder: an inert plan
        // is the identity (proved by test), and an active one draws
        // its decisions from the dedicated `Faults` seed domain.
        let mut fault_plan = cfg.faults.clone();
        fault_plan.seed = stage_seed(cfg.seed, SeedDomain::Faults);
        let mut net = tor_sim::network::NetworkBuilder::new()
            .relays(cfg.relays)
            .seed(stage_seed(cfg.seed, SeedDomain::Network))
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(fault_plan)
            .build();
        sobs.begin(&mut net);
        world.register_all(&mut net);
        // The attacker's guard relays run long before the measurement:
        // victims' guard sets must have had the chance to include them.
        let attacker_guards = DeanonAttack::preposition_guards(&mut net, &cfg.deanon);
        net.advance_hours(1);
        let traffic = TrafficDriver::new(
            &mut net,
            &world,
            &geo,
            TrafficConfig {
                clients: cfg.traffic_clients,
                seed: stage_seed(cfg.seed, SeedDomain::Traffic),
                threads: wave_threads,
            },
        );
        sobs.reg.inc("relays", cfg.relays as u64);
        sobs.reg.inc("services", world.services().len() as u64);
        sobs.reg
            .inc("traffic_clients", traffic.clients().len() as u64);
        net.hot_counters().record_into(&mut sobs.reg);
        if self.faults_active() {
            net.fault_counters().record_into(&mut sobs.reg);
        }
        sobs.end(&mut net);
        Ok(StagePayload::Setup(Arc::new(SetupBundle {
            world: Arc::new(world),
            geo: Arc::new(geo),
            attacker_guards: Arc::new(attacker_guards),
            net,
            traffic: Arc::new(traffic),
        })))
    }

    /// The Sec. II trawling attack with live Sec. V traffic. With
    /// [`StudyConfig::streaming`] set, the harvester drains its request
    /// log hourly into the sketch aggregator instead of materializing
    /// the per-request event vector.
    fn sim_harvest(
        &self,
        store: &ArtifactStore,
        sobs: &mut StageObs,
        wave_threads: usize,
    ) -> Result<StagePayload, String> {
        let mut net = store.try_net_setup()?.clone();
        let mut traffic = store.try_traffic_setup()?.clone();
        sobs.begin(&mut net);
        let hot0 = net.hot_counters();
        let faults0 = net.fault_counters();
        let trips0 = traffic.poisson_stats();
        let harvester = Harvester::new(self.cfg.harvest.clone());
        let mut streaming = self.cfg.streaming.map(|scfg| {
            StreamingPopularity::new(
                scfg,
                stage_seed(self.cfg.seed, SeedDomain::Sketch),
                wave_threads,
            )
        });
        let tracing = sobs.tracing;
        let mut tick_ops: Vec<OpSpan> = Vec::new();
        let drive = |net: &mut Network| {
            if tracing {
                let at = net.time().unix();
                let before = net.hot_counters();
                traffic.tick_hour(net);
                let work = net.hot_counters().since(before);
                tick_ops.push(OpSpan {
                    name: "traffic_tick",
                    start: at.saturating_sub(HOUR),
                    end: at,
                    args: vec![("fetches", work.fetches)],
                });
            } else {
                traffic.tick_hour(net);
            }
        };
        let harvest = match streaming.as_mut() {
            Some(agg) => {
                harvester.run_streamed(&mut net, drive, &mut |batches| agg.absorb(batches))
            }
            None => harvester.run(&mut net, drive),
        }
        .map_err(|e| e.to_string())?;
        sobs.ops = tick_ops;
        sobs.record_waves(traffic.take_wave_stats());
        if let Some(agg) = streaming.as_mut() {
            sobs.record_waves(agg.take_wave_stats());
        }
        record_poisson_trips(&mut sobs.reg, traffic.poisson_stats(), trips0);
        sobs.reg.inc("descriptors", harvest.onion_count() as u64);
        // On the streaming path the request vector is intentionally
        // empty; the absorbed total is the equivalent figure.
        let requests_logged = streaming
            .as_ref()
            .map_or(harvest.requests.len() as u64, |agg| {
                agg.summary().total_requests
            });
        sobs.reg.inc("requests_logged", requests_logged);
        sobs.reg.inc("waves", u64::from(harvest.waves));
        sobs.reg.inc("hours", harvest.hours);
        net.hot_counters().since(hot0).record_into(&mut sobs.reg);
        if self.faults_active() {
            net.fault_counters()
                .since(faults0)
                .record_into(&mut sobs.reg);
            sobs.reg.inc("fleet_restarts", harvest.fleet_restarts);
        }
        let publishing = store
            .try_world()?
            .services()
            .iter()
            .filter(|s| s.publishes_descriptors())
            .count();
        sobs.reg
            .gauge("harvest.coverage", harvest.coverage_of(publishing));
        sobs.reg.merge_hist(
            "harvest.descriptors_per_relay",
            &harvest.descriptors_per_relay,
        );
        // Sketch metrics exist only on the streaming path, so the
        // committed streaming-off baselines stay byte-stable.
        if let Some(agg) = &streaming {
            let s = agg.summary();
            sobs.reg.inc("sketch_batches", s.batches);
            sobs.reg.gauge("sketch.memory_bytes", s.memory_bytes as f64);
        }
        sobs.end(&mut net);
        Ok(StagePayload::Harvest(Arc::new(HarvestBundle {
            harvest,
            net,
            traffic,
            streaming,
        })))
    }

    /// The dedicated Sec. VI deanonymisation window: 48 h of signature
    /// logging against the Goldnet front end, branched off the
    /// post-harvest network so the Sec. V popularity logs stay
    /// unbiased and the port scan is unaffected.
    fn sim_deanon_window(
        &self,
        store: &ArtifactStore,
        sobs: &mut StageObs,
    ) -> Result<StagePayload, String> {
        let cfg = &self.cfg;
        let mut net = store.try_net_harvest()?.clone();
        let mut traffic = store.try_traffic_harvest()?.clone();
        sobs.begin(&mut net);
        let hot0 = net.hot_counters();
        let faults0 = net.fault_counters();
        let trips0 = traffic.poisson_stats();
        // The paper attacked one of the Goldnet front ends; ask the
        // generated world which service that is instead of hard-coding
        // an address.
        let target: OnionAddress = store
            .try_world()?
            .primary_goldnet_frontend()
            .ok_or_else(|| "world generated no Goldnet front end to attack".to_owned())?
            .onion;
        let mut attack = DeanonAttack::deploy_with_guards(
            &mut net,
            target,
            &cfg.deanon,
            store.try_attacker_guards()?.clone(),
        );
        for _ in 0..cfg.deanon_hours {
            attack.reposition(&mut net);
            net.advance_hours(1);
            if sobs.tracing {
                let at = net.time().unix();
                let before = net.hot_counters();
                traffic.tick_hour(&mut net);
                let work = net.hot_counters().since(before);
                sobs.ops.push(OpSpan {
                    name: "traffic_tick",
                    start: at.saturating_sub(HOUR),
                    end: at,
                    args: vec![("fetches", work.fetches)],
                });
            } else {
                traffic.tick_hour(&mut net);
            }
        }
        let observations = net.take_guard_observations();
        let expected_rate = attack.expected_catch_rate(&net);
        sobs.record_waves(traffic.take_wave_stats());
        record_poisson_trips(&mut sobs.reg, traffic.poisson_stats(), trips0);
        sobs.reg.inc("hours", cfg.deanon_hours);
        sobs.reg.inc("observations", observations.len() as u64);
        net.hot_counters().since(hot0).record_into(&mut sobs.reg);
        if self.faults_active() {
            net.fault_counters()
                .since(faults0)
                .record_into(&mut sobs.reg);
        }
        sobs.end(&mut net);
        Ok(StagePayload::DeanonWindow(Arc::new(DeanonWindowOut {
            target,
            observations,
            expected_rate,
        })))
    }

    /// The Sec. III multi-day port scan, branched off the post-harvest
    /// network.
    fn sim_port_scan(
        &self,
        store: &ArtifactStore,
        sobs: &mut StageObs,
        wave_threads: usize,
    ) -> Result<StagePayload, String> {
        let mut net = store.try_net_harvest()?.clone();
        sobs.begin(&mut net);
        let hot0 = net.hot_counters();
        let faults0 = net.fault_counters();
        let scanner = Scanner::new(ScanConfig {
            days: self.cfg.scan_days,
            seed: stage_seed(self.cfg.seed, SeedDomain::Scan),
            threads: wave_threads,
            ..ScanConfig::default()
        });
        let (scan, waves) =
            scanner.run_traced(&mut net, store.try_world()?, &store.try_harvest()?.onions);
        sobs.record_waves(waves);
        sobs.reg.inc("targets", scan.targets as u64);
        sobs.reg.inc("probes_scheduled", scan.probes_scheduled);
        sobs.reg.inc("open_ports", u64::from(scan.total_open()));
        net.hot_counters().since(hot0).record_into(&mut sobs.reg);
        if self.faults_active() {
            net.fault_counters()
                .since(faults0)
                .record_into(&mut sobs.reg);
            sobs.reg.inc("fetch_retries", scan.fetch_retries);
            sobs.reg.inc("fetch_recovered", scan.fetch_recovered);
            sobs.reg.inc("fetch_gave_ups", scan.fetch_gave_ups);
            sobs.reg.inc("fetch_gone", scan.fetch_gone);
            sobs.reg.inc("retry_backoff_secs", scan.retry_backoff_secs);
        }
        if scan.probes_scheduled > 0 {
            sobs.reg.gauge(
                "scan.coverage",
                scan.probes_concluded as f64 / scan.probes_scheduled as f64,
            );
        }
        sobs.reg
            .merge_hist("scan.fetch_attempts", &scan.fetch_attempts);
        sobs.reg
            .merge_hist("scan.retry_backoff", &scan.retry_backoff);
        if sobs.tracing {
            for day in &scan.days_trace {
                sobs.ops.push(OpSpan {
                    name: "scan_day",
                    start: day.day.unix(),
                    end: day.day.unix() + 24 * HOUR,
                    args: vec![
                        ("scheduled", day.scheduled),
                        ("concluded", day.concluded),
                        ("gave_ups", day.gave_ups),
                    ],
                });
            }
        }
        sobs.end(&mut net);
        Ok(StagePayload::PortScan(Arc::new(scan)))
    }
}

/// A controlled run's stage cache and its per-stage key chain.
type KeyedCache<'a> = (&'a dyn StageCache, [CacheKey; 9]);

/// Deposits a completed stage's payload into the store and, when the
/// run has a cache, under the stage's key: both hold the same payload.
fn deposit(payload: StagePayload, cache: Option<&KeyedCache>, store: &mut ArtifactStore) {
    store.install(&payload);
    if let Some((cache, keys)) = cache {
        cache.insert(keys[payload.stage() as usize], payload);
    }
}

/// Builds the trace lane for a completed stage: the stage span, one
/// span per attempt, per-round sim spans, client-op spans, shard spans,
/// and the typed instant events (retry per failed attempt, fault per
/// faulty round, one cache summary). Analysis stages drive no rounds
/// and no client ops, so their lanes hold the stage, attempt and shard
/// spans only.
#[allow(clippy::too_many_arguments)]
fn stage_recorder(
    stage: StageId,
    sim: (u64, u64),
    wall: (u64, u64),
    attempts: u32,
    backoffs: &[u64],
    timing: &StageTiming,
    sobs: &StageObs,
    epoch: Instant,
) -> SpanRecorder {
    let mut rec = SpanRecorder::new();
    rec.span(Span {
        name: format!("stage:{stage}"),
        cat: "stage",
        sim_start: sim.0,
        sim_end: sim.1,
        wall_us: Some(wall),
        args: timing.counters.clone(),
    });
    push_attempts(&mut rec, sim, wall, attempts, backoffs);
    for r in &sobs.rounds {
        rec.span(Span {
            name: "round".to_owned(),
            cat: "sim",
            sim_start: r.start.unix(),
            sim_end: r.end.unix(),
            wall_us: None,
            args: vec![
                ("sha1_digests", r.hot.sha1_digests),
                ("cache_hits", r.hot.desc_cache_hits),
                ("cache_misses", r.hot.desc_cache_misses),
                ("fetches", r.hot.fetches),
                ("publish_rows", r.hot.publish_rows),
                ("votes", r.hot.votes),
            ],
        });
        if r.faults.total() > 0 {
            rec.event(TraceEvent {
                kind: EventKind::Fault,
                sim_at: r.end.unix(),
                wall_us: None,
                args: vec![("faults", r.faults.total())],
            });
        }
    }
    for op in &sobs.ops {
        rec.span(Span {
            name: op.name.to_owned(),
            cat: "ops",
            sim_start: op.start,
            sim_end: op.end,
            wall_us: None,
            args: op.args.clone(),
        });
    }
    push_shard_spans(&mut rec, sim.1, &sobs.waves, epoch);
    // One cache summary per stage, from the historical counters.
    let hits = timing.counter("desc_cache_hits").unwrap_or(0);
    let misses = timing.counter("desc_cache_misses").unwrap_or(0);
    if hits + misses > 0 {
        rec.event(TraceEvent {
            kind: EventKind::Cache,
            sim_at: sim.1,
            wall_us: Some(wall.1),
            args: vec![("hits", hits), ("misses", misses)],
        });
    }
    rec
}

/// Appends one span per attempt plus a retry event per failed attempt
/// (carrying the sim-clock backoff that followed it). Failed attempts
/// render as zero-width spans at the stage's sim start (their work was
/// discarded); the final attempt spans the full stage.
fn push_attempts(
    rec: &mut SpanRecorder,
    sim: (u64, u64),
    wall: (u64, u64),
    attempts: u32,
    backoffs: &[u64],
) {
    for a in 1..attempts {
        rec.span(Span {
            name: format!("attempt {a}"),
            cat: "attempt",
            sim_start: sim.0,
            sim_end: sim.0,
            wall_us: None,
            args: Vec::new(),
        });
        let mut args = vec![("failed_attempt", u64::from(a))];
        if let Some(&wait) = backoffs.get(a as usize - 1) {
            args.push(("backoff_secs", wait));
        }
        rec.event(TraceEvent {
            kind: EventKind::Retry,
            sim_at: sim.0,
            wall_us: None,
            args,
        });
    }
    rec.span(Span {
        name: format!("attempt {attempts}"),
        cat: "attempt",
        sim_start: sim.0,
        sim_end: sim.1,
        wall_us: Some(wall),
        args: Vec::new(),
    });
}

/// Appends one wall-clock span per measurement-wave shard. Shard spans
/// are pinned at the stage's sim end with zero sim duration — the wave
/// is instantaneous on the sim clock — and the Sim-clock export drops
/// the `shard` category entirely, since shard count varies with the
/// thread budget while the deterministic view must not.
fn push_shard_spans(rec: &mut SpanRecorder, sim_end: u64, waves: &[WaveStats], epoch: Instant) {
    for w in waves {
        for s in &w.shards {
            let start_us = s.start.saturating_duration_since(epoch).as_micros() as u64;
            let end_us = s.end.saturating_duration_since(epoch).as_micros() as u64;
            rec.span(Span {
                name: format!("shard {}", s.shard),
                cat: "shard",
                sim_start: sim_end,
                sim_end,
                wall_us: Some((start_us, end_us)),
                args: vec![("items", s.items as u64), ("threads", w.threads as u64)],
            });
        }
    }
}

/// The trace lane for a stage served from the content-addressed cache:
/// a single cache event, since the stage body never ran.
fn cache_hit_recorder(sim_at: u64) -> SpanRecorder {
    let mut rec = SpanRecorder::new();
    rec.event(TraceEvent {
        kind: EventKind::Cache,
        sim_at,
        wall_us: None,
        args: vec![("stage_cache_hit", 1)],
    });
    rec
}

/// The trace lane for a stage that degraded (or never ran because a
/// dependency degraded, in which case `attempts` is zero).
fn degraded_recorder(sim_at: u64, attempts: u32) -> SpanRecorder {
    let mut rec = SpanRecorder::new();
    rec.event(TraceEvent {
        kind: EventKind::Degraded,
        sim_at,
        wall_us: None,
        args: vec![("attempts", u64::from(attempts))],
    });
    rec
}

/// Merges per-stage recorders into the final [`Trace`]: lane 0 is the
/// run itself, then one lane per stage in canonical [`StageId::ALL`]
/// order (tid = index + 1), which keeps the export deterministic no
/// matter how a forked level interleaved.
fn assemble_trace(
    mut recorders: Vec<(StageId, SpanRecorder)>,
    sim_lo: u64,
    sim_hi: u64,
    elapsed_us: u64,
    executed: u64,
    degraded: u64,
) -> Trace {
    let mut trace = Trace::new();
    let mut pipeline_rec = SpanRecorder::new();
    pipeline_rec.span(Span {
        name: "pipeline".to_owned(),
        cat: "pipeline",
        sim_start: sim_lo,
        sim_end: sim_hi.max(sim_lo),
        wall_us: Some((0, elapsed_us)),
        args: vec![("executed", executed), ("degraded", degraded)],
    });
    trace.push_lane(0, "pipeline", pipeline_rec);
    for (idx, &stage) in StageId::ALL.iter().enumerate() {
        if let Some(pos) = recorders.iter().position(|(s, _)| *s == stage) {
            let (_, rec) = recorders.remove(pos);
            trace.push_lane(idx as u32 + 1, &format!("stage {stage}"), rec);
        }
    }
    trace
}

/// Fig. 3: geographic mapping of the deanonymised clients.
fn analysis_geomap(store: &ArtifactStore, sobs: &mut StageObs) -> Result<StagePayload, String> {
    let window = store.try_deanon_window()?;
    let geomap = GeoMap::build(store.try_geo()?, &window.observations);
    let report = DeanonReport {
        target: window.target,
        unique_clients: geomap.total_clients(),
        expected_rate: window.expected_rate,
        geomap,
    };
    sobs.weight = window.observations.len() as u64;
    sobs.reg
        .inc("unique_clients", u64::from(report.unique_clients));
    sobs.reg
        .inc("countries", report.geomap.country_count() as u64);
    Ok(StagePayload::Geomap(Arc::new(report)))
}

/// Sec. III: the HTTPS certificate survey over everything the scan saw
/// answering on 443.
fn analysis_certs(store: &ArtifactStore, sobs: &mut StageObs) -> Result<StagePayload, String> {
    let https_onions: Vec<OnionAddress> = store
        .try_scan()?
        .open_by_onion
        .iter()
        .filter(|(_, ports)| ports.contains(&443))
        .map(|(&onion, _)| onion)
        .collect();
    let certs = CertSurvey::run(store.try_world()?, https_onions);
    sobs.reg.inc("https_destinations", certs.https_destinations);
    sobs.weight = certs.https_destinations;
    Ok(StagePayload::Certs(Arc::new(certs)))
}

/// Sec. IV: crawl funnel, Table I, languages, Fig. 2.
fn analysis_crawl(
    cfg: &StudyConfig,
    store: &ArtifactStore,
    sobs: &mut StageObs,
    wave_threads: usize,
) -> Result<StagePayload, String> {
    let destinations = store.try_scan()?.crawl_destinations();
    // A zero transient rate makes `with_config` the identity of
    // `Crawler::new()` (proved by test), so fault-free crawls are
    // untouched.
    let crawler = Crawler::with_config(CrawlConfig {
        transient_failure_rate: cfg.faults.crawl_transient_rate,
        seed: stage_seed(cfg.seed, SeedDomain::Faults),
        retry_attempts: 3,
        threads: wave_threads,
    });
    let (crawl, waves) = crawler.run_traced(store.try_world()?, &destinations);
    let reg = &mut sobs.reg;
    reg.inc("destinations", destinations.len() as u64);
    reg.inc("pages_classified", crawl.classified.len() as u64);
    if cfg.faults.crawl_transient_rate > 0.0 {
        reg.inc("transient_failures", crawl.transient_failures);
        reg.inc("connect_retries", crawl.retries);
        reg.inc("gave_ups", crawl.gave_ups);
    }
    reg.merge_hist("crawl.connect_attempts", &crawl.connect_attempts);
    reg.merge_hist("crawl.words_per_page", &crawl.words_per_page);
    sobs.record_waves(waves);
    sobs.weight = destinations.len() as u64;
    Ok(StagePayload::Crawl(Arc::new(crawl)))
}

/// Sec. V: descriptor-ID resolution, Table II ranking, Goldnet
/// forensics, request share. On the streaming path the resolution is
/// reconstituted from the harvest's sketch aggregator instead of the
/// materialized request log; the ranking code downstream is shared.
fn analysis_popularity(
    cfg: &StudyConfig,
    store: &ArtifactStore,
    sobs: &mut StageObs,
) -> Result<StagePayload, String> {
    let harvest = store.try_harvest()?;
    let world = store.try_world()?;
    let resolver = Resolver::build(
        &harvest.onions,
        SimTime::from_ymd(2013, 1, 28),
        SimTime::from_ymd(2013, 2, 8),
    );
    let (resolution, sketch) = match store.try_streaming()? {
        Some(agg) => (agg.finalize(&resolver), Some(agg.summary())),
        None => (resolver.resolve_log(&harvest.requests), None),
    };
    let ranking = Ranking::build_normalized(&resolution, world, &harvest.slot_hours);
    let top_onions: Vec<OnionAddress> = ranking.top(40).iter().map(|r| r.onion).collect();
    let forensics = BotnetForensics::probe(world, top_onions);
    let requested_published_share = requested_published_share(&resolution, world);
    let reg = &mut sobs.reg;
    reg.inc("requests_resolved", resolution.total_requests);
    reg.inc("ranked", ranking.rows().len() as u64);
    if !cfg.faults.is_inert() {
        reg.inc("unnormalized", ranking.unnormalized() as u64);
    }
    // Sketch metrics exist only on the streaming path so that the
    // committed exact-path baselines stay byte-stable.
    if let Some(s) = &sketch {
        reg.inc("sketch_topk_tracked", s.topk_tracked as u64);
        reg.inc("sketch_topk_churn", s.topk_churn);
        reg.gauge("sketch.cms_width", s.cms_width as f64);
        reg.gauge("sketch.cms_depth", s.cms_depth as f64);
        reg.gauge("sketch.topk_capacity", s.topk_capacity as f64);
        reg.gauge("sketch.memory_bytes", s.memory_bytes as f64);
        reg.gauge("sketch.hll_estimate", s.hll_estimate);
    }
    reg.gauge("popularity.phantom_share", resolution.phantom_share());
    reg.merge_hist(
        "popularity.requests_per_onion",
        &resolution.requests_histogram(),
    );
    sobs.weight = resolution.total_requests;
    Ok(StagePayload::Popularity(Arc::new(PopularityOut {
        resolution,
        ranking,
        forensics,
        requested_published_share,
        sketch,
    })))
}

/// Sec. VII: consensus-archive tracking detection. Independent of the
/// simulated 2013 network — it generates its own 3-year archive. The
/// three yearly windows run as one wave.
fn analysis_tracking(
    cfg: &StudyConfig,
    sobs: &mut StageObs,
    wave_threads: usize,
) -> Result<StagePayload, String> {
    let mut archive = ConsensusArchive::generate(&HistoryConfig {
        seed: stage_seed(cfg.seed, SeedDomain::Tracking),
        ..HistoryConfig::default()
    });
    scenario::inject_all(&mut archive, scenario::silkroad());
    let detector = TrackingDetector::new(DetectorConfig::default());
    let windows = [
        ("year 1 (Feb–Dec 2011)", (2011, 2, 1), (2011, 12, 31)),
        ("year 2 (2012)", (2012, 1, 1), (2012, 12, 31)),
        ("year 3 (Jan–Oct 2013)", (2013, 1, 1), (2013, 10, 31)),
    ];
    let (years, wave) = WavePool::new(wave_threads).map(&windows, |_, &(label, s, e)| {
        (
            label.to_owned(),
            detector.analyse(
                &archive,
                scenario::silkroad(),
                SimTime::from_ymd(s.0, s.1, s.2),
                SimTime::from_ymd(e.0, e.1, e.2),
            ),
        )
    });
    sobs.record_waves(vec![wave]);
    sobs.weight = archive.len() as u64;
    sobs.reg.inc("consensuses", archive.len() as u64);
    sobs.reg.inc("windows", 3);
    Ok(StagePayload::Tracking(Arc::new(TrackingReport { years })))
}
