//! Controlled-run contracts: cooperative cancellation, wall-clock and
//! sim-hour budgets, the content-addressed recompute cache, and the
//! deterministic retry backoff schedule.
//!
//! These are the engine-level halves of the guarantees the resident
//! `landscaped` daemon builds on: a halted run is a well-formed
//! partial result, and a cache-served rerun is byte-identical to the
//! run that populated the cache.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hs_landscape::obs::{self, TraceClock};
use hs_landscape::pipeline::{derive_keys, ExecMode, Pipeline, RunOptions, StageId};
use hs_landscape::{
    CancelToken, Halt, MemoryCache, RunControl, StageCache, StagePayload, StudyConfig,
};

fn config() -> StudyConfig {
    StudyConfig::test_scale()
}

fn run_with_ctl(
    cfg: &StudyConfig,
    targets: &[StageId],
    ctl: &RunControl,
) -> hs_landscape::PipelineRun {
    Pipeline::new(cfg.clone()).run_controlled(
        targets,
        ExecMode::sequential(),
        RunOptions::default(),
        ctl,
    )
}

#[test]
fn pre_cancelled_token_halts_every_stage() {
    let token = CancelToken::new();
    token.cancel();
    let ctl = RunControl {
        cancel: token,
        ..RunControl::default()
    };
    let run = run_with_ctl(&config(), &StageId::ALL, &ctl);
    assert_eq!(run.halt, Some(Halt::Cancelled));
    assert!(run.timings.executed.is_empty(), "no stage may start");
    assert_eq!(run.timings.halted, StageId::closure(&StageId::ALL));
    for stage in StageId::ALL {
        assert!(
            run.artifacts.extract(stage).is_none(),
            "{stage} deposited an artifact into a cancelled run"
        );
    }
}

#[test]
fn expired_wall_deadline_halts_every_stage() {
    let ctl = RunControl {
        wall_deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..RunControl::default()
    };
    let run = run_with_ctl(&config(), &[StageId::PortScan], &ctl);
    assert_eq!(run.halt, Some(Halt::WallDeadline));
    assert!(run.timings.executed.is_empty());
    assert_eq!(
        run.timings.halted,
        vec![StageId::Setup, StageId::Harvest, StageId::PortScan]
    );
}

#[test]
fn sim_budget_halts_at_the_next_stage_boundary() {
    // Setup bootstraps the consensus by advancing simulated time, so
    // a one-hour budget is already spent at the first stage boundary:
    // setup *finishes* (budgets are checked at boundaries, never
    // mid-stage) and everything downstream is abandoned.
    let ctl = RunControl {
        sim_budget_hours: Some(1),
        ..RunControl::default()
    };
    let run = run_with_ctl(&config(), &[StageId::PortScan], &ctl);
    assert_eq!(run.halt, Some(Halt::SimBudget));
    let executed: Vec<StageId> = run.timings.executed.iter().map(|t| t.stage).collect();
    assert_eq!(executed, vec![StageId::Setup]);
    assert_eq!(
        run.timings.halted,
        vec![StageId::Harvest, StageId::PortScan]
    );
    // The finished prefix keeps its artifacts.
    assert!(run.artifacts.extract(StageId::Setup).is_some());
    assert!(run.artifacts.extract(StageId::Harvest).is_none());
}

#[test]
fn cancellation_wins_over_deadlines_in_the_halt_reason() {
    let token = CancelToken::new();
    token.cancel();
    let ctl = RunControl {
        cancel: token,
        wall_deadline: Some(Instant::now() - Duration::from_secs(1)),
        sim_budget_hours: Some(0),
        ..RunControl::default()
    };
    let run = run_with_ctl(&config(), &[StageId::Setup], &ctl);
    assert_eq!(run.halt, Some(Halt::Cancelled));
}

/// The tentpole byte-identity claim: a rerun served entirely from the
/// cache produces artifacts whose rendering is identical to the run
/// that populated it, and the halted/degraded sections stay empty.
#[test]
fn cache_served_rerun_is_byte_identical() {
    let cfg = config();
    let cache = Arc::new(MemoryCache::new(32));
    let ctl = RunControl {
        cache: Some(cache.clone() as Arc<dyn StageCache>),
        ..RunControl::default()
    };
    let first = run_with_ctl(&cfg, &[StageId::PortScan], &ctl);
    assert!(first.halt.is_none());
    let after_first = cache.counters();
    assert_eq!(after_first.hits, 0);
    assert_eq!(
        after_first.misses, 3,
        "setup, harvest, port_scan probe and miss"
    );
    assert_eq!(after_first.insertions, 3);

    let second = run_with_ctl(&cfg, &[StageId::PortScan], &ctl);
    assert!(second.halt.is_none());
    let after_second = cache.counters();
    assert_eq!(
        after_second.hits, 3,
        "every stage must be served from cache"
    );
    assert_eq!(after_second.misses, 3, "no new misses on the rerun");

    // Every executed stage in the rerun is flagged as a cache hit…
    for timing in &second.timings.executed {
        assert!(
            timing
                .counters
                .iter()
                .any(|&(k, v)| k == "stage_cache_hit" && v == 1),
            "{} re-ran instead of hitting the cache",
            timing.stage
        );
    }
    // …and the artifacts are the same bytes. (`ScanReport` and
    // `HarvestOutcome` render through ordered containers only.)
    let scan = |run: &hs_landscape::PipelineRun| format!("{:?}", run.artifacts.scan());
    let harvest = |run: &hs_landscape::PipelineRun| format!("{:?}", run.artifacts.harvest());
    assert_eq!(scan(&first), scan(&second));
    assert_eq!(harvest(&first), harvest(&second));
}

/// The payload's address and its reference count, whatever its stage.
fn arc_of(payload: &StagePayload) -> (*const (), usize) {
    fn raw<T>(arc: &Arc<T>) -> (*const (), usize) {
        (Arc::as_ptr(arc).cast(), Arc::strong_count(arc))
    }
    match payload {
        StagePayload::Setup(a) => raw(a),
        StagePayload::Harvest(a) => raw(a),
        StagePayload::DeanonWindow(a) => raw(a),
        StagePayload::PortScan(a) => raw(a),
        StagePayload::Geomap(a) => raw(a),
        StagePayload::Certs(a) => raw(a),
        StagePayload::Crawl(a) => raw(a),
        StagePayload::Popularity(a) => raw(a),
        StagePayload::Tracking(a) => raw(a),
    }
}

/// Zero copy: a cached run's store holds the very payloads the cache
/// holds, for stages served from the cache and for stages it just
/// inserted, and dropping the run releases every reference it took.
#[test]
fn cached_run_shares_payloads_with_the_cache() {
    let cfg = config();
    let cache = Arc::new(MemoryCache::new(32));
    let ctl = RunControl {
        cache: Some(cache.clone() as Arc<dyn StageCache>),
        ..RunControl::default()
    };
    let keys = derive_keys(cfg.seed, cfg.fingerprint(), ctl.epoch_salt);
    // References to a resident payload besides the probe's own.
    let owners = |stage: StageId| {
        let probe = cache.fetch_uncounted(keys[stage as usize]);
        probe.map(|p| arc_of(&p).1 - 1)
    };
    // The first query inserts setup, harvest and port_scan; the second
    // is served those three and inserts crawl.
    for targets in [[StageId::PortScan], [StageId::Crawl]] {
        let plan = StageId::closure(&targets);
        let before: Vec<Option<usize>> = plan.iter().map(|&s| owners(s)).collect();
        let run = run_with_ctl(&cfg, &targets, &ctl);
        assert!(run.halt.is_none() && run.timings.degraded.is_empty());
        for &stage in &plan {
            let held = run.artifacts.extract(stage).expect("planned stage ran");
            let cached = cache
                .fetch_uncounted(keys[stage as usize])
                .expect("planned stage cached");
            assert_eq!(
                arc_of(&held).0,
                arc_of(&cached).0,
                "{stage}: the run holds a copy, not the cached payload"
            );
        }
        drop(run);
        for (&stage, before) in plan.iter().zip(before) {
            assert_eq!(
                owners(stage),
                Some(before.unwrap_or(1)),
                "{stage}: the dropped run still holds a reference"
            );
        }
    }
    let c = cache.counters();
    assert_eq!((c.hits, c.insertions), (3, 4));
}

#[test]
fn epoch_salt_isolates_cache_entries() {
    let cfg = config();
    let cache = Arc::new(MemoryCache::new(32));
    let at_salt = |salt: u64| RunControl {
        cache: Some(cache.clone() as Arc<dyn StageCache>),
        epoch_salt: salt,
        ..RunControl::default()
    };
    run_with_ctl(&cfg, &[StageId::Setup], &at_salt(1));
    assert_eq!(cache.counters().hits, 0);
    // A different epoch cannot see the first epoch's world…
    run_with_ctl(&cfg, &[StageId::Setup], &at_salt(2));
    assert_eq!(cache.counters().hits, 0);
    assert_eq!(cache.counters().misses, 2);
    // …while the first epoch's key still serves it.
    run_with_ctl(&cfg, &[StageId::Setup], &at_salt(1));
    assert_eq!(cache.counters().hits, 1);
}

#[test]
fn flaky_retry_records_a_deterministic_backoff_schedule() {
    let mut cfg = config();
    cfg.flaky_stages = vec![StageId::Geomap];
    let opts = RunOptions {
        trace: true,
        log: obs::Logger::off(),
    };
    let run_once = || {
        let run = Pipeline::new(cfg.clone()).run_controlled(
            &[StageId::Geomap],
            ExecMode::sequential(),
            opts,
            &RunControl::default(),
        );
        let geomap = run
            .timings
            .executed
            .iter()
            .find(|t| t.stage == StageId::Geomap)
            .expect("geomap ran")
            .clone();
        let trace = run
            .trace
            .as_ref()
            .expect("traced run")
            .to_chrome_json(TraceClock::Sim);
        (geomap, trace)
    };
    let (timing_a, trace_a) = run_once();
    let (timing_b, trace_b) = run_once();

    // The flaky first attempt failed, so the recovery attempt carries
    // the sim-clock backoff both in the stage counters…
    let backoff = |t: &hs_landscape::StageTiming| {
        t.counters
            .iter()
            .find(|&&(k, _)| k == "stage_backoff_secs")
            .map(|&(_, v)| v)
    };
    let wait = backoff(&timing_a).expect("retried stage records its backoff");
    assert!(wait > 0, "backoff must be a positive sim-clock wait");
    assert_eq!(
        backoff(&timing_b),
        Some(wait),
        "backoff is seed-deterministic"
    );

    // …and in the span trace's retry event.
    assert!(
        trace_a.contains("backoff_secs"),
        "trace lost the per-attempt backoff annotation"
    );
    assert_eq!(
        trace_a, trace_b,
        "retry schedule must be wall-clock independent"
    );
}
