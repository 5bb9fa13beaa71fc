//! Pipeline-engine contracts: determinism, selective-run equivalence,
//! and parallel/sequential equality.
//!
//! Artifacts are compared through their `Debug` rendering — every
//! artifact type derives `Debug` over plain data, so equal renderings
//! mean equal values field for field. The few `HashMap`-valued fields
//! are rendered through [`sorted_map`] first, because identical maps
//! print in different iteration orders.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;
use std::sync::Arc;

use hs_landscape::hs_harvest::HarvestOutcome;
use hs_landscape::hs_popularity::ResolutionReport;
use hs_landscape::obs::{self, TraceClock};
use hs_landscape::pipeline::{
    ArtifactStore, ExecMode, Pipeline, RunOptions, StageId, StageKind, TrackingReport,
};
use hs_landscape::tor_sim::clock::HOUR;
use hs_landscape::{
    MemoryCache, PipelineRun, RunControl, StageCache, Study, StudyConfig, StudyReport,
};

fn config() -> StudyConfig {
    StudyConfig::test_scale()
}

/// Canonical (key-sorted) rendering of a hash map.
fn sorted_map<K: Ord + Debug, V: Debug>(map: &HashMap<K, V>) -> String {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    format!("{entries:?}")
}

fn harvest_fingerprint(h: &HarvestOutcome) -> String {
    // `slot_hours` is already a deterministic sorted view — no
    // canonicalisation needed.
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}",
        h.onions, h.requests, h.slot_hours, h.fleet_relays, h.waves, h.hours
    )
}

fn resolution_fingerprint(r: &ResolutionReport) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}",
        r.total_requests,
        r.unique_desc_ids,
        r.resolved_desc_ids,
        r.resolved_onions,
        sorted_map(&r.requests_per_onion),
        r.unresolved_requests
    )
}

/// Everything measured, minus the wall-clock timings (which are never
/// equal across runs). Report sections are `Option`s (a degraded
/// stage leaves its section `None`); fingerprinting a complete run
/// unwraps them, so an unexpected degradation fails the test loudly.
fn fingerprint(r: &StudyReport) -> String {
    assert!(r.is_complete(), "degraded: {:?}", r.degraded_stages());
    format!(
        "{}|{:?}|{:?}|{:?}|{}|{:?}|{}|{:?}|{:?}|{:?}",
        harvest_fingerprint(r.harvest.as_ref().unwrap()),
        r.scan,
        r.certs,
        r.crawl,
        resolution_fingerprint(r.resolution.as_ref().unwrap()),
        r.ranking,
        sorted_map(&r.forensics.as_ref().unwrap().groups),
        r.requested_published_share,
        r.deanon,
        r.tracking,
    )
}

/// Like [`fingerprint`] but tolerant of degraded stages: sections a
/// faulted run left out render as `None` instead of panicking, so an
/// adversarial run can still be compared value for value.
fn fingerprint_partial(r: &StudyReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.harvest.as_ref().map(harvest_fingerprint),
        r.scan,
        r.certs,
        r.crawl,
        r.resolution.as_ref().map(resolution_fingerprint),
        r.ranking,
        r.forensics.as_ref().map(|f| sorted_map(&f.groups)),
        r.requested_published_share,
        r.deanon,
        r.tracking,
    )
}

/// Runs the full study at one measurement-wave thread count, returning
/// the artifact fingerprint and the deterministic sim-clock trace.
fn run_at_threads(cfg: &StudyConfig, threads: usize) -> (String, String) {
    let opts = RunOptions {
        trace: true,
        log: obs::Logger::off(),
    };
    let mode = ExecMode::parallel().with_wave_threads(threads);
    let report = Study::new(cfg.clone()).run_mode(mode, opts);
    let trace = report
        .trace
        .as_ref()
        .expect("traced run returns a trace")
        .to_chrome_json(TraceClock::Sim);
    (fingerprint_partial(&report), trace)
}

#[test]
fn wave_threads_change_no_artifact_byte() {
    let cfg = config();
    let (fp1, trace1) = run_at_threads(&cfg, 1);
    for threads in [2, 8] {
        let (fp, trace) = run_at_threads(&cfg, threads);
        assert_eq!(fp1, fp, "artifacts diverged at {threads} threads");
        assert_eq!(trace1, trace, "sim trace diverged at {threads} threads");
    }
    // Fault-free runs complete, so the strict fingerprint applies too.
    let report = Study::new(cfg).run_mode(
        ExecMode::parallel().with_wave_threads(8),
        RunOptions::default(),
    );
    assert_eq!(
        fingerprint_partial(&report),
        fp1,
        "untraced run diverged from traced run"
    );
    fingerprint(&report);
}

#[test]
fn wave_threads_change_no_artifact_byte_under_faults() {
    let mut cfg = config();
    cfg.apply_fault_profile("adversarial").unwrap();
    let (fp1, trace1) = run_at_threads(&cfg, 1);
    for threads in [2, 8] {
        let (fp, trace) = run_at_threads(&cfg, threads);
        assert_eq!(
            fp1, fp,
            "adversarial artifacts diverged at {threads} threads"
        );
        assert_eq!(
            trace1, trace,
            "adversarial trace diverged at {threads} threads"
        );
    }
}

#[test]
fn same_seed_same_artifacts() {
    let a = Study::new(config()).run();
    let b = Study::new(config()).run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn parallel_equals_sequential() {
    let par = Study::new(config()).run();
    let seq = Study::new(config()).run_sequential();
    assert_eq!(fingerprint(&par), fingerprint(&seq));
    // Both executed the same stages.
    let ran = |r: &StudyReport| -> Vec<StageId> {
        let mut s: Vec<StageId> = r.stages.executed.iter().map(|t| t.stage).collect();
        s.sort();
        s
    };
    assert_eq!(ran(&par), ran(&seq));
}

#[test]
fn run_until_matches_full_run() {
    let study = Study::new(config());
    let full = study.run();
    // PortScan closure: setup → harvest → port_scan, nothing else.
    let scan_only = study.run_until(StageId::PortScan);
    assert_eq!(
        format!("{:?}", Some(scan_only.artifacts.scan())),
        format!("{:?}", full.scan.as_ref()),
        "selective scan differs from full-run scan"
    );
    assert_eq!(
        harvest_fingerprint(scan_only.artifacts.harvest()),
        harvest_fingerprint(full.harvest.as_ref().unwrap()),
        "selective harvest differs from full-run harvest"
    );
    // Geomap closure takes the deanon-window branch instead.
    let geomap_only = study.run_until(StageId::Geomap);
    assert_eq!(
        format!("{:?}", Some(geomap_only.artifacts.deanon())),
        format!("{:?}", full.deanon.as_ref()),
        "selective deanon report differs from full-run report"
    );
}

#[test]
fn selective_run_skips_unneeded_stages() {
    let run = Study::new(config()).run_until(StageId::PortScan);
    let executed: Vec<StageId> = run.timings.executed.iter().map(|t| t.stage).collect();
    assert_eq!(
        executed,
        vec![StageId::Setup, StageId::Harvest, StageId::PortScan]
    );
    for skipped in [
        StageId::DeanonWindow,
        StageId::Geomap,
        StageId::Certs,
        StageId::Crawl,
        StageId::Popularity,
        StageId::Tracking,
    ] {
        assert!(run.timings.skipped(skipped), "{skipped} should be skipped");
    }
}

#[test]
fn stage_counters_reflect_artifacts() {
    let run = Study::new(config()).run_until(StageId::PortScan);
    let harvest = run.timings.stage(StageId::Harvest).unwrap();
    assert_eq!(
        harvest.counter("descriptors"),
        Some(run.artifacts.harvest().onion_count() as u64)
    );
    let scan = run.timings.stage(StageId::PortScan).unwrap();
    assert_eq!(
        scan.counter("open_ports"),
        Some(u64::from(run.artifacts.scan().total_open()))
    );
}

#[test]
fn hot_path_counters_consistent() {
    let a = Study::new(config()).run();
    // Every sim stage reports the hot-path quartet.
    for stage in [
        StageId::Setup,
        StageId::Harvest,
        StageId::DeanonWindow,
        StageId::PortScan,
    ] {
        let t = a.stages.stage(stage).unwrap();
        for name in [
            "sha1_digests",
            "desc_cache_hits",
            "desc_cache_misses",
            "fetches",
        ] {
            assert!(t.counter(name).is_some(), "{stage} missing {name}");
        }
    }
    // The cache earns its keep on the long stages: descriptor IDs only
    // rotate daily, so hits dominate misses during the harvest.
    let harvest = a.stages.stage(StageId::Harvest).unwrap();
    assert!(
        harvest.counter("desc_cache_hits") > harvest.counter("desc_cache_misses"),
        "harvest counters: {:?}",
        harvest.counters
    );
    assert!(a.stages.counter_total("fetches") > 0);
    // SHA-1 work is two digests per derived pair (one per replica, on
    // the day's shared secret-ID parts) plus four per day whose parts
    // a stage computes: the build's day in setup, and at most one per
    // simulated day a stage covers.
    for t in &a.stages.executed {
        if let (Some(sha1), Some(misses)) =
            (t.counter("sha1_digests"), t.counter("desc_cache_misses"))
        {
            let parts = sha1
                .checked_sub(2 * misses)
                .unwrap_or_else(|| panic!("{}: {:?}", t.stage, t.counters));
            assert_eq!(parts % 4, 0, "{}: {:?}", t.stage, t.counters);
            if let Some(hours) = t.counter("hours") {
                assert!(parts / 4 <= hours / 24 + 1, "{}: {:?}", t.stage, t.counters);
            }
        }
    }
    let setup = a.stages.stage(StageId::Setup).unwrap();
    assert_eq!(
        setup.counter("sha1_digests"),
        setup.counter("desc_cache_misses").map(|m| 2 * m + 4),
        "setup derives its pairs from the start day's parts"
    );
    // And the whole quartet is deterministic across same-seed runs.
    let b = Study::new(config()).run();
    let hot = |r: &StudyReport| -> Vec<u64> {
        [
            "sha1_digests",
            "desc_cache_hits",
            "desc_cache_misses",
            "fetches",
        ]
        .iter()
        .map(|n| r.stages.counter_total(n))
        .collect()
    };
    assert_eq!(hot(&a), hot(&b));
}

#[test]
fn deanon_target_is_looked_up_from_world() {
    // The hard-coded Goldnet label is gone: the engine asks the world
    // for its top front end, which at any seed is a planted Goldnet
    // C&C service.
    let run = Pipeline::new(config()).run(&[StageId::DeanonWindow], ExecMode::parallel());
    let target = run.artifacts.deanon_window().target;
    let service = run
        .artifacts
        .world()
        .services()
        .iter()
        .find(|s| s.onion == target)
        .expect("target exists in world");
    assert!(
        matches!(service.role, hs_landscape::hs_world::Role::GoldnetCc { .. }),
        "target {target} is not a Goldnet front end: {:?}",
        service.role
    );
}

// Forked levels. `Study::run()` and most tests above run at one wave
// thread, which forks nothing; these run levels side by side (two or
// more threads) against the sequential order.

/// The analysis targets of a full study (tracking is off at test
/// scale): its plan has all four sim stages and four analyses.
const STUDY_TARGETS: [StageId; 4] = [
    StageId::Geomap,
    StageId::Certs,
    StageId::Crawl,
    StageId::Popularity,
];

/// Every artifact slot of a run, through renderings that are equal
/// exactly when the artifacts are (network snapshots by state hash).
fn store_fingerprint(a: &ArtifactStore) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        a.try_net_setup().map(|n| n.state_hash()).ok(),
        a.try_harvest().ok().map(harvest_fingerprint),
        a.try_net_harvest().map(|n| n.state_hash()).ok(),
        a.try_deanon_window().ok(),
        a.try_scan().ok(),
        a.try_deanon().ok(),
        a.try_certs().ok(),
        a.try_crawl().ok(),
        a.try_popularity().ok().map(|p| format!(
            "{}|{:?}|{}|{}",
            resolution_fingerprint(&p.resolution),
            p.ranking,
            sorted_map(&p.forensics.groups),
            p.requested_published_share
        )),
        a.try_tracking().ok(),
    )
}

/// Asserts that `got` returned everything `expected` did, except
/// wall time: executed stages in order with their counters, the
/// degraded and halted lists, the halt reason, the artifacts, and the
/// sim-clock trace export when traced. The outcome summary is compared
/// first, so a failure prints it rather than megabytes of artifacts.
fn assert_same_run(expected: &PipelineRun, got: &PipelineRun, case: &str) {
    let summary = |run: &PipelineRun| {
        let executed: Vec<String> = run
            .timings
            .executed
            .iter()
            .map(|t| format!("{}:{:?}", t.stage, t.counters))
            .collect();
        let degraded: Vec<String> = run
            .timings
            .degraded
            .iter()
            .map(|d| format!("{}:{}:{}", d.stage, d.attempts, d.error))
            .collect();
        format!(
            "executed {executed:?}\ndegraded {degraded:?}\nhalted {:?}\nhalt {:?}",
            run.timings.halted, run.halt
        )
    };
    assert_eq!(summary(expected), summary(got), "{case}");
    assert!(
        store_fingerprint(&expected.artifacts) == store_fingerprint(&got.artifacts),
        "{case}: artifacts diverged"
    );
    let trace = |run: &PipelineRun| {
        run.trace
            .as_ref()
            .map(|t| t.to_chrome_json(TraceClock::Sim))
    };
    assert!(
        trace(expected) == trace(got),
        "{case}: sim-clock trace diverged"
    );
}

fn run_study(cfg: &StudyConfig, mode: ExecMode, trace: bool, ctl: &RunControl) -> PipelineRun {
    let opts = RunOptions {
        trace,
        log: obs::Logger::off(),
    };
    Pipeline::new(cfg.clone()).run_controlled(&STUDY_TARGETS, mode, opts, ctl)
}

fn executed(run: &PipelineRun) -> Vec<StageId> {
    run.timings.executed.iter().map(|t| t.stage).collect()
}

/// Sequential, then forked at 2 and 8 threads, each traced under its
/// own control from `ctl`; every forked run must equal the sequential
/// one. Returns the sequential run.
fn assert_forked_equals_sequential(
    cfg: &StudyConfig,
    ctl: impl Fn() -> RunControl,
    case: &str,
) -> PipelineRun {
    let reference = run_study(cfg, ExecMode::sequential(), true, &ctl());
    for threads in [2, 8] {
        let mode = ExecMode::parallel().with_wave_threads(threads);
        let forked = run_study(cfg, mode, true, &ctl());
        assert_same_run(&reference, &forked, &format!("{case}, {threads} threads"));
    }
    reference
}

#[test]
fn forked_levels_halt_where_the_sequential_order_halts() {
    let cfg = config();
    // Sim-hour stage boundaries, from the stage spans of an unbounded
    // traced run: 0, then the running total after each sim stage.
    let full = run_study(&cfg, ExecMode::sequential(), true, &RunControl::default());
    let trace = full.trace.as_ref().expect("traced run returns a trace");
    let mut boundaries = vec![0u64];
    for stage in StageId::closure(&STUDY_TARGETS) {
        if stage.kind() == StageKind::Sim {
            let lane = trace
                .lanes
                .iter()
                .find(|l| l.name == format!("stage {stage}"))
                .expect("every sim stage has a lane");
            let hours = (lane.spans[0].sim_end - lane.spans[0].sim_start) / HOUR;
            boundaries.push(boundaries[boundaries.len() - 1] + hours);
        }
    }
    let budgets: BTreeSet<u64> = boundaries
        .iter()
        .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
        .collect();
    let mut sibling_refused = false;
    for budget in budgets {
        let ctl = RunControl {
            sim_budget_hours: Some(budget),
            ..RunControl::default()
        };
        let seq = run_study(&cfg, ExecMode::sequential(), false, &ctl);
        let forked = run_study(&cfg, ExecMode::parallel().with_wave_threads(2), false, &ctl);
        let case = format!("sim budget {budget} h, stage boundaries {boundaries:?}");
        assert_same_run(&seq, &forked, &case);
        sibling_refused |= executed(&seq).contains(&StageId::DeanonWindow)
            && seq.timings.halted.contains(&StageId::PortScan);
    }
    // The budget at the end of the deanonymisation window admits it
    // and refuses its sibling, the case a forked level must undo.
    assert!(
        sibling_refused,
        "no budget split the [deanon_window, port_scan] level"
    );
}

#[test]
fn forked_level_equals_sequential_when_port_scan_fails() {
    let mut cfg = config();
    cfg.fail_stages = vec![StageId::PortScan];
    let run = assert_forked_equals_sequential(&cfg, RunControl::default, "port_scan fails");
    assert!(run.timings.degraded(StageId::PortScan).is_some());
    assert!(executed(&run).contains(&StageId::DeanonWindow));
}

#[test]
fn forked_level_equals_sequential_when_deanon_window_fails() {
    let mut cfg = config();
    cfg.fail_stages = vec![StageId::DeanonWindow];
    let run = assert_forked_equals_sequential(&cfg, RunControl::default, "deanon_window fails");
    assert!(run.timings.degraded(StageId::DeanonWindow).is_some());
    assert!(executed(&run).contains(&StageId::PortScan));
}

#[test]
fn forked_level_equals_sequential_with_port_scan_cached() {
    let cfg = config();
    // A fresh cache per run, warmed by a port-scan query: it holds
    // setup, harvest and port_scan, but not deanon_window.
    let warm = || {
        let ctl = RunControl {
            cache: Some(Arc::new(MemoryCache::new(32)) as Arc<dyn StageCache>),
            ..RunControl::default()
        };
        Pipeline::new(cfg.clone()).run_controlled(
            &[StageId::PortScan],
            ExecMode::sequential(),
            RunOptions::default(),
            &ctl,
        );
        ctl
    };
    let run = assert_forked_equals_sequential(&cfg, warm, "port_scan cached");
    let hit = |stage: StageId| {
        run.timings
            .stage(stage)
            .and_then(|t| t.counter("stage_cache_hit"))
    };
    assert_eq!(hit(StageId::PortScan), Some(1));
    assert_eq!(hit(StageId::DeanonWindow), None);
}

#[test]
fn tracking_report_is_identical_at_1_and_4_threads() {
    // Servers render in a canonical order: the detector ranks them by
    // ratio only, so exact ties keep hash-map order.
    let render = |report: &TrackingReport| -> Vec<String> {
        report
            .years
            .iter()
            .map(|(label, a)| {
                let mut servers: Vec<String> = a.servers.iter().map(|s| format!("{s:?}")).collect();
                servers.sort();
                format!(
                    "{label}|{:?}|{:?}|{}|{servers:?}",
                    a.start, a.end, a.mean_hsdirs
                )
            })
            .collect()
    };
    let at = |threads: usize| {
        let mode = ExecMode::parallel().with_wave_threads(threads);
        let run = Pipeline::new(config()).run(&[StageId::Tracking], mode);
        render(run.artifacts.tracking())
    };
    let one = at(1);
    assert_eq!(one.len(), 3);
    assert_eq!(one, at(4));
}
