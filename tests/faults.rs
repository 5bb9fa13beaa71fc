//! Robustness contracts of the fault-injection layer and the degrading
//! pipeline:
//!
//! * a **zero-rate fault plan is the identity** — every artifact is
//!   byte-identical to a run without any fault plumbing configured;
//! * an **adversarial run is deterministic** — same seed, same faults,
//!   same partial report, in both execution modes;
//! * **failed stages degrade instead of aborting** — the run completes
//!   with the failed stage (and its dependents) recorded and their
//!   report sections `None`, everything else intact.

use std::collections::HashMap;
use std::fmt::Debug;

use hs_landscape::obs::TraceClock;
use hs_landscape::pipeline::{ExecMode, Pipeline, RunOptions, StageId};
use hs_landscape::tor_sim::FaultPlan;
use hs_landscape::{Study, StudyConfig, StudyReport};

fn config() -> StudyConfig {
    StudyConfig::test_scale()
}

fn adversarial_config() -> StudyConfig {
    let mut cfg = config();
    cfg.apply_fault_profile("adversarial")
        .expect("adversarial is a known profile");
    cfg
}

/// Canonical (key-sorted) rendering of a hash map.
fn sorted_map<K: Ord + Debug, V: Debug>(map: &HashMap<K, V>) -> String {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    format!("{entries:?}")
}

/// Order-stable fingerprint of a complete run (panics on a degraded
/// one — zero-rate runs must not degrade).
fn complete_fingerprint(r: &StudyReport) -> String {
    assert!(r.is_complete(), "degraded: {:?}", r.degraded_stages());
    let harvest = r.harvest.as_ref().unwrap();
    let resolution = r.resolution.as_ref().unwrap();
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}",
        harvest.onions,
        harvest.requests,
        harvest.slot_hours,
        r.scan,
        r.certs,
        r.crawl,
        sorted_map(&resolution.requests_per_onion),
        sorted_map(&r.forensics.as_ref().unwrap().groups),
        r.ranking,
        r.requested_published_share,
        r.deanon,
        r.tracking,
    )
}

/// Order-stable fingerprint of a possibly-degraded run: every section
/// that exists, plus the degraded record and the fault/retry counters.
fn partial_fingerprint(r: &StudyReport) -> String {
    let degraded: Vec<String> = r
        .degraded_stages()
        .iter()
        .map(|d| format!("{}:{}:{}", d.stage, d.attempts, d.error))
        .collect();
    let counters: Vec<String> = [
        "relay_crashes",
        "relay_restarts",
        "fetch_drops",
        "overload_drops",
        "publish_drops",
        "service_flaps",
        "fleet_restarts",
        "fetch_retries",
        "fetch_gave_ups",
        "transient_failures",
        "gave_ups",
        "unnormalized",
        "retries",
    ]
    .iter()
    .map(|n| format!("{n}={}", r.stages.counter_total(n)))
    .collect();
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.harvest
            .as_ref()
            .map(|h| { format!("{:?}|{:?}|{:?}", h.onions, h.requests, h.slot_hours) }),
        r.scan,
        r.certs,
        r.crawl,
        r.ranking,
        r.deanon,
        r.tracking,
        degraded,
        counters,
    )
}

#[test]
fn zero_rate_fault_plan_is_byte_identical() {
    // An inert plan with a different (ignored) seed and explicit
    // plumbing must reproduce the default run exactly.
    let baseline = Study::new(config()).run();
    let mut cfg = config();
    cfg.faults = FaultPlan {
        seed: 0xdead_beef,
        ..FaultPlan::none()
    };
    let plumbed = Study::new(cfg).run();
    assert_eq!(
        complete_fingerprint(&baseline),
        complete_fingerprint(&plumbed)
    );
    // And the counter layout is unchanged: no fault counters appear.
    for t in &plumbed.stages.executed {
        assert!(
            t.counter("relay_crashes").is_none(),
            "{}: fault counters must not appear on inert runs",
            t.stage
        );
    }
}

#[test]
fn adversarial_run_is_deterministic_and_degrades_gracefully() {
    let a = Study::new(adversarial_config()).run();
    let b = Study::new(adversarial_config()).run();
    assert_eq!(partial_fingerprint(&a), partial_fingerprint(&b));

    // The injected permanent certs failure degraded exactly that
    // stage; the analysis retry budget (2 attempts) was spent.
    assert!(!a.is_complete());
    let degraded: Vec<StageId> = a.degraded_stages().iter().map(|d| d.stage).collect();
    assert_eq!(degraded, vec![StageId::Certs]);
    assert_eq!(a.stages.degraded(StageId::Certs).unwrap().attempts, 2);
    assert!(a.certs.is_none(), "degraded section must be None");

    // The flaky geomap stage recovered on its second attempt.
    let geomap = a.stages.stage(StageId::Geomap).expect("geomap ran");
    assert_eq!(geomap.counter("retries"), Some(1));
    assert!(a.deanon.is_some(), "recovered section must be present");

    // Everything else survived: a partial report, not an abort.
    assert!(a.harvest.is_some() && a.scan.is_some() && a.crawl.is_some());
    assert!(a.ranking.is_some() && a.resolution.is_some());

    // Protocol faults actually fired and were counted.
    assert!(
        a.stages.counter_total("fetch_drops") > 0,
        "hsdir drops must occur under the adversarial plan"
    );
    assert!(
        a.stages.counter_total("relay_crashes") > 0,
        "relay crashes must occur under the adversarial plan"
    );
}

#[test]
fn adversarial_parallel_equals_sequential() {
    // The ExecMode regression: a failing stage inside the parallel
    // analysis wave must produce the same degraded record (order,
    // attempts, error) as the sequential reference.
    let par = Study::new(adversarial_config()).run();
    let seq = Study::new(adversarial_config()).run_sequential();
    assert_eq!(partial_fingerprint(&par), partial_fingerprint(&seq));
}

#[test]
fn failed_sim_stage_cascades_to_dependents() {
    let mut cfg = config();
    cfg.fail_stages = vec![StageId::Harvest];
    let run = Pipeline::new(cfg).run(&[StageId::Certs], ExecMode::parallel());
    let degraded: Vec<(StageId, u32)> = run
        .timings
        .degraded
        .iter()
        .map(|d| (d.stage, d.attempts))
        .collect();
    // Harvest failed its single attempt; the dependents never ran.
    assert_eq!(
        degraded,
        vec![
            (StageId::Harvest, 1),
            (StageId::PortScan, 0),
            (StageId::Certs, 0)
        ]
    );
    for d in &run.timings.degraded[1..] {
        assert!(
            d.error.contains("dependency"),
            "{}: expected a dependency degradation, got {:?}",
            d.stage,
            d.error
        );
    }
    // Setup still completed and its artifacts are readable.
    assert!(run.artifacts.try_world().is_ok());
    assert!(run.artifacts.try_harvest().is_err());
}

#[test]
fn failed_analysis_stage_exhausts_retry_budget() {
    let mut cfg = config();
    cfg.fail_stages = vec![StageId::Popularity];
    let report = Study::new(cfg).run();
    assert!(!report.is_complete());
    let d = report
        .stages
        .degraded(StageId::Popularity)
        .expect("popularity degraded");
    assert_eq!(d.attempts, 2, "analysis retry budget is two attempts");
    assert!(report.resolution.is_none() && report.ranking.is_none());
    assert!(report.forensics.is_none());
    assert!(report.requested_published_share.is_none());
    // Siblings are untouched.
    assert!(report.certs.is_some() && report.crawl.is_some());
    assert!(report.deanon.is_some());
}

#[test]
fn flaky_stage_is_absorbed_by_retry() {
    let mut cfg = config();
    cfg.flaky_stages = vec![StageId::Tracking, StageId::Popularity];
    let run = Pipeline::new(cfg).run(
        &[StageId::Tracking, StageId::Popularity],
        ExecMode::parallel(),
    );
    assert!(
        run.timings.degraded.is_empty(),
        "retries must absorb flaky stages"
    );
    for stage in [StageId::Tracking, StageId::Popularity] {
        let t = run.timings.stage(stage).expect("stage ran");
        assert_eq!(t.counter("retries"), Some(1), "{stage} retried once");
    }
    assert!(run.artifacts.try_tracking().is_ok());
    assert!(run.artifacts.try_popularity().is_ok());
}

#[test]
fn flaky_sim_stage_degrades_after_one_attempt() {
    // Sim stages share the analysis stages' attempt loop but get a
    // budget of one: a rerun would fail identically, so even a
    // transient fault degrades them, with no retry and no backoff.
    let mut cfg = config();
    cfg.flaky_stages = vec![StageId::Harvest];
    for mode in [ExecMode::parallel(), ExecMode::sequential()] {
        let run = Pipeline::new(cfg.clone()).run_with(
            &StageId::ALL,
            mode,
            RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        );
        let degraded: Vec<(StageId, u32)> = run
            .timings
            .degraded
            .iter()
            .map(|d| (d.stage, d.attempts))
            .collect();
        assert_eq!(
            degraded,
            vec![
                (StageId::Harvest, 1),
                (StageId::DeanonWindow, 0),
                (StageId::PortScan, 0),
                (StageId::Geomap, 0),
                (StageId::Certs, 0),
                (StageId::Crawl, 0),
                (StageId::Popularity, 0),
            ],
            "{mode:?}"
        );
        assert!(
            run.timings.degraded[0].error.contains("transient"),
            "{:?}",
            run.timings.degraded[0].error
        );
        let executed: Vec<StageId> = run.timings.executed.iter().map(|t| t.stage).collect();
        assert_eq!(
            executed,
            vec![StageId::Setup, StageId::Tracking],
            "{mode:?}"
        );
        for t in &run.timings.executed {
            assert_eq!(t.counter("retries"), None, "{mode:?} {}", t.stage);
            assert_eq!(
                t.counter("stage_backoff_secs"),
                None,
                "{mode:?} {}",
                t.stage
            );
        }
        let trace = run
            .trace
            .expect("traced run")
            .to_chrome_json(TraceClock::Sim);
        assert!(!trace.contains("backoff_secs"), "{mode:?}: {trace}");
        assert!(!trace.contains("failed_attempt"), "{mode:?}: {trace}");
    }
}

#[test]
fn degraded_json_round_trips_through_stage_output() {
    let mut cfg = config();
    cfg.fail_stages = vec![StageId::Certs];
    let report = Study::new(cfg).run();
    let json = report.stages.to_json();
    assert!(json.contains("\"degraded\": ["), "{json}");
    assert!(
        json.contains("{\"stage\": \"certs\", \"attempts\": 2"),
        "{json}"
    );
    // Fault-free runs keep the historical layout.
    let clean = Study::new(config()).run();
    assert!(!clean.stages.to_json().contains("degraded"));
}
