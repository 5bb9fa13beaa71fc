//! The scale-1.0 benchmark gate: runs the sim prefix (setup + harvest)
//! of the paper-scale study twice — once at 1 measurement-wave
//! thread, once at the machine's worker budget — and writes
//! `results/bench_scale1.json`.
//!
//! Two properties are checked here and diffed against the committed
//! `results/bench_scale1_baseline.json` by
//! `scripts_run_experiments.sh scale1`:
//!
//! * **determinism** — every counter (descriptors harvested, requests
//!   logged, hot-path and round-work counters) is byte-identical
//!   across thread counts and across machines; any drift is a
//!   regression;
//! * **budget** — the threaded wall-clock must stay under the
//!   baseline's committed `budget_ms` (generous, so only a real
//!   performance regression trips it).

use std::time::Instant;

use hs_landscape::pipeline::{ExecMode, Pipeline, PipelineRun, StageId};
use hs_landscape::StudyConfig;

/// Every deterministic observable the gate pins, as stable JSON lines.
fn counters(run: &PipelineRun) -> Vec<(&'static str, u64)> {
    let harvest = run.artifacts.harvest();
    vec![
        ("onions", harvest.onion_count() as u64),
        ("requests", harvest.requests.len() as u64),
        ("slot_hour_rows", harvest.slot_hours.len() as u64),
        ("waves", u64::from(harvest.waves)),
        ("hours", harvest.hours),
        ("sha1_digests", run.timings.counter_total("sha1_digests")),
        (
            "desc_cache_hits",
            run.timings.counter_total("desc_cache_hits"),
        ),
        (
            "desc_cache_misses",
            run.timings.counter_total("desc_cache_misses"),
        ),
        ("fetches", run.timings.counter_total("fetches")),
        ("publish_rows", run.timings.counter_total("publish_rows")),
        ("votes", run.timings.counter_total("votes")),
    ]
}

fn run_at(threads: usize) -> (PipelineRun, f64) {
    eprintln!("[bench_scale1] setup+harvest at scale 1.0, {threads} thread(s)…");
    let started = Instant::now();
    let run = Pipeline::new(StudyConfig::at_scale(1.0)).run(
        &[StageId::Harvest],
        ExecMode::parallel().with_wave_threads(threads),
    );
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        run.timings.degraded.is_empty(),
        "scale-1.0 run degraded: {:?}",
        run.timings.degraded
    );
    (run, wall_ms)
}

fn main() {
    let threads_n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let (r1, wall_t1) = run_at(1);
    let (rn, wall_tn) = run_at(threads_n);

    let c1 = counters(&r1);
    let cn = counters(&rn);
    if c1 != cn {
        eprintln!("[bench_scale1] FAIL: counters diverged across thread counts");
        eprintln!("  1 thread:  {c1:?}");
        eprintln!("  {threads_n} threads: {cn:?}");
        std::process::exit(2);
    }

    let mut json = String::from("{\n  \"scale\": 1.0,\n  \"relays\": 1400,\n");
    json.push_str("  \"stages\": \"setup+harvest\",\n");
    for (name, value) in &c1 {
        json.push_str(&format!("  \"{name}\": {value},\n"));
    }
    json.push_str(&format!("  \"wall_ms_t1\": {wall_t1:.1},\n"));
    json.push_str(&format!("  \"wall_ms_tn\": {wall_tn:.1},\n"));
    json.push_str(&format!("  \"threads_n\": {threads_n},\n"));
    json.push_str(&format!("  \"speedup\": {:.2}\n}}\n", wall_t1 / wall_tn));
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/bench_scale1.json", &json).expect("write results/bench_scale1.json");

    println!(
        "scale-1.0 setup+harvest: {} onions, {} requests; {:.0}ms @1 thread, \
         {:.0}ms @{} threads ({:.2}x); counters identical across thread counts",
        c1[0].1,
        c1[1].1,
        wall_t1,
        wall_tn,
        threads_n,
        wall_t1 / wall_tn
    );
}
