//! The streaming-sketch benchmark gate: the exact-vs-sketch
//! differential on the test preset at scale 0.03
//! (`StudyConfig::test_scale()` with `scale: 0.03`, not the world
//! `landscape --scale 0.03` builds) plus a synthetic ingest throughput
//! measurement, written to `results/bench_sketch.json`.
//!
//! Three properties are checked here and diffed against the committed
//! `results/bench_sketch_baseline.json` by
//! `scripts_run_experiments.sh sketch`:
//!
//! * **rank identity** — the streaming popularity path must reproduce
//!   the exact path's Table II top-20 (rank, onion, requests) at scale
//!   0.03, where the distinct requested IDs fit the top-k capacity;
//! * **error bounds** — the HyperLogLog distinct-ID estimate stays
//!   inside the 5 % envelope and the count-min sketch never
//!   underestimates a synthetic ground-truth stream;
//! * **budget** — synthetic sketch ingest must sustain the baseline's
//!   committed `min_events_per_sec` (generous, so only a real
//!   throughput regression trips it).

use std::collections::HashMap;
use std::time::Instant;

use hs_landscape::hs_popularity::{RankedService, SketchConfig};
use hs_landscape::pipeline::{ExecMode, Pipeline, StageId};
use hs_landscape::StudyConfig;
use sketch::{mix2, CountMinSketch, HyperLogLog, SpaceSaving};

const SYNTH_EVENTS: u64 = 500_000;
const SYNTH_KEYS: u64 = 10_000;

fn study(streaming: bool) -> StudyConfig {
    StudyConfig {
        seed: 7,
        scale: 0.03,
        streaming: streaming.then(SketchConfig::default),
        ..StudyConfig::test_scale()
    }
}

fn top20(streaming: bool) -> (Vec<RankedService>, usize, Option<(u64, f64)>) {
    let run = Pipeline::new(study(streaming)).run(
        &[StageId::Popularity],
        ExecMode::parallel().with_wave_threads(2),
    );
    assert!(
        run.timings.degraded.is_empty(),
        "popularity run degraded: {:?}",
        run.timings.degraded
    );
    let pop = run.artifacts.popularity();
    let churn_and_hll = pop.sketch.as_ref().map(|s| (s.topk_churn, s.hll_estimate));
    (
        pop.ranking.top(20).to_vec(),
        pop.resolution.unique_desc_ids,
        churn_and_hll,
    )
}

/// Synthetic skewed stream: ~`SYNTH_EVENTS` events over `SYNTH_KEYS`
/// keys (rank r gets weight 1/(r+1)), fed through all three sketches.
/// Returns (events, events/sec, cms overestimate-only held).
fn synthetic_ingest() -> (u64, f64, bool) {
    let cfg = SketchConfig::default();
    let mut cms = CountMinSketch::new(cfg.cms_width, cfg.cms_depth, 7);
    let mut topk: SpaceSaving<u64> = SpaceSaving::new(cfg.topk_capacity);
    let mut hll = HyperLogLog::new(cfg.hll_precision, 7);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    // Deterministic key schedule: two draws, keep the smaller rank —
    // a cheap heavy-tail without floating-point zipf sampling.
    let mut keys = Vec::with_capacity(SYNTH_EVENTS as usize);
    for i in 0..SYNTH_EVENTS {
        let a = mix2(7, i) % SYNTH_KEYS;
        let b = mix2(11, i) % SYNTH_KEYS;
        keys.push(mix2(13, a.min(b)));
    }
    let started = Instant::now();
    for &key in &keys {
        cms.add(key, 1);
        topk.offer(key, 1);
        hll.insert(key);
    }
    let secs = started.elapsed().as_secs_f64();
    for &key in &keys {
        *truth.entry(key).or_insert(0) += 1;
    }
    let overestimate_ok = truth.iter().all(|(&k, &n)| cms.estimate(k) >= n);
    (
        SYNTH_EVENTS,
        SYNTH_EVENTS as f64 / secs.max(1e-9),
        overestimate_ok,
    )
}

fn main() {
    eprintln!("[bench_sketch] exact popularity run at scale 0.03…");
    let (exact, exact_unique, none) = top20(false);
    assert!(none.is_none(), "exact run grew a sketch");
    eprintln!("[bench_sketch] streaming popularity run at scale 0.03…");
    let (streamed, hll_unique, sketch) = top20(true);
    let (churn, hll_estimate) = sketch.expect("streaming run reports sketch state");

    let rank_match = exact.len() == streamed.len()
        && exact
            .iter()
            .zip(&streamed)
            .all(|(a, b)| a.rank == b.rank && a.onion == b.onion && a.requests == b.requests);
    if !rank_match {
        eprintln!("[bench_sketch] FAIL: streaming top-20 diverged from the exact ranking");
        eprintln!("  exact:     {exact:?}");
        eprintln!("  streaming: {streamed:?}");
        std::process::exit(2);
    }
    let hll_error_pct = 100.0 * (hll_estimate - exact_unique as f64).abs() / exact_unique as f64;

    let (events, events_per_sec, overestimate_ok) = synthetic_ingest();

    let mut json = String::from("{\n  \"scale\": 0.03,\n  \"seed\": 7,\n");
    json.push_str(&format!(
        "  \"top20_rank_match\": {},\n",
        u8::from(rank_match)
    ));
    json.push_str(&format!("  \"top20_rows\": {},\n", exact.len()));
    json.push_str(&format!("  \"topk_churn\": {churn},\n"));
    json.push_str(&format!("  \"unique_ids_exact\": {exact_unique},\n"));
    json.push_str(&format!("  \"unique_ids_hll\": {hll_unique},\n"));
    json.push_str(&format!("  \"hll_error_pct\": {hll_error_pct:.3},\n"));
    json.push_str(&format!(
        "  \"cms_overestimate_ok\": {},\n",
        u8::from(overestimate_ok)
    ));
    json.push_str(&format!("  \"synth_events\": {events},\n"));
    json.push_str(&format!("  \"events_per_sec\": {events_per_sec:.0}\n}}\n"));
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/bench_sketch.json", &json).expect("write results/bench_sketch.json");

    println!(
        "sketch differential: top-20 ranks identical ({} rows, {churn} evictions); \
         hll {hll_unique} vs exact {exact_unique} ids ({hll_error_pct:.2}% err); \
         cms overestimate-only {}; synthetic ingest {:.2}M events/s",
        exact.len(),
        if overestimate_ok { "held" } else { "VIOLATED" },
        events_per_sec / 1e6
    );
}
