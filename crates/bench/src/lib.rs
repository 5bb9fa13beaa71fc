//! Shared scaffolding for the benchmark harness binaries of Biryukov
//! et al. (ICDCS 2014).
//!
//! The paper's tables and figures come from the `landscape` CLI
//! (`landscape fig1|table1|fig2|table2|fig3|certs|sec5`). The binaries
//! under `src/bin/` cover the rest: the Sec. II harvest cost, the
//! Sec. VI catch-rate sweep, the Sec. VII tracking findings, two
//! ablations and the scale-1.0 and sketch gates; see `EXPERIMENTS.md`
//! at the repository root for the paper-vs-measured record. The
//! Criterion benches under `benches/` cover the hot paths (SHA-1,
//! descriptor derivation, ring lookup, classifiers, consensus voting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hs_landscape::pipeline::{PipelineRun, StageId};
use hs_landscape::{report, Study, StudyConfig};

/// The scale used by the experiment binaries. Override with the
/// `HS_SCALE` environment variable (e.g. `HS_SCALE=1.0` for the full
/// paper-scale run; default 0.25 finishes in tens of seconds).
pub fn bench_scale() -> f64 {
    std::env::var("HS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

/// Runs only the dependency closure of `targets` on
/// [`StudyConfig::at_scale`] at [`bench_scale`], printing the
/// per-stage timing table (skipped stages included) to stderr.
pub fn run_bench_stages(targets: &[StageId]) -> PipelineRun {
    let config = StudyConfig::at_scale(bench_scale());
    let names: Vec<&str> = targets.iter().map(|s| s.name()).collect();
    eprintln!(
        "[hs-bench] running stages [{}] at scale {} ({} relays)…",
        names.join(", "),
        config.scale,
        config.relays
    );
    let run = Study::new(config).run_stages(targets);
    eprintln!("{}", report::render_stage_timings(&run.timings));
    run
}
