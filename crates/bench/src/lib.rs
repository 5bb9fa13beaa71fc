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
use hs_landscape::{check_scale, report, Study, StudyConfig};

/// The scale used by the experiment binaries. Override with the
/// `HS_SCALE` environment variable (e.g. `HS_SCALE=1.0` for the full
/// paper-scale run; default 0.25 finishes in tens of seconds). A value
/// that is not a scale in (0, 1] ends the process with exit code 1 and
/// the CLI's one-line message.
pub fn bench_scale() -> f64 {
    let raw = std::env::var("HS_SCALE").ok();
    parse_scale(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

/// Parses an `HS_SCALE` value: 0.25 when unset, otherwise a number
/// that [`check_scale`] accepts.
///
/// # Errors
///
/// Returns "scale must be in (0, 1]", naming the value, for anything
/// else.
fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(0.25);
    };
    raw.trim()
        .parse()
        .ok()
        .and_then(|scale| check_scale(scale).ok())
        .ok_or_else(|| format!("HS_SCALE={raw:?}: scale must be in (0, 1]"))
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

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn hs_scale_defaults_and_accepts_the_cli_range() {
        assert_eq!(parse_scale(None), Ok(0.25));
        assert_eq!(parse_scale(Some("1.0")), Ok(1.0));
        assert_eq!(parse_scale(Some(" 0.03 ")), Ok(0.03));
        assert_eq!(parse_scale(Some("1e-3")), Ok(0.001));
    }

    #[test]
    fn hs_scale_rejects_what_the_cli_rejects() {
        for raw in ["0", "-0.5", "1.5", "abc", "", "NaN", "inf", "0.25x"] {
            let err = parse_scale(Some(raw)).unwrap_err();
            assert!(err.ends_with("scale must be in (0, 1]"), "{raw:?}: {err}");
            assert!(err.contains(&format!("{raw:?}")), "{err}");
        }
    }
}
