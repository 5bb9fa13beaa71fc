//! `landscape` — command-line front end for the study pipeline.
//!
//! Figure-specific commands run only the dependency closure of the
//! stages they need (e.g. `fig1` never pays for the deanonymisation
//! window, the crawl, or tracking). Every invocation writes the
//! per-stage wall-clock timings — executed *and* skipped stages — to
//! `results/bench_stages.json`.
//!
//! ```text
//! landscape study   [--scale S] [--seed N]   run the full pipeline, print all artifacts
//! landscape fig1    [--scale S] [--seed N]   open-ports distribution (Fig. 1)
//! landscape table1  [--scale S] [--seed N]   HTTP/HTTPS access (Table I)
//! landscape fig2    [--scale S] [--seed N]   funnel, languages, topics (Fig. 2)
//! landscape table2  [--scale S] [--seed N]   popularity ranking (Table II), Goldnet forensics
//! landscape fig3    [--scale S] [--seed N]   client geo map (Fig. 3)
//! landscape certs   [--scale S] [--seed N]   certificate survey (Sec. III)
//! landscape sec5    [--scale S] [--seed N]   popularity statistics (Sec. V)
//! landscape tracking [--seed N]              Silk Road tracking detection (Sec. VII)
//! landscape stages  [--scale S] [--seed N]   print the stage plan and timings only
//! ```
//!
//! Observability flags (any command):
//!
//! ```text
//! --threads N     measurement-wave worker threads (default: available
//!                 parallelism). Output is byte-identical at any N.
//! --streaming     aggregate the Sec. V request stream into bounded-
//!                 memory sketches (count-min + top-k + HLL) instead of
//!                 materializing the per-request event vector
//! --trace FILE    write a deterministic sim-clock Chrome trace_event
//!                 JSON (open in chrome://tracing or ui.perfetto.dev)
//! --log LEVEL     stderr event stream: off (default), progress, debug
//! --quiet         alias for --log off
//! --metrics-format FORMAT
//!                 json (default): results/bench_stages.json only;
//!                 prom: additionally render the run's stage metrics as
//!                 Prometheus text exposition to
//!                 results/stage_metrics.prom
//! ```

use std::path::Path;
use std::process::ExitCode;

use hs_landscape::obs;
use hs_landscape::pipeline::{ExecMode, PipelineTimings, StageId};
use hs_landscape::{check_scale, report, RunOptions, Study, StudyConfig};

struct Args {
    command: String,
    scale: f64,
    seed: u64,
    faults: String,
    threads: usize,
    streaming: bool,
    trace: Option<String>,
    log: obs::LogLevel,
    prom_metrics: bool,
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut scale = 0.1f64;
    let mut seed = 0x2013_0204u64;
    let mut faults = "none".to_owned();
    let mut threads = default_threads();
    let mut streaming = false;
    let mut trace = None;
    let mut log = obs::LogLevel::Off;
    let mut prom_metrics = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value".to_owned())?;
                scale = check_scale(v.parse().map_err(|_| format!("bad scale {v:?}"))?)?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value".to_owned())?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--faults" => {
                faults = args.next().ok_or("--faults needs a profile".to_owned())?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value".to_owned())?;
                threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
            }
            "--streaming" => streaming = true,
            "--trace" => {
                trace = Some(args.next().ok_or("--trace needs a file path".to_owned())?);
            }
            "--log" => {
                let v = args.next().ok_or("--log needs a level".to_owned())?;
                log = obs::LogLevel::parse(&v)
                    .ok_or_else(|| format!("bad log level {v:?} (off|progress|debug)"))?;
            }
            "--quiet" => log = obs::LogLevel::Off,
            "--metrics-format" => {
                let v = args
                    .next()
                    .ok_or("--metrics-format needs a value".to_owned())?;
                prom_metrics = match v.as_str() {
                    "json" => false,
                    "prom" => true,
                    other => return Err(format!("bad metrics format {other:?} (json|prom)")),
                };
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        scale,
        seed,
        faults,
        threads,
        streaming,
        trace,
        log,
        prom_metrics,
    })
}

fn usage() -> String {
    "usage: landscape <study|fig1|table1|fig2|table2|fig3|certs|sec5|tracking|stages> \
     [--scale S] [--seed N] [--faults none|adversarial] [--threads N] [--streaming] \
     [--trace FILE] [--log off|progress|debug] [--quiet] [--metrics-format json|prom]"
        .to_owned()
}

fn study_config(args: &Args) -> Result<StudyConfig, String> {
    let mut cfg = StudyConfig {
        seed: args.seed,
        streaming: args
            .streaming
            .then(hs_landscape::hs_popularity::SketchConfig::default),
        ..StudyConfig::at_scale(args.scale)
    };
    cfg.apply_fault_profile(&args.faults)?;
    Ok(cfg)
}

/// The stages each command needs; `None` means the full study.
fn command_stages(command: &str) -> Option<Vec<StageId>> {
    match command {
        "study" => None,
        "fig1" => Some(vec![StageId::PortScan]),
        "table1" | "fig2" => Some(vec![StageId::Crawl]),
        "table2" | "sec5" => Some(vec![StageId::Popularity]),
        "fig3" => Some(vec![StageId::Geomap]),
        "certs" => Some(vec![StageId::Certs]),
        "tracking" => Some(vec![StageId::Tracking]),
        "stages" => Some(vec![
            StageId::Geomap,
            StageId::Certs,
            StageId::Crawl,
            StageId::Popularity,
        ]),
        _ => unreachable!("command validated in main"),
    }
}

/// Writes the machine-readable per-stage record alongside the run's
/// parameters.
fn write_stage_json(args: &Args, timings: &PipelineTimings) {
    let path = Path::new("results").join("bench_stages.json");
    let body = format!(
        "{{\n\"command\": \"{}\", \"scale\": {}, \"seed\": {}, \"faults\": \"{}\",\n\"timings\": {}}}\n",
        args.command,
        args.scale,
        args.seed,
        args.faults,
        timings.to_json().trim_end()
    );
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, body))
        .is_ok();
    if written {
        eprintln!("[landscape] stage timings written to {}", path.display());
    } else {
        eprintln!("[landscape] warning: could not write {}", path.display());
    }
}

/// Renders the run's stage metrics as Prometheus text exposition
/// (`--metrics-format prom`). Wall-clock durations make this file
/// run-dependent, so it is never diffed against a committed baseline —
/// use `results/bench_stages.json` for the byte-stable record.
fn write_prom_metrics(timings: &PipelineTimings) {
    let path = Path::new("results").join("stage_metrics.prom");
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, timings.to_prom()))
        .is_ok();
    if written {
        eprintln!(
            "[landscape] prometheus metrics written to {}",
            path.display()
        );
    } else {
        eprintln!("[landscape] warning: could not write {}", path.display());
    }
}

/// Exports the run's trace as deterministic sim-clock Chrome
/// `trace_event` JSON, validating the emitted bytes first.
fn write_trace(path: &str, trace: &obs::Trace) -> Result<(), String> {
    let json = trace.to_chrome_json(obs::TraceClock::Sim);
    obs::trace::validate_json(&json).map_err(|e| format!("internal: trace JSON invalid: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
    eprintln!(
        "[landscape] sim-clock trace written to {path} \
         (open in chrome://tracing or https://ui.perfetto.dev)"
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = RunOptions {
        trace: args.trace.is_some(),
        log: obs::Logger::new(args.log),
    };
    const COMMANDS: &[&str] = &[
        "study", "fig1", "table1", "fig2", "table2", "fig3", "certs", "sec5", "tracking", "stages",
    ];
    if !COMMANDS.contains(&args.command.as_str()) {
        eprintln!("unknown command {:?}\n{}", args.command, usage());
        return ExitCode::FAILURE;
    }

    let study = match study_config(&args) {
        Ok(cfg) => Study::new(cfg),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(targets) = command_stages(&args.command) else {
        // The full study: every stage, parallel analyses. A degraded
        // stage leaves its sections out of the report; the run itself
        // still succeeds with whatever completed.
        let mode = ExecMode::parallel().with_wave_threads(args.threads);
        let results = study.run_mode(mode, opts);
        if let Some(scan) = &results.scan {
            println!("{}", report::render_fig1(scan));
        }
        if let Some(certs) = &results.certs {
            println!("{}", report::render_certs(certs));
        }
        if let Some(crawl) = &results.crawl {
            println!("{}", report::render_table1(crawl));
            println!("{}", report::render_funnel_and_languages(crawl));
            println!("{}", report::render_fig2(crawl));
        }
        if let Some(ranking) = &results.ranking {
            println!("{}", report::render_table2(ranking, 30));
        }
        if let (Some(resolution), Some(share)) =
            (&results.resolution, results.requested_published_share)
        {
            println!("{}", report::render_sec5(resolution, share));
        }
        if let Some(sketch) = &results.sketch {
            println!("{}", report::render_sketch(sketch));
        }
        if let Some(deanon) = &results.deanon {
            println!("{}", report::render_fig3(deanon));
        }
        if !results.is_complete() {
            println!("{}", report::render_degraded(&results.stages));
        }
        eprintln!("{}", report::render_stage_timings(&results.stages));
        write_stage_json(&args, &results.stages);
        if args.prom_metrics {
            write_prom_metrics(&results.stages);
        }
        if let (Some(path), Some(trace)) = (&args.trace, &results.trace) {
            if let Err(e) = write_trace(path, trace) {
                eprintln!("[landscape] {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    };

    let mode = ExecMode::parallel().with_wave_threads(args.threads);
    let run = study.run_stages_mode(&targets, mode, opts);
    let artifacts = &run.artifacts;
    match args.command.as_str() {
        "fig1" => println!("{}", report::render_fig1(artifacts.scan())),
        "table1" => println!("{}", report::render_table1(artifacts.crawl())),
        "fig2" => {
            let crawl = artifacts.crawl();
            println!("{}", report::render_funnel_and_languages(crawl));
            println!("{}", report::render_fig2(crawl));
            let (lang_acc, topic_acc) = hs_landscape::hs_content::Crawler::new()
                .evaluate_against_truth(artifacts.world(), crawl);
            println!(
                "classifier accuracy vs ground truth: language {:.1}%, topic {:.1}%",
                lang_acc * 100.0,
                topic_acc * 100.0
            );
        }
        "table2" => {
            let pop = artifacts.popularity();
            println!("{}", report::render_table2(&pop.ranking, 30));
            println!(
                "Goldnet forensics: {} front ends → {} physical servers",
                pop.forensics.frontends(),
                pop.forensics.physical_servers()
            );
        }
        "fig3" => println!("{}", report::render_fig3(artifacts.deanon())),
        "certs" => println!("{}", report::render_certs(artifacts.certs())),
        "sec5" => {
            let pop = artifacts.popularity();
            println!(
                "{}",
                report::render_sec5(&pop.resolution, pop.requested_published_share)
            );
            if let Some(sketch) = &pop.sketch {
                println!("{}", report::render_sketch(sketch));
            }
        }
        "tracking" => println!("{}", report::render_tracking(artifacts.tracking())),
        "stages" => {}
        other => unreachable!("command {other:?} validated above"),
    }
    eprintln!("{}", report::render_stage_timings(&run.timings));
    write_stage_json(&args, &run.timings);
    if args.prom_metrics {
        write_prom_metrics(&run.timings);
    }
    if let (Some(path), Some(trace)) = (&args.trace, &run.trace) {
        if let Err(e) = write_trace(path, trace) {
            eprintln!("[landscape] {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
