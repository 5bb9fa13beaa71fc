//! `perfbench` — the repository's layered benchmark.
//!
//! ```text
//! perfbench --workload study|serve_hot|serve_tick --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds `landscaped` and this binary from source first. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. See `perfbench/NOTES.md`.

mod host;
mod json;
mod probes;
mod run;
mod serve;
mod stats;
mod study;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::RunResult;
use run::{Args, Env, Outcome};

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number from 1 to 600")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The daemon binary next to this one: both are built into the same
/// target directory.
fn daemon_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let bin = me.with_file_name("landscaped");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not found; run perfbench/run.sh", bin.display()))
    }
}

/// FNV-1a over the bytes of the benchmark and daemon binaries: runs
/// with equal fingerprints ran the same code.
fn code_fingerprint(env: &Env) -> Result<u64, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in [me.as_path(), env.daemon_bin.as_path()] {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(h)
}

/// Compares this run's exact counters with the first run of the same
/// code, workload, seed, length and mode in this checkout.
fn check_ledger(args: &Args, env: &Env, counts: &[(String, u64)]) -> Result<(), String> {
    if counts.is_empty() {
        return Ok(());
    }
    let text: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let path = env.out.join(format!(
        "counts-{:016x}-{}-seed{}-s{}-t{}.txt",
        code_fingerprint(env)?,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&path) {
        Ok(first) if first == text => Ok(()),
        Ok(first) => Err(format!(
            "work counters differ from the first run with this seed ({}):\n{first}---\n{text}",
            path.display()
        )),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &text)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn print(args: &Args, env: &Env, mut out: Outcome) -> Result<(), String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", run::host_json(env, &out.probe_ms));
    if let Err(e) = check_ledger(args, env, &out.counts) {
        out.tally.record(Err(e));
    }
    for (k, v) in &out.counts {
        println!("count {k} = {v}");
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!("{:<36} {:>14} {:<6} samples", "metric", "value", "unit");
    for m in &out.metrics {
        println!(
            "{:<36} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for reason in &out.tally.reasons {
        println!("FAILED: {reason}");
    }
    let result = RunResult {
        correct: out.tally.failed == 0,
        attempted: out.tally.attempted,
        failed: out.tally.failed,
        metrics: out.metrics,
    };
    let line = result.to_line()?;
    let back = RunResult::parse(&line)?;
    if back.metrics.len() != result.metrics.len() || back.failed != result.failed {
        return Err(format!("result line does not parse back: {line}"));
    }
    let summary = format!(
        "{{\"args\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}, \"host\": {}, \"result\": {line}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        run::host_json(env, &[])
    );
    let path = env.out.join(format!(
        "result-{}-seed{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, summary).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}

/// How long a run may take before its daemon is killed, counted from
/// the start of this process. A run must end within 180 s.
const RUN_BUDGET: Duration = Duration::from_secs(165);

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seed, threads] = argv.as_slice() {
        if flag == "--peak-child" {
            let peak = match (seed.parse(), threads.parse()) {
                (Ok(seed), Ok(threads)) => study::peak_child(seed, threads),
                _ => Err("--peak-child takes a seed and a thread count".into()),
            };
            return match peak {
                Ok(mib) => {
                    println!("{mib}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = match daemon_bin().and_then(|daemon_bin| {
        Ok(Env {
            daemon_bin,
            out: serve::out_dir().map_err(|e| format!("cannot create perfbench/out: {e}"))?,
            host: host::Fingerprint::read(),
            deadline: started + RUN_BUDGET,
        })
    }) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run::run(&args, &env).and_then(|out| print(&args, &env, out)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_validate() {
        let a = parse_args(&argv(
            "--workload serve_hot --seed 11 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_hot", 11, 20.0, true)
        );
        for bad in [
            "--seed 3",
            "--workload study --trace 2",
            "--workload study --seconds 0",
            "--workload study --seed x",
            "--workload study --bogus 1",
            "--workload study --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
