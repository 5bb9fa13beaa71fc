//! `landscaped` — the resident study daemon and its scripting client.
//!
//! ```text
//! landscaped serve [--addr A] [--scale F] [--seed N] [--threads N]
//!                  [--max-inflight N] [--wall-ms N] [--sim-hours N]
//!                  [--cache-cap N] [--cache-bytes N] [--faults PROFILE]
//!                  [--workers N] [--queue N] [--tick-every H/MS]
//!                  [--port-file P] [--log off|progress|debug]
//! landscaped script <addr>       # drive a stdin transcript
//! landscaped dump-trace <addr> <file>   # TRACE DUMP → Chrome JSON
//! ```
//!
//! `serve` binds (port 0 supported; `--port-file` writes the resolved
//! port for scripts), bootstraps the resident world, and serves until
//! `SHUTDOWN`. `script` reads request lines from stdin, sends each,
//! and echoes `> request` followed by the verbatim reply — the golden
//! daemon transcript in `results/` is produced this way. `dump-trace`
//! fetches the flight recorder's `TRACE DUMP`, validates it as Chrome
//! `trace_event` JSON, and writes it to a file for `chrome://tracing`
//! or Perfetto.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

use hs_serve::{Client, Daemon, DaemonConfig, TickEvery};
use obs::{LogLevel, Logger};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("script") => script(&args[1..]),
        Some("dump-trace") => dump_trace(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  landscaped serve [--addr A] [--scale F] [--seed N] [--threads N] \
[--max-inflight N] [--wall-ms N] [--sim-hours N] [--cache-cap N] [--cache-bytes N] \
[--faults PROFILE] [--workers N] [--queue N] [--tick-every H/MS] \
[--port-file P] [--log off|progress|debug]\n  \
landscaped script <addr>\n  \
landscaped dump-trace <addr> <file>";

/// Parses `--tick-every H/MS`: advance `H` sim-hours every `MS` wall
/// milliseconds.
fn parse_tick_every(value: &str) -> Result<TickEvery, String> {
    let bad = || format!("bad value for --tick-every: {value} (expected <sim-hours>/<wall-ms>)");
    let (hours, ms) = value.split_once('/').ok_or_else(bad)?;
    let sim_hours: u64 = hours.parse().map_err(|_| bad())?;
    let wall_ms: u64 = ms.parse().map_err(|_| bad())?;
    if sim_hours == 0 || sim_hours > 24 * 365 || wall_ms == 0 {
        return Err(bad());
    }
    Ok(TickEvery { sim_hours, wall_ms })
}

/// One `--flag value` pair.
fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut cfg = DaemonConfig::default();
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = take_value(flag, &mut it)?.clone(),
            "--scale" => cfg.study.scale = parse(flag, take_value(flag, &mut it)?)?,
            "--seed" => cfg.study.seed = parse(flag, take_value(flag, &mut it)?)?,
            "--threads" => cfg.wave_threads = parse(flag, take_value(flag, &mut it)?)?,
            "--max-inflight" => cfg.max_inflight = parse(flag, take_value(flag, &mut it)?)?,
            "--wall-ms" => cfg.default_wall_ms = Some(parse(flag, take_value(flag, &mut it)?)?),
            "--sim-hours" => cfg.default_sim_hours = Some(parse(flag, take_value(flag, &mut it)?)?),
            "--cache-cap" => cfg.cache_capacity = parse(flag, take_value(flag, &mut it)?)?,
            "--cache-bytes" => {
                cfg.cache_budget_bytes = Some(parse(flag, take_value(flag, &mut it)?)?)
            }
            "--faults" => cfg.study.apply_fault_profile(take_value(flag, &mut it)?)?,
            "--workers" => cfg.workers = parse(flag, take_value(flag, &mut it)?)?,
            "--queue" => cfg.pool_queue = parse(flag, take_value(flag, &mut it)?)?,
            "--tick-every" => cfg.tick_every = Some(parse_tick_every(take_value(flag, &mut it)?)?),
            "--port-file" => port_file = Some(take_value(flag, &mut it)?.clone()),
            "--log" => {
                let value = take_value(flag, &mut it)?;
                let level = LogLevel::parse(value)
                    .ok_or_else(|| format!("bad value for --log: {value}"))?;
                cfg.log = Logger::new(level);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let daemon = Daemon::bind(cfg).map_err(|e| format!("bind failed: {e}"))?;
    let addr = daemon.local_addr().map_err(|e| format!("no addr: {e}"))?;
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", addr.port()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("landscaped listening on {addr}");
    daemon.run().map_err(|e| format!("serve loop failed: {e}"))
}

fn script(args: &[String]) -> Result<(), String> {
    let [addr] = args else {
        return Err(USAGE.to_owned());
    };
    let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(10))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let reply = client
            .request(line)
            .map_err(|e| format!("request `{line}` failed: {e}"))?;
        let mut render = || -> std::io::Result<()> {
            writeln!(out, "> {line}")?;
            for reply_line in &reply {
                writeln!(out, "{reply_line}")?;
            }
            Ok(())
        };
        render().map_err(|e| format!("stdout: {e}"))?;
        if line == "SHUTDOWN" {
            break;
        }
    }
    Ok(())
}

/// Fetches `TRACE DUMP`, validates the Chrome `trace_event` JSON, and
/// writes it to `file`. Exits nonzero when the daemon answers with an
/// error or the document fails structural validation.
fn dump_trace(args: &[String]) -> Result<(), String> {
    let [addr, file] = args else {
        return Err(USAGE.to_owned());
    };
    let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(10))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let reply = client
        .request("TRACE DUMP")
        .map_err(|e| format!("TRACE DUMP failed: {e}"))?;
    let Some(("OK TRACE", body)) = reply
        .split_first()
        .map(|(head, rest)| (head.as_str(), rest))
    else {
        return Err(format!("unexpected reply: {reply:?}"));
    };
    // Strip the trailing `.` frame terminator; the rest is the JSON.
    let json: String = body
        .iter()
        .filter(|line| line.as_str() != ".")
        .map(|line| format!("{line}\n"))
        .collect();
    obs::validate_json(&json).map_err(|e| format!("invalid trace JSON: {e}"))?;
    std::fs::write(file, &json).map_err(|e| format!("cannot write {file}: {e}"))?;
    eprintln!("wrote {} bytes of trace to {file}", json.len());
    Ok(())
}
