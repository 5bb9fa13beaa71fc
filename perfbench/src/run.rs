//! The three workloads, untraced and traced, and the metrics each run
//! reports.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hs_landscape::StageId;
use obs::prom::{Exposition, FamilyKind};
use obs::wall::MetricId;

use crate::host::{self, Fingerprint};
use crate::probes;
use crate::serve::{self, Class, Daemon, PhaseOut, Pool, SpanCtx};
use crate::stats::{median, tail, Metric, Tally};
use crate::study::{self, StudyPhase, STUDY_SCALE};
use crate::trace::{Span, Tracer};

/// One study pair (1 thread + `nproc` threads) at scale 0.03, seconds.
/// Turns `--seconds` into a fixed pair count.
const STUDY_PAIR_S: f64 = 2.4;
/// Nominal seconds of one hot-mix cycle (one round of each class):
/// turns `--seconds` into a fixed cycle count.
const HOT_CYCLE_S: f64 = 0.7;
/// Requests each connection sends in one round of the hot mix.
const HOT_PER_ROUND: usize = 200;
/// Nominal seconds per tick cycle: turns `--seconds` into a fixed
/// cycle count.
const TICK_CYCLE_S: f64 = 0.23;
/// Daemon world scale of `serve_hot`.
const HOT_SCALE: f64 = 0.1;
/// Daemon world scale of `serve_tick`.
const TICK_SCALE: f64 = 0.03;
/// Daemons per untraced serve run, each running an equal share of the
/// timed phase; `setup_s` and `rss_mb` are medians over them.
const STARTUPS: usize = 3;
/// Hot-mix cycles in the serve probe that closes every traced run.
const PROBE_CYCLES: usize = 2;
/// Requests per connection per round in the serve probe: with two
/// connections, 1 000 per class, enough for a p99 tail.
const PROBE_PER_ROUND: usize = 250;
/// PING round trips timed by the serve probe.
const PINGS: usize = 300;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct Args {
    /// `study`, `serve_hot` or `serve_tick`.
    pub workload: String,
    /// Seed for the study and the request order.
    pub seed: u64,
    /// Nominal length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Where a run finds its daemon binary and writes its files.
#[derive(Clone, Debug)]
pub struct Env {
    /// The `landscaped` binary built from this checkout.
    pub daemon_bin: PathBuf,
    /// Run files (`perfbench/out`).
    pub out: PathBuf,
    /// `nproc`, CPU model, kernel.
    pub host: Fingerprint,
    /// When a daemon still running is killed, so that a stalled request
    /// cannot hang the run.
    pub deadline: Instant,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the final line.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Exact counters that must repeat for the same seed.
    pub counts: Vec<(String, u64)>,
    /// Human-readable diagnostics printed before the result line.
    pub notes: Vec<String>,
    /// Host probe before and after each timed phase, ms.
    pub probe_ms: Vec<f64>,
}

impl Outcome {
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Times the fixed host probe.
    fn probe(&mut self) {
        self.probe_ms.push(host::probe_ms());
    }
}

fn ms_metric(name: &str, samples: &[f64]) -> Result<Metric, String> {
    Metric::median_of(name, samples, "ms")
}

fn rate_metric(samples: &[f64]) -> Result<Metric, String> {
    Metric::median_of("ops_per_s", samples, "1/s")
}

/// Fresh processes whose peak RSS gives the study's `rss_mb`.
const PEAK_CHILDREN: usize = 3;

/// Peak RSS of [`PEAK_CHILDREN`] fresh one-study processes, MiB.
fn study_peaks(seed: u64, threads: usize) -> Result<Vec<f64>, String> {
    (0..PEAK_CHILDREN)
        .map(|_| study::child_peak_mib(seed, threads))
        .collect()
}

/// The end-to-end metrics of a study phase.
fn study_e2e(ph: &StudyPhase, peaks_mib: &[f64]) -> Result<Vec<Metric>, String> {
    let setup_s: Vec<f64> = ph.setup_ms.iter().map(|ms| ms / 1e3).collect();
    Ok(vec![
        Metric::median_of("setup_s", &setup_s, "s")?,
        Metric::median_of("rss_mb", peaks_mib, "MiB")?,
        ms_metric("op_p50_ms", &ph.wall_ms[1])?,
        ms_metric("alt_p50_ms", &ph.wall_ms[0])?,
        rate_metric(&ph.pair_rate)?,
    ])
}

/// The end-to-end metrics of serve phases: `setups` and `peaks_mib`
/// hold one value per daemon, `ph` the phases of all of them.
fn serve_e2e(
    setups: &[f64],
    peaks_mib: &[f64],
    ph: &PhaseOut,
    tick: bool,
) -> Result<Vec<Metric>, String> {
    let lat = |c: Class| &ph.lat_ms[c as usize];
    let (op, alt, rate) = if tick {
        (Class::Refresh, Class::Tick, &ph.cycle_rate)
    } else {
        (
            Class::Popularity,
            Class::Crawl,
            &ph.rates[serve::QUERY_ROUND],
        )
    };
    Ok(vec![
        Metric::median_of("setup_s", setups, "s")?,
        Metric::median_of("rss_mb", peaks_mib, "MiB")?,
        ms_metric("op_p50_ms", lat(op))?,
        ms_metric("alt_p50_ms", lat(alt))?,
        rate_metric(rate)?,
    ])
}

fn work_counts(prefix: &str, w: &study::Work) -> Vec<(String, u64)> {
    vec![
        (format!("{prefix}.sha1_digests"), w.sha1_digests),
        (format!("{prefix}.fetches"), w.fetches),
        (format!("{prefix}.desc_cache_hits"), w.desc_cache_hits),
        (format!("{prefix}.desc_cache_misses"), w.desc_cache_misses),
        (format!("{prefix}.wave_shards"), w.wave_shards),
    ]
}

/// Runs the workload `args` names.
pub fn run(args: &Args, env: &Env) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("study", false) => study_untraced(args, env),
        ("study", true) => study_traced(args, env),
        ("serve_hot", trace) => serve_run(args, env, false, trace),
        ("serve_tick", trace) => serve_run(args, env, true, trace),
        (other, _) => Err(format!(
            "unknown workload {other:?} (expected study, serve_hot or serve_tick)"
        )),
    }
}

fn study_pairs(seconds: f64) -> usize {
    ((seconds / STUDY_PAIR_S).round() as usize).max(2)
}

/// The committed seed-7 report, which the study must reproduce.
fn baseline(seed: u64, out: &mut Outcome) -> Option<String> {
    if seed != 7 {
        return None;
    }
    let path = Path::new("results").join("par_study_baseline.txt");
    match std::fs::read_to_string(&path) {
        Ok(text) => Some(text),
        Err(e) => {
            out.tally.record(Err(format!("{}: {e}", path.display())));
            None
        }
    }
}

fn study_untraced(args: &Args, env: &Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = study::config(args.seed);
    let base = baseline(args.seed, &mut out);
    out.probe();
    let ph = study::phase(
        &cfg,
        env.host.nproc,
        study_pairs(args.seconds),
        base.as_deref(),
        None,
    );
    out.probe();
    let peaks = study_peaks(args.seed, env.host.nproc)?;
    out.metrics = study_e2e(&ph, &peaks)?;
    for (slot, label) in [(0, "t1"), (1, "tn")] {
        if let Some(w) = &ph.work[slot] {
            out.counts.extend(work_counts(&format!("study.{label}"), w));
        }
    }
    out.tally.merge(ph.tally);
    Ok(out)
}

/// A traced run: the untraced phase at half length, the same phase
/// traced at half length, then the layer probes. Reports per-layer
/// metrics and writes the spans and the traced-minus-untraced
/// difference of every end-to-end metric.
fn study_traced(args: &Args, env: &Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = study::config(args.seed);
    let base = baseline(args.seed, &mut out);
    let pairs = (study_pairs(args.seconds) / 2).max(1);
    out.probe();
    let plain = study::phase(&cfg, env.host.nproc, pairs, base.as_deref(), None);
    out.probe();
    let peaks = study_peaks(args.seed, env.host.nproc)?;
    let untraced = study_e2e(&plain, &peaks)?;
    out.tally.merge(plain.tally);

    let mut tracer = Tracer::new();
    out.probe();
    let traced_ph = study::phase(
        &cfg,
        env.host.nproc,
        pairs,
        base.as_deref(),
        Some(&mut tracer),
    );
    out.probe();
    let traced = study_e2e(&traced_ph, &peaks)?;
    let staged = traced_ph
        .last
        .as_ref()
        .ok_or("the traced study produced no run")?;
    // Read before the probes below add cache calls of their own.
    let c = hs_landscape::StageCache::counters(staged.cache.as_ref());

    let mut layers = Vec::new();
    let probes_span = tracer.open("layer probes", "bench", None, 0);
    let a = &staged.setup.artifacts;
    layers.extend(probes::sim_layers(
        a.world(),
        a.net_setup(),
        env.host.nproc,
        &mut tracer,
        Some(probes_span),
    ));
    layers.extend(probes::core_layers(staged, &mut tracer, Some(probes_span))?);
    tracer.close(probes_span);
    let work = traced_ph.work[1].ok_or("the traced study recorded no work")?;
    layers.extend(work_layers(&work));
    layers.extend(stage_layers(&traced_ph.stage_ms)?);
    layers.extend(cache_layers(c.hits, c.misses, c.insertions, c.evictions));
    out.tally.merge(traced_ph.tally);

    // The serve layer on the study's scale: a short-lived daemon.
    let (daemon, _) = serve::start_warm(
        &env.daemon_bin,
        &STUDY_SCALE.to_string(),
        args.seed,
        &env.out,
        Pool::for_conns(env.host.nproc),
        env.deadline,
        &mut out.tally,
        None,
    )?;
    let probe = serve_probe(&daemon, args.seed, env, &mut tracer, &mut out)?;
    layers.extend(probe.metrics);
    daemon.shutdown()?;

    finish_traced(
        args,
        env,
        &mut out,
        layers,
        &untraced,
        &traced,
        &tracer,
        &probe.files,
    )?;
    Ok(out)
}

/// Per-layer metrics derived from exact work counters.
fn work_layers(w: &study::Work) -> Vec<Metric> {
    let lookups = w.desc_cache_hits + w.desc_cache_misses;
    vec![
        Metric::count("onion-crypto.sha1_digests", w.sha1_digests),
        Metric::count("tor-sim.fetches", w.fetches),
        Metric::count("tor-sim.desc_cache_hits", w.desc_cache_hits),
        Metric::count("tor-sim.desc_cache_misses", w.desc_cache_misses),
        Metric::new(
            "tor-sim.desc_cache_hit_ratio",
            w.desc_cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
            1,
        ),
        Metric::count("wave.shards", w.wave_shards),
    ]
}

fn cache_layers(hits: u64, misses: u64, insertions: u64, evictions: u64) -> Vec<Metric> {
    vec![
        Metric::count("core.cache.hits", hits),
        Metric::count("core.cache.misses", misses),
        Metric::count("core.cache.insertions", insertions),
        Metric::count("core.cache.evictions", evictions),
        Metric::new(
            "core.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            1,
        ),
    ]
}

/// `core.stage.<name>_ms`: the median wall of each new stage over the
/// traced calls.
fn stage_layers(stage_ms: &[(StageId, f64)]) -> Result<Vec<Metric>, String> {
    study::PLAN
        .iter()
        .map(|&stage| {
            let samples: Vec<f64> = stage_ms
                .iter()
                .filter(|(s, _)| *s == stage)
                .map(|&(_, ms)| ms)
                .collect();
            ms_metric(&format!("core.stage.{}_ms", stage.name()), &samples)
        })
        .collect()
}

/// Opens a phase span named `name` and `n` round spans under it.
fn open_rounds(t: &mut Tracer, name: &str, parent: Option<usize>, n: usize) -> (usize, Vec<usize>) {
    let root = t.open(name, "bench", parent, 0);
    let rounds = (0..n)
        .map(|r| t.open(format!("round {r}"), "bench", Some(root), r as u64))
        .collect();
    (root, rounds)
}

/// Adds a phase's request spans, sets each round span to the interval
/// its requests cover, and closes the phase span.
fn close_rounds(t: &mut Tracer, root: usize, rounds: &[usize], spans: &[Span]) {
    for &idx in rounds {
        let (lo, hi) = spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), s| {
                (lo.min(s.start_us), hi.max(s.end_us))
            });
        t.set_times(idx, lo.min(hi), hi);
    }
    for s in spans {
        t.push(s.clone());
    }
    t.close(root);
}

/// What the serve probe measured and saved.
struct ServeProbe {
    metrics: Vec<Metric>,
    files: Vec<(String, String)>,
}

/// The serve layer on a running daemon: warms the current epoch, runs a
/// short hot mix for class tails and reply lines, times PING round
/// trips and `parse_request`, and reads the daemon's own histograms,
/// `TRACE DUMP` and `METRICS PROM`.
fn serve_probe(
    daemon: &Daemon,
    seed: u64,
    env: &Env,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<ServeProbe, String> {
    let root = tracer.open("serve probe", "bench", None, 0);
    serve::warm_up(&daemon.addr, &mut out.tally, Some(&mut *tracer), Some(root))?;
    let expect = serve::observe(&daemon.addr, &mut out.tally)?;
    let (mix, rounds) = open_rounds(
        tracer,
        "probe mix",
        Some(root),
        PROBE_CYCLES * serve::ROUNDS_PER_CYCLE,
    );
    let ctx = SpanCtx {
        origin: tracer.origin(),
        rounds: &rounds,
    };
    let conns = env.host.nproc;
    let ph = serve::hot_phase(
        &daemon.addr,
        seed,
        conns,
        PROBE_CYCLES,
        PROBE_PER_ROUND,
        &expect,
        Some(ctx),
    )?;
    close_rounds(tracer, mix, &rounds, &ph.spans);
    let mut metrics = Vec::new();
    let lat = |c: Class| ph.lat_ms[c as usize].as_slice();
    let queries = [lat(Class::Popularity), lat(Class::Crawl)].concat();
    for (samples, name) in [
        (queries.as_slice(), "serve.query_tail_ms"),
        (lat(Class::Read), "serve.read_tail_ms"),
        (lat(Class::Scrape), "serve.scrape_tail_ms"),
    ] {
        let t = tail(samples).ok_or_else(|| format!("{name}: too few samples for a tail"))?;
        out.note(format!(
            "{name}: p{} = {:.3} ms over {} samples",
            t.pct, t.value, t.samples
        ));
        metrics.push(Metric::new(name, t.value, "ms", t.samples));
    }
    // The multi-line replies swing 40-45% between host phases, too much
    // for an end-to-end bound, so their medians are per-layer.
    metrics.push(ms_metric("serve.read_p50_ms", lat(Class::Read))?);
    metrics.push(ms_metric("serve.scrape_p50_ms", lat(Class::Scrape))?);
    let lines = |c: Class| ph.lines[c as usize];
    for (n, name) in [
        (
            lines(Class::Popularity) + lines(Class::Crawl),
            "serve.reply_lines.query",
        ),
        (lines(Class::Read), "serve.reply_lines.read"),
        (lines(Class::Scrape), "serve.reply_lines.scrape"),
    ] {
        metrics.push(Metric::count(name, n));
    }
    for scrape in &ph.scrapes {
        out.tally.record(serve::parse_scrape(scrape).map(|_| ()));
    }
    out.tally.merge(ph.tally);

    // Opened only now, so no idle connection holds a pool worker while
    // the mix runs.
    let mut client = daemon.connect()?;
    let mut pings = Vec::with_capacity(PINGS);
    let ping_span = tracer.open("PING x300", "serve", Some(root), 0);
    for _ in 0..PINGS {
        let (reply, s, e) = serve::timed(&mut client, "PING");
        out.tally.record(match reply {
            Ok(r) if r == ["OK PONG"] => Ok(()),
            other => Err(format!("PING: {other:?}")),
        });
        pings.push((e - s).as_secs_f64() * 1e6);
    }
    tracer.close(ping_span);
    metrics.push(Metric::median_of("serve.ping_us", &pings, "us")?);
    let lines: Vec<&str> = serve::hot_sequence(seed, 0, &serve::hot_rounds(seed, 1), 25)
        .iter()
        .flatten()
        .map(|r| r.line())
        .chain(["TICK 1", "PING", "TRACE DUMP"])
        .collect();
    metrics.push(probes::parse_request(&lines, tracer, Some(root)));

    let prom = client.request("METRICS PROM").map_err(|e| e.to_string())?;
    let exp = serve::parse_scrape(&prom)?;
    let quantile = |series: &str, q: f64| {
        bucket_quantile(&exp, series, q)
            .ok_or_else(|| format!("METRICS PROM has no {series} histogram"))
    };
    for (q, name) in [
        (0.50, "serve.query_wall_us.p50"),
        (0.99, "serve.query_wall_us.p99"),
    ] {
        let (v, n) = quantile("landscaped_query_wall_us", q)?;
        metrics.push(Metric::new(name, v, "us", n as usize));
    }
    // Admission is one compare-and-swap and the pool queues one job per
    // connection: these read 0 or a handful of samples, so they stay
    // printed diagnostics.
    for (series, name) in [
        (
            "landscaped_admission_wait_us",
            "serve.admission_wait_us.p99",
        ),
        (
            "landscaped_pool_queue_wait_us",
            "serve.pool_queue_wait_us.p99",
        ),
    ] {
        let (v, n) = quantile(series, 0.99)?;
        out.note(format!("{name} = {v:.1} us over {n} samples (diagnostic)"));
    }
    metrics.push(probes::prom_render(
        &snapshot_of(&exp, "landscaped_"),
        "landscaped",
        tracer,
        Some(root),
    ));
    let dump = client.request("TRACE DUMP").map_err(|e| e.to_string())?;
    let dump_body = serve::body(&dump, "OK TRACE")?.join("\n");
    out.tally
        .record(obs::validate_json(&dump_body).map_err(|e| format!("TRACE DUMP: {e}")));
    tracer.close(root);
    Ok(ServeProbe {
        metrics,
        files: vec![
            ("daemon-trace.json".into(), dump_body),
            (
                "daemon-metrics.prom".into(),
                prom[1..prom.len() - 1].join("\n"),
            ),
        ],
    })
}

/// The `q` quantile of a Prometheus histogram, interpolated inside the
/// bucket it falls in (geometrically, as the buckets grow by powers of
/// two), and the histogram's count.
fn bucket_quantile(exp: &Exposition, base: &str, q: f64) -> Option<(f64, u64)> {
    let mut buckets: Vec<(f64, f64)> = exp
        .series(&format!("{base}_bucket"))
        .into_iter()
        .filter_map(|(labels, v)| {
            let (_, le) = labels.iter().find(|(k, _)| k == "le")?;
            Some((le.parse().ok().filter(|le: &f64| le.is_finite())?, v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let want = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, cum) in &buckets {
        if cum >= want {
            let share = if cum > below {
                (want - below) / (cum - below)
            } else {
                1.0
            };
            let v = if lo > 0.0 {
                lo * (le / lo).powf(share)
            } else {
                le * share
            };
            return Some((v, total as u64));
        }
        (lo, below) = (le, cum);
    }
    None
}

/// Rebuilds a registry snapshot holding the families of a parsed
/// scrape, so `obs::prom::render` can be timed on exactly what the
/// daemon returns.
fn snapshot_of(exp: &Exposition, prefix: &str) -> obs::WallSnapshot {
    let mut snap = obs::WallSnapshot::default();
    let id = |name: &str, labels: &[(String, String)]| {
        let pairs: Vec<(&str, &str)> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        MetricId::new(name.strip_prefix(prefix).unwrap_or(name), &pairs)
    };
    for fam in &exp.families {
        match fam.kind {
            FamilyKind::Counter => {
                for s in &fam.samples {
                    let name = s.name.strip_suffix("_total").unwrap_or(&s.name);
                    snap.counters.push((id(name, &s.labels), s.value as u64));
                }
            }
            FamilyKind::Gauge => {
                for s in &fam.samples {
                    snap.gauges.push((id(&s.name, &s.labels), s.value));
                }
            }
            FamilyKind::Histogram => {
                let mut hists: BTreeMap<Vec<(String, String)>, (f64, obs::Histogram)> =
                    BTreeMap::new();
                for s in fam.samples.iter().filter(|s| s.name.ends_with("_bucket")) {
                    let key: Vec<(String, String)> = s
                        .labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .cloned()
                        .collect();
                    let le = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .and_then(|(_, v)| v.parse::<f64>().ok());
                    let (seen, h) = hists.entry(key).or_insert((0.0, obs::Histogram::new()));
                    if let Some(le) = le.filter(|le| le.is_finite()) {
                        h.record_n(le as u64, (s.value - *seen).max(0.0) as u64);
                        *seen = s.value;
                    }
                }
                for (labels, (_, h)) in hists {
                    snap.hists.push((id(&fam.name, &labels), h));
                }
            }
        }
    }
    snap.sort();
    snap
}

/// Writes the trace file and adds the per-layer metrics and the
/// traced-minus-untraced difference to the outcome.
#[allow(clippy::too_many_arguments)]
fn finish_traced(
    args: &Args,
    env: &Env,
    out: &mut Outcome,
    mut layers: Vec<Metric>,
    untraced: &[Metric],
    traced: &[Metric],
    tracer: &Tracer,
    files: &[(String, String)],
) -> Result<(), String> {
    let probe = median(&out.probe_ms).ok_or("no host probe")?;
    layers.push(Metric::new(
        "host.probe_ms",
        probe,
        "ms",
        out.probe_ms.len(),
    ));
    let stem = format!("trace-{}-seed{}", args.workload, args.seed);
    let mut e2e = Vec::new();
    for (u, t) in untraced.iter().zip(traced) {
        out.note(format!(
            "{:<14} untraced {:>12.4} traced {:>12.4} traced-untraced {:>+12.4} {}",
            u.name,
            u.value,
            t.value,
            t.value - u.value,
            u.unit
        ));
        e2e.push(format!(
            "\"{}\": {{\"unit\": \"{}\", \"untraced\": {}, \"traced\": {}, \"traced_minus_untraced\": {}}}",
            u.name,
            u.unit,
            crate::json::number(u.value)?,
            crate::json::number(t.value)?,
            crate::json::number(t.value - u.value)?
        ));
    }
    let self_ms: Vec<String> = tracer
        .self_ms()
        .iter()
        .map(|(layer, ms)| format!("\"{layer}\": {ms:.3}"))
        .collect();
    for (layer, ms) in tracer.self_ms() {
        out.note(format!("self time {layer:<14} {ms:>12.3} ms"));
    }
    let per_layer: Vec<String> = layers
        .iter()
        .map(|m| {
            Ok(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                crate::json::number(m.value)?,
                m.unit,
                m.samples
            ))
        })
        .collect::<Result<_, String>>()?;
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"host\": {},\n\
         \"end_to_end\": {{{}}},\n\"per_layer\": {{{}}},\n\"self_ms\": {{{}}},\n\"spans\": {}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        host_json(env, &out.probe_ms),
        e2e.join(",\n"),
        per_layer.join(",\n"),
        self_ms.join(", "),
        tracer.to_json()
    );
    crate::json::parse(&doc).map_err(|e| format!("trace document is not JSON: {e}"))?;
    let path = env.out.join(format!("{stem}.json"));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    for (suffix, body) in files {
        let path = env.out.join(format!("{stem}-{suffix}"));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(format!("daemon output written to {}", path.display()));
    }
    out.metrics = layers;
    Ok(())
}

/// The host fingerprint and probe readings as a JSON object.
pub fn host_json(env: &Env, probe_ms: &[f64]) -> String {
    let probes: Vec<String> = probe_ms.iter().map(|p| format!("{p:.3}")).collect();
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"probe_ms\": [{}]}}",
        env.host.nproc,
        crate::json::escape(&env.host.cpu),
        crate::json::escape(&env.host.kernel),
        probes.join(", ")
    )
}

/// Both serve workloads. Untraced: [`STARTUPS`] daemons one after
/// another, each started, warmed and run through an equal share of the
/// timed phase. Traced: an untraced daemon with half the phase, a
/// traced daemon with the other half and then the serve probe, and the
/// in-process layer probes on the daemons' configuration.
fn serve_run(args: &Args, env: &Env, tick: bool, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scale = if tick { TICK_SCALE } else { HOT_SCALE };
    let conns = env.host.nproc;
    let daemons = if traced { 2 } else { STARTUPS };
    let cycle_s = if tick { TICK_CYCLE_S } else { HOT_CYCLE_S };
    let cycles = ((args.seconds / cycle_s / daemons as f64).round() as usize).max(1);
    let mut tracer = Tracer::new();
    let (mut setups, mut peaks, mut phases) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut probe = None;
    for k in 0..daemons {
        // Each daemon runs alone: the previous one has exited.
        let trace_this = traced && k + 1 == daemons;
        let mut traced_by = trace_this.then_some(&mut tracer);
        let (daemon, secs) = serve::start_warm(
            &env.daemon_bin,
            &scale.to_string(),
            args.seed,
            &env.out,
            Pool::for_conns(conns),
            env.deadline,
            &mut out.tally,
            traced_by.as_deref_mut(),
        )?;
        let mut expect = serve::observe(&daemon.addr, &mut out.tally)?;
        let n = if tick {
            cycles
        } else {
            cycles * serve::ROUNDS_PER_CYCLE
        };
        let name = if tick { "tick phase" } else { "hot phase" };
        let spans = traced_by
            .as_deref_mut()
            .map(|t| open_rounds(t, name, None, n));
        let ctx = traced_by
            .as_deref()
            .zip(spans.as_ref())
            .map(|(t, (_, rounds))| SpanCtx {
                origin: t.origin(),
                rounds,
            });
        out.probe();
        let ph = if tick {
            serve::tick_phase(&daemon.addr, cycles, &mut expect, ctx)
        } else {
            serve::hot_phase(
                &daemon.addr,
                args.seed,
                conns,
                cycles,
                HOT_PER_ROUND,
                &expect,
                ctx,
            )
        }?;
        out.probe();
        if let (Some(t), Some((root, rounds))) = (traced_by, &spans) {
            close_rounds(t, *root, rounds, &ph.spans);
        }
        for scrape in &ph.scrapes {
            out.tally.record(serve::parse_scrape(scrape).map(|_| ()));
        }
        // The daemon's whole life so far: bootstrap, warm-up and its
        // share of the phase.
        peaks.push(daemon.peak_rss_mib()?);
        // The daemon's exact counters after the phase, before any probe;
        // a traced run keeps the traced daemon's alone.
        if !traced || trace_this {
            let mut client = daemon.connect()?;
            for (key, v) in serve::legacy_metrics(&mut client)? {
                *counts.entry(format!("daemon.{key}")).or_default() += v;
            }
        }
        if trace_this {
            probe = Some(serve_probe(&daemon, args.seed, env, &mut tracer, &mut out)?);
        }
        daemon.shutdown()?;
        setups.push(secs);
        phases.push(ph);
    }

    if !traced {
        let mut all = PhaseOut::default();
        for ph in phases {
            all.merge(ph);
        }
        out.metrics = serve_e2e(&setups, &peaks, &all, tick)?;
        out.counts.extend(counts);
        for class in Class::ALL {
            out.counts.push((
                format!("reply_lines.{}", class.name()),
                all.lines[class as usize],
            ));
        }
        for class in Class::ALL {
            let samples = &all.lat_ms[class as usize];
            if let (Some(p50), Some(t)) = (median(samples), tail(samples)) {
                out.note(format!(
                    "{} latency: p50 {p50:.3} ms, p{} {:.3} ms over {} samples",
                    class.name(),
                    t.pct,
                    t.value,
                    t.samples
                ));
            }
        }
        for (round, rates) in serve::HOT_ROUNDS.iter().zip(&all.rates) {
            if let Some(rate) = median(rates) {
                out.note(format!(
                    "{} rounds: median {rate:.0} req/s over {} rounds",
                    round.name,
                    rates.len()
                ));
            }
        }
        let peaks_text: Vec<String> = peaks.iter().map(|p| format!("{p:.2}")).collect();
        out.note(format!(
            "daemon peak RSS per start-up: {} MiB",
            peaks_text.join(", ")
        ));
        out.tally.merge(all.tally);
        return Ok(out);
    }
    let (first, second) = (&phases[0], &phases[1]);
    let untraced = serve_e2e(&setups[..1], &peaks[..1], first, tick)?;
    let traced_e2e = serve_e2e(&setups[1..], &peaks[1..], second, tick)?;
    for ph in phases {
        out.tally.merge(ph.tally);
    }
    let probe = probe.ok_or("the traced daemon ran no probe")?;
    let mut layers = probe.metrics;
    let get = |key: &str| counts.get(&format!("daemon.{key}")).copied().unwrap_or(0);
    layers.extend(cache_layers(
        get("cache.hits"),
        get("cache.misses"),
        get("cache.insertions"),
        get("cache.evictions"),
    ));
    // In-process probes on the daemon's own configuration.
    let cfg = study::daemon_config(scale, args.seed);
    let root = tracer.open("in-process study", "bench", None, 0);
    let mut stage_ms = Vec::new();
    let rep = study::staged_rep(&cfg, 1, &mut tracer, Some(root), 0, &mut stage_ms)?;
    tracer.close(root);
    let work = rep.work;
    let staged = rep.staged.ok_or("the in-process study kept no stages")?;
    let probes_span = tracer.open("layer probes", "bench", None, 0);
    let a = &staged.setup.artifacts;
    layers.extend(probes::sim_layers(
        a.world(),
        a.net_setup(),
        env.host.nproc,
        &mut tracer,
        Some(probes_span),
    ));
    layers.extend(probes::core_layers(
        &staged,
        &mut tracer,
        Some(probes_span),
    )?);
    tracer.close(probes_span);
    layers.extend(work_layers(&work));
    layers.extend(stage_layers(&stage_ms)?);
    finish_traced(
        args,
        env,
        &mut out,
        layers,
        &untraced,
        &traced_e2e,
        &tracer,
        &probe.files,
    )?;
    Ok(out)
}
