//! The batch study: the `landscape study --scale 0.03` configuration
//! run in-process, untraced through `Study::run_mode` and traced one
//! stage at a time through `Pipeline::run_controlled`.

use std::sync::Arc;
use std::time::Instant;

use hs_landscape::hs_harvest::{FleetConfig, HarvestConfig};
use hs_landscape::pipeline::Pipeline;
use hs_landscape::{
    report, ExecMode, MemoryCache, PipelineRun, PipelineTimings, RunControl, RunOptions,
    StageCache, StageId, StageTiming, Study, StudyConfig, StudyReport,
};

use crate::stats::Tally;
use crate::trace::Tracer;

/// World scale of the study workload.
pub const STUDY_SCALE: f64 = 0.03;

/// The stages a study without tracking runs, in engine order.
pub const PLAN: [StageId; 8] = [
    StageId::Setup,
    StageId::Harvest,
    StageId::DeanonWindow,
    StageId::PortScan,
    StageId::Geomap,
    StageId::Certs,
    StageId::Crawl,
    StageId::Popularity,
];

/// The configuration `landscape study --scale 0.03 --seed <seed>` runs.
pub fn config(seed: u64) -> StudyConfig {
    let scale = STUDY_SCALE;
    StudyConfig {
        seed,
        scale,
        relays: ((1_400.0 * scale) as usize).clamp(150, 1_400),
        harvest: HarvestConfig {
            fleet: FleetConfig {
                ips: ((58.0 * scale) as u32).max(8),
                relays_per_ip: 24,
                bandwidth: 400,
            },
            warmup_hours: 26,
            rotation_hours: 2,
        },
        scan_days: 7,
        traffic_clients: ((500.0 * scale) as usize).max(60),
        run_tracking: false,
        streaming: None,
        ..StudyConfig::default()
    }
}

/// The configuration `landscaped serve --scale <scale> --seed <seed>`
/// keeps resident.
pub fn daemon_config(scale: f64, seed: u64) -> StudyConfig {
    StudyConfig {
        scale,
        seed,
        ..StudyConfig::test_scale()
    }
}

/// The report `landscape study` prints on stdout.
pub fn render(r: &StudyReport) -> String {
    let mut out = String::new();
    let mut put = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    if let Some(scan) = &r.scan {
        put(report::render_fig1(scan));
    }
    if let Some(certs) = &r.certs {
        put(report::render_certs(certs));
    }
    if let Some(crawl) = &r.crawl {
        put(report::render_table1(crawl));
        put(report::render_funnel_and_languages(crawl));
        put(report::render_fig2(crawl));
    }
    if let Some(ranking) = &r.ranking {
        put(report::render_table2(ranking, 30));
    }
    if let (Some(resolution), Some(share)) = (&r.resolution, r.requested_published_share) {
        put(report::render_sec5(resolution, share));
    }
    if let Some(sketch) = &r.sketch {
        put(report::render_sketch(sketch));
    }
    if let Some(deanon) = &r.deanon {
        put(report::render_fig3(deanon));
    }
    if !r.is_complete() {
        put(report::render_degraded(&r.stages));
    }
    out
}

/// Exact work counters of one study: hardware-independent, so a slower
/// run can be read as more work or as slower work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// SHA-1 finalisations.
    pub sha1_digests: u64,
    /// Client descriptor fetches.
    pub fetches: u64,
    /// Descriptor-ID cache hits.
    pub desc_cache_hits: u64,
    /// Descriptor-ID cache misses.
    pub desc_cache_misses: u64,
    /// Measurement and mutate wave shards.
    pub wave_shards: u64,
}

impl Work {
    fn add_stage(&mut self, t: &StageTiming) {
        let c = |name| t.counter(name).unwrap_or(0);
        self.sha1_digests += c("sha1_digests");
        self.fetches += c("fetches");
        self.desc_cache_hits += c("desc_cache_hits");
        self.desc_cache_misses += c("desc_cache_misses");
        self.wave_shards += t
            .hists
            .iter()
            .filter(|(name, _)| *name == "wave.shard_items" || *name == "mutate_wave.shard_items")
            .map(|(_, h)| h.count())
            .sum::<u64>();
    }

    /// Totals over every executed stage.
    pub fn of(timings: &PipelineTimings) -> Self {
        let mut w = Work::default();
        for t in &timings.executed {
            w.add_stage(t);
        }
        w
    }

    /// The counters that must not depend on the thread count.
    pub fn hot_path(&self) -> [u64; 4] {
        [
            self.sha1_digests,
            self.fetches,
            self.desc_cache_hits,
            self.desc_cache_misses,
        ]
    }
}

/// What a study phase measured. Index 0 of each pair is the 1-thread
/// study, index 1 the `nproc`-thread study.
#[derive(Debug, Default)]
pub struct StudyPhase {
    /// Study wall times, ms.
    pub wall_ms: [Vec<f64>; 2],
    /// Setup-stage wall times, ms.
    pub setup_ms: Vec<f64>,
    /// Studies per second of each 1-thread/N-thread pair.
    pub pair_rate: Vec<f64>,
    /// Work counters of the first study at each thread count.
    pub work: [Option<Work>; 2],
    /// Per-stage wall of the new stage in each traced call, ms.
    pub stage_ms: Vec<(StageId, f64)>,
    /// Studies attempted and failed.
    pub tally: Tally,
    /// The last traced study, for the layer probes.
    pub last: Option<Staged>,
}

/// One study: its wall time, setup-stage time, rendered report and
/// work counters.
#[derive(Debug)]
pub struct Rep {
    wall_ms: f64,
    setup_ms: f64,
    report: String,
    /// Work counters of the study.
    pub work: Work,
    degraded: Vec<String>,
    /// The stage-by-stage run state, for traced studies.
    pub staged: Option<Staged>,
}

/// A study driven one stage at a time with a shared cache, so each
/// call runs exactly one new stage over cached dependencies.
#[derive(Debug)]
pub struct Staged {
    /// The engine.
    pub pipeline: Pipeline,
    /// The cache every call shared.
    pub cache: Arc<MemoryCache>,
    /// The control that routes calls through the cache.
    pub ctl: RunControl,
    /// The execution mode the calls used.
    pub mode: ExecMode,
    /// The setup call, holding the world and network.
    pub setup: PipelineRun,
    /// The popularity call, holding the ranking artifacts.
    pub popularity: PipelineRun,
}

/// Peak RSS of a fresh process that runs one study of `cfg` at
/// `threads` wave threads: this binary re-run with `--peak-child`. A
/// fresh process keeps allocator state left by earlier studies out of
/// the reading.
pub fn child_peak_mib(seed: u64, threads: usize) -> Result<f64, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let out = std::process::Command::new(me)
        .args(["--peak-child", &seed.to_string(), &threads.to_string()])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the peak-RSS child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(mib)) => Ok(mib),
        _ => Err(format!("peak-RSS child failed: {} {text}", out.status)),
    }
}

/// The `--peak-child` process: one study, then its own peak RSS in MiB
/// on stdout. Fails when the study degrades.
pub fn peak_child(seed: u64, threads: usize) -> Result<f64, String> {
    let rep = batch_rep(&config(seed), threads);
    if !rep.degraded.is_empty() {
        return Err(format!("degraded stages: {}", rep.degraded.join(",")));
    }
    crate::host::peak_rss_mib("self")
}

fn batch_rep(cfg: &StudyConfig, threads: usize) -> Rep {
    let mode = ExecMode::parallel().with_wave_threads(threads);
    let start = Instant::now();
    let r = Study::new(cfg.clone()).run_mode(mode, RunOptions::default());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Rep {
        wall_ms,
        setup_ms: r
            .stages
            .stage(StageId::Setup)
            .map_or(0.0, |t| t.wall.as_secs_f64() * 1e3),
        report: render(&r),
        work: Work::of(&r.stages),
        degraded: r
            .degraded_stages()
            .iter()
            .map(|d| d.stage.name().to_owned())
            .collect(),
        staged: None,
    }
}

/// Runs `cfg` one stage at a time, recording one `core` span per call
/// under `parent` and each new stage's wall in `stage_ms`. The report
/// is assembled from the calls' artifacts in the batch CLI's order.
pub fn staged_rep(
    cfg: &StudyConfig,
    threads: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
    rep: u64,
    stage_ms: &mut Vec<(StageId, f64)>,
) -> Result<Rep, String> {
    let start = Instant::now();
    let pipeline = Pipeline::new(cfg.clone());
    let cache = Arc::new(MemoryCache::new(32));
    let ctl = RunControl {
        cache: Some(cache.clone() as Arc<dyn StageCache>),
        ..RunControl::default()
    };
    let mode = ExecMode::parallel().with_wave_threads(threads);
    let mut work = Work::default();
    let mut sections: [Vec<String>; 5] = Default::default();
    let mut setup = None;
    let mut popularity = None;
    let mut setup_ms = 0.0;
    for stage in PLAN {
        let span = tracer.open(format!("stage:{}", stage.name()), "core", parent, rep);
        let run = pipeline.run_controlled(&[stage], mode, RunOptions::default(), &ctl);
        tracer.close(span);
        if let Some(d) = run.timings.degraded.first() {
            return Err(format!("stage {} degraded: {}", d.stage.name(), d.error));
        }
        if let Some(halt) = run.halt {
            return Err(format!("stage {} halted: {}", stage.name(), halt.name()));
        }
        let timing = run
            .timings
            .stage(stage)
            .ok_or_else(|| format!("stage {} did not run", stage.name()))?;
        work.add_stage(timing);
        let ms = timing.wall.as_secs_f64() * 1e3;
        stage_ms.push((stage, ms));
        let a = &run.artifacts;
        match stage {
            StageId::Setup => setup_ms = ms,
            StageId::PortScan => sections[0].push(report::render_fig1(a.scan())),
            StageId::Certs => sections[1].push(report::render_certs(a.certs())),
            StageId::Crawl => {
                sections[2].push(report::render_table1(a.crawl()));
                sections[2].push(report::render_funnel_and_languages(a.crawl()));
                sections[2].push(report::render_fig2(a.crawl()));
            }
            StageId::Popularity => {
                let pop = a.popularity();
                sections[3].push(report::render_table2(&pop.ranking, 30));
                sections[3].push(report::render_sec5(
                    &pop.resolution,
                    pop.requested_published_share,
                ));
                if let Some(sketch) = &pop.sketch {
                    sections[3].push(report::render_sketch(sketch));
                }
            }
            StageId::Geomap => sections[4].push(report::render_fig3(a.deanon())),
            _ => {}
        }
        match stage {
            StageId::Setup => setup = Some(run),
            StageId::Popularity => popularity = Some(run),
            _ => {}
        }
    }
    let report: String = sections
        .iter()
        .flatten()
        .map(|s| format!("{s}\n"))
        .collect();
    let (Some(setup), Some(popularity)) = (setup, popularity) else {
        return Err("staged study lost its setup or popularity run".into());
    };
    Ok(Rep {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        setup_ms,
        report,
        work,
        degraded: Vec::new(),
        staged: Some(Staged {
            pipeline,
            cache,
            ctl,
            mode,
            setup,
            popularity,
        }),
    })
}

/// Runs `pairs` pairs of studies, one at 1 wave thread and one at
/// `threads`, alternating which goes first so both see the same host
/// phases. Every report must equal the first 1-thread report, and the
/// first must equal `baseline` when one is given. Traced phases drive
/// each study one stage at a time and record spans.
pub fn phase(
    cfg: &StudyConfig,
    threads: usize,
    pairs: usize,
    baseline: Option<&str>,
    mut tracer: Option<&mut Tracer>,
) -> StudyPhase {
    let mut out = StudyPhase::default();
    let mut reference: Option<String> = None;
    for pair in 0..pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        let pair_start = Instant::now();
        for slot in order {
            let n = if slot == 0 { 1 } else { threads };
            let id = (2 * pair + slot) as u64;
            let rep = match tracer.as_deref_mut() {
                None => Ok(batch_rep(cfg, n)),
                Some(t) => {
                    let span = t.open(format!("study threads={n}"), "bench", None, id);
                    // Stage walls are kept for the N-thread studies only,
                    // the configuration the batch CLI runs by default.
                    let mut discard = Vec::new();
                    let stage_ms = if slot == 1 {
                        &mut out.stage_ms
                    } else {
                        &mut discard
                    };
                    let rep = staged_rep(cfg, n, t, Some(span), id, stage_ms);
                    t.close(span);
                    rep
                }
            };
            let rep = match rep {
                Ok(rep) => rep,
                Err(e) => {
                    out.tally.record(Err(e));
                    continue;
                }
            };
            out.wall_ms[slot].push(rep.wall_ms);
            out.setup_ms.push(rep.setup_ms);
            let outcome = check_rep(&rep, slot, n, baseline, &mut reference, &mut out.work);
            out.tally.record(outcome);
            if rep.staged.is_some() {
                out.last = rep.staged;
            }
        }
        out.pair_rate.push(2.0 / pair_start.elapsed().as_secs_f64());
    }
    out
}

fn check_rep(
    rep: &Rep,
    slot: usize,
    threads: usize,
    baseline: Option<&str>,
    reference: &mut Option<String>,
    work: &mut [Option<Work>; 2],
) -> Result<(), String> {
    if !rep.degraded.is_empty() {
        return Err(format!("degraded stages: {}", rep.degraded.join(",")));
    }
    match reference {
        None => {
            if let Some(base) = baseline {
                if rep.report != base {
                    return Err("report differs from results/par_study_baseline.txt".into());
                }
            }
            *reference = Some(rep.report.clone());
        }
        Some(r) if *r != rep.report => {
            return Err(format!(
                "report at {threads} thread(s) differs from the first report"
            ));
        }
        Some(_) => {}
    }
    match work[slot] {
        None => {
            let other = work[1 - slot];
            if let Some(o) = other {
                if o.hot_path() != rep.work.hot_path() {
                    return Err(format!(
                        "hot-path counters differ between thread counts: {:?} vs {:?}",
                        o, rep.work
                    ));
                }
            }
            work[slot] = Some(rep.work);
            Ok(())
        }
        Some(w) if w != rep.work => Err(format!(
            "work counters moved between reps at {threads} thread(s): {w:?} vs {:?}",
            rep.work
        )),
        Some(_) => Ok(()),
    }
}
