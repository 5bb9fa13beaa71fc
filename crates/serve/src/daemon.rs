//! The resident daemon: one simulated world, many concurrent queries.
//!
//! # Query lifecycle
//!
//! ```text
//!            RUN_UNTIL line
//!                 │
//!         admission control ──────────────▶ BUSY (shed, typed)
//!                 │ inflight < max
//!            RUNNING id=<n>          (flushed before work starts)
//!                 │
//!        run_controlled(closure)     cancel / deadline checked at
//!                 │                  every stage-attempt boundary
//!     ┌───────────┼───────────────┐
//!     ▼           ▼               ▼
//!  OK RUN     PARTIAL RUN      PARTIAL RUN
//!             halt=<reason>    degraded=<stages>
//! ```
//!
//! Every terminal reply carries `world=<hex>`: the state-hash of the
//! epoch's resident network, recomputed *after* the query. Because
//! queries only read the world through immutable cached payloads, the
//! hash is identical before and after any query — including one that
//! was cancelled, shed, timed out, or whose stage panicked — and the
//! test suite pins exactly that.
//!
//! # Epochs
//!
//! The resident world is the `Setup` payload in the recompute cache,
//! keyed by an epoch salt. `TICK` clones the network, advances
//! simulated time, and publishes the result under the *next* epoch's
//! salt; in-flight queries admitted under the old epoch keep reading
//! the old payload untouched (snapshot isolation by construction).
//!
//! # Telemetry plane
//!
//! All daemon counters live in a wall-clock [`WallRegistry`]
//! ([`Telemetry`]), strictly separate from the deterministic sim-clock
//! metrics inside stage timings. Plain `METRICS` is the deterministic
//! view: a fixed set of `key=value` counters, read from the same
//! handles, whose values depend only on the requests served — so
//! transcripts and benchmark ledgers can compare them exactly.
//! `METRICS PROM` renders the whole registry — including
//! admission-wait / query-latency / per-stage histograms, pool
//! families and scrape-time gauges, some of which race with
//! connection teardown — as Prometheus text exposition.
//! Each `RUN_UNTIL` additionally records a wall-clock span tree
//! (parse → admission → stage attempts → render) into the
//! [`FlightRecorder`], queryable via `TRACE <id>` / `TRACE DUMP` /
//! `TRACE ERRORS`.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hs_landscape::pipeline::{derive_keys, CacheKey};
use hs_landscape::{
    CancelToken, ExecMode, MemoryCache, PipelineRun, RunControl, RunOptions, StageCache, StageId,
    StagePayload, StudyConfig,
};
use obs::trace::{EventKind, Span, TraceEvent};
use obs::{Logger, WallCounter, WallGauge, WallHistogram, WallRegistry};
use wave::mix2;

use crate::executor::Executor;
use crate::flight::{FlightRecorder, QueryOutcome, QueryRecord};
use crate::protocol::{parse_request, LineReader, Request, Target, TraceQuery};

/// Seed-domain tag for epoch salts: `mix2(EPOCH_TAG, epoch_id)`.
const EPOCH_TAG: u64 = 0x6570_6f63_6873_616c;

/// How long an idle connection read blocks before the worker rechecks
/// the stop flag — the upper bound on how long a parked connection can
/// delay a graceful drain.
const READ_TICK: Duration = Duration::from_millis(100);

/// Background epoch-ticker cadence: advance the resident world by
/// `sim_hours` every `wall_ms` of wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickEvery {
    /// Simulated hours each tick advances (same range as `TICK`).
    pub sim_hours: u64,
    /// Wall milliseconds between ticks.
    pub wall_ms: u64,
}

/// How the daemon is provisioned.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 asks the OS for a free port.
    pub addr: String,
    /// The study every query runs against (seed, scale, faults).
    pub study: StudyConfig,
    /// Worker budget for each query's in-stage measurement waves
    /// (scan days, traffic ticks, crawl phases, tracking windows).
    /// Queries run `ExecMode::sequential()`, one stage at a time, so
    /// this never runs stages side by side; consensus rounds run
    /// inline at any value.
    pub wave_threads: usize,
    /// Queries allowed to run concurrently before shedding `BUSY`.
    pub max_inflight: usize,
    /// Default wall-clock budget applied when a query names none.
    pub default_wall_ms: Option<u64>,
    /// Default sim-hours budget applied when a query names none.
    pub default_sim_hours: Option<u64>,
    /// Recompute-cache capacity, in payloads.
    pub cache_capacity: usize,
    /// Optional recompute-cache byte budget; evicts oldest payloads by
    /// approximate weight once exceeded.
    pub cache_budget_bytes: Option<u64>,
    /// Flight-recorder main ring capacity (recent queries).
    pub flight_capacity: usize,
    /// Flight-recorder pinned-error ring capacity.
    pub flight_errors: usize,
    /// Worker threads in the connection pool (minimum 1).
    pub workers: usize,
    /// Connections allowed to wait beyond the busy workers before the
    /// accept loop sheds a connection-level `BUSY`.
    pub pool_queue: usize,
    /// Optional background ticker publishing a new epoch on a cadence.
    pub tick_every: Option<TickEvery>,
    /// Test-only chaos hook: the first admitted `RUN_UNTIL` panics
    /// after announcing `RUNNING`, exercising slot-release on unwind.
    pub chaos_panic_once: bool,
    /// Test-only chaos hook: every tick holds the epoch-build section
    /// (serialized on the tick mutex, *outside* the epoch mutex) for
    /// this many wall milliseconds, widening the window concurrency
    /// tests probe.
    pub chaos_tick_hold_ms: u64,
    /// Stderr logger; `debug` adds one line per connection event.
    pub log: Logger,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            study: StudyConfig::test_scale(),
            wave_threads: 2,
            max_inflight: 4,
            default_wall_ms: None,
            default_sim_hours: None,
            cache_capacity: 32,
            cache_budget_bytes: None,
            flight_capacity: 64,
            flight_errors: 16,
            workers: 4,
            pool_queue: 16,
            tick_every: None,
            chaos_panic_once: false,
            chaos_tick_hold_ms: 0,
            log: Logger::off(),
        }
    }
}

/// One published world version. Immutable once installed; `TICK`
/// replaces the whole struct.
#[derive(Clone, Copy, Debug)]
struct Epoch {
    id: u64,
    salt: u64,
    sim_time_unix: u64,
    world_hash: u64,
    /// When this epoch was installed (wall clock, telemetry only).
    opened_at: Instant,
}

/// The daemon's wall-clock telemetry plane: one [`WallRegistry`] plus
/// cached handles for the hot-path counters. The plain `METRICS`
/// reply and the `METRICS PROM` exposition read the *same* handles, so
/// the two views can never disagree.
///
/// Nothing in here may feed a deterministic artifact or baseline —
/// wall values are masked by the daemon experiment gate.
#[derive(Debug)]
struct Telemetry {
    registry: WallRegistry,
    started: WallCounter,
    completed: WallCounter,
    partial: WallCounter,
    busy: WallCounter,
    cancelled: WallCounter,
    ticks: WallCounter,
    protocol_errors: WallCounter,
    inflight: WallGauge,
    admission_wait_us: WallHistogram,
    query_wall_us: WallHistogram,
}

impl Telemetry {
    fn new() -> Self {
        let registry = WallRegistry::new();
        Telemetry {
            started: registry.counter("queries.started", &[]),
            completed: registry.counter("queries.completed", &[]),
            partial: registry.counter("queries.partial", &[]),
            busy: registry.counter("queries.busy", &[]),
            cancelled: registry.counter("queries.cancelled", &[]),
            ticks: registry.counter("ticks", &[]),
            protocol_errors: registry.counter("protocol.errors", &[]),
            inflight: registry.gauge("inflight", &[]),
            admission_wait_us: registry.histogram("admission.wait_us", &[]),
            query_wall_us: registry.histogram("query.wall_us", &[]),
            registry,
        }
    }

    /// Records one executed stage's wall latency under a `stage` label.
    fn observe_stage(&self, stage: StageId, wall_us: u64) {
        self.registry
            .observe("stage.wall_us", &[("stage", stage.name())], wall_us);
    }
}

/// State shared by every pool worker.
#[derive(Debug)]
struct Shared {
    cfg: DaemonConfig,
    pipeline: hs_landscape::pipeline::Pipeline,
    cache: Arc<MemoryCache>,
    epoch: Mutex<Epoch>,
    /// Serializes epoch advances (manual `TICK` and the background
    /// ticker) without ever blocking epoch *readers*: the expensive
    /// next-epoch build happens under this mutex only, and the `epoch`
    /// mutex above is taken just for the brief read and final swap.
    tick: Mutex<()>,
    pool: Arc<Executor>,
    /// The bound address, used to self-connect and wake a blocking
    /// `accept` when the stop flag flips.
    addr: SocketAddr,
    inflight: AtomicUsize,
    next_id: AtomicU64,
    queries: Mutex<HashMap<u64, CancelToken>>,
    telemetry: Telemetry,
    flight: FlightRecorder,
    started_at: Instant,
    stop: AtomicBool,
    /// Armed copy of [`DaemonConfig::chaos_panic_once`]; the first
    /// admitted query consumes it.
    chaos_panic_run: AtomicBool,
}

/// Unblocks a listener parked in `accept` by completing one throwaway
/// connection to it. Best-effort: if the listener is already gone the
/// connect simply fails.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
}

/// A bound, bootstrapped daemon ready to serve.
#[derive(Debug)]
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a daemon running on a background thread.
#[derive(Debug)]
pub struct DaemonHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    join: Option<thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Asks the serve loop to stop, wakes the blocking accept, and
    /// joins the drained serve thread.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        wake_accept(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        wake_accept(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Poison-tolerant lock: the daemon's shared maps stay usable even if
/// a connection thread panicked while holding one.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Microseconds elapsed since `t`, saturated into `u64`.
fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl Daemon {
    /// Binds the listener and bootstraps epoch 0: one controlled
    /// `Setup` run deposits the resident world into the cache.
    pub fn bind(cfg: DaemonConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pipeline = hs_landscape::pipeline::Pipeline::new(cfg.study.clone());
        let cache = Arc::new(match cfg.cache_budget_bytes {
            Some(budget) => MemoryCache::with_byte_budget(cfg.cache_capacity, budget),
            None => MemoryCache::new(cfg.cache_capacity),
        });
        let salt = mix2(EPOCH_TAG, 0);
        // Pin epoch 0's Setup key before the bootstrap run deposits
        // it: the resident world must never be byte-budget-evicted, or
        // every later TICK would answer `ERR epoch_evicted`.
        let keys = derive_keys(cfg.study.seed, cfg.study.fingerprint(), salt);
        cache.pin(keys[StageId::Setup as usize]);
        let ctl = RunControl {
            cache: Some(cache.clone() as Arc<dyn StageCache>),
            epoch_salt: salt,
            ..RunControl::default()
        };
        let run = pipeline.run_controlled(
            &[StageId::Setup],
            ExecMode::sequential(),
            RunOptions::default(),
            &ctl,
        );
        let (sim_time_unix, world_hash) = match run.artifacts.extract(StageId::Setup) {
            Some(StagePayload::Setup(bundle)) => {
                (bundle.net.time().unix(), bundle.net.state_hash())
            }
            _ => {
                return Err(io::Error::other(
                    "bootstrap failed: setup produced no artifact",
                ))
            }
        };
        let telemetry = Telemetry::new();
        let pool = Arc::new(Executor::new(
            cfg.workers,
            cfg.pool_queue,
            &telemetry.registry,
        ));
        let shared = Arc::new(Shared {
            pipeline,
            cache,
            epoch: Mutex::new(Epoch {
                id: 0,
                salt,
                sim_time_unix,
                world_hash,
                opened_at: Instant::now(),
            }),
            tick: Mutex::new(()),
            pool,
            addr,
            inflight: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            queries: Mutex::new(HashMap::new()),
            telemetry,
            flight: FlightRecorder::new(cfg.flight_capacity, cfg.flight_errors),
            started_at: Instant::now(),
            stop: AtomicBool::new(false),
            chaos_panic_run: AtomicBool::new(cfg.chaos_panic_once),
            cfg,
        });
        Ok(Daemon { listener, shared })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `SHUTDOWN` arrives. Connections are dispatched to
    /// the bounded worker pool; when both the pool and its queue are
    /// full the accept loop answers a typed connection-level `BUSY`
    /// and closes. A connection job that panics takes down only its
    /// connection (the pool's `catch_unwind` wrapper isolates it).
    ///
    /// On stop the loop cancels in-flight queries, drains the pool
    /// (every accepted connection finishes its current request), and
    /// joins the background ticker, so returning means quiescent.
    pub fn run(self) -> io::Result<()> {
        let Daemon { listener, shared } = self;
        let ticker = shared.cfg.tick_every.map(|every| {
            let shared = shared.clone();
            thread::spawn(move || ticker_loop(&shared, every))
        });
        let served = loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if shared.stop.load(Ordering::Acquire) {
                        break Ok(());
                    }
                    dispatch_connection(stream, &shared);
                }
                Err(e) => {
                    if shared.stop.load(Ordering::Acquire) {
                        break Ok(());
                    }
                    break Err(e);
                }
            }
        };
        drop(listener);
        // Graceful drain: wake parked queries so workers can observe
        // the stop flag at the next stage boundary, then let every
        // already-accepted connection finish its current request.
        for token in locked(&shared.queries).values() {
            token.cancel();
        }
        shared.pool.drain();
        if let Some(join) = ticker {
            let _ = join.join();
        }
        served
    }

    /// Runs the serve loop on a background thread and returns a handle
    /// that shuts it down on drop.
    pub fn spawn(self) -> io::Result<DaemonHandle> {
        let addr = self.local_addr()?;
        let shared = self.shared.clone();
        let join = thread::spawn(move || {
            let _ = self.run();
        });
        Ok(DaemonHandle {
            addr,
            shared,
            join: Some(join),
        })
    }
}

/// Offers one accepted connection to the worker pool, shedding a typed
/// connection-level `BUSY` (distinct from the query-level admission
/// `BUSY`) when the pool and its queue are both full.
fn dispatch_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Kept outside the job closure so a refusal can still answer.
    let Ok(mut reject_handle) = stream.try_clone() else {
        return;
    };
    let job_shared = shared.clone();
    let accepted = shared.pool.submit(move || {
        let opened = Instant::now();
        // Held outside `catch_unwind`: the unwind drops the serving
        // halves, but the socket stays open (the client sees no EOF)
        // until the panic evidence below has landed.
        let keep_open = stream.try_clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(stream, &job_shared)));
        if let Err(payload) = outcome {
            // Leave evidence: the pool isolates the panic, but a
            // silently vanished connection is undebuggable.
            job_shared
                .flight
                .record_connection_panic(micros_since(opened));
            job_shared
                .cfg
                .log
                .debug(format_args!("conn: worker job panicked"));
            drop(keep_open);
            // Re-raise so the pool's wrapper counts it in pool.panics.
            resume_unwind(payload);
        }
    });
    if !accepted {
        let pool = &shared.pool;
        let _ = writeln!(
            reject_handle,
            "BUSY pool workers={} queue={}",
            pool.workers(),
            pool.queue_cap()
        );
        shared.telemetry.busy.inc();
        shared.cfg.log.debug(format_args!("conn: shed (pool full)"));
    }
}

/// Background epoch ticker: advances the resident world by
/// `every.sim_hours` each `every.wall_ms`, reusing the exact `TICK`
/// path (same salts, same snapshot isolation) so manually ticked and
/// ticker-driven daemons publish identical epoch sequences.
fn ticker_loop(shared: &Shared, every: TickEvery) {
    let period = Duration::from_millis(every.wall_ms.max(1));
    let mut next = Instant::now() + period;
    while !shared.stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < next {
            // Sleep in short slices so shutdown never waits a period.
            thread::sleep((next - now).min(Duration::from_millis(20)));
            continue;
        }
        match advance_epoch(shared, every.sim_hours) {
            Ok(epoch) => shared.cfg.log.debug(format_args!(
                "ticker: epoch {} sim_time={} world={:016x}",
                epoch.id, epoch.sim_time_unix, epoch.world_hash
            )),
            Err(TickError::Evicted { epoch }) => shared.cfg.log.debug(format_args!(
                "ticker: epoch {epoch} setup payload evicted, tick skipped"
            )),
        }
        next = Instant::now() + period;
    }
}

/// Drives one client connection to EOF or `SHUTDOWN`.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // Bounded reads so a parked worker can observe the stop flag and
    // release itself during a drain.
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_owned());
    let log = shared.cfg.log;
    log.debug(format_args!("conn {peer}: open"));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(BufReader::new(read_half));
    let mut writer = stream;
    loop {
        let line = match reader.next_line_until(&mut || shared.stop.load(Ordering::Acquire)) {
            Ok(Some(Ok(line))) => line,
            Ok(Some(Err(err))) => {
                shared.telemetry.protocol_errors.inc();
                log.debug(format_args!("conn {peer}: framing error ({})", err.reply()));
                if writeln!(writer, "{}", err.reply()).is_err() {
                    return;
                }
                continue;
            }
            Ok(None) | Err(_) => {
                log.debug(format_args!("conn {peer}: close"));
                return;
            }
        };
        let parse_started = Instant::now();
        let request = match parse_request(&line) {
            Ok(req) => req,
            Err(err) => {
                shared.telemetry.protocol_errors.inc();
                log.debug(format_args!("conn {peer}: parse error ({})", err.reply()));
                if writeln!(writer, "{}", err.reply()).is_err() {
                    return;
                }
                continue;
            }
        };
        let parse_us = micros_since(parse_started);
        log.debug(format_args!("conn {peer}: {line}"));
        let done = matches!(request, Request::Shutdown);
        if handle_request(request, parse_us, &peer, shared, &mut writer).is_err() {
            return;
        }
        if done {
            shared.stop.store(true, Ordering::Release);
            wake_accept(shared.addr);
            log.debug(format_args!("conn {peer}: shutdown"));
            return;
        }
        if shared.stop.load(Ordering::Acquire) {
            // Draining: finish the request just served, then close so
            // the worker can retire.
            log.debug(format_args!("conn {peer}: close (drain)"));
            return;
        }
    }
}

/// Executes one parsed request and writes its reply. `parse_us` is the
/// wall time the protocol parser spent on this line; it seeds the
/// flight-recorder span tree for `RUN_UNTIL` queries.
fn handle_request(
    request: Request,
    parse_us: u64,
    peer: &str,
    shared: &Shared,
    w: &mut TcpStream,
) -> io::Result<()> {
    match request {
        Request::Ping => writeln!(w, "OK PONG"),
        Request::Shutdown => writeln!(w, "OK BYE"),
        Request::Status { full } => reply_status(full, shared, w),
        Request::Metrics { prom: false } => reply_metrics(shared, w),
        Request::Metrics { prom: true } => reply_metrics_prom(shared, w),
        Request::Trace(query) => reply_trace(query, shared, w),
        Request::Get { stage, full } => reply_get(stage, full, shared, w),
        Request::Cancel { id } => reply_cancel(id, shared, w),
        Request::Tick { hours } => reply_tick(hours, shared, w),
        Request::RunUntil {
            target,
            wall_ms,
            sim_hours,
        } => reply_run(target, wall_ms, sim_hours, parse_us, peer, shared, w),
    }
}

fn reply_status(full: bool, shared: &Shared, w: &mut TcpStream) -> io::Result<()> {
    let epoch = *locked(&shared.epoch);
    writeln!(w, "OK STATUS")?;
    writeln!(w, "epoch={}", epoch.id)?;
    writeln!(w, "world={:016x}", epoch.world_hash)?;
    writeln!(w, "sim_time={}", epoch.sim_time_unix)?;
    writeln!(w, "inflight={}", shared.inflight.load(Ordering::Acquire))?;
    writeln!(w, "max_inflight={}", shared.cfg.max_inflight)?;
    writeln!(w, "fingerprint={:016x}", shared.cfg.study.fingerprint())?;
    if full {
        // Telemetry extension: wall-clock ages and occupancy figures.
        // Values with a `_ms` suffix are masked by the experiment
        // script's normalizer; the line *set* is deterministic.
        let cache = shared.cache.counters();
        let (recent, errors) = shared.flight.occupancy();
        writeln!(w, "epoch_age_ms={}", epoch.opened_at.elapsed().as_millis())?;
        writeln!(w, "uptime_ms={}", shared.started_at.elapsed().as_millis())?;
        writeln!(w, "cache.entries={}", cache.entries)?;
        writeln!(w, "cache.resident_bytes={}", cache.resident_bytes)?;
        writeln!(
            w,
            "cache.budget_bytes={}",
            shared
                .cfg
                .cache_budget_bytes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "none".to_owned())
        )?;
        writeln!(w, "flight.recent={recent}")?;
        writeln!(w, "flight.errors={errors}")?;
        writeln!(w, "wave_threads={}", shared.cfg.wave_threads)?;
    }
    writeln!(w, ".")
}

fn reply_metrics(shared: &Shared, w: &mut TcpStream) -> io::Result<()> {
    let cache = shared.cache.counters();
    let t = &shared.telemetry;
    writeln!(w, "OK METRICS")?;
    writeln!(w, "cache.hits={}", cache.hits)?;
    writeln!(w, "cache.misses={}", cache.misses)?;
    writeln!(w, "cache.insertions={}", cache.insertions)?;
    writeln!(w, "cache.evictions={}", cache.evictions)?;
    writeln!(w, "cache.entries={}", cache.entries)?;
    writeln!(w, "queries.started={}", t.started.value())?;
    writeln!(w, "queries.completed={}", t.completed.value())?;
    writeln!(w, "queries.partial={}", t.partial.value())?;
    writeln!(w, "queries.busy={}", t.busy.value())?;
    writeln!(w, "queries.cancelled={}", t.cancelled.value())?;
    writeln!(w, "ticks={}", t.ticks.value())?;
    writeln!(w, "protocol.errors={}", t.protocol_errors.value())?;
    writeln!(w, ".")
}

/// `METRICS PROM`: mirrors the scrape-time state (cache counters,
/// inflight, epoch age, ring occupancy) into the registry, then
/// renders the whole thing as Prometheus text exposition.
fn reply_metrics_prom(shared: &Shared, w: &mut TcpStream) -> io::Result<()> {
    let t = &shared.telemetry;
    let reg = &t.registry;
    let cache = shared.cache.counters();
    // Cache counters are owned by the cache itself; `store` mirrors
    // the monotonic values into the registry at scrape time so one
    // snapshot covers every family.
    reg.counter("cache.hits", &[]).store(cache.hits);
    reg.counter("cache.misses", &[]).store(cache.misses);
    reg.counter("cache.insertions", &[]).store(cache.insertions);
    reg.counter("cache.evictions", &[]).store(cache.evictions);
    reg.counter("cache.evicted_bytes", &[])
        .store(cache.evicted_bytes);
    reg.gauge("cache.entries", &[]).set(cache.entries as f64);
    reg.gauge("cache.resident_bytes", &[])
        .set(cache.resident_bytes as f64);
    t.inflight
        .set(shared.inflight.load(Ordering::Acquire) as f64);
    reg.gauge("max_inflight", &[])
        .set(shared.cfg.max_inflight as f64);
    let epoch = *locked(&shared.epoch);
    reg.gauge("epoch", &[]).set(epoch.id as f64);
    reg.gauge("epoch.age_seconds", &[])
        .set(epoch.opened_at.elapsed().as_secs_f64());
    reg.gauge("uptime_seconds", &[])
        .set(shared.started_at.elapsed().as_secs_f64());
    let (recent, errors) = shared.flight.occupancy();
    reg.gauge("flight.recent", &[]).set(recent as f64);
    reg.gauge("flight.errors", &[]).set(errors as f64);
    // Pool occupancy gauges mirror the executor at scrape time; the
    // counter/histogram families are registered by the executor itself.
    let pool = &shared.pool;
    reg.gauge("pool.workers", &[]).set(pool.workers() as f64);
    reg.gauge("pool.busy", &[]).set(pool.busy() as f64);
    reg.gauge("pool.queued", &[]).set(pool.queued() as f64);
    reg.gauge("pool.queue_cap", &[])
        .set(pool.queue_cap() as f64);
    let body = obs::prom::render(&reg.snapshot(), "landscaped");
    writeln!(w, "OK METRICS")?;
    for line in body.lines() {
        writeln!(w, "{line}")?;
    }
    writeln!(w, ".")
}

fn reply_trace(query: TraceQuery, shared: &Shared, w: &mut TcpStream) -> io::Result<()> {
    match query {
        TraceQuery::Query(id) => match shared.flight.get(id) {
            Some(record) => {
                writeln!(w, "OK TRACE")?;
                for line in record.render_tree() {
                    writeln!(w, "{line}")?;
                }
                writeln!(w, ".")
            }
            None => writeln!(w, "ERR unknown_trace: id={id}"),
        },
        TraceQuery::Dump => {
            let json = shared.flight.dump();
            writeln!(w, "OK TRACE")?;
            for line in json.lines() {
                writeln!(w, "{line}")?;
            }
            writeln!(w, ".")
        }
        TraceQuery::Errors => {
            writeln!(w, "OK TRACE")?;
            for (id, outcome, request) in shared.flight.error_summaries() {
                writeln!(w, "id={id} outcome={outcome} request={request}")?;
            }
            writeln!(w, ".")
        }
    }
}

/// The current epoch's cache keys, one per stage.
fn epoch_keys(shared: &Shared, salt: u64) -> [CacheKey; 9] {
    derive_keys(shared.cfg.study.seed, shared.cfg.study.fingerprint(), salt)
}

fn reply_get(stage: StageId, full: bool, shared: &Shared, w: &mut TcpStream) -> io::Result<()> {
    let epoch = *locked(&shared.epoch);
    let keys = epoch_keys(shared, epoch.salt);
    // `fetch_uncounted`: a read-only artifact query must not skew the
    // recompute cache's hit/miss statistics.
    match shared.cache.fetch_uncounted(keys[stage as usize]) {
        Some(payload) => {
            writeln!(w, "OK GET {stage}")?;
            let lines = if full {
                render_full(&payload)
            } else {
                summarize(&payload)
            };
            for line in lines {
                writeln!(w, "{line}")?;
            }
            writeln!(w, ".")
        }
        None => {
            // Typed miss instead of an implicit (expensive) recompute:
            // name the dependency chain the client would have to run.
            let needs: Vec<&str> = StageId::closure(&[stage])
                .into_iter()
                .map(StageId::name)
                .collect();
            writeln!(w, "NOT_BUILT {stage} needs={}", needs.join(","))
        }
    }
}

/// Deterministic one-per-line key=value summary of a cached artifact.
fn summarize(payload: &StagePayload) -> Vec<String> {
    match payload {
        StagePayload::Setup(b) => vec![
            format!("services={}", b.world.services().len()),
            format!("attacker_guards={}", b.attacker_guards.len()),
            format!("world={:016x}", b.net.state_hash()),
        ],
        StagePayload::Harvest(b) => vec![
            format!("onions={}", b.harvest.onions.len()),
            format!("requests={}", b.harvest.requests.len()),
            format!("waves={}", b.harvest.waves),
        ],
        StagePayload::DeanonWindow(o) => {
            vec![format!("observations={}", o.observations.len())]
        }
        StagePayload::PortScan(r) => vec![
            format!("targets={}", r.targets),
            format!("with_descriptors={}", r.with_descriptors),
            format!(
                "open_ports={}",
                r.open_by_port.values().map(|&n| u64::from(n)).sum::<u64>()
            ),
        ],
        StagePayload::Geomap(r) => vec![
            format!("unique_clients={}", r.unique_clients),
            format!("countries={}", r.geomap.rows().len()),
        ],
        StagePayload::Certs(s) => vec![
            format!("https={}", s.https_destinations),
            format!("self_signed={}", s.self_signed_mismatch),
            format!("clearnet_dns={}", s.clearnet_dns),
        ],
        StagePayload::Crawl(r) => vec![
            format!("attempted={}", r.attempted),
            format!("connected={}", r.connected),
        ],
        StagePayload::Popularity(p) => vec![
            format!("resolved_onions={}", p.resolution.resolved_onions),
            format!("ranked={}", p.ranking.rows().len()),
        ],
        StagePayload::Tracking(t) => vec![format!("years={}", t.years.len())],
    }
}

/// `GET <stage> FULL`: the same Table/Fig renders the batch CLI
/// prints for this stage, streamed line by line. Stages with no batch
/// render (the sim-bundle payloads: setup, harvest, deanon window)
/// fall back to the deterministic summary. No render emits a lone `.`
/// line, so the multi-line framing is safe.
fn render_full(payload: &StagePayload) -> Vec<String> {
    use hs_landscape::report;
    let blocks = match payload {
        StagePayload::PortScan(r) => vec![report::render_fig1(r)],
        StagePayload::Crawl(r) => vec![
            report::render_table1(r),
            report::render_funnel_and_languages(r),
            report::render_fig2(r),
        ],
        StagePayload::Popularity(p) => {
            let mut blocks = vec![
                report::render_table2(&p.ranking, 30),
                report::render_sec5(&p.resolution, p.requested_published_share),
            ];
            if let Some(sketch) = &p.sketch {
                blocks.push(report::render_sketch(sketch));
            }
            blocks
        }
        StagePayload::Certs(s) => vec![report::render_certs(s)],
        StagePayload::Geomap(r) => vec![report::render_fig3(r)],
        StagePayload::Tracking(t) => vec![report::render_tracking(t)],
        other => return summarize(other),
    };
    blocks
        .iter()
        .flat_map(|block| block.lines().map(str::to_owned))
        .collect()
}

fn reply_cancel(id: u64, shared: &Shared, w: &mut TcpStream) -> io::Result<()> {
    let token = locked(&shared.queries).get(&id).cloned();
    match token {
        Some(token) => {
            token.cancel();
            writeln!(w, "OK CANCEL id={id}")
        }
        None => writeln!(w, "ERR unknown_query: id={id}"),
    }
}

/// Why an epoch advance could not happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TickError {
    /// The resident epoch's Setup payload was not in the cache. With
    /// the pin installed at bind/swap this is unreachable, but the
    /// typed reply stays as a safety net.
    Evicted {
        /// The epoch whose payload was missing.
        epoch: u64,
    },
}

/// Advances the resident world by `hours` and publishes the next
/// epoch. Shared by `TICK` and the background ticker.
///
/// Locking: concurrent advances serialize on the dedicated `tick`
/// mutex. The `epoch` mutex — which `STATUS`, `METRICS PROM`, `GET`
/// and admission all take — is held only for the initial copy-out and
/// the final swap, never across the expensive clone, advance, and
/// rebuild, so readers proceed during a long tick. The tick mutex
/// makes the copy/swap pair atomic: nothing else mutates the epoch.
fn advance_epoch(shared: &Shared, hours: u64) -> Result<Epoch, TickError> {
    let _serialize = locked(&shared.tick);
    let epoch = *locked(&shared.epoch);
    let keys = epoch_keys(shared, epoch.salt);
    let Some(StagePayload::Setup(bundle)) =
        shared.cache.fetch_uncounted(keys[StageId::Setup as usize])
    else {
        return Err(TickError::Evicted { epoch: epoch.id });
    };
    if shared.cfg.chaos_tick_hold_ms > 0 {
        // Chaos hook: stretch the build section so concurrency tests
        // can prove readers are not blocked during it.
        thread::sleep(Duration::from_millis(shared.cfg.chaos_tick_hold_ms));
    }
    let mut net = bundle.net.clone();
    net.advance_hours(hours);
    let next = Epoch {
        id: epoch.id + 1,
        salt: mix2(EPOCH_TAG, epoch.id + 1),
        sim_time_unix: net.time().unix(),
        world_hash: net.state_hash(),
        opened_at: Instant::now(),
    };
    // Only the network advances: the next epoch shares everything else.
    let next_bundle = hs_landscape::pipeline::SetupBundle {
        world: Arc::clone(&bundle.world),
        geo: Arc::clone(&bundle.geo),
        attacker_guards: Arc::clone(&bundle.attacker_guards),
        traffic: Arc::clone(&bundle.traffic),
        net,
    };
    let next_keys = epoch_keys(shared, next.salt);
    // Pin-before-insert so no concurrent insert can evict the next
    // epoch's payload in the gap; both epochs stay pinned until the
    // swap lands, then the old one becomes evictable again.
    shared.cache.pin(next_keys[StageId::Setup as usize]);
    shared.cache.insert(
        next_keys[StageId::Setup as usize],
        StagePayload::Setup(Arc::new(next_bundle)),
    );
    *locked(&shared.epoch) = next;
    shared.cache.unpin(keys[StageId::Setup as usize]);
    shared.telemetry.ticks.inc();
    Ok(next)
}

fn reply_tick(hours: u64, shared: &Shared, w: &mut TcpStream) -> io::Result<()> {
    match advance_epoch(shared, hours) {
        Ok(next) => writeln!(
            w,
            "OK TICK hours={hours} epoch={} sim_time={} world={:016x}",
            next.id, next.sim_time_unix, next.world_hash
        ),
        Err(TickError::Evicted { epoch }) => writeln!(
            w,
            "ERR epoch_evicted: epoch {epoch} setup payload no longer cached"
        ),
    }
}

/// RAII admission slot: releases the inflight reservation and the
/// `queries`-map cancel token when dropped — including on unwind, so
/// a stage panic escaping `run_controlled` can no longer leak its
/// slot and wedge the daemon into shedding `BUSY` forever.
#[derive(Debug)]
struct SlotGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        locked(&self.shared.queries).remove(&self.id);
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Admission, execution, and the terminal reply for `RUN_UNTIL`.
/// Besides the reply, every admitted query leaves a wall-clock span
/// tree (parse → admission → run → stage attempts → render) in the
/// flight recorder.
fn reply_run(
    target: Target,
    wall_ms: Option<u64>,
    sim_hours: Option<u64>,
    parse_us: u64,
    peer: &str,
    shared: &Shared,
    w: &mut TcpStream,
) -> io::Result<()> {
    let t = &shared.telemetry;
    let query_started = Instant::now();
    // Admission control: reserve a slot or shed immediately.
    let mut inflight = shared.inflight.load(Ordering::Acquire);
    loop {
        if inflight >= shared.cfg.max_inflight {
            t.busy.inc();
            t.admission_wait_us.observe(micros_since(query_started));
            return writeln!(
                w,
                "BUSY inflight={inflight} max={}",
                shared.cfg.max_inflight
            );
        }
        match shared.inflight.compare_exchange_weak(
            inflight,
            inflight + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => break,
            Err(actual) => inflight = actual,
        }
    }
    // All span offsets are micros since parse start; admission and
    // everything after it happened `parse_us` into the query.
    let admitted_at = parse_us + micros_since(query_started);
    t.admission_wait_us.observe(admitted_at - parse_us);

    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let token = CancelToken::new();
    locked(&shared.queries).insert(id, token.clone());
    // From here the reserved slot and the queries entry are released
    // by the guard's Drop on *every* exit path, panics included.
    let slot = SlotGuard { shared, id };
    t.started.inc();
    shared.cfg.log.debug(format_args!(
        "conn {peer}: query id={id} target={target} admitted"
    ));

    // Announce the id before doing any work, so a second connection
    // can CANCEL this query while it runs.
    let announced = writeln!(w, "RUNNING id={id}").and_then(|()| w.flush());

    if shared.chaos_panic_run.swap(false, Ordering::AcqRel) {
        // Chaos hook: simulate a panic escaping the run path (e.g. a
        // poisoned analysis scope) after the slot is held.
        panic!("chaos: injected panic after admission (query id={id})");
    }

    let epoch = *locked(&shared.epoch);
    let wall = wall_ms.or(shared.cfg.default_wall_ms);
    let ctl = RunControl {
        cancel: token.clone(),
        wall_deadline: wall.map(|ms| Instant::now() + Duration::from_millis(ms)),
        sim_budget_hours: sim_hours.or(shared.cfg.default_sim_hours),
        cache: Some(shared.cache.clone() as Arc<dyn StageCache>),
        epoch_salt: epoch.salt,
    };
    let mode = ExecMode::sequential().with_wave_threads(shared.cfg.wave_threads);
    let run_started_at = parse_us + micros_since(query_started);
    let run = shared
        .pipeline
        .run_controlled(&target.stages(), mode, RunOptions::default(), &ctl);
    let run_ended_at = parse_us + micros_since(query_started);

    // Release the slot at the same point the pre-guard code did, so
    // admission capacity frees before the reply renders.
    drop(slot);
    for timing in &run.timings.executed {
        t.observe_stage(
            timing.stage,
            u64::try_from(timing.wall.as_micros()).unwrap_or(u64::MAX),
        );
    }
    announced?;

    // Containment proof: the epoch's resident world, re-hashed after
    // the query. Immutable payloads make this equal to the pre-query
    // hash no matter how the query ended. Cache hits install pointers,
    // so this re-hash is most of a cached query's cost; it is kept on
    // purpose, since memoizing it would prove nothing.
    let world_after = match shared
        .cache
        .fetch_uncounted(epoch_keys(shared, epoch.salt)[StageId::Setup as usize])
    {
        Some(StagePayload::Setup(bundle)) => bundle.net.state_hash(),
        _ => epoch.world_hash,
    };
    let render_started_at = parse_us + micros_since(query_started);
    let written = write_run_reply(id, &epoch, world_after, &run, shared, w);
    let total_us = parse_us + micros_since(query_started);
    let outcome = match &written {
        Ok(outcome) => *outcome,
        Err(_) => QueryOutcome::Err,
    };
    t.query_wall_us.observe(total_us);
    shared.flight.record(flight_record(
        id,
        target,
        outcome,
        parse_us,
        admitted_at,
        run_started_at,
        run_ended_at,
        render_started_at,
        total_us,
        &run,
    ));
    shared.cfg.log.debug(format_args!(
        "conn {peer}: query id={id} outcome={} wall_us={total_us}",
        outcome.name()
    ));
    written.map(|_| ())
}

/// Assembles the wall-clock span tree for one completed query. Stage
/// spans are laid out cumulatively inside the `run` span in execution
/// order — an approximation when a forked level overlaps stages,
/// exact under sequential execution (the daemon's mode).
#[allow(clippy::too_many_arguments)]
fn flight_record(
    id: u64,
    target: Target,
    outcome: QueryOutcome,
    parse_us: u64,
    admitted_at: u64,
    run_started_at: u64,
    run_ended_at: u64,
    render_started_at: u64,
    total_us: u64,
    run: &PipelineRun,
) -> QueryRecord {
    let mut spans = Vec::new();
    let mut events = Vec::new();
    let wall_span = |name: String, cat: &'static str, start: u64, end: u64| Span {
        name,
        cat,
        sim_start: 0,
        sim_end: 0,
        wall_us: Some((start, end)),
        args: Vec::new(),
    };
    let mut query_span = wall_span("query".to_owned(), "query", 0, total_us);
    query_span.args.push(("id", id));
    spans.push(query_span);
    spans.push(wall_span("parse".to_owned(), "query", 0, parse_us));
    spans.push(wall_span(
        "admission".to_owned(),
        "query",
        parse_us,
        admitted_at,
    ));
    let mut run_span = wall_span("run".to_owned(), "query", run_started_at, run_ended_at);
    run_span
        .args
        .push(("ran", run.timings.executed.len() as u64));
    spans.push(run_span);
    let mut cursor = run_started_at;
    for timing in &run.timings.executed {
        let wall_us = u64::try_from(timing.wall.as_micros()).unwrap_or(u64::MAX);
        let cached = timing.counter("stage_cache_hit").is_some();
        let mut span = wall_span(
            format!("stage:{}", timing.stage.name()),
            "stage",
            cursor,
            cursor.saturating_add(wall_us),
        );
        if cached {
            span.args.push(("cached", 1));
            events.push(TraceEvent {
                kind: EventKind::Cache,
                sim_at: 0,
                wall_us: Some(cursor),
                args: vec![("stage", timing.stage as u64)],
            });
        }
        spans.push(span);
        cursor = cursor.saturating_add(wall_us);
    }
    for degraded in &run.timings.degraded {
        events.push(TraceEvent {
            kind: EventKind::Degraded,
            sim_at: 0,
            wall_us: Some(run_ended_at),
            args: vec![
                ("stage", degraded.stage as u64),
                ("attempts", u64::from(degraded.attempts)),
            ],
        });
    }
    if run.halt.is_some() {
        events.push(TraceEvent {
            kind: EventKind::Halt,
            sim_at: 0,
            wall_us: Some(run_ended_at),
            args: vec![("halted", run.timings.halted.len() as u64)],
        });
    }
    spans.push(wall_span(
        "render".to_owned(),
        "query",
        render_started_at,
        total_us,
    ));
    QueryRecord {
        id,
        request: format!("RUN_UNTIL {target}"),
        outcome,
        spans,
        events,
    }
}

fn write_run_reply(
    id: u64,
    epoch: &Epoch,
    world_after: u64,
    run: &PipelineRun,
    shared: &Shared,
    w: &mut TcpStream,
) -> io::Result<QueryOutcome> {
    let t = &shared.telemetry;
    let ran = run.timings.executed.len();
    let cached = run
        .timings
        .executed
        .iter()
        .filter(|t| t.counters.iter().any(|&(k, _)| k == "stage_cache_hit"))
        .count();
    let tail = format!(
        "ran={ran} cached={cached} epoch={} world={world_after:016x}",
        epoch.id
    );
    if let Some(halt) = &run.halt {
        if matches!(halt, hs_landscape::Halt::Cancelled) {
            t.cancelled.inc();
        }
        t.partial.inc();
        return writeln!(
            w,
            "PARTIAL RUN id={id} halt={} halted={} {tail}",
            halt.name(),
            run.timings.halted.len()
        )
        .map(|()| QueryOutcome::Partial);
    }
    if !run.timings.degraded.is_empty() {
        let names: Vec<&str> = run
            .timings
            .degraded
            .iter()
            .map(|d| d.stage.name())
            .collect();
        t.partial.inc();
        return writeln!(w, "PARTIAL RUN id={id} degraded={} {tail}", names.join(","))
            .map(|()| QueryOutcome::Partial);
    }
    t.completed.inc();
    writeln!(w, "OK RUN id={id} {tail}").map(|()| QueryOutcome::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The resident epoch's Setup bundle, straight from the cache.
    fn resident_setup(shared: &Shared) -> Arc<hs_landscape::pipeline::SetupBundle> {
        let salt = locked(&shared.epoch).salt;
        match shared
            .cache
            .fetch_uncounted(epoch_keys(shared, salt)[StageId::Setup as usize])
        {
            Some(StagePayload::Setup(bundle)) => bundle,
            other => panic!("no resident Setup payload: {other:?}"),
        }
    }

    #[test]
    fn tick_shares_everything_but_the_network_with_the_previous_epoch() {
        let daemon = Daemon::bind(DaemonConfig::default()).expect("bind");
        let shared = &daemon.shared;
        let before = resident_setup(shared);
        let next = advance_epoch(shared, 6).expect("tick");
        assert_eq!(next.id, 1);
        let after = resident_setup(shared);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a tick publishes a new bundle"
        );
        assert!(Arc::ptr_eq(&before.world, &after.world));
        assert!(Arc::ptr_eq(&before.geo, &after.geo));
        assert!(Arc::ptr_eq(&before.attacker_guards, &after.attacker_guards));
        assert!(Arc::ptr_eq(&before.traffic, &after.traffic));
        assert_eq!(
            after.net.time().unix(),
            before.net.time().unix() + 6 * 3600,
            "only the network advanced"
        );
    }
}
