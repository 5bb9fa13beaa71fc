//! The `landscaped` child process and the request phases the serve
//! workloads drive through `hs_serve::Client`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hs_serve::Client;

use crate::stats::Tally;
use crate::trace::{Span, Tracer};

/// The daemon's worker pool and admission limit for `conns` benchmark
/// connections. An open connection holds a pool worker and a running
/// `RUN_UNTIL` holds an admission slot, so both cover every connection
/// plus two spares: a probe or control connection, and a closed
/// connection whose worker has not yet seen the close. With the
/// daemon's defaults (4 workers, 4 in flight) a fifth connection would
/// wait in the pool queue until another one closes, and a phase whose
/// connections wait for each other would never end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    /// `--workers`.
    pub workers: usize,
    /// `--max-inflight`.
    pub max_inflight: usize,
}

impl Pool {
    /// The pool for `conns` concurrent connections.
    pub fn for_conns(conns: usize) -> Pool {
        Pool {
            workers: conns + 2,
            max_inflight: conns + 2,
        }
    }
}

fn lock(child: &Mutex<Child>) -> std::sync::MutexGuard<'_, Child> {
    child.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The resident `landscaped` child. A watchdog kills it if it is still
/// running at the run's deadline: a request that never gets its reply
/// then fails instead of hanging the run. Dropping the daemon kills and
/// reaps the process if it is still running.
#[derive(Debug)]
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    /// `127.0.0.1:<port>`.
    pub addr: String,
    /// Dropping it stops the watchdog.
    disarm: Option<Sender<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `landscaped serve` at `scale` with one wave thread and
    /// `pool`, and waits for its port file. The daemon bootstraps its
    /// world before binding, so this returns once setup is done.
    pub fn spawn(
        bin: &Path,
        scale: &str,
        seed: u64,
        dir: &Path,
        pool: Pool,
        deadline: Instant,
    ) -> Result<Daemon, String> {
        let port_file = dir.join(format!("port-{}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(dir.join("landscaped.log"))
            .map_err(|e| format!("cannot create daemon log: {e}"))?;
        let child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--scale",
                scale,
                "--threads",
                "1",
            ])
            .arg("--workers")
            .arg(pool.workers.to_string())
            .arg("--max-inflight")
            .arg(pool.max_inflight.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let child = Arc::new(Mutex::new(child));
        let (disarm, disarmed) = mpsc::channel::<()>();
        let victim = Arc::clone(&child);
        let watchdog = std::thread::spawn(move || {
            let left = deadline.saturating_duration_since(Instant::now());
            if let Err(RecvTimeoutError::Timeout) = disarmed.recv_timeout(left) {
                eprintln!("perfbench: run deadline passed, killing landscaped");
                let _ = lock(&victim).kill();
            }
        });
        let mut daemon = Daemon {
            child,
            pid,
            addr: String::new(),
            disarm: Some(disarm),
            watchdog: Some(watchdog),
        };
        let give_up = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    daemon.addr = format!("127.0.0.1:{port}");
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.try_wait() {
                return Err(format!("landscaped exited during startup: {status}"));
            }
            if Instant::now() > give_up {
                return Err("landscaped never wrote its port file".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn try_wait(&self) -> io::Result<Option<std::process::ExitStatus>> {
        lock(&self.child).try_wait()
    }

    /// A new protocol connection.
    pub fn connect(&self) -> Result<Client, String> {
        connect(&self.addr)
    }

    /// Peak resident set of the daemon since it started, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        crate::host::peak_rss_mib(&self.pid.to_string())
    }

    /// Asks the daemon to exit and reaps it; kills it if it lingers.
    pub fn shutdown(self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.request("SHUTDOWN").map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.try_wait() {
                Ok(Some(_)) => return asked.map(|_| ()),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("cannot wait for landscaped: {e}")),
            }
        }
        Err("landscaped did not exit after SHUTDOWN".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.disarm.take());
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        let mut child = lock(&self.child);
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// A new protocol connection to `addr`.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// The requests the serve workloads send.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Req {
    /// `RUN_UNTIL popularity`.
    RunPopularity,
    /// `RUN_UNTIL crawl`.
    RunCrawl,
    /// `GET popularity FULL`.
    Read,
    /// `METRICS PROM`.
    Scrape,
    /// `STATUS`.
    Status,
    /// `TICK 1`.
    Tick,
}

/// Latency classes, one per request a caller waits on, so a class
/// median never falls between two costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Cache-hit `RUN_UNTIL popularity`.
    Popularity,
    /// Cache-hit `RUN_UNTIL crawl`.
    Crawl,
    /// `GET popularity FULL`.
    Read,
    /// `METRICS PROM`.
    Scrape,
    /// `STATUS`.
    Status,
    /// `TICK 1`.
    Tick,
    /// The `RUN_UNTIL popularity` that recomputes after a tick.
    Refresh,
}

/// Number of [`Class`] values.
pub const CLASSES: usize = 7;

impl Class {
    /// Every class, in index order.
    pub const ALL: [Class; CLASSES] = [
        Class::Popularity,
        Class::Crawl,
        Class::Read,
        Class::Scrape,
        Class::Status,
        Class::Tick,
        Class::Refresh,
    ];

    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Popularity => "popularity",
            Class::Crawl => "crawl",
            Class::Read => "read",
            Class::Scrape => "scrape",
            Class::Status => "status",
            Class::Tick => "tick",
            Class::Refresh => "refresh",
        }
    }
}

impl Req {
    /// The protocol line.
    pub fn line(self) -> &'static str {
        match self {
            Req::RunPopularity => "RUN_UNTIL popularity",
            Req::RunCrawl => "RUN_UNTIL crawl",
            Req::Read => "GET popularity FULL",
            Req::Scrape => "METRICS PROM",
            Req::Status => "STATUS",
            Req::Tick => "TICK 1",
        }
    }

    /// The latency class on the hot path.
    pub fn class(self) -> Class {
        match self {
            Req::RunPopularity => Class::Popularity,
            Req::RunCrawl => Class::Crawl,
            Req::Read => Class::Read,
            Req::Scrape => Class::Scrape,
            Req::Status => Class::Status,
            Req::Tick => Class::Tick,
        }
    }
}

/// A round of the hot mix: every connection sends the round's requests
/// in equal numbers.
#[derive(Debug)]
pub struct Round {
    /// Name for reports.
    pub name: &'static str,
    /// The requests the round sends.
    pub kinds: &'static [Req],
}

/// The rounds of the hot mix; each cycle runs one of each. The mix has
/// no weights to choose: every round sends the same number of
/// requests, and each request's figures come only from its own round.
/// The cache-hit queries share a round because they cost within 10% of
/// each other.
pub const HOT_ROUNDS: [Round; 4] = [
    Round {
        name: "query",
        kinds: &[Req::RunPopularity, Req::RunCrawl],
    },
    Round {
        name: "read",
        kinds: &[Req::Read],
    },
    Round {
        name: "scrape",
        kinds: &[Req::Scrape],
    },
    Round {
        name: "status",
        kinds: &[Req::Status],
    },
];

/// Index of the query round in [`HOT_ROUNDS`].
pub const QUERY_ROUND: usize = 0;

/// Rounds in one cycle of the hot mix.
pub const ROUNDS_PER_CYCLE: usize = HOT_ROUNDS.len();

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// SplitMix64, kept here so the request order never depends on code
/// under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        r.next();
        r
    }

    /// The next value.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The rounds of `cycles` cycles of the hot mix, as indices into
/// [`HOT_ROUNDS`]: each cycle holds every round once, in a seeded order
/// that all connections share. A pure function of its arguments.
pub fn hot_rounds(seed: u64, cycles: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0);
    let mut out = Vec::with_capacity(cycles * ROUNDS_PER_CYCLE);
    for _ in 0..cycles {
        let mut deck: [usize; ROUNDS_PER_CYCLE] = std::array::from_fn(|i| i);
        shuffle(&mut deck, &mut rng);
        out.extend_from_slice(&deck);
    }
    out
}

/// The requests connection `conn` sends in each of `rounds`:
/// `per_round` requests dealt evenly over the round's kinds, in a
/// seeded order of the connection's own. A pure function of its
/// arguments.
pub fn hot_sequence(seed: u64, conn: usize, rounds: &[usize], per_round: usize) -> Vec<Vec<Req>> {
    let mut rng = Rng::new(seed, conn as u64 + 1);
    rounds
        .iter()
        .map(|&round| {
            let kinds = HOT_ROUNDS[round].kinds;
            let mut reqs: Vec<Req> = (0..per_round).map(|i| kinds[i % kinds.len()]).collect();
            shuffle(&mut reqs, &mut rng);
            reqs
        })
        .collect()
}

/// What a healthy reply must show.
#[derive(Clone, Debug, Default)]
pub struct Expect {
    /// The resident epoch.
    pub epoch: u64,
    /// The epoch's world hash, as `STATUS` reports it.
    pub world: String,
    /// Simulated time of the epoch.
    pub sim_time: u64,
    /// The body of `GET popularity FULL`, framing excluded.
    pub read_body: Vec<String>,
}

/// `key=value` from a space-separated reply line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// The status line of a reply that refuses or cuts short the request.
/// Only the head line can say so, or for `RUN_UNTIL` the line after
/// `RUNNING`; payload lines are never read as a status.
fn refusal(reply: &[String]) -> Option<&str> {
    let head = reply.first()?;
    let status = if head.starts_with("RUNNING ") {
        reply.get(1)?
    } else {
        head
    };
    ["ERR", "BUSY", "PARTIAL", "NOT_BUILT", "ERROR"]
        .iter()
        .any(|p| status.starts_with(p))
        .then_some(status.as_str())
}

/// Checks a `RUN_UNTIL` reply: `OK RUN` with every stage a cache hit
/// (`cached == ran`) when `all_cached`, on `expect`'s epoch and world.
pub fn check_run(reply: &[String], expect: &Expect, all_cached: bool) -> Result<(), String> {
    if let Some(line) = refusal(reply) {
        return Err(format!("refused: {line}"));
    }
    let [running, done] = reply else {
        return Err(format!("RUN_UNTIL: bad framing {reply:?}"));
    };
    if !running.starts_with("RUNNING id=") || !done.starts_with("OK RUN ") {
        return Err(format!("RUN_UNTIL: unexpected reply {reply:?}"));
    }
    let ran = field(done, "ran");
    if all_cached && (ran.is_none() || ran != field(done, "cached")) {
        return Err(format!("RUN_UNTIL recomputed on a warm cache: {done}"));
    }
    if field(done, "world") != Some(expect.world.as_str()) {
        return Err(format!("world hash moved: {done} vs {}", expect.world));
    }
    if field(done, "epoch") != Some(expect.epoch.to_string().as_str()) {
        return Err(format!("wrong epoch: {done} vs {}", expect.epoch));
    }
    Ok(())
}

/// The body of a `.`-terminated reply whose head is `head`.
pub fn body<'a>(reply: &'a [String], head: &str) -> Result<&'a [String], String> {
    if let Some(line) = refusal(reply) {
        return Err(format!("refused: {line}"));
    }
    match reply {
        [first, rest @ .., last] if first == head && last == "." => Ok(rest),
        _ => Err(format!("expected `{head}` … `.`, got {:?}", reply.first())),
    }
}

/// Checks a reply of the hot mix against `expect`. Scrape bodies are
/// parsed separately (first and last only) to keep client-side work
/// out of the timed loop.
pub fn check_hot(req: Req, reply: &[String], expect: &Expect) -> Result<(), String> {
    match req {
        Req::RunPopularity | Req::RunCrawl => check_run(reply, expect, true),
        Req::Read => {
            if body(reply, "OK GET popularity")? == expect.read_body.as_slice() {
                Ok(())
            } else {
                Err("GET popularity FULL body changed within the run".into())
            }
        }
        Req::Scrape => body(reply, "OK METRICS").map(|_| ()),
        Req::Status => {
            let lines = body(reply, "OK STATUS")?;
            let world = lines.iter().find_map(|l| l.strip_prefix("world="));
            if world == Some(expect.world.as_str()) {
                Ok(())
            } else {
                Err(format!("STATUS world {world:?} vs {}", expect.world))
            }
        }
        Req::Tick => Err("TICK is not part of the hot mix".into()),
    }
}

/// Parses a `METRICS PROM` reply's body as Prometheus exposition.
pub fn parse_scrape(reply: &[String]) -> Result<obs::prom::Exposition, String> {
    let lines = body(reply, "OK METRICS")?;
    let mut text = lines.join("\n");
    text.push('\n');
    obs::prom::parse_exposition(&text).map_err(|e| format!("METRICS PROM does not parse: {e}"))
}

/// Sends one request and times it. An I/O error is a failed request.
pub fn timed(client: &mut Client, line: &str) -> (Result<Vec<String>, String>, Instant, Instant) {
    let start = Instant::now();
    let reply = client.request(line).map_err(|e| format!("{line}: {e}"));
    (reply, start, Instant::now())
}

/// Everything one request phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Latency samples in ms, per [`Class`].
    pub lat_ms: [Vec<f64>; CLASSES],
    /// Reply lines received, per [`Class`].
    pub lines: [u64; CLASSES],
    /// Requests per second of each hot round, per [`HOT_ROUNDS`] entry.
    pub rates: [Vec<f64>; ROUNDS_PER_CYCLE],
    /// Requests per second of each tick cycle.
    pub cycle_rate: Vec<f64>,
    /// Requests attempted and failed.
    pub tally: Tally,
    /// Per-request spans (traced runs only).
    pub spans: Vec<Span>,
    /// The first and last `METRICS PROM` replies of each connection.
    pub scrapes: Vec<Vec<String>>,
}

impl PhaseOut {
    /// Folds another phase's samples into this one.
    pub fn merge(&mut self, other: PhaseOut) {
        for c in 0..CLASSES {
            self.lat_ms[c].extend_from_slice(&other.lat_ms[c]);
            self.lines[c] += other.lines[c];
        }
        for (mine, theirs) in self.rates.iter_mut().zip(other.rates) {
            mine.extend(theirs);
        }
        self.cycle_rate.extend(other.cycle_rate);
        self.tally.merge(other.tally);
        self.spans.extend(other.spans);
        self.scrapes.extend(other.scrapes);
    }
}

/// Tracing context for a phase: the shared origin and the span index
/// of each round.
#[derive(Clone, Copy, Debug)]
pub struct SpanCtx<'a> {
    /// Trace origin.
    pub origin: Instant,
    /// Span index of each round.
    pub rounds: &'a [usize],
}

fn span_us(origin: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(origin).as_secs_f64() * 1e6
}

/// The hot mix on the daemon at `addr`: `cycles` cycles of
/// [`hot_rounds`], each round started together behind a barrier by
/// `conns` closed-loop connections that send `per_round` requests each.
/// Returns the merged samples and the request rate of every round
/// under its [`HOT_ROUNDS`] entry.
pub fn hot_phase(
    addr: &str,
    seed: u64,
    conns: usize,
    cycles: usize,
    per_round: usize,
    expect: &Expect,
    trace: Option<SpanCtx<'_>>,
) -> Result<PhaseOut, String> {
    let rounds = hot_rounds(seed, cycles);
    let mut clients = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(conns + 1);
    let mut walls = Vec::with_capacity(rounds.len());
    let parts: Vec<PhaseOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let seq = hot_sequence(seed, conn, &rounds, per_round);
                let barrier = &barrier;
                scope.spawn(move || hot_connection(client, conn, &seq, expect, barrier, trace))
            })
            .collect();
        for _ in &rounds {
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            walls.push(start.elapsed().as_secs_f64());
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut out = PhaseOut::default();
    for part in parts {
        out.merge(part);
    }
    let sent = (conns * per_round) as f64;
    for (&round, wall) in rounds.iter().zip(walls) {
        out.rates[round].push(sent / wall);
    }
    Ok(out)
}

/// One timed request: records its latency and reply lines under
/// `class`, a span under round `round` when tracing, and in the tally
/// the I/O error or what `check` makes of the reply.
fn exchange(
    client: &mut Client,
    out: &mut PhaseOut,
    class: Class,
    line: &str,
    trace: Option<(SpanCtx<'_>, usize, u64)>,
    check: impl FnOnce(Vec<String>) -> Result<(), String>,
) -> Result<(), String> {
    let (reply, start, end) = timed(client, line);
    out.lat_ms[class as usize].push((end - start).as_secs_f64() * 1e3);
    if let Some((ctx, round, id)) = trace {
        out.spans.push(Span {
            name: line.to_owned(),
            layer: "serve",
            parent: Some(ctx.rounds[round]),
            id,
            start_us: span_us(ctx.origin, start),
            end_us: span_us(ctx.origin, end),
        });
    }
    let outcome = reply.and_then(|reply| {
        out.lines[class as usize] += reply.len() as u64;
        check(reply)
    });
    out.tally.record(outcome.clone());
    outcome
}

/// One connection of the hot mix: sends round `r` of `seq` between the
/// barrier that starts the round and the one that ends it.
fn hot_connection(
    client: &mut Client,
    conn: usize,
    seq: &[Vec<Req>],
    expect: &Expect,
    barrier: &Barrier,
    trace: Option<SpanCtx<'_>>,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let (mut first_scrape, mut last_scrape) = (None, None);
    for (r, round) in seq.iter().enumerate() {
        barrier.wait();
        for (i, &req) in round.iter().enumerate() {
            let id = ((conn * seq.len() + r) * round.len() + i) as u64;
            let span = trace.map(|ctx| (ctx, r, id));
            let _ = exchange(client, &mut out, req.class(), req.line(), span, |reply| {
                let checked = check_hot(req, &reply, expect);
                if req == Req::Scrape {
                    let slot = if first_scrape.is_none() {
                        &mut first_scrape
                    } else {
                        &mut last_scrape
                    };
                    *slot = Some(reply);
                }
                checked
            });
        }
        barrier.wait();
    }
    out.scrapes
        .extend(first_scrape.into_iter().chain(last_scrape));
    out
}

/// Requests in one tick cycle.
const CYCLE_REQUESTS: usize = 3;

/// The write side on the daemon at `addr`: one connection repeats
/// `TICK 1` → `RUN_UNTIL popularity` → `GET popularity FULL` for
/// `cycles` cycles; one round is one cycle. Each tick must raise the
/// epoch by one and simulated time by an hour; each refresh must answer
/// `OK RUN` on the new epoch. The read is the first after the
/// recompute: later reads of one epoch get faster one by one, so
/// pooling them would put the median between costs.
pub fn tick_phase(
    addr: &str,
    cycles: usize,
    expect: &mut Expect,
    trace: Option<SpanCtx<'_>>,
) -> Result<PhaseOut, String> {
    let mut client = connect(addr)?;
    let mut out = PhaseOut::default();
    for cycle in 0..cycles {
        let cycle_start = Instant::now();
        let span = trace.map(|ctx| (ctx, cycle, cycle as u64));
        let ticked = exchange(
            &mut client,
            &mut out,
            Class::Tick,
            Req::Tick.line(),
            span,
            |r| check_tick(&r, expect),
        );
        if ticked.is_err() {
            // The epoch is unknown now; later checks would only repeat
            // this failure.
            for _ in cycle * CYCLE_REQUESTS + 1..cycles * CYCLE_REQUESTS {
                out.tally.record(Err("skipped after a failed TICK".into()));
            }
            break;
        }
        let line = Req::RunPopularity.line();
        let _ = exchange(&mut client, &mut out, Class::Refresh, line, span, |r| {
            check_run(&r, expect, false)
        });
        let line = Req::Read.line();
        let _ = exchange(
            &mut client,
            &mut out,
            Class::Read,
            line,
            span,
            |r| match body(&r, "OK GET popularity")? {
                [] => Err("empty GET popularity FULL".into()),
                _ => Ok(()),
            },
        );
        out.cycle_rate
            .push(CYCLE_REQUESTS as f64 / cycle_start.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// Checks `OK TICK` against the expected next epoch and advances
/// `expect` to it.
pub fn check_tick(reply: &[String], expect: &mut Expect) -> Result<(), String> {
    if let Some(line) = refusal(reply) {
        return Err(format!("refused: {line}"));
    }
    let [line] = reply else {
        return Err(format!("TICK: bad framing {reply:?}"));
    };
    let epoch: Option<u64> = field(line, "epoch").and_then(|v| v.parse().ok());
    let sim_time: Option<u64> = field(line, "sim_time").and_then(|v| v.parse().ok());
    let world = field(line, "world");
    match (line.starts_with("OK TICK "), epoch, sim_time, world) {
        (true, Some(e), Some(t), Some(w))
            if e == expect.epoch + 1 && t == expect.sim_time + 3600 =>
        {
            expect.epoch = e;
            expect.sim_time = t;
            expect.world = w.to_owned();
            Ok(())
        }
        _ => Err(format!(
            "TICK 1 from epoch {} at {}: {line}",
            expect.epoch, expect.sim_time
        )),
    }
}

/// Starts a daemon with `pool` and warms it: spawn → port file →
/// [`warm_up`]. Returns the daemon and the seconds this took.
#[allow(clippy::too_many_arguments)]
pub fn start_warm(
    bin: &Path,
    scale: &str,
    seed: u64,
    dir: &Path,
    pool: Pool,
    deadline: Instant,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Daemon, f64), String> {
    let start = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("startup", "bench", None, 0));
    let daemon = Daemon::spawn(bin, scale, seed, dir, pool, deadline)?;
    if let Some(t) = tracer.as_deref_mut() {
        let (s, e) = (t.at(start), t.at(Instant::now()));
        t.push(Span {
            name: "landscaped spawn + bootstrap".into(),
            layer: "serve",
            parent: root,
            id: 0,
            start_us: s,
            end_us: e,
        });
    }
    warm_up(&daemon.addr, tally, tracer.as_deref_mut(), root)?;
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    Ok((daemon, secs))
}

/// Warms the current epoch with `RUN_UNTIL popularity` and `RUN_UNTIL
/// crawl`, so every artifact the hot mix reads is cached. Each request
/// is one operation, traced under `parent` when there is a tracer. The
/// connection closes before this returns.
pub fn warm_up(
    addr: &str,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    parent: Option<usize>,
) -> Result<(), String> {
    let mut client = connect(addr)?;
    for req in [Req::RunPopularity, Req::RunCrawl] {
        let (reply, s, e) = timed(&mut client, req.line());
        if let Some(t) = tracer.as_deref_mut() {
            let (s, e) = (t.at(s), t.at(e));
            t.push(Span {
                name: format!("{} (warm-up)", req.line()),
                layer: "serve",
                parent,
                id: 0,
                start_us: s,
                end_us: e,
            });
        }
        let ok = reply.and_then(|reply| match reply.as_slice() {
            [r, done] if r.starts_with("RUNNING") && done.starts_with("OK RUN ") => Ok(()),
            _ => Err(format!("warm-up {}: {reply:?}", req.line())),
        });
        tally.record(ok.clone());
        ok?;
    }
    Ok(())
}

/// Reads the resident epoch, world hash, time and the reference read
/// body from the warm daemon at `addr`.
pub fn observe(addr: &str, tally: &mut Tally) -> Result<Expect, String> {
    let mut client = connect(addr)?;
    let status = client.request("STATUS").map_err(|e| e.to_string())?;
    let lines = body(&status, "OK STATUS")?;
    let get = |key: &str| {
        lines
            .iter()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
            .map(str::to_owned)
            .ok_or_else(|| format!("STATUS has no {key}"))
    };
    let parse = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("STATUS {key} not a number"))
    };
    let mut expect = Expect {
        epoch: parse("epoch")?,
        world: get("world")?,
        sim_time: parse("sim_time")?,
        read_body: Vec::new(),
    };
    let read = client
        .request(Req::Read.line())
        .map_err(|e| e.to_string())?;
    let outcome = body(&read, "OK GET popularity").map(<[String]>::to_vec);
    tally.record(outcome.clone().map(|_| ()));
    expect.read_body = outcome?;
    Ok(expect)
}

/// The legacy `METRICS` reply as `key=value` pairs.
pub fn legacy_metrics(client: &mut Client) -> Result<Vec<(String, u64)>, String> {
    let reply = client.request("METRICS").map_err(|e| e.to_string())?;
    Ok(body(&reply, "OK METRICS")?
        .iter()
        .filter_map(|l| {
            let (k, v) = l.split_once('=')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect())
}

/// Where the benchmark keeps run files: `perfbench/out` under the
/// current directory.
pub fn out_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    #[test]
    fn same_seed_gives_the_same_request_sequence() {
        let rounds = hot_rounds(7, 50);
        assert_eq!(rounds, hot_rounds(7, 50));
        assert_ne!(rounds, hot_rounds(8, 50), "seed changes the round order");
        // A prefix of a longer run is the shorter run.
        assert_eq!(rounds[..40], hot_rounds(7, 10)[..]);
        let a = hot_sequence(7, 0, &rounds, 100);
        assert_eq!(a, hot_sequence(7, 0, &rounds, 100));
        assert_ne!(
            a,
            hot_sequence(8, 0, &rounds, 100),
            "seed changes the order"
        );
        assert_ne!(a, hot_sequence(7, 1, &rounds, 100), "connections differ");
        // Every cycle runs each round once; every round sends its kinds
        // in equal numbers.
        for cycle in rounds.chunks(ROUNDS_PER_CYCLE) {
            let mut seen = cycle.to_vec();
            seen.sort();
            assert_eq!(seen, [0, 1, 2, 3]);
        }
        for (&round, reqs) in rounds.iter().zip(&a) {
            let kinds = HOT_ROUNDS[round].kinds;
            assert_eq!(reqs.len(), 100);
            for kind in kinds.iter() {
                let n = reqs.iter().filter(|&r| r == kind).count();
                assert_eq!(n, 100 / kinds.len(), "{kind:?} in {kinds:?}");
            }
        }
    }

    #[test]
    fn hot_phase_outgrows_the_default_pool() {
        use hs_landscape::StudyConfig;
        use hs_serve::DaemonConfig;

        let conns = 6;
        let defaults = DaemonConfig::default();
        assert!(conns > defaults.workers && conns > defaults.max_inflight);
        let pool = Pool::for_conns(conns);
        let cfg = DaemonConfig {
            study: StudyConfig::test_scale(),
            wave_threads: 1,
            workers: pool.workers,
            max_inflight: pool.max_inflight,
            ..defaults
        };
        let handle = hs_serve::Daemon::bind(cfg)
            .and_then(hs_serve::Daemon::spawn)
            .expect("in-process daemon");
        let addr = handle.addr().to_string();
        let mut tally = Tally::default();
        warm_up(&addr, &mut tally, None, None).expect("warm-up");
        let expect = observe(&addr, &mut tally).expect("observe");
        let (done, phase) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(hot_phase(&addr, 7, conns, 2, 10, &expect, None));
        });
        let ph = phase
            .recv_timeout(Duration::from_secs(60))
            .expect("the hot phase stalls on the daemon's pool")
            .expect("hot phase");
        assert_eq!(ph.tally.failed, 0, "{:?}", ph.tally.reasons);
        assert_eq!(ph.tally.attempted, (conns * 2 * 4 * 10) as u64);
        assert_eq!(ph.rates[QUERY_ROUND].len(), 2);
        assert_eq!(ph.lat_ms[Class::Scrape as usize].len(), conns * 2 * 10);
    }

    fn expect() -> Expect {
        Expect {
            epoch: 0,
            world: "00000000000000aa".into(),
            sim_time: 1_000,
            read_body: vec!["Table II".into()],
        }
    }

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn reply_checks_accept_healthy_replies() {
        let e = expect();
        let run = lines(&[
            "RUNNING id=3",
            "OK RUN id=3 ran=3 cached=3 epoch=0 world=00000000000000aa",
        ]);
        assert_eq!(check_hot(Req::RunPopularity, &run, &e), Ok(()));
        let read = lines(&["OK GET popularity", "Table II", "."]);
        assert_eq!(check_hot(Req::Read, &read, &e), Ok(()));
        let status = lines(&["OK STATUS", "epoch=0", "world=00000000000000aa", "."]);
        assert_eq!(check_hot(Req::Status, &status, &e), Ok(()));
        let mut e2 = e.clone();
        let tick = lines(&["OK TICK hours=1 epoch=1 sim_time=4600 world=00000000000000bb"]);
        assert_eq!(check_tick(&tick, &mut e2), Ok(()));
        assert_eq!(
            (e2.epoch, e2.sim_time, e2.world.as_str()),
            (1, 4_600, "00000000000000bb")
        );
    }

    #[test]
    fn reply_checks_reject_refusals_and_mismatches() {
        let e = expect();
        for reply in [
            lines(&["BUSY inflight=4 max=4"]),
            lines(&[
                "RUNNING id=3",
                "PARTIAL RUN id=3 degraded=crawl ran=4 cached=3 epoch=0 world=00000000000000aa",
            ]),
            lines(&[
                "RUNNING id=3",
                "OK RUN id=3 ran=3 cached=2 epoch=0 world=00000000000000aa",
            ]),
            lines(&[
                "RUNNING id=3",
                "OK RUN id=3 ran=3 cached=3 epoch=0 world=00000000000000ab",
            ]),
            lines(&["ERR unknown_stage: x"]),
        ] {
            assert!(check_hot(Req::RunCrawl, &reply, &e).is_err(), "{reply:?}");
        }
        let not_built = lines(&["NOT_BUILT popularity needs=setup,harvest,popularity"]);
        assert!(check_hot(Req::Read, &not_built, &e).is_err());
        // A payload line that happens to start like a status is data.
        let mut e_err = e.clone();
        e_err.read_body = vec!["ERROR budget".into()];
        let body_line = lines(&["OK GET popularity", "ERROR budget", "."]);
        assert_eq!(check_hot(Req::Read, &body_line, &e_err), Ok(()));
        let changed = lines(&["OK GET popularity", "Table III", "."]);
        assert!(check_hot(Req::Read, &changed, &e).is_err());
        let mut e2 = e.clone();
        let skipped = lines(&["OK TICK hours=1 epoch=2 sim_time=4600 world=00000000000000bb"]);
        assert!(check_tick(&skipped, &mut e2).is_err());
        assert_eq!(e2.epoch, 0, "a failed tick leaves the expectation alone");
    }

    /// A daemon stand-in that answers each request line with a
    /// scripted reply.
    fn scripted_server(replies: Vec<Vec<&'static str>>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            for reply in replies {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                for l in reply {
                    writeln!(writer, "{l}").expect("write");
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn scripted_busy_and_not_built_replies_count_as_failed() {
        let (addr, server) = scripted_server(vec![
            vec![
                "RUNNING id=1",
                "OK RUN id=1 ran=3 cached=3 epoch=0 world=00000000000000aa",
            ],
            vec!["BUSY inflight=4 max=4"],
            vec!["NOT_BUILT popularity needs=setup,harvest,popularity"],
            vec!["OK GET popularity", "Table II", "."],
        ]);
        let mut client = Client::connect(addr.as_str()).expect("connect");
        let e = expect();
        let mut tally = Tally::default();
        for req in [Req::RunPopularity, Req::RunCrawl, Req::Read, Req::Read] {
            let (reply, _, _) = timed(&mut client, req.line());
            tally.record(reply.and_then(|r| check_hot(req, &r, &e)));
        }
        server.join().expect("server");
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert!(tally.reasons[0].contains("BUSY"));
        assert!(tally.reasons[1].contains("NOT_BUILT"));
    }
}
