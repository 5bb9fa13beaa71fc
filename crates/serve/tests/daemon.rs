//! Integration tests for the resident `landscaped` daemon: lifecycle,
//! budgets, shedding, cancellation, epoch snapshots, crash
//! containment (the resident world stays byte-identical through
//! failed queries), and a chaos soak under the adversarial fault
//! profile.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use hs_landscape::StudyConfig;
use hs_serve::{Client, Daemon, DaemonConfig, DaemonHandle, InjectAt, Injector};

/// A daemon provisioned for tests: tiny study, OS-assigned port.
fn spawn(mutate: impl FnOnce(&mut DaemonConfig)) -> (DaemonHandle, Client) {
    let mut cfg = DaemonConfig {
        study: StudyConfig::test_scale(),
        ..DaemonConfig::default()
    };
    mutate(&mut cfg);
    let daemon = Daemon::bind(cfg).expect("bind");
    let handle = daemon.spawn().expect("spawn");
    let client = Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("connect");
    (handle, client)
}

/// Extracts `key=value` from a reply line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
}

/// The `world=<hex>` hash from a STATUS reply.
fn status_world(client: &mut Client) -> String {
    let reply = client.request("STATUS").expect("status");
    assert_eq!(reply[0], "OK STATUS");
    reply
        .iter()
        .find_map(|l| l.strip_prefix("world="))
        .expect("world line")
        .to_owned()
}

#[test]
fn lifecycle_ping_status_metrics_get() {
    let (_handle, mut client) = spawn(|_| {});
    assert_eq!(client.request("PING").unwrap(), vec!["OK PONG"]);

    let status = client.request("STATUS").unwrap();
    assert_eq!(status[0], "OK STATUS");
    assert!(status.contains(&"epoch=0".to_owned()));
    assert_eq!(status.last().unwrap(), ".");

    let metrics = client.request("METRICS").unwrap();
    assert_eq!(metrics[0], "OK METRICS");
    assert!(metrics.iter().any(|l| l.starts_with("cache.hits=")));
    assert!(metrics.iter().any(|l| l == "queries.started=0"));

    // Bootstrap deposited the resident world: GET setup is a hit and
    // its summary carries the same world hash STATUS reports.
    let world = status_world(&mut client);
    let get = client.request("GET setup").unwrap();
    assert_eq!(get[0], "OK GET setup");
    assert!(get.iter().any(|l| l == &format!("world={world}")));
}

#[test]
fn get_never_built_reports_dependency_chain() {
    let (_handle, mut client) = spawn(|_| {});
    let before: Vec<String> = client
        .request("METRICS")
        .unwrap()
        .into_iter()
        .filter(|l| l.starts_with("cache."))
        .collect();
    // No query ran popularity: the daemon must answer with the typed
    // miss and its dependency closure instead of silently recomputing.
    let reply = client.request("GET popularity").unwrap();
    assert_eq!(
        reply,
        vec!["NOT_BUILT popularity needs=setup,harvest,popularity".to_owned()]
    );
    // Read-only queries (hit or miss) must not skew the recompute
    // cache's statistics.
    let hit = client.request("GET setup").unwrap();
    assert_eq!(hit[0], "OK GET setup");
    let after: Vec<String> = client
        .request("METRICS")
        .unwrap()
        .into_iter()
        .filter(|l| l.starts_with("cache."))
        .collect();
    assert_eq!(before, after, "GET must leave cache counters untouched");
}

#[test]
fn run_setup_is_a_cache_hit_and_preserves_world() {
    let (_handle, mut client) = spawn(|_| {});
    let world = status_world(&mut client);
    let reply = client.request("RUN_UNTIL setup").unwrap();
    assert_eq!(reply[0], "RUNNING id=1");
    let terminal = &reply[1];
    assert!(terminal.starts_with("OK RUN id=1 "), "{terminal}");
    assert_eq!(field(terminal, "ran"), "1");
    assert_eq!(field(terminal, "cached"), "1");
    assert_eq!(field(terminal, "world"), world);
    assert_eq!(status_world(&mut client), world);
}

#[test]
fn expired_wall_deadline_sheds_all_stages_and_world_is_stable() {
    let (_handle, mut client) = spawn(|_| {});
    let world = status_world(&mut client);
    let reply = client.request("RUN_UNTIL all WALL_MS 0").unwrap();
    let terminal = &reply[1];
    assert!(terminal.starts_with("PARTIAL RUN "), "{terminal}");
    assert_eq!(field(terminal, "halt"), "wall_deadline");
    assert_eq!(field(terminal, "ran"), "0");
    assert_eq!(field(terminal, "halted"), "9");
    assert_eq!(field(terminal, "world"), world);
    assert_eq!(
        status_world(&mut client),
        world,
        "halted query mutated the world"
    );

    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.iter().any(|l| l == "queries.partial=1"));
    assert!(metrics.iter().any(|l| l == "queries.completed=0"));
}

#[test]
fn sim_budget_halts_between_stages() {
    let (_handle, mut client) = spawn(|_| {});
    let world = status_world(&mut client);
    // Setup is cached (0 sim-hours); harvest advances far past one
    // hour, so the budget trips at the next stage boundary and
    // port_scan is abandoned — but harvest's artifact is kept.
    let reply = client.request("RUN_UNTIL port_scan SIM_HOURS 1").unwrap();
    let terminal = &reply[1];
    assert!(terminal.starts_with("PARTIAL RUN "), "{terminal}");
    assert_eq!(field(terminal, "halt"), "sim_budget");
    assert_eq!(field(terminal, "world"), world);

    let get = client.request("GET harvest").unwrap();
    assert_eq!(get[0], "OK GET harvest", "{get:?}");
    assert_eq!(
        client.request("GET port_scan").unwrap(),
        vec!["NOT_BUILT port_scan needs=setup,harvest,port_scan".to_owned()]
    );
}

#[test]
fn zero_capacity_admission_sheds_deterministically() {
    let (_handle, mut client) = spawn(|cfg| cfg.max_inflight = 0);
    assert_eq!(
        client.request("RUN_UNTIL setup").unwrap(),
        vec!["BUSY inflight=0 max=0".to_owned()]
    );
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.iter().any(|l| l == "queries.busy=1"));
    assert!(metrics.iter().any(|l| l == "queries.started=0"));
}

#[test]
fn cancel_unknown_query_is_a_typed_error() {
    let (_handle, mut client) = spawn(|_| {});
    assert_eq!(
        client.request("CANCEL 42").unwrap(),
        vec!["ERR unknown_query: id=42".to_owned()]
    );
}

#[test]
fn cancel_from_second_connection_halts_query_and_world_is_stable() {
    let inject = Arc::new(Injector::default());
    inject.park(InjectAt::RunStart);
    let (handle, mut control) = spawn(|cfg| cfg.inject = Some(inject.clone()));
    let world = status_world(&mut control);
    let addr = handle.addr();

    // The runner forwards each reply line as it arrives.
    let (lines, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let mut client = Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
        client.send("RUN_UNTIL all").expect("send");
        for _ in 0..2 {
            lines
                .send(client.read_line().expect("reply line"))
                .expect("forward");
        }
    });

    // The query announced its id before starting work: the announce
    // arrives while the run is parked at its start.
    inject.wait_parked(InjectAt::RunStart);
    assert_eq!(rx.recv().expect("announce"), "RUNNING id=1");
    assert!(
        inject.parked(InjectAt::RunStart),
        "RUNNING arrived only after the run started"
    );
    assert_eq!(
        control.request("CANCEL 1").unwrap(),
        vec!["OK CANCEL id=1".to_owned()]
    );
    inject.release(InjectAt::RunStart);
    let terminal = rx.recv().expect("terminal");
    runner.join().expect("runner thread");
    assert!(terminal.starts_with("PARTIAL RUN id=1 "), "{terminal}");
    assert_eq!(field(&terminal, "halt"), "cancelled");
    assert_eq!(field(&terminal, "ran"), "0");
    assert_eq!(field(&terminal, "world"), world);
    assert_eq!(status_world(&mut control), world);
}

#[test]
fn cancel_after_a_query_finished_is_unknown_and_world_is_stable() {
    let (handle, mut control) = spawn(|_| {});
    let world = status_world(&mut control);
    let mut runner = Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("conn");
    let reply = runner.request("RUN_UNTIL all").unwrap();
    assert_eq!(reply[0], "RUNNING id=1");
    assert!(reply[1].starts_with("OK RUN id=1 "), "{reply:?}");
    // The finished query released its cancel token with its slot.
    assert_eq!(
        control.request("CANCEL 1").unwrap(),
        vec!["ERR unknown_query: id=1".to_owned()]
    );
    assert_eq!(field(&reply[1], "world"), world);
    assert_eq!(status_world(&mut control), world);
}

#[test]
fn tick_opens_a_new_epoch_with_a_new_world() {
    let (_handle, mut client) = spawn(|_| {});
    let w0 = status_world(&mut client);
    let tick = client.request("TICK 24").unwrap();
    assert_eq!(tick.len(), 1);
    let line = &tick[0];
    assert!(line.starts_with("OK TICK hours=24 "), "{line}");
    assert_eq!(field(line, "epoch"), "1");
    let w1 = field(line, "world").to_owned();
    assert_ne!(w1, w0, "advancing time must change the world hash");

    let status = client.request("STATUS").unwrap();
    assert!(status.contains(&"epoch=1".to_owned()));
    assert_eq!(status_world(&mut client), w1);

    // The new epoch's resident world is immediately readable.
    let get = client.request("GET setup").unwrap();
    assert!(get.iter().any(|l| l == &format!("world={w1}")));

    // Ticking is deterministic in (seed, hours): a second daemon with
    // the same study reaches the same epoch-1 world hash.
    let (_h2, mut c2) = spawn(|_| {});
    let tick2 = c2.request("TICK 24").unwrap();
    assert_eq!(field(&tick2[0], "world"), w1);
}

#[test]
fn degraded_stage_fails_its_query_only() {
    let (_handle, mut client) = spawn(|cfg| {
        cfg.study
            .apply_fault_profile("adversarial")
            .expect("profile");
    });
    let world = status_world(&mut client);
    // certs is wired to fail permanently under the adversarial
    // profile: the query degrades, the daemon survives, the world is
    // untouched, and the next query works.
    let reply = client.request("RUN_UNTIL certs").unwrap();
    let terminal = &reply[1];
    assert!(terminal.starts_with("PARTIAL RUN "), "{terminal}");
    assert_eq!(field(terminal, "degraded"), "certs");
    assert_eq!(field(terminal, "world"), world);

    let again = client.request("RUN_UNTIL setup").unwrap();
    assert!(again[1].starts_with("OK RUN "), "{:?}", again);
    assert_eq!(status_world(&mut client), world);
}

#[test]
fn concurrent_same_epoch_reads_are_byte_identical() {
    let (handle, mut warm) = spawn(|cfg| cfg.max_inflight = 8);
    // Warm the cache so every thread reads the same artifacts.
    let warmup = warm.request("RUN_UNTIL port_scan").unwrap();
    assert!(warmup[1].starts_with("OK RUN "), "{warmup:?}");

    let addr = handle.addr();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
                let mut out = Vec::new();
                for req in ["GET setup", "GET harvest", "GET port_scan", "STATUS"] {
                    out.push(client.request(req).expect("request"));
                }
                out
            })
        })
        .collect();
    let replies: Vec<_> = readers
        .into_iter()
        .map(|t| t.join().expect("join"))
        .collect();
    for other in &replies[1..] {
        assert_eq!(
            &replies[0], other,
            "same-epoch reads diverged across connections"
        );
    }
}

/// Chaos soak (robustness tentpole): adversarial fault profile crossed
/// with {1, 2, 8} analysis-wave threads, three concurrent scripted
/// clients each — queries that degrade, shed, miss, and cancel — while
/// the daemon must keep answering, keep the degraded cascade
/// deterministic, and keep the resident world hash byte-stable.
#[test]
fn chaos_soak_under_adversarial_faults() {
    let mut degraded_per_threads: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let (handle, mut control) = spawn(|cfg| {
            cfg.study
                .apply_fault_profile("adversarial")
                .expect("profile");
            cfg.wave_threads = threads;
            cfg.max_inflight = 2;
        });
        let world = status_world(&mut control);
        let addr = handle.addr();

        let clients: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
                    let script: &[&str] = match i {
                        0 => &["RUN_UNTIL all WALL_MS 0", "GET tracking", "METRICS"],
                        1 => &["RUN_UNTIL certs", "CANCEL 999", "GET certs", "STATUS"],
                        _ => &["RUN_UNTIL port_scan", "GET port_scan", "RUN_UNTIL geomap"],
                    };
                    script
                        .iter()
                        .map(|req| client.request(req).expect("request"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<_> = clients
            .into_iter()
            .map(|t| t.join().expect("join"))
            .collect();

        // Every reply is well-formed: a known verb, never a panic'd
        // connection, and every RUN terminal names this epoch's world.
        for replies in &all {
            for reply in replies {
                let head = &reply[0];
                assert!(
                    head.starts_with("OK ")
                        || head.starts_with("PARTIAL ")
                        || head.starts_with("RUNNING ")
                        || head.starts_with("BUSY ")
                        || head.starts_with("NOT_BUILT ")
                        || head.starts_with("ERR "),
                    "unexpected reply head: {head:?}"
                );
                if head.starts_with("RUNNING ") {
                    assert_eq!(field(&reply[1], "world"), world, "query leaked world state");
                }
            }
        }

        // Degraded cascades are deterministic per thread count: rerun
        // the certs closure on a quiet daemon and compare.
        let rerun = control.request("RUN_UNTIL certs").unwrap();
        let terminal = &rerun[1];
        assert!(terminal.starts_with("PARTIAL RUN "), "{terminal}");
        degraded_per_threads.push(field(terminal, "degraded").to_owned());
        assert_eq!(field(terminal, "world"), world);
        assert_eq!(
            status_world(&mut control),
            world,
            "soak mutated the resident world"
        );
    }
    // The cascade is a property of the fault profile, not of the wave
    // width: all three thread counts must agree.
    assert_eq!(degraded_per_threads[0], degraded_per_threads[1]);
    assert_eq!(degraded_per_threads[1], degraded_per_threads[2]);
}

#[test]
fn malformed_lines_keep_the_connection_usable() {
    let (_handle, mut client) = spawn(|_| {});
    assert_eq!(
        client.request("FLURB").unwrap(),
        vec!["ERR unknown_command: FLURB".to_owned()]
    );
    let oversized = "X".repeat(hs_serve::MAX_LINE + 10);
    let reply = client.request(&oversized).unwrap();
    assert!(reply[0].starts_with("ERR oversized:"), "{reply:?}");
    assert_eq!(client.request("PING").unwrap(), vec!["OK PONG"]);
    let metrics = client.request("METRICS").unwrap();
    assert!(
        metrics.iter().any(|l| l == "protocol.errors=2"),
        "{metrics:?}"
    );
}

#[test]
fn shutdown_stops_the_daemon() {
    let (handle, mut client) = spawn(|_| {});
    assert_eq!(client.request("SHUTDOWN").unwrap(), vec!["OK BYE"]);
    // The serve loop exits; join must complete promptly.
    handle.shutdown();
}
