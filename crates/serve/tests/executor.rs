//! Integration tests for the worker-pool daemon: connection-level
//! `BUSY` shedding, graceful drain on shutdown, panic-injection slot
//! release (the `reply_run` leak regression), tick/readers
//! concurrency (the epoch-mutex stall regression), epoch-pin
//! survival under byte-budget churn, the background ticker, and
//! `GET <stage> FULL` projections, byte for byte against the batch
//! render of the daemon's own world.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use hs_landscape::pipeline::Pipeline;
use hs_landscape::{report, ExecMode, StageId, StudyConfig};
use hs_serve::{Client, Daemon, DaemonConfig, DaemonHandle, TickEvery};

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

#[test]
fn saturated_pool_sheds_typed_connection_busy() {
    let (handle, mut held) = spawn(|cfg| {
        cfg.workers = 1;
        cfg.pool_queue = 0;
    });
    // A round trip proves the held connection's job occupies the only
    // worker (not just the queue).
    assert_eq!(held.request("PING").unwrap(), vec!["OK PONG"]);
    // Queue bound 0, worker busy: the next connection must get the
    // connection-level BUSY (typed, distinct from the admission shed)
    // and a close.
    let mut shed = Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("connect");
    assert_eq!(shed.read_line().unwrap(), "BUSY pool workers=1 queue=0");
    assert!(shed.read_line().is_err(), "shed connection stays open");
    // The held connection is unaffected.
    assert_eq!(held.request("PING").unwrap(), vec!["OK PONG"]);
}

#[test]
fn shutdown_drains_promptly_with_parked_connections() {
    let (handle, mut parked) = spawn(|cfg| cfg.workers = 2);
    assert_eq!(parked.request("PING").unwrap(), vec!["OK PONG"]);
    // `parked` now sits idle on a worker; SHUTDOWN from a second
    // connection must still drain the pool quickly: the parked worker
    // notices the stop flag at its next read tick.
    let mut closer = Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("conn");
    assert_eq!(closer.request("SHUTDOWN").unwrap(), vec!["OK BYE"]);
    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain took {:?}",
        started.elapsed()
    );
    // The parked connection was closed by the drain.
    assert!(parked.request("PING").is_err());
}

#[test]
fn panicking_query_frees_its_slot_and_token() {
    // max_inflight=1: if the panicked query leaked its slot, the next
    // RUN_UNTIL would shed BUSY forever — the exact bug this pins.
    let (handle, mut first) = spawn(|cfg| {
        cfg.max_inflight = 1;
        cfg.chaos_panic_once = true;
    });
    first.send("RUN_UNTIL setup").unwrap();
    assert_eq!(first.read_line().unwrap(), "RUNNING id=1");
    // The injected panic kills the connection after the announce.
    assert!(first.read_line().is_err(), "connection survived the panic");

    let mut second = Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("conn");
    let reply = second.request("RUN_UNTIL setup").unwrap();
    assert_eq!(reply[0], "RUNNING id=2", "slot leaked: {reply:?}");
    assert!(reply[1].starts_with("OK RUN id=2"), "{reply:?}");
    // The queries-map entry died with the slot.
    assert_eq!(
        second.request("CANCEL 1").unwrap(),
        vec!["ERR unknown_query: id=1"]
    );
    // The pool left evidence of the killed connection.
    let errors = second.request("TRACE ERRORS").unwrap();
    assert!(
        errors
            .iter()
            .any(|l| l.contains("id=0 outcome=err request=<connection panicked>")),
        "{errors:?}"
    );
}

#[test]
fn status_completes_while_a_tick_is_in_flight() {
    // The chaos hold stretches the tick's build section (outside the
    // epoch mutex). Before the fix the whole tick ran under the epoch
    // mutex, so this STATUS would block for the full second.
    let (handle, mut ticker) = spawn(|cfg| cfg.chaos_tick_hold_ms = 1000);
    let (tx, rx) = mpsc::channel();
    let tick_thread = thread::spawn(move || {
        let reply = ticker.request("TICK 24").unwrap();
        let _ = tx.send(());
        reply
    });
    // Let the tick enter its hold.
    thread::sleep(Duration::from_millis(200));
    assert!(
        rx.try_recv().is_err(),
        "tick finished before STATUS could race it"
    );
    let mut reader = Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("conn");
    let started = Instant::now();
    let status = reader.request("STATUS").unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status[0], "OK STATUS");
    // Still the old epoch: the swap has not landed yet.
    assert!(status.contains(&"epoch=0".to_owned()), "{status:?}");
    assert!(
        elapsed < Duration::from_millis(500),
        "STATUS stalled behind the tick: {elapsed:?}"
    );
    let tick_reply = tick_thread.join().unwrap();
    assert!(tick_reply[0].starts_with("OK TICK hours=24 epoch=1"));
    drop(handle);
}

#[test]
fn epoch_pin_survives_byte_budget_churn() {
    // A 1-byte budget squeezes out every unpinned payload on each
    // insert. Before the pin, the first post-churn TICK answered
    // `ERR epoch_evicted` and the daemon could never advance again.
    let (_handle, mut client) = spawn(|cfg| cfg.cache_budget_bytes = Some(1));
    for round in 1..=3u64 {
        let run = client.request("RUN_UNTIL all").unwrap();
        assert!(run[1].starts_with("OK RUN"), "round {round}: {run:?}");
        let tick = client.request("TICK 24").unwrap();
        assert!(
            tick[0].starts_with(&format!("OK TICK hours=24 epoch={round}")),
            "round {round}: {tick:?}"
        );
    }
}

#[test]
fn background_ticker_matches_manual_ticks() {
    let (_handle, mut auto_client) = spawn(|cfg| {
        cfg.tick_every = Some(TickEvery {
            sim_hours: 6,
            wall_ms: 50,
        });
    });
    // Wait for the ticker to publish a few epochs, then capture one
    // consistent snapshot.
    let deadline = Instant::now() + Duration::from_secs(30);
    let (epoch, sim_time, world) = loop {
        let status = auto_client.request("STATUS").unwrap();
        let get = |key: &str| -> String {
            status
                .iter()
                .find_map(|l| l.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("no {key} in {status:?}"))
                .to_owned()
        };
        let epoch: u64 = get("epoch").parse().unwrap();
        if epoch >= 2 {
            break (epoch, get("sim_time"), get("world"));
        }
        assert!(Instant::now() < deadline, "ticker never reached epoch 2");
        thread::sleep(Duration::from_millis(10));
    };

    // A ticker-driven daemon reuses the TICK path exactly, so a
    // manually ticked daemon must reach the identical epoch state.
    let (_manual_handle, mut manual) = spawn(|_| {});
    let mut last = Vec::new();
    for _ in 0..epoch {
        last = manual.request("TICK 6").unwrap();
    }
    assert_eq!(
        last,
        vec![format!(
            "OK TICK hours=6 epoch={epoch} sim_time={sim_time} world={world}"
        )]
    );
}

#[test]
fn get_full_streams_batch_renders() {
    let (_handle, mut client) = spawn(|_| {});
    // FULL on an unbuilt artifact is still the typed miss.
    let miss = client.request("GET port_scan FULL").unwrap();
    assert!(
        miss[0].starts_with("NOT_BUILT port_scan needs="),
        "{miss:?}"
    );

    let run = client.request("RUN_UNTIL port_scan").unwrap();
    assert!(run[1].starts_with("OK RUN"), "{run:?}");
    let full = client.request("GET port_scan FULL").unwrap();
    assert_eq!(full[0], "OK GET port_scan");
    assert!(
        full.contains(&"Fig. 1 — Open ports distribution".to_owned()),
        "{full:?}"
    );
    assert_eq!(full.last().unwrap(), ".");
    // The plain GET stays the frozen key=value summary.
    let summary = client.request("GET port_scan").unwrap();
    assert!(summary.iter().any(|l| l.starts_with("targets=")));
    assert!(!summary.iter().any(|l| l.starts_with("Fig. 1")));

    let run = client.request("RUN_UNTIL popularity").unwrap();
    assert!(run[1].starts_with("OK RUN"), "{run:?}");
    let full = client.request("GET popularity FULL").unwrap();
    assert!(
        full.contains(&"Table II — Ranking of most popular hidden services".to_owned()),
        "{full:?}"
    );
    assert!(full.contains(&"Sec. V — Popularity measurement".to_owned()));

    // Stages without a batch render fall back to the summary.
    let setup_full = client.request("GET setup FULL").unwrap();
    assert!(setup_full.iter().any(|l| l.starts_with("services=")));
}

#[test]
fn get_full_equals_the_batch_render_of_the_daemons_world() {
    let mut study = None;
    let (_handle, mut client) = spawn(|cfg| {
        cfg.study.seed = 7;
        study = Some(cfg.study.clone());
    });
    let batch = Pipeline::new(study.expect("daemon config")).run(
        &[StageId::PortScan, StageId::Crawl, StageId::Popularity],
        ExecMode::sequential(),
    );
    let (scan, crawl, pop) = (
        batch.artifacts.scan(),
        batch.artifacts.crawl(),
        batch.artifacts.popularity(),
    );
    for (stage, blocks) in [
        ("port_scan", vec![report::render_fig1(scan)]),
        (
            "crawl",
            vec![
                report::render_table1(crawl),
                report::render_funnel_and_languages(crawl),
                report::render_fig2(crawl),
            ],
        ),
        (
            "popularity",
            vec![
                report::render_table2(&pop.ranking, 30),
                report::render_sec5(&pop.resolution, pop.requested_published_share),
            ],
        ),
    ] {
        let run = client.request(&format!("RUN_UNTIL {stage}")).unwrap();
        assert!(run[1].starts_with("OK RUN"), "{run:?}");
        let full = client.request(&format!("GET {stage} FULL")).unwrap();
        let want: Vec<&str> = blocks.iter().flat_map(|b| b.lines()).collect();
        assert_eq!(full[0], format!("OK GET {stage}"));
        assert_eq!(full[full.len() - 1], ".");
        assert_eq!(full[1..full.len() - 1], want[..], "GET {stage} FULL");
    }
}
