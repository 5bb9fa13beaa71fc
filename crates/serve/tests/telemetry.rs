//! Integration tests for the daemon's telemetry plane: `METRICS PROM`
//! exposition validity, torn-read resistance under concurrent
//! scrapes, the flight recorder's `TRACE` verbs, the extended
//! `STATUS FULL`, byte-budget cache eviction, and the protocol-error
//! counter on resync paths.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hs_landscape::StudyConfig;
use hs_serve::{Client, Daemon, DaemonConfig, DaemonHandle};
use obs::prom::{parse_exposition, Exposition, FamilyKind};

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

/// Sends `METRICS PROM` and parses the body as Prometheus exposition.
fn scrape(client: &mut Client) -> Exposition {
    let reply = client.request("METRICS PROM").expect("scrape");
    assert_eq!(reply[0], "OK METRICS");
    assert_eq!(reply.last().map(String::as_str), Some("."));
    let body: String = reply[1..reply.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    parse_exposition(&body).expect("valid exposition")
}

/// The `id=<n>` announced by a two-phase RUN reply.
fn run_id(reply: &[String]) -> u64 {
    reply[0]
        .strip_prefix("RUNNING id=")
        .expect("RUNNING line")
        .parse()
        .expect("numeric id")
}

#[test]
fn prom_scrape_has_expected_families_and_matches_legacy_metrics() {
    let (_handle, mut client) = spawn(|_| {});
    let reply = client.request("RUN_UNTIL all").expect("run");
    assert!(reply[1].starts_with("OK RUN"), "{reply:?}");

    let exposition = scrape(&mut client);
    let started = exposition
        .value("landscaped_queries_started_total", &[])
        .expect("started counter");
    assert_eq!(started, 1.0);
    assert_eq!(
        exposition.value("landscaped_queries_completed_total", &[]),
        Some(1.0)
    );
    assert_eq!(exposition.value("landscaped_inflight", &[]), Some(0.0));
    assert_eq!(exposition.value("landscaped_epoch", &[]), Some(0.0));

    // Wall-latency histograms exist with the query observed.
    assert_eq!(
        exposition.value("landscaped_query_wall_us_count", &[]),
        Some(1.0)
    );
    let stage_hist = exposition.series("landscaped_stage_wall_us_count");
    assert!(
        stage_hist
            .iter()
            .any(|(labels, _)| labels.iter().any(|(k, v)| k == "stage" && v == "setup")),
        "stage label missing: {stage_hist:?}"
    );
    let family = exposition
        .families
        .iter()
        .find(|f| f.name == "landscaped_query_wall_us")
        .expect("histogram family");
    assert_eq!(family.kind, FamilyKind::Histogram);

    // The legacy key=value METRICS reply reads the same handles, so
    // the two views agree.
    let legacy = client.request("METRICS").expect("metrics");
    assert!(
        legacy.contains(&"queries.started=1".to_owned()),
        "{legacy:?}"
    );
    assert!(
        legacy.contains(&"queries.completed=1".to_owned()),
        "{legacy:?}"
    );
    let legacy_hits: f64 = legacy
        .iter()
        .find_map(|l| l.strip_prefix("cache.hits="))
        .expect("cache.hits")
        .parse()
        .expect("numeric");
    // PROM re-mirrors the cache counters at its own scrape time, so
    // hits can only have grown since.
    assert!(
        exposition
            .value("landscaped_cache_hits_total", &[])
            .expect("cache hits")
            <= legacy_hits
    );
}

#[test]
fn concurrent_prom_scrapes_parse_and_stay_monotonic() {
    // Satellite (b): the torn-read audit. Queries run at 8 wave
    // threads while scrapers hammer METRICS PROM; every scrape must
    // parse, and monotonic counters must never step backwards across
    // consecutive scrapes on the same connection.
    let (handle, mut client) = spawn(|cfg| {
        cfg.wave_threads = 8;
        cfg.max_inflight = 2;
    });
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
                let monitored = [
                    "landscaped_queries_started_total",
                    "landscaped_queries_completed_total",
                    "landscaped_cache_insertions_total",
                    "landscaped_query_wall_us_count",
                ];
                let mut last = [0f64; 4];
                let mut scrapes = 0u32;
                while !stop.load(Ordering::Acquire) || scrapes == 0 {
                    let exposition = scrape(&mut client);
                    for (slot, name) in last.iter_mut().zip(monitored) {
                        let value = exposition
                            .value(name, &[])
                            .unwrap_or_else(|| panic!("{name} missing from scrape {scrapes}"));
                        assert!(value >= *slot, "{name} went backwards: {value} < {slot}");
                        *slot = value;
                    }
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    for _ in 0..3 {
        let reply = client.request("RUN_UNTIL all").expect("run");
        assert!(
            reply[1].starts_with("OK RUN") || reply[1].starts_with("PARTIAL RUN"),
            "{reply:?}"
        );
    }
    stop.store(true, Ordering::Release);
    let total: u32 = scrapers
        .into_iter()
        .map(|j| j.join().expect("scraper panicked"))
        .sum();
    assert!(total >= 4, "scrapers barely ran: {total}");
}

#[test]
fn trace_renders_span_tree_for_completed_query() {
    let (_handle, mut client) = spawn(|_| {});
    let reply = client.request("RUN_UNTIL all").expect("run");
    let id = run_id(&reply);
    let trace = client.request(&format!("TRACE {id}")).expect("trace");
    assert_eq!(trace[0], "OK TRACE");
    assert!(
        trace[1].starts_with(&format!("query id={id} outcome=ok")),
        "{trace:?}"
    );
    let body = trace.join("\n");
    for span in ["parse", "admission", "run", "stage:setup", "render"] {
        assert!(body.contains(span), "missing {span} in {body}");
    }
    // The cached bootstrap setup shows up as a cache event.
    assert!(body.contains("!cache"), "{body}");
}

#[test]
fn trace_dump_is_valid_chrome_json() {
    let (_handle, mut client) = spawn(|_| {});
    client.request("RUN_UNTIL setup").expect("run 1");
    client.request("RUN_UNTIL port_scan").expect("run 2");
    let reply = client.request("TRACE DUMP").expect("dump");
    assert_eq!(reply[0], "OK TRACE");
    let json: String = reply[1..reply.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    obs::validate_json(&json).expect("chrome trace json");
    assert!(json.contains("[ok] RUN_UNTIL setup"), "{json}");
    assert!(json.contains("[ok] RUN_UNTIL port_scan"), "{json}");
}

#[test]
fn trace_errors_pins_partial_queries_after_ring_churn() {
    let (_handle, mut client) = spawn(|cfg| {
        cfg.flight_capacity = 2;
        cfg.flight_errors = 4;
    });
    // An exhausted wall budget produces PARTIAL, which pins the record.
    let partial = client.request("RUN_UNTIL all WALL_MS 0").expect("partial");
    let partial_id = run_id(&partial);
    assert!(partial[1].starts_with("PARTIAL RUN"), "{partial:?}");
    // Churn the tiny main ring with healthy traffic.
    for _ in 0..3 {
        client.request("RUN_UNTIL setup").expect("ok run");
    }
    let errors = client.request("TRACE ERRORS").expect("errors");
    assert!(
        errors
            .iter()
            .any(|l| l.starts_with(&format!("id={partial_id} outcome=partial"))),
        "{errors:?}"
    );
    // The pinned record stays addressable even off the main ring.
    let trace = client
        .request(&format!("TRACE {partial_id}"))
        .expect("trace");
    assert!(trace[1].contains("outcome=partial"), "{trace:?}");
    assert!(trace.join("\n").contains("!halt"), "{trace:?}");
}

#[test]
fn unknown_trace_id_is_a_typed_error() {
    let (_handle, mut client) = spawn(|_| {});
    assert_eq!(
        client.request("TRACE 999").expect("reply"),
        vec!["ERR unknown_trace: id=999".to_owned()]
    );
}

#[test]
fn status_full_extends_the_frozen_status_reply() {
    let (_handle, mut client) = spawn(|cfg| cfg.cache_budget_bytes = Some(1 << 20));
    let plain = client.request("STATUS").expect("status");
    assert!(
        !plain.iter().any(|l| l.starts_with("uptime_ms=")),
        "plain STATUS must stay frozen: {plain:?}"
    );
    let full = client.request("STATUS FULL").expect("status full");
    assert_eq!(full[0], "OK STATUS");
    // The frozen prefix is identical...
    assert_eq!(&full[..plain.len() - 1], &plain[..plain.len() - 1]);
    // ...and the telemetry extension follows.
    for key in [
        "epoch_age_ms=",
        "uptime_ms=",
        "cache.entries=",
        "cache.resident_bytes=",
        "flight.recent=",
        "flight.errors=",
        "wave_threads=",
    ] {
        assert!(
            full.iter().any(|l| l.starts_with(key)),
            "missing {key} in {full:?}"
        );
    }
    assert!(
        full.contains(&format!("cache.budget_bytes={}", 1 << 20)),
        "{full:?}"
    );
}

#[test]
fn byte_budget_eviction_shows_in_prom_but_not_legacy_metrics() {
    // A 1-byte budget forces every insert to evict down to the single
    // newest payload.
    let (_handle, mut client) = spawn(|cfg| cfg.cache_budget_bytes = Some(1));
    let reply = client.request("RUN_UNTIL all").expect("run");
    assert!(reply[1].contains("RUN id="), "{reply:?}");
    let exposition = scrape(&mut client);
    assert!(
        exposition
            .value("landscaped_cache_evicted_bytes_total", &[])
            .expect("evicted bytes")
            > 0.0
    );
    assert_eq!(exposition.value("landscaped_cache_entries", &[]), Some(1.0));
    assert!(
        exposition
            .value("landscaped_cache_resident_bytes", &[])
            .expect("resident bytes")
            > 0.0
    );
    // The frozen legacy reply gained no new keys.
    let legacy = client.request("METRICS").expect("metrics");
    assert_eq!(legacy.len(), 14, "{legacy:?}");
    assert!(
        !legacy.iter().any(|l| l.contains("bytes")),
        "legacy METRICS must stay frozen: {legacy:?}"
    );
}

#[test]
fn pool_families_are_exported() {
    let (_handle, mut client) = spawn(|_| {});
    let exposition = scrape(&mut client);
    // The scraping connection itself occupies a worker.
    assert_eq!(exposition.value("landscaped_pool_workers", &[]), Some(4.0));
    assert_eq!(exposition.value("landscaped_pool_busy", &[]), Some(1.0));
    assert_eq!(exposition.value("landscaped_pool_queued", &[]), Some(0.0));
    assert_eq!(
        exposition.value("landscaped_pool_submitted_total", &[]),
        Some(1.0)
    );
    assert_eq!(
        exposition.value("landscaped_pool_rejected_total", &[]),
        Some(0.0)
    );
    assert!(
        exposition
            .value("landscaped_pool_queue_wait_us_count", &[])
            .is_some(),
        "queue-wait histogram missing"
    );
}

#[test]
fn resync_paths_increment_protocol_errors() {
    let (handle, mut client) = spawn(|_| {});
    // Raw socket: one non-UTF-8 line, then one unparseable line.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    raw.write_all(b"\xff\xfe garbage\nNONSENSE VERB\n")
        .expect("write");
    raw.flush().expect("flush");
    let mut buf = [0u8; 512];
    let mut seen = String::new();
    while !seen.contains("ERR unknown_command") {
        let n = raw.read(&mut buf).expect("read");
        assert!(n > 0, "daemon closed before replying: {seen:?}");
        seen.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    assert!(seen.contains("ERR"), "{seen:?}");
    let metrics = client.request("METRICS").expect("metrics");
    let errors: u64 = metrics
        .iter()
        .find_map(|l| l.strip_prefix("protocol.errors="))
        .expect("protocol.errors")
        .parse()
        .expect("numeric");
    assert_eq!(errors, 2, "{metrics:?}");
}
