//! Text rendering of every table and figure, shared by the examples
//! and the benchmark binaries.

use std::fmt::Write as _;

use hs_content::{CertSurvey, CrawlReport};
use hs_popularity::{Ranking, ResolutionReport, SketchSummary};
use hs_portscan::ScanReport;

use crate::pipeline::PipelineTimings;
use crate::study::{DeanonReport, TrackingReport};

/// Renders Fig. 1 (open-ports distribution) as an aligned text table.
pub fn render_fig1(scan: &ScanReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 1 — Open ports distribution");
    let _ = writeln!(out, "{:<16} {:>8}", "port", "open");
    for (label, count) in scan.fig1_rows(50) {
        let _ = writeln!(out, "{label:<16} {count:>8}");
    }
    let _ = writeln!(
        out,
        "total {} open ports on {} addresses ({} unique ports, coverage {:.0}%)",
        scan.total_open(),
        scan.with_descriptors,
        scan.unique_ports(),
        scan.coverage() * 100.0
    );
    out
}

/// Renders Table I (HTTP/HTTPS access per port).
pub fn render_table1(crawl: &CrawlReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I — HTTP and HTTPS access");
    let _ = writeln!(out, "{:<10} {:>10}", "port", "# onions");
    for (label, count) in crawl.table1_rows() {
        let _ = writeln!(out, "{label:<10} {count:>10}");
    }
    let _ = writeln!(
        out,
        "attempted {} → still open {} → connected {}",
        crawl.attempted, crawl.still_open, crawl.connected
    );
    out
}

/// Renders the Sec. IV exclusion funnel and language histogram.
pub fn render_funnel_and_languages(crawl: &CrawlReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Sec. IV funnel:");
    let _ = writeln!(
        out,
        "  connected {} | errors {} | short {} (ssh {}) | 443-dups {} | classified {}",
        crawl.connected,
        crawl.excluded_errors,
        crawl.excluded_short,
        crawl.ssh_banners,
        crawl.excluded_mirrors,
        crawl.classified.len()
    );
    let total = crawl.classified.len().max(1);
    let _ = writeln!(
        out,
        "Languages ({} classified pages):",
        crawl.classified.len()
    );
    for (lang, count) in crawl.language_histogram() {
        let _ = writeln!(
            out,
            "  {:<4} {:>6}  ({:.1}%)",
            lang.code(),
            count,
            100.0 * f64::from(count) / total as f64
        );
    }
    out
}

/// Renders Fig. 2 (topic distribution).
pub fn render_fig2(crawl: &CrawlReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 2 — Topics distribution ({} English non-default pages; {} TorHost defaults removed)",
        crawl.topic_classified_count(),
        crawl.torhost_count()
    );
    for (topic, count, pct) in crawl.fig2_rows() {
        let bar = "#".repeat((pct.round() as usize).min(40));
        let _ = writeln!(out, "{:<18} {count:>5} {pct:>5.1}% {bar}", topic.label());
    }
    out
}

/// Renders Table II (popularity ranking), `n` rows.
pub fn render_table2(ranking: &Ranking, n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table II — Ranking of most popular hidden services");
    let _ = writeln!(out, "{:<5} {:>8}  {:<22} Desc", "#", "RQSTS", "Addr");
    for row in ranking.top(n) {
        let _ = writeln!(
            out,
            "{:<5} {:>8}  {:<22} {}",
            row.rank,
            row.requests,
            row.onion.to_string(),
            row.label
        );
    }
    out
}

/// Renders the Sec. V resolution statistics.
pub fn render_sec5(resolution: &ResolutionReport, requested_share: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Sec. V — Popularity measurement");
    let _ = writeln!(
        out,
        "  total requests        {:>10}",
        resolution.total_requests
    );
    let _ = writeln!(
        out,
        "  unique descriptor IDs {:>10}",
        resolution.unique_desc_ids
    );
    let _ = writeln!(
        out,
        "  resolved IDs          {:>10}",
        resolution.resolved_desc_ids
    );
    let _ = writeln!(
        out,
        "  resolved onions       {:>10}",
        resolution.resolved_onions
    );
    let _ = writeln!(
        out,
        "  phantom request share {:>9.1}%",
        resolution.phantom_share() * 100.0
    );
    let _ = writeln!(
        out,
        "  published services ever requested {:>5.1}%",
        requested_share * 100.0
    );
    out
}

/// Renders the streaming-sketch state line printed under Sec. V when
/// the study ran with [`crate::StudyConfig::streaming`] set.
pub fn render_sketch(sketch: &SketchSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  streaming sketches: cms {}x{}, top-k {}/{} tracked ({} evictions), \
         hll p={} ≈{:.0} ids, {} KiB, {} requests in {} batches",
        sketch.cms_width,
        sketch.cms_depth,
        sketch.topk_tracked,
        sketch.topk_capacity,
        sketch.topk_churn,
        sketch.hll_precision,
        sketch.hll_estimate,
        sketch.memory_bytes / 1024,
        sketch.total_requests,
        sketch.batches
    );
    out
}

/// Renders the Sec. III certificate survey.
pub fn render_certs(certs: &CertSurvey) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Sec. III — HTTPS certificates");
    let _ = writeln!(
        out,
        "  HTTPS destinations           {:>6}",
        certs.https_destinations
    );
    let _ = writeln!(
        out,
        "  self-signed, CN mismatch     {:>6}",
        certs.self_signed_mismatch
    );
    let _ = writeln!(
        out,
        "  … with the TorHost CN        {:>6}",
        certs.torhost_cn
    );
    let _ = writeln!(
        out,
        "  clearnet DNS CN (deanon.)    {:>6}",
        certs.clearnet_dns
    );
    let _ = writeln!(
        out,
        "  matching onion CN            {:>6}",
        certs.matching_onion
    );
    for (onion, name) in certs.deanonymised.iter().take(5) {
        let _ = writeln!(out, "    {onion} → {name}");
    }
    out
}

/// Renders the Fig. 3 client map.
pub fn render_fig3(deanon: &DeanonReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 3 — Clients of {} ({} unique clients, {} countries; expected catch rate {:.1}%/fetch)",
        deanon.target,
        deanon.unique_clients,
        deanon.geomap.country_count(),
        deanon.expected_rate * 100.0
    );
    out.push_str(&deanon.geomap.ascii_map());
    out.push('\n');
    for (code, name, count) in deanon.geomap.rows().iter().take(12) {
        let _ = writeln!(out, "  {code} {name:<18} {count:>5}");
    }
    out
}

/// Renders the Sec. VII per-year tracking findings.
pub fn render_tracking(tracking: &TrackingReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Sec. VII — Tracking detection (Silk Road)");
    for (label, analysis) in &tracking.years {
        let trackers = analysis.trackers();
        let _ = writeln!(
            out,
            "{label}: mean HSDirs {:.0}, {} suspicious server(s), {} tracker(s)",
            analysis.mean_hsdirs,
            analysis.suspicious().len(),
            trackers.len()
        );
        for t in trackers.iter().take(8) {
            let _ = writeln!(
                out,
                "  {} ({}): responsible {}x (μ={:.2}, σ={:.2}), ratio {:.0}, switches {} ({} pre-responsibility), rules {:?}",
                t.key.ip,
                t.nicknames.join(","),
                t.responsible_days.len(),
                t.expected,
                t.sigma,
                t.max_ratio,
                t.fingerprint_switches,
                t.switches_before_responsible,
                t.suspicions
            );
        }
    }
    out
}

/// Renders the per-stage timing and counter table of a pipeline run,
/// including which stages the plan skipped.
pub fn render_stage_timings(timings: &PipelineTimings) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Pipeline stages");
    let _ = writeln!(out, "{:<14} {:>10}  counters", "stage", "wall");
    for t in &timings.executed {
        let counters = t
            .counters
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:<14} {:>8.1}ms  {counters}",
            t.stage.name(),
            t.wall.as_secs_f64() * 1e3
        );
    }
    for s in &timings.skipped {
        let _ = writeln!(out, "{:<14}    skipped", s.name());
    }
    for d in &timings.degraded {
        let _ = writeln!(
            out,
            "{:<14}    DEGRADED after {} attempt(s): {}",
            d.stage.name(),
            d.attempts,
            d.error
        );
    }
    let sha1 = timings.counter_total("sha1_digests");
    let hits = timings.counter_total("desc_cache_hits");
    let misses = timings.counter_total("desc_cache_misses");
    let fetches = timings.counter_total("fetches");
    if hits + misses > 0 {
        let _ = writeln!(
            out,
            "hot path: {sha1} SHA-1 digests, desc cache {hits} hits / {misses} misses ({:.1}% hit rate), {fetches} fetches",
            100.0 * hits as f64 / (hits + misses) as f64
        );
    }
    // Fault-injection summary. The counters only exist when the study
    // ran with an active fault plan, so fault-free output is unchanged.
    let faults_reported = timings
        .executed
        .iter()
        .any(|t| t.counter("relay_crashes").is_some());
    if faults_reported {
        let _ = writeln!(
            out,
            "faults: {} relay crashes ({} restarts), {} fetch drops ({} overload), {} publish drops, {} service flaps",
            timings.counter_total("relay_crashes"),
            timings.counter_total("relay_restarts"),
            timings.counter_total("fetch_drops"),
            timings.counter_total("overload_drops"),
            timings.counter_total("publish_drops"),
            timings.counter_total("service_flaps"),
        );
    }
    let stage_retries = timings.counter_total("retries");
    if stage_retries > 0 {
        let _ = writeln!(out, "stage retries absorbed: {stage_retries}");
    }
    // Both wall-clock notions: the per-stage sum over-counts stages
    // that ran side by side; elapsed is the stopwatch number.
    let _ = writeln!(
        out,
        "wall: {:.1} ms summed across stage bodies, {:.1} ms elapsed",
        timings.total_wall().as_secs_f64() * 1e3,
        timings.elapsed.as_secs_f64() * 1e3
    );
    let hists = timings.histograms();
    if !hists.is_empty() {
        let _ = writeln!(out, "distributions (n, p50/p90/p99, max):");
        for (_, name, h) in hists {
            let _ = writeln!(
                out,
                "  {name:<32} n={:<8} {}/{}/{}  max {}",
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            );
        }
    }
    out
}

/// Renders the degraded-stage section of a partial report. Empty when
/// every planned stage completed.
pub fn render_degraded(timings: &PipelineTimings) -> String {
    if timings.degraded.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "PARTIAL REPORT — {} stage(s) degraded:",
        timings.degraded.len()
    );
    for d in &timings.degraded {
        let _ = writeln!(
            out,
            "  {:<14} after {} attempt(s): {}",
            d.stage.name(),
            d.attempts,
            d.error
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};

    #[test]
    fn all_renderers_produce_output() {
        let report = Study::new(StudyConfig::test_scale()).run();
        assert!(report.is_complete(), "{:?}", report.degraded_stages());
        assert!(render_fig1(report.scan.as_ref().unwrap()).contains("Fig. 1"));
        assert!(render_table1(report.crawl.as_ref().unwrap()).contains("Table I"));
        assert!(render_funnel_and_languages(report.crawl.as_ref().unwrap()).contains("Languages"));
        assert!(render_fig2(report.crawl.as_ref().unwrap()).contains("Fig. 2"));
        assert!(render_table2(report.ranking.as_ref().unwrap(), 30).contains("Table II"));
        assert!(render_sec5(
            report.resolution.as_ref().unwrap(),
            report.requested_published_share.unwrap()
        )
        .contains("phantom"));
        assert!(render_certs(report.certs.as_ref().unwrap()).contains("HTTPS"));
        assert!(render_fig3(report.deanon.as_ref().unwrap()).contains("Fig. 3"));
        let stages = render_stage_timings(&report.stages);
        assert!(stages.contains("harvest"), "{stages}");
        assert!(stages.contains("skipped"), "{stages}");
        assert!(stages.contains("hot path:"), "{stages}");
        // Fault-free run: no fault summary, no degraded section.
        assert!(!stages.contains("faults:"), "{stages}");
        assert!(render_degraded(&report.stages).is_empty());
        // Exact path: no sketch section to render.
        assert!(report.sketch.is_none());
    }

    #[test]
    fn sketch_renderer_reports_the_exactness_signals() {
        let line = render_sketch(&SketchSummary {
            cms_width: 16_384,
            cms_depth: 4,
            topk_capacity: 8_192,
            topk_tracked: 775,
            topk_churn: 0,
            hll_precision: 12,
            hll_estimate: 777.0,
            memory_bytes: 823_296,
            total_requests: 14_748,
            batches: 401,
        });
        assert!(line.contains("cms 16384x4"), "{line}");
        assert!(line.contains("775/8192 tracked (0 evictions)"), "{line}");
        assert!(line.contains("14748 requests in 401 batches"), "{line}");
    }
}
