//! The port scanner: probes every harvested onion address over a
//! multi-day schedule, through the simulated Tor network.

use std::collections::BTreeMap;

use onion_crypto::onion::OnionAddress;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tor_sim::clock::{SimTime, DAY};
use tor_sim::fault::RetryPolicy;
use tor_sim::network::{onion_unit_key, FetchOutcome, Network, WaveEffects};
use tor_sim::relay::Ipv4;
use tor_sim::service::{PortReply, ServiceBackend};
use wave::{mix2, WavePool, WaveStats};

use hs_world::service::SKYNET_PORT;
use hs_world::World;

use crate::schedule::ScanSchedule;

/// Scanner configuration.
#[derive(Clone, Debug)]
pub struct ScanConfig {
    /// First scan day (the paper: 2013-02-14).
    pub start: SimTime,
    /// Number of scan days (the paper: 7, Feb 14–21).
    pub days: usize,
    /// Extra never-open decoy ports probed alongside the candidate set,
    /// to exercise closed/timeout paths like a real sweep.
    pub decoy_ports: Vec<u16>,
    /// Retry budget for descriptor fetches that time out. On a
    /// fault-free network no fetch ever times out, so the policy is
    /// never consulted.
    pub retry: RetryPolicy,
    /// Seed for the per-target probe RNG streams. Each (day, target)
    /// unit derives its stream from this seed plus stable unit keys,
    /// never from shard or thread identity.
    pub seed: u64,
    /// Worker threads for each day's measurement wave. `1` (the
    /// default) runs the wave inline; any value produces byte-identical
    /// reports.
    pub threads: usize,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            start: SimTime::from_ymd(2013, 2, 14),
            days: 7,
            decoy_ports: vec![21, 23, 25, 110, 143, 993, 3306, 5900, 8443],
            retry: RetryPolicy::standard(),
            seed: 0x5ca7,
            threads: 1,
        }
    }
}

/// One conclusive probe result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeResult {
    /// Target address.
    pub onion: OnionAddress,
    /// Probed port.
    pub port: u16,
    /// The reply.
    pub reply: PortReply,
}

/// Everything the scan learned (Sec. III).
#[derive(Clone, Debug, Default)]
pub struct ScanReport {
    /// Addresses whose descriptor was fetchable at least once during
    /// the scan week.
    pub with_descriptors: usize,
    /// Total addresses probed.
    pub targets: usize,
    /// Open-port counts per port number (abnormal 55080 replies counted
    /// as open, per the paper's methodology).
    pub open_by_port: BTreeMap<u16, u32>,
    /// Open ports per onion address.
    pub open_by_onion: BTreeMap<OnionAddress, Vec<u16>>,
    /// Probes scheduled vs probes that concluded (service reachable on
    /// the day) — the paper's 87 % coverage statistic.
    pub probes_scheduled: u64,
    /// Probes that reached the service and produced a definite reply.
    pub probes_concluded: u64,
    /// Number of 55080 abnormal-close replies (the Skynet census).
    pub skynet_count: u32,
    /// Extra descriptor-fetch attempts beyond the first (retries after
    /// a timeout). Zero on a fault-free network.
    pub fetch_retries: u64,
    /// Fetches that succeeded only after at least one retry.
    pub fetch_recovered: u64,
    /// Fetches still timing out after the whole retry budget — their
    /// scheduled probes are lost for the day.
    pub fetch_gave_ups: u64,
    /// Targets whose descriptor vanished after being fetchable on an
    /// earlier scan day (the service is gone, not merely lossy).
    pub fetch_gone: u64,
    /// Total capped-exponential backoff charged across retries, in
    /// (accounted, never slept) seconds.
    pub retry_backoff_secs: u64,
    /// Distribution of descriptor-fetch attempts per target-day (1 on
    /// a fault-free network; the retry tail under loss).
    pub fetch_attempts: obs::Histogram,
    /// Distribution of accounted backoff seconds per retried fetch
    /// (fetches that needed no retry are not sampled).
    pub retry_backoff: obs::Histogram,
    /// One record per scan day, for the pipeline's trace exporter.
    pub days_trace: Vec<DayTrace>,
}

/// Per-day scan accounting: how much work the day scheduled and
/// concluded, and where in simulated time it ran. The pipeline turns
/// each record into one client-ops span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DayTrace {
    /// The scan day's start in simulated time.
    pub day: SimTime,
    /// Probes scheduled on this day.
    pub scheduled: u64,
    /// Probes concluded on this day.
    pub concluded: u64,
    /// Descriptor fetches that exhausted the retry budget on this day.
    pub gave_ups: u64,
}

impl ScanReport {
    /// Total open ports found (the paper: 22,007).
    pub fn total_open(&self) -> u32 {
        self.open_by_port.values().sum()
    }

    /// Number of distinct open port numbers (the paper: 495).
    pub fn unique_ports(&self) -> usize {
        self.open_by_port.len()
    }

    /// Scan coverage: concluded / scheduled (the paper: 0.87).
    pub fn coverage(&self) -> f64 {
        if self.probes_scheduled == 0 {
            return 0.0;
        }
        self.probes_concluded as f64 / self.probes_scheduled as f64
    }

    /// Fig. 1 rows: named ports with ≥ `threshold` hits, descending,
    /// plus a final aggregated "other" row.
    pub fn fig1_rows(&self, threshold: u32) -> Vec<(String, u32)> {
        let mut named: Vec<(String, u32)> = Vec::new();
        let mut other = 0u32;
        for (&port, &count) in &self.open_by_port {
            if count >= threshold {
                named.push((port_label(port), count));
            } else {
                other += count;
            }
        }
        named.sort_by_key(|row| std::cmp::Reverse(row.1));
        if other > 0 {
            named.push(("other".to_owned(), other));
        }
        named
    }

    /// The destinations a crawler would try next (every open port except
    /// 55080) — Sec. IV starts here.
    pub fn crawl_destinations(&self) -> Vec<(OnionAddress, u16)> {
        self.open_by_onion
            .iter()
            .flat_map(|(&onion, ports)| {
                ports
                    .iter()
                    .filter(|&&p| p != SKYNET_PORT)
                    .map(move |&p| (onion, p))
            })
            .collect()
    }
}

/// Human label for a port, matching Fig. 1's axis.
pub fn port_label(port: u16) -> String {
    match port {
        22 => "22-ssh".to_owned(),
        80 => "80-http".to_owned(),
        443 => "443-https".to_owned(),
        4050 => "4050".to_owned(),
        6667 => "6667-irc".to_owned(),
        11009 => "11009-TorChat".to_owned(),
        55080 => "55080-Skynet".to_owned(),
        p => p.to_string(),
    }
}

/// The scanner.
#[derive(Debug)]
pub struct Scanner {
    config: ScanConfig,
}

impl Scanner {
    /// Creates a scanner with the paper's schedule.
    pub fn new(config: ScanConfig) -> Self {
        Scanner { config }
    }

    /// Runs the scan of `targets` against the world, through the
    /// network.
    pub fn run(&self, net: &mut Network, world: &World, targets: &[OnionAddress]) -> ScanReport {
        self.run_traced(net, world, targets).0
    }

    /// Runs the scan and additionally returns per-day wave accounting
    /// (one [`WaveStats`] per scan day) for the pipeline's shard spans.
    ///
    /// Each scan day is a sequential *mutate* phase — advance simulated
    /// time, apply churn, revote, maintain guard sets — followed by a
    /// read-only *measurement wave*: one work unit per target, sharded
    /// across [`ScanConfig::threads`] workers. A unit fetches the
    /// target's descriptor (unit-keyed RNG stream; its retries reuse one
    /// fetch plan) and, on success,
    /// probes the day's scheduled ports; its side effects and probe
    /// replies are merged back in target order, so the report is
    /// byte-identical at any thread count. Unreachable services leave
    /// their scheduled probes unconcluded — the coverage gap.
    pub fn run_traced(
        &self,
        net: &mut Network,
        world: &World,
        targets: &[OnionAddress],
    ) -> (ScanReport, Vec<WaveStats>) {
        // Candidate ports: everything any service listens on, plus the
        // Skynet oracle port and the decoys.
        let mut candidates: Vec<u16> = world
            .services()
            .iter()
            .flat_map(|s| s.open_ports())
            .collect();
        candidates.push(SKYNET_PORT);
        candidates.extend_from_slice(&self.config.decoy_ports);
        let schedule = ScanSchedule::split(candidates, self.config.days);

        let scanner_client = net.add_client(Ipv4::new(198, 18, 0, 1));
        let mut report = ScanReport {
            targets: targets.len(),
            ..ScanReport::default()
        };
        let mut had_descriptor = vec![false; targets.len()];
        let pool = WavePool::new(self.config.threads);
        let mut waves = Vec::with_capacity(self.config.days);

        for day in 0..self.config.days {
            // Mutate phase: synchronise simulated time to the scan day,
            // let churn take services up/down, and refresh guard sets.
            let day_time = self.config.start + (day as u64) * DAY;
            while net.time() < day_time {
                net.advance_hours(1);
            }
            world.apply_churn(net, net.time());
            net.revote();
            net.prepare_wave();

            let ports = schedule.ports_on(day).to_vec();
            let (day_scheduled0, day_concluded0, day_gave_ups0) = (
                report.probes_scheduled,
                report.probes_concluded,
                report.fetch_gave_ups,
            );

            // Measurement wave: one read-only unit per target.
            let day_seed = mix2(self.config.seed, day as u64);
            let now = net.time();
            let retry = &self.config.retry;
            let ports_ref = &ports;
            let net_ref: &Network = net;
            let (units, stats) = pool.map(targets, |_, &onion| {
                let unit_key = mix2(day_seed, onion_unit_key(onion));
                let mut rng = StdRng::seed_from_u64(unit_key);
                let mut fx = WaveEffects::new(unit_key);
                let mut plan = net_ref.plan_fetches(onion, &mut fx);
                let fetched = net_ref.client_fetch_with_retry_readonly(
                    scanner_client,
                    &mut plan,
                    retry,
                    &mut rng,
                    &mut fx,
                );
                let replies: Vec<PortReply> = if fetched.outcome == FetchOutcome::Found {
                    world.connect_ports(onion, ports_ref, now)
                } else {
                    Vec::new()
                };
                (fetched, replies, fx)
            });
            waves.push(stats);

            // Merge in canonical target order.
            for ((ti, &onion), (fetched, replies, fx)) in targets.iter().enumerate().zip(units) {
                net.apply_wave_effects(fx);
                report.probes_scheduled += ports.len() as u64;
                report.fetch_retries += u64::from(fetched.attempts - 1);
                report.retry_backoff_secs += fetched.backoff_secs;
                report.fetch_attempts.record(u64::from(fetched.attempts));
                if fetched.attempts > 1 {
                    report.retry_backoff.record(fetched.backoff_secs);
                }
                match fetched.outcome {
                    FetchOutcome::Found => {
                        if fetched.attempts > 1 {
                            report.fetch_recovered += 1;
                        }
                    }
                    FetchOutcome::Timeout => {
                        report.fetch_gave_ups += 1;
                        continue;
                    }
                    FetchOutcome::NotFound if had_descriptor[ti] => {
                        report.fetch_gone += 1;
                        continue;
                    }
                    _ => continue,
                }
                had_descriptor[ti] = true;
                for (&port, &reply) in ports.iter().zip(&replies) {
                    match reply {
                        PortReply::Timeout => {}
                        PortReply::Closed => report.probes_concluded += 1,
                        PortReply::Open | PortReply::AbnormalClose => {
                            report.probes_concluded += 1;
                            *report.open_by_port.entry(port).or_insert(0) += 1;
                            report.open_by_onion.entry(onion).or_default().push(port);
                            if reply == PortReply::AbnormalClose && port == SKYNET_PORT {
                                report.skynet_count += 1;
                            }
                        }
                    }
                }
            }
            report.days_trace.push(DayTrace {
                day: day_time,
                scheduled: report.probes_scheduled - day_scheduled0,
                concluded: report.probes_concluded - day_concluded0,
                gave_ups: report.fetch_gave_ups - day_gave_ups0,
            });
        }

        report.with_descriptors = had_descriptor.iter().filter(|&&b| b).count();
        for ports in report.open_by_onion.values_mut() {
            ports.sort_unstable();
            ports.dedup();
        }
        (report, waves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_world::WorldConfig;
    use tor_sim::network::NetworkBuilder;

    fn scan_small() -> (ScanReport, World) {
        let world = World::generate(WorldConfig {
            seed: 5,
            scale: 0.01,
        });
        let mut net = NetworkBuilder::new()
            .relays(120)
            .seed(5)
            .start(SimTime::from_ymd(2013, 2, 13))
            .build();
        world.register_all(&mut net);
        net.advance_hours(1);
        let targets: Vec<OnionAddress> = world.services().iter().map(|s| s.onion).collect();
        let config = ScanConfig {
            days: 3,
            ..ScanConfig::default()
        };
        let report = Scanner::new(config).run(&mut net, &world, &targets);
        (report, world)
    }

    #[test]
    fn skynet_dominates_open_ports() {
        let (report, _) = scan_small();
        let rows = report.fig1_rows(1);
        assert_eq!(rows[0].0, "55080-Skynet", "rows: {rows:?}");
        // Port 80 among the top rows.
        assert!(rows.iter().take(4).any(|(l, _)| l == "80-http"));
    }

    #[test]
    fn coverage_in_plausible_band() {
        let (report, _) = scan_small();
        let cov = report.coverage();
        assert!((0.55..0.999).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn descriptors_found_for_most_live_services() {
        let (report, world) = scan_small();
        let publishing = world
            .services()
            .iter()
            .filter(|s| s.publishes_descriptors())
            .count();
        assert!(report.with_descriptors > publishing * 8 / 10);
        assert!(report.with_descriptors <= publishing);
    }

    #[test]
    fn crawl_destinations_exclude_skynet_port() {
        let (report, _) = scan_small();
        assert!(report
            .crawl_destinations()
            .iter()
            .all(|&(_, p)| p != SKYNET_PORT));
        assert!(!report.crawl_destinations().is_empty());
    }

    #[test]
    fn decoy_ports_never_open() {
        let (report, _) = scan_small();
        for decoy in [21u16, 23, 25] {
            assert!(!report.open_by_port.contains_key(&decoy), "port {decoy}");
        }
    }

    #[test]
    fn open_lists_deduplicated() {
        let (report, _) = scan_small();
        for ports in report.open_by_onion.values() {
            let mut sorted = ports.clone();
            sorted.dedup();
            assert_eq!(&sorted, ports);
        }
    }

    #[test]
    fn fault_free_scan_never_retries() {
        let (report, _) = scan_small();
        assert_eq!(report.fetch_retries, 0);
        assert_eq!(report.fetch_recovered, 0);
        assert_eq!(report.fetch_gave_ups, 0);
        assert_eq!(report.retry_backoff_secs, 0);
        // Histograms agree: one single-attempt sample per target-day,
        // no backoff samples at all.
        assert_eq!(report.fetch_attempts.count(), 3 * report.targets as u64);
        assert_eq!(report.fetch_attempts.max(), 1);
        assert_eq!(report.fetch_attempts.p99(), 1);
        assert_eq!(report.retry_backoff.count(), 0);
    }

    #[test]
    fn day_traces_partition_the_scan() {
        let (report, _) = scan_small();
        assert_eq!(report.days_trace.len(), 3);
        let scheduled: u64 = report.days_trace.iter().map(|d| d.scheduled).sum();
        let concluded: u64 = report.days_trace.iter().map(|d| d.concluded).sum();
        assert_eq!(scheduled, report.probes_scheduled);
        assert_eq!(concluded, report.probes_concluded);
        for pair in report.days_trace.windows(2) {
            assert!(pair[0].day < pair[1].day, "days are ordered");
        }
    }

    fn scan_with_faults(plan: tor_sim::FaultPlan) -> ScanReport {
        let world = World::generate(WorldConfig {
            seed: 5,
            scale: 0.01,
        });
        let mut net = NetworkBuilder::new()
            .relays(120)
            .seed(5)
            .start(SimTime::from_ymd(2013, 2, 13))
            .faults(plan)
            .build();
        world.register_all(&mut net);
        net.advance_hours(1);
        let targets: Vec<OnionAddress> = world.services().iter().map(|s| s.onion).collect();
        let config = ScanConfig {
            days: 2,
            ..ScanConfig::default()
        };
        Scanner::new(config).run(&mut net, &world, &targets)
    }

    #[test]
    fn total_drop_rate_exhausts_every_retry_budget() {
        let plan = tor_sim::FaultPlan {
            seed: 17,
            hsdir_drop_rate: 1.0,
            ..tor_sim::FaultPlan::none()
        };
        let report = scan_with_faults(plan);
        // Every target-day fetch burned its whole budget and gave up:
        // nothing was scanned, but the scanner itself survived.
        assert_eq!(report.fetch_gave_ups, 2 * report.targets as u64);
        assert_eq!(
            report.fetch_retries,
            report.fetch_gave_ups * u64::from(RetryPolicy::standard().max_attempts - 1)
        );
        assert!(report.retry_backoff_secs > 0);
        assert_eq!(report.with_descriptors, 0);
        assert_eq!(report.total_open(), 0);
        assert_eq!(report.coverage(), 0.0);
        // Every fetch burned the full budget: the attempts histogram is
        // a spike at max_attempts, and every fetch left a backoff sample.
        let budget = u64::from(RetryPolicy::standard().max_attempts);
        assert_eq!(report.fetch_attempts.min(), budget);
        assert_eq!(report.fetch_attempts.max(), budget);
        assert_eq!(report.retry_backoff.count(), report.fetch_gave_ups);
        assert!(report.retry_backoff.min() > 0);
    }

    #[test]
    fn moderate_drop_rate_recovers_via_retry() {
        // High enough that a published descriptor sometimes times out
        // outright (all six responsible HSDirs must drop: ~3 % per
        // fetch at 0.55), low enough that a retry almost always
        // recovers.
        let plan = tor_sim::FaultPlan {
            seed: 17,
            hsdir_drop_rate: 0.55,
            ..tor_sim::FaultPlan::none()
        };
        let report = scan_with_faults(plan);
        assert!(report.fetch_retries > 0, "drops must trigger retries");
        assert!(
            report.fetch_recovered > 0,
            "some fetches must recover on a later attempt"
        );
        assert!(
            report.with_descriptors > 0,
            "the scan still finds descriptors through the loss"
        );
    }
}
