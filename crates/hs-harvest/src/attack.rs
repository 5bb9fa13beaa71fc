//! The harvesting attack: warm up the fleet for 25 hours, then rotate
//! activation waves through the consensus so the fleet's relays
//! gradually become responsible HSDirs for (nearly) every hidden
//! service within one descriptor rotation.

use std::collections::BTreeSet;

use onion_crypto::onion::OnionAddress;

use tor_sim::network::Network;
use tor_sim::relay::RelayId;
use tor_sim::store::RequestRecord;

use crate::fleet::{Fleet, FleetConfig, FleetError};

/// Harvest timing parameters.
#[derive(Clone, Debug)]
pub struct HarvestConfig {
    /// Fleet shape.
    pub fleet: FleetConfig,
    /// Hours to keep all relays up before the sweep (≥ 25 for the
    /// HSDir flag; the paper used 25).
    pub warmup_hours: u64,
    /// Hours between activation-wave rotations (each wave mans its
    /// ring positions for this long — the paper's 2-hour windows).
    pub rotation_hours: u64,
}

impl Default for HarvestConfig {
    fn default() -> Self {
        HarvestConfig {
            fleet: FleetConfig::default(),
            warmup_hours: 26,
            rotation_hours: 2,
        }
    }
}

/// One logged client request, attributed to the attacker relay that
/// served it.
#[derive(Clone, Copy, Debug)]
pub struct LoggedRequest {
    /// The attacker HSDir that logged the request.
    pub relay: RelayId,
    /// The request record.
    pub record: RequestRecord,
}

/// Everything the harvest collected.
#[derive(Clone, Debug)]
pub struct HarvestOutcome {
    /// Distinct onion addresses derived from collected descriptors.
    pub onions: Vec<OnionAddress>,
    /// Client descriptor requests logged at fleet HSDirs.
    pub requests: Vec<LoggedRequest>,
    /// Per-service logging-slot-hours over the run — how long (and how
    /// many of the six responsible slots) the fleet manned each
    /// service's descriptor positions. Derivable by the attacker from
    /// the public consensus archive; used to normalise request counts
    /// into per-2 h rates. Sorted by onion address (nonzero rows only).
    pub slot_hours: Vec<(OnionAddress, u64)>,
    /// The deployed fleet's relays.
    pub fleet_relays: Vec<RelayId>,
    /// Activation waves executed.
    pub waves: u32,
    /// Total wall-clock hours spent (warm-up + sweep).
    pub hours: u64,
    /// Crashed fleet relays the operator re-registered mid-run. Zero
    /// on a fault-free network; each restart resets the relay's uptime
    /// clock, costing it the HSDir flag for the next 25 h.
    pub fleet_restarts: u64,
    /// Distribution of descriptors held per fleet HSDir at collection
    /// time (one sample per fleet relay) — the paper's "how evenly does
    /// the ring load the fleet" question, now as a histogram.
    pub descriptors_per_relay: obs::Histogram,
}

impl HarvestOutcome {
    /// Number of distinct onion addresses collected.
    pub fn onion_count(&self) -> usize {
        self.onions.len()
    }

    /// Fraction of `published` services whose address was collected.
    pub fn coverage_of(&self, published: usize) -> f64 {
        if published == 0 {
            return 0.0;
        }
        self.onions.len() as f64 / published as f64
    }
}

/// The harvesting attacker.
#[derive(Debug)]
pub struct Harvester {
    config: HarvestConfig,
}

/// An hourly request-log sink for [`Harvester::run_streamed`]: receives
/// each hour's non-empty per-relay batches in canonical fleet order.
pub type RequestSink<'a> = dyn FnMut(&[(RelayId, Vec<RequestRecord>)]) + 'a;

impl Harvester {
    /// Creates a harvester with the paper's parameters (58 IPs).
    pub fn new(config: HarvestConfig) -> Self {
        Harvester { config }
    }

    /// Runs the full attack against the network. `drive` is invoked
    /// after every simulated hour so the caller can generate client
    /// traffic (the popularity measurement) while the harvest runs.
    ///
    /// The attacker watches their own fleet: any relay the network's
    /// fault layer crashes is re-registered (restarted) within the
    /// hour, though the restart resets its uptime and it must re-earn
    /// the HSDir flag.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] when the configured fleet shape cannot
    /// be deployed.
    pub fn run(
        &self,
        net: &mut Network,
        drive: impl FnMut(&mut Network),
    ) -> Result<HarvestOutcome, FleetError> {
        self.run_inner(net, drive, None)
    }

    /// Like [`Harvester::run`], but drains every fleet relay's request
    /// log into `sink` after each simulated hour instead of
    /// materializing the full log: the returned
    /// [`HarvestOutcome::requests`] stays empty and peak resident
    /// event storage is one hour of traffic, not the whole run. Batches
    /// are delivered in canonical fleet-relay order (empty logs
    /// skipped), so a deterministic consumer sees the same stream at
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] when the configured fleet shape cannot
    /// be deployed.
    pub fn run_streamed(
        &self,
        net: &mut Network,
        drive: impl FnMut(&mut Network),
        sink: &mut RequestSink<'_>,
    ) -> Result<HarvestOutcome, FleetError> {
        self.run_inner(net, drive, Some(sink))
    }

    fn run_inner(
        &self,
        net: &mut Network,
        mut drive: impl FnMut(&mut Network),
        mut sink: Option<&mut RequestSink<'_>>,
    ) -> Result<HarvestOutcome, FleetError> {
        let fleet = Fleet::deploy(net, self.config.fleet.clone())?;
        let mut hours = 0u64;
        let mut fleet_restarts = 0u64;

        // Warm-up: all n×m relays run reachable; wave 0's pairs enter
        // the consensus, everything else accrues uptime as shadows.
        for _ in 0..self.config.warmup_hours {
            net.advance_hours(1);
            hours += 1;
            fleet_restarts += reregister_crashed(net, &fleet, None)?;
            drive(net);
            drain_hour(net, &fleet, &mut sink);
        }

        // Sweep: burn through activation waves.
        let waves = fleet.wave_count();
        for k in 0..waves {
            fleet.activate_wave(net, k)?;
            net.revote();
            for _ in 0..self.config.rotation_hours {
                net.advance_hours(1);
                hours += 1;
                fleet_restarts += reregister_crashed(net, &fleet, Some(k))?;
                drive(net);
                drain_hour(net, &fleet, &mut sink);
            }
        }

        // Collection: descriptors accumulated in fleet stores, request
        // logs from every fleet relay.
        let mut onions: BTreeSet<OnionAddress> = BTreeSet::new();
        let mut requests = Vec::new();
        let mut descriptors_per_relay = obs::Histogram::new();
        for relay in fleet.all_relays() {
            let mut held = 0u64;
            for desc in net.store(relay).iter() {
                onions.insert(desc.onion);
                held += 1;
            }
            descriptors_per_relay.record(held);
            if sink.is_none() {
                for record in net.take_request_log(relay) {
                    requests.push(LoggedRequest { relay, record });
                }
            }
        }
        // Streaming: flush whatever the last hour left behind.
        drain_hour(net, &fleet, &mut sink);

        Ok(HarvestOutcome {
            onions: onions.into_iter().collect(),
            requests,
            slot_hours: net.slot_hours_sorted(),
            fleet_relays: fleet.all_relays().collect(),
            waves,
            hours,
            fleet_restarts,
            descriptors_per_relay,
        })
    }
}

/// Streaming-mode hourly drain: empties every fleet relay's request
/// log (in canonical fleet order) and hands the non-empty batches to
/// the sink. A no-op in materializing mode.
fn drain_hour(net: &mut Network, fleet: &Fleet, sink: &mut Option<&mut RequestSink<'_>>) {
    let Some(sink) = sink.as_mut() else {
        return;
    };
    let mut batches: Vec<(RelayId, Vec<RequestRecord>)> = Vec::new();
    for relay in fleet.all_relays() {
        let records = net.take_request_log(relay);
        if !records.is_empty() {
            batches.push((relay, records));
        }
    }
    if !batches.is_empty() {
        sink(&batches);
    }
}

/// Restarts any fleet relay the fault layer crashed — the operator's
/// re-registration loop. Returns how many were restarted. When a wave
/// pattern is active it is re-applied afterwards, because a restart
/// marks the relay reachable and a burned-wave relay must not
/// resurface.
fn reregister_crashed(
    net: &mut Network,
    fleet: &Fleet,
    active_wave: Option<u32>,
) -> Result<u64, FleetError> {
    let now = net.time();
    let mut restarted = 0u64;
    for relay in fleet.all_relays() {
        if !net.relay(relay).running {
            net.relay_mut(relay).start(now);
            restarted += 1;
        }
    }
    if restarted > 0 {
        if let Some(k) = active_wave {
            fleet.activate_wave(net, k)?;
        }
    }
    Ok(restarted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tor_sim::clock::SimTime;
    use tor_sim::network::NetworkBuilder;

    fn harvest_against(n_services: usize) -> (HarvestOutcome, usize) {
        let mut net = NetworkBuilder::new()
            .relays(80)
            .seed(21)
            .start(SimTime::from_ymd(2013, 2, 1))
            .build();
        for i in 0..n_services {
            let onion = OnionAddress::from_pubkey(format!("service {i}").as_bytes());
            net.register_service(onion, true);
        }
        net.advance_hours(1);
        let config = HarvestConfig {
            fleet: FleetConfig {
                ips: 6,
                relays_per_ip: 8,
                bandwidth: 300,
            },
            warmup_hours: 26,
            rotation_hours: 2,
        };
        let outcome = Harvester::new(config)
            .run(&mut net, |_| {})
            .expect("fleet config is valid");
        (outcome, n_services)
    }

    #[test]
    fn harvest_collects_most_services() {
        let (outcome, published) = harvest_against(150);
        let coverage = outcome.coverage_of(published);
        // 48 fleet relays vs ~80 honest HSDirs: expected coverage is
        // high after a full sweep.
        assert!(coverage > 0.8, "coverage {coverage}");
        assert!(outcome.onion_count() <= published);
        // The load histogram samples every fleet relay exactly once and
        // cannot exceed the total descriptors the ring could assign.
        let hist = &outcome.descriptors_per_relay;
        assert_eq!(hist.count(), outcome.fleet_relays.len() as u64);
        assert!(hist.max() >= 1, "at least one relay held a descriptor");
    }

    #[test]
    fn harvest_takes_about_one_rotation() {
        let (outcome, _) = harvest_against(20);
        assert_eq!(outcome.waves, 4);
        assert_eq!(outcome.hours, 26 + 4 * 2);
    }

    #[test]
    fn collected_addresses_are_real_services() {
        let (outcome, published) = harvest_against(60);
        assert!(outcome.onion_count() > 0);
        let expected: BTreeSet<OnionAddress> = (0..published)
            .map(|i| OnionAddress::from_pubkey(format!("service {i}").as_bytes()))
            .collect();
        for onion in &outcome.onions {
            assert!(expected.contains(onion));
        }
    }

    #[test]
    fn crashed_fleet_relays_are_reregistered() {
        use tor_sim::FaultPlan;
        // Long fault-layer downtime: every restart observed must come
        // from the harvester's own re-registration loop.
        let plan = FaultPlan {
            seed: 13,
            relay_crash_rate: 0.01,
            restart_after_hours: 999,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(60)
            .seed(21)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        for i in 0..40 {
            let onion = OnionAddress::from_pubkey(format!("service {i}").as_bytes());
            net.register_service(onion, true);
        }
        net.advance_hours(1);
        let config = HarvestConfig {
            fleet: FleetConfig {
                ips: 6,
                relays_per_ip: 8,
                bandwidth: 300,
            },
            warmup_hours: 26,
            rotation_hours: 2,
        };
        let outcome = Harvester::new(config)
            .run(&mut net, |_| {})
            .expect("fleet config is valid");
        assert!(
            outcome.fleet_restarts > 0,
            "1%/h crash rate over 48 relays × 34 h must hit the fleet"
        );
        // Every fleet relay was brought back up within the hour.
        for &relay in &outcome.fleet_relays {
            assert!(net.relay(relay).running, "{relay:?} left down");
        }
        // The harvest still collected services despite the churn.
        assert!(outcome.onion_count() > 0);
    }

    #[test]
    fn drive_callback_runs_every_hour() {
        let mut net = NetworkBuilder::new()
            .relays(40)
            .seed(2)
            .start(SimTime::from_ymd(2013, 2, 1))
            .build();
        net.advance_hours(1);
        let config = HarvestConfig {
            fleet: FleetConfig {
                ips: 2,
                relays_per_ip: 4,
                bandwidth: 300,
            },
            warmup_hours: 3,
            rotation_hours: 1,
        };
        let mut ticks = 0u64;
        let outcome = Harvester::new(config)
            .run(&mut net, |_| ticks += 1)
            .expect("fleet config is valid");
        assert_eq!(ticks, outcome.hours);
    }

    #[test]
    fn streamed_run_delivers_the_same_records_without_materializing() {
        use onion_crypto::descriptor::DescriptorId;
        use std::collections::BTreeMap;
        use tor_sim::relay::Ipv4;

        let build = || {
            let mut net = NetworkBuilder::new()
                .relays(80)
                .seed(21)
                .start(SimTime::from_ymd(2013, 2, 1))
                .build();
            for i in 0..60 {
                let onion = OnionAddress::from_pubkey(format!("service {i}").as_bytes());
                net.register_service(onion, true);
            }
            net.advance_hours(1);
            net.add_client(Ipv4::new(198, 18, 0, 9));
            net
        };
        let config = HarvestConfig {
            fleet: FleetConfig {
                ips: 6,
                relays_per_ip: 8,
                bandwidth: 300,
            },
            warmup_hours: 26,
            rotation_hours: 2,
        };
        // Drive synthesizes client fetches so the logs are non-trivial.
        let drive = |net: &mut Network| {
            let client = tor_sim::network::ClientId(0);
            for i in 0..20u64 {
                let onion = OnionAddress::from_pubkey(format!("service {i}").as_bytes());
                net.client_fetch(client, onion);
            }
        };

        let mut exact_net = build();
        let exact = Harvester::new(config.clone())
            .run(&mut exact_net, drive)
            .expect("fleet config is valid");

        let mut streamed_net = build();
        let mut streamed_counts: BTreeMap<DescriptorId, u64> = BTreeMap::new();
        let mut streamed_total = 0u64;
        let streamed = Harvester::new(config)
            .run_streamed(&mut streamed_net, drive, &mut |batches| {
                for (_, records) in batches {
                    for r in records {
                        streamed_total += 1;
                        *streamed_counts.entry(r.descriptor_id).or_insert(0) += 1;
                    }
                }
            })
            .expect("fleet config is valid");

        assert!(
            streamed.requests.is_empty(),
            "streamed run must not materialize"
        );
        assert!(!exact.requests.is_empty(), "exact run must log requests");
        assert_eq!(streamed_total, exact.requests.len() as u64);
        let mut exact_counts: BTreeMap<DescriptorId, u64> = BTreeMap::new();
        for req in &exact.requests {
            *exact_counts.entry(req.record.descriptor_id).or_insert(0) += 1;
        }
        assert_eq!(streamed_counts, exact_counts);
        assert_eq!(streamed.onions, exact.onions);
        assert_eq!(streamed.slot_hours, exact.slot_hours);
    }
}
