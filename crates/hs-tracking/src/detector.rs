//! The Sec. VII tracking detector: statistical analysis of the
//! consensus archive to find relays that positioned themselves as a
//! hidden service's responsible HSDirs on purpose.
//!
//! Rules (as in the paper):
//!
//! 1. **Binomial outlier** — a relay responsible for more time periods
//!    than `μ + 3σ` under the null model `p = 6 / N_hsdir`.
//! 2. **Fingerprint change before responsibility** — the server (keyed
//!    by IP:port) changed its fingerprint shortly before becoming a
//!    responsible HSDir; repeated occurrences are flagged.
//! 3. **Instant HSDir** — became responsible immediately after the
//!    minimum 25 h flag-qualification time following its first
//!    appearance.
//! 4. **Distance ratio** — `avg_dist / distance` between the
//!    descriptor ID and the relay's fingerprint; values ≫ 1 betray
//!    brute-forced placement (the paper treats > 100 as suspicious and
//!    observes > 10,000 for one campaign).
//! 5. **Fingerprint switch count** — many switches in a short period.
//! 6. **Consecutive periods** — holding responsibility for consecutive
//!    time periods.

use std::collections::HashMap;

use onion_crypto::descriptor::DescriptorId;
use onion_crypto::identity::Fingerprint;
use onion_crypto::onion::OnionAddress;
use onion_crypto::u160::U160;
use tor_sim::clock::SimTime;
use tor_sim::relay::Ipv4;

use crate::history::{ConsensusArchive, DailyConsensus};

/// Stable server key: fingerprints change, machines (IP:port) persist.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServerKey {
    /// IP address.
    pub ip: Ipv4,
    /// OR port.
    pub or_port: u16,
}

/// Why a server was flagged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suspicion {
    /// Rule 1: responsible more often than `μ + 3σ`.
    BinomialOutlier,
    /// Rule 2: fingerprint changed right before responsibility, more
    /// than once.
    FingerprintChangeBeforeResponsible,
    /// Rule 3: responsible immediately after first appearing.
    InstantHsdir,
    /// Rule 4: placement ratio above the suspicious threshold.
    CloseDistance,
    /// Rule 5: many fingerprint switches.
    ManySwitches,
    /// Rule 6: responsible on consecutive periods.
    ConsecutivePeriods,
}

/// Per-server evidence accumulated over the analysis window.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// The server.
    pub key: ServerKey,
    /// Nicknames seen (usually one).
    pub nicknames: Vec<String>,
    /// Days on which the server was among the 6 responsible HSDirs.
    pub responsible_days: Vec<SimTime>,
    /// Expected responsible-day count under the null model.
    pub expected: f64,
    /// Standard deviation under the null model.
    pub sigma: f64,
    /// Total fingerprint switches observed.
    pub fingerprint_switches: u32,
    /// Switches that happened within 2 days before a responsible day.
    pub switches_before_responsible: u32,
    /// Times the server was responsible within 2 days of first
    /// appearing in the archive.
    pub instant_hsdir_events: u32,
    /// Maximum `avg_dist / distance` ratio over responsible days.
    pub max_ratio: f64,
    /// Longest run of consecutive responsible days.
    pub max_consecutive: u32,
    /// Rules that fired.
    pub suspicions: Vec<Suspicion>,
}

impl ServerReport {
    /// Whether any rule fired.
    pub fn is_suspicious(&self) -> bool {
        !self.suspicions.is_empty()
    }

    /// The paper's strongest combined signal: close placement together
    /// with corroborating behaviour (repeated fingerprint changes,
    /// repeated instant-HSDir appearances, or camping on consecutive
    /// periods) — or a placement so close that chance is excluded
    /// outright. A single lucky close landing is expressly *not*
    /// tracking: the paper notes one-period closeness is statistically
    /// indistinguishable from chance.
    pub fn is_tracking(&self) -> bool {
        let corroborated = self.suspicions.contains(&Suspicion::CloseDistance)
            && (self
                .suspicions
                .contains(&Suspicion::FingerprintChangeBeforeResponsible)
                || self.suspicions.contains(&Suspicion::InstantHsdir)
                || self.suspicions.contains(&Suspicion::ConsecutivePeriods));
        corroborated || self.max_ratio > EXTREME_RATIO
    }
}

/// Ratio beyond which a placement cannot plausibly be chance even
/// once (the Aug 31 takeover sat at ring distances of a few units —
/// ratios beyond 10^40).
pub const EXTREME_RATIO: f64 = 1e5;

/// Detector thresholds.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// Ratio above which placement counts as deliberate (paper: 100).
    pub ratio_threshold: f64,
    /// Fingerprint switches in the window counted as "many".
    pub switch_threshold: u32,
    /// Minimum repeated change-before-responsible events.
    pub change_before_threshold: u32,
    /// Consecutive responsible days counted as deliberate camping.
    pub consecutive_threshold: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            ratio_threshold: 100.0,
            switch_threshold: 4,
            change_before_threshold: 2,
            consecutive_threshold: 4,
        }
    }
}

/// Analysis results over one window (the paper analyses per year).
#[derive(Clone, Debug)]
pub struct TrackingAnalysis {
    /// Window start.
    pub start: SimTime,
    /// Window end (inclusive).
    pub end: SimTime,
    /// Average HSDir-ring size over the window.
    pub mean_hsdirs: f64,
    /// All servers that were ever responsible in the window.
    pub servers: Vec<ServerReport>,
}

impl TrackingAnalysis {
    /// Servers with at least one fired rule, strongest ratio first.
    pub fn suspicious(&self) -> Vec<&ServerReport> {
        let mut out: Vec<&ServerReport> =
            self.servers.iter().filter(|s| s.is_suspicious()).collect();
        out.sort_by(|a, b| b.max_ratio.total_cmp(&a.max_ratio));
        out
    }

    /// Servers meeting the combined tracking criterion.
    pub fn trackers(&self) -> Vec<&ServerReport> {
        let mut out: Vec<&ServerReport> = self.servers.iter().filter(|s| s.is_tracking()).collect();
        out.sort_by(|a, b| b.max_ratio.total_cmp(&a.max_ratio));
        out
    }
}

/// The tracking detector.
#[derive(Clone, Debug, Default)]
pub struct TrackingDetector {
    config: DetectorConfig,
}

impl TrackingDetector {
    /// Creates a detector with the paper's thresholds.
    pub fn new(config: DetectorConfig) -> Self {
        TrackingDetector { config }
    }

    /// Analyses `archive` for trackers of `target` within
    /// `[start, end]`.
    pub fn analyse(
        &self,
        archive: &ConsensusArchive,
        target: OnionAddress,
        start: SimTime,
        end: SimTime,
    ) -> TrackingAnalysis {
        // Pass 1: per-server presence/fingerprint timelines.
        #[derive(Default)]
        struct Track {
            nicknames: Vec<String>,
            first_seen: Option<SimTime>,
            last_fingerprint: Option<Fingerprint>,
            last_switch: Option<SimTime>,
            switches: u32,
            responsible: Vec<(SimTime, f64)>, // (day, ratio)
            switches_before: u32,
            instant_events: u32,
        }
        let mut tracks: HashMap<ServerKey, Track> = HashMap::new();

        let window_days: Vec<&DailyConsensus> = archive
            .days()
            .iter()
            .filter(|d| d.date >= start && d.date <= end)
            .collect();
        let days_in_window = window_days.len() as u32;

        // The expensive per-day work: sorting the ring and finding the
        // six responsible relays. Callers that want threads run several
        // windows side by side (the pipeline's tracking stage forks its
        // three yearly windows under the run's wave budget).
        let precomputed: Vec<(usize, Vec<(usize, U160)>)> = window_days
            .iter()
            .map(|day| responsible_indices(day, target))
            .collect();

        for (day, (ring_len, responsible)) in window_days.iter().zip(&precomputed) {
            // Update server tracks (sequential: fingerprint-switch
            // detection is stateful across days).
            for relay in &day.relays {
                let key = ServerKey {
                    ip: relay.ip,
                    or_port: relay.or_port,
                };
                let track = tracks.entry(key).or_default();
                if !track.nicknames.iter().any(|n| n == &relay.nickname) {
                    track.nicknames.push(relay.nickname.clone());
                }
                if track.first_seen.is_none() {
                    track.first_seen = Some(day.date);
                }
                match track.last_fingerprint {
                    Some(prev) if prev != relay.fingerprint => {
                        track.switches += 1;
                        track.last_switch = Some(day.date);
                    }
                    _ => {}
                }
                track.last_fingerprint = Some(relay.fingerprint);
            }

            // Record responsibility with ratio.
            let avg_dist = if *ring_len == 0 {
                U160::MAX
            } else {
                U160::MAX.div_u64(*ring_len as u64)
            };
            for &(relay_idx, dist) in responsible {
                let relay = &day.relays[relay_idx];
                let key = ServerKey {
                    ip: relay.ip,
                    or_port: relay.or_port,
                };
                let ratio = avg_dist.to_f64() / dist.to_f64().max(1.0);
                let track = tracks.entry(key).or_default();
                track.responsible.push((day.date, ratio));
                if let Some(sw) = track.last_switch {
                    if day.date.since(sw) <= 2 * tor_sim::clock::DAY {
                        track.switches_before += 1;
                    }
                }
                if let Some(first) = track.first_seen {
                    if day.date.since(first) <= 2 * tor_sim::clock::DAY {
                        track.instant_events += 1;
                    }
                }
            }
        }

        let mean_hsdirs = if precomputed.is_empty() {
            0.0
        } else {
            precomputed.iter().map(|(n, _)| *n).sum::<usize>() as f64 / precomputed.len() as f64
        };

        // Pass 2: score.
        let p = if mean_hsdirs > 0.0 {
            6.0 / mean_hsdirs
        } else {
            0.0
        };
        let n = f64::from(days_in_window);
        let expected = n * p;
        let sigma = (n * p * (1.0 - p)).sqrt();

        let mut servers = Vec::new();
        for (key, track) in tracks {
            if track.responsible.is_empty() {
                continue;
            }
            let responsible_days: Vec<SimTime> =
                track.responsible.iter().map(|(d, _)| *d).collect();
            let max_ratio = track
                .responsible
                .iter()
                .map(|(_, r)| *r)
                .fold(0.0f64, f64::max);
            let max_consecutive = longest_consecutive_run(&responsible_days);

            let mut suspicions = Vec::new();
            if (responsible_days.len() as f64) > expected + 3.0 * sigma {
                suspicions.push(Suspicion::BinomialOutlier);
            }
            if track.switches_before >= self.config.change_before_threshold {
                suspicions.push(Suspicion::FingerprintChangeBeforeResponsible);
            }
            // A single instant-HSDir appearance happens by chance for
            // recently joined relays; require repetition or an
            // impossible ratio, mirroring the paper's "several times".
            if (track.instant_events >= 2 && max_ratio > self.config.ratio_threshold)
                || (track.instant_events >= 1 && max_ratio > EXTREME_RATIO)
            {
                suspicions.push(Suspicion::InstantHsdir);
            }
            if max_ratio > self.config.ratio_threshold {
                suspicions.push(Suspicion::CloseDistance);
            }
            if track.switches >= self.config.switch_threshold {
                suspicions.push(Suspicion::ManySwitches);
            }
            if max_consecutive >= self.config.consecutive_threshold {
                suspicions.push(Suspicion::ConsecutivePeriods);
            }

            servers.push(ServerReport {
                key,
                nicknames: track.nicknames,
                responsible_days,
                expected,
                sigma,
                fingerprint_switches: track.switches,
                switches_before_responsible: track.switches_before,
                instant_hsdir_events: track.instant_events,
                max_ratio,
                max_consecutive,
                suspicions,
            });
        }
        servers.sort_by(|a, b| b.max_ratio.total_cmp(&a.max_ratio));

        TrackingAnalysis {
            start,
            end,
            mean_hsdirs,
            servers,
        }
    }
}

/// The six responsible relays for `target` on one archived day, as
/// (index into `day.relays`, ring distance) pairs, plus the HSDir ring
/// size.
fn responsible_indices(day: &DailyConsensus, target: OnionAddress) -> (usize, Vec<(usize, U160)>) {
    let ring: Vec<(usize, U160)> = day
        .relays
        .iter()
        .enumerate()
        .filter(|(_, r)| r.hsdir)
        .map(|(i, r)| (i, r.fingerprint.to_u160()))
        .collect();
    if ring.is_empty() {
        return (0, Vec::new());
    }
    let ids = DescriptorId::pair_at(target, day.date.unix() + 43_200);
    let mut out = Vec::with_capacity(6);
    for id in ids {
        let pos = id.to_u160();
        let mut by_dist: Vec<(usize, U160)> = ring
            .iter()
            .map(|&(i, fp)| (i, pos.distance_to(fp)))
            .filter(|(_, d)| *d != U160::ZERO)
            .collect();
        by_dist.sort_by_key(|&(_, d)| d);
        out.extend(by_dist.into_iter().take(3));
    }
    (ring.len(), out)
}

/// Longest run of day-consecutive timestamps.
fn longest_consecutive_run(days: &[SimTime]) -> u32 {
    if days.is_empty() {
        return 0;
    }
    let mut sorted = days.to_vec();
    sorted.sort();
    sorted.dedup();
    let mut best = 1u32;
    let mut run = 1u32;
    for pair in sorted.windows(2) {
        if pair[1].since(pair[0]) == tor_sim::clock::DAY {
            run += 1;
            best = best.max(run);
        } else {
            run = 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryConfig;
    use crate::scenario;

    fn detector() -> TrackingDetector {
        TrackingDetector::new(DetectorConfig::default())
    }

    fn archive(start: (i64, u32, u32), end: (i64, u32, u32), seed: u64) -> ConsensusArchive {
        ConsensusArchive::generate(&HistoryConfig {
            start: SimTime::from_ymd(start.0, start.1, start.2),
            end: SimTime::from_ymd(end.0, end.1, end.2),
            hsdirs_at_start: 150,
            hsdirs_at_end: 170,
            seed,
        })
    }

    #[test]
    fn clean_archive_has_no_trackers() {
        let a = archive((2013, 3, 1), (2013, 4, 30), 11);
        let analysis = detector().analyse(
            &a,
            scenario::silkroad(),
            SimTime::from_ymd(2013, 3, 1),
            SimTime::from_ymd(2013, 4, 30),
        );
        assert!(analysis.trackers().is_empty(), "{:?}", analysis.trackers());
        assert!(analysis.mean_hsdirs > 100.0);
    }

    #[test]
    fn may_campaign_detected() {
        let mut a = archive((2013, 5, 1), (2013, 6, 30), 12);
        scenario::inject_may_campaign(&mut a, scenario::silkroad());
        let analysis = detector().analyse(
            &a,
            scenario::silkroad(),
            SimTime::from_ymd(2013, 5, 1),
            SimTime::from_ymd(2013, 6, 30),
        );
        let trackers = analysis.trackers();
        assert!(!trackers.is_empty());
        let t = trackers
            .iter()
            .find(|t| t.nicknames.iter().any(|n| n == "PrivacyRelayX"))
            .expect("campaign server flagged");
        assert!(t.max_ratio > 10_000.0, "ratio {}", t.max_ratio);
        assert!(t.suspicions.contains(&Suspicion::BinomialOutlier));
        assert!(t
            .suspicions
            .contains(&Suspicion::FingerprintChangeBeforeResponsible));
    }

    #[test]
    fn august_takeover_detected() {
        let mut a = archive((2013, 8, 1), (2013, 9, 30), 13);
        scenario::inject_august_takeover(&mut a, scenario::silkroad());
        let analysis = detector().analyse(
            &a,
            scenario::silkroad(),
            SimTime::from_ymd(2013, 8, 1),
            SimTime::from_ymd(2013, 9, 30),
        );
        let observers: Vec<_> = analysis
            .suspicious()
            .into_iter()
            .filter(|s| s.nicknames.iter().any(|n| n.starts_with("GlobalObserver")))
            .collect();
        assert_eq!(observers.len(), 3, "3 IPs flagged: {observers:?}");
        for o in &observers {
            assert!(o.max_ratio > 1e6, "tiny distances → huge ratio");
            assert!(o.suspicions.contains(&Suspicion::CloseDistance));
            assert!(o.suspicions.contains(&Suspicion::InstantHsdir));
        }
    }

    #[test]
    fn our_harvest_campaign_detected() {
        let mut a = archive((2012, 10, 1), (2013, 1, 31), 14);
        scenario::inject_our_harvest_relays(&mut a, scenario::silkroad());
        let analysis = detector().analyse(
            &a,
            scenario::silkroad(),
            SimTime::from_ymd(2012, 10, 1),
            SimTime::from_ymd(2013, 1, 31),
        );
        let ours: Vec<_> = analysis
            .suspicious()
            .into_iter()
            .filter(|s| s.nicknames.iter().any(|n| n.starts_with("unnamed")))
            .collect();
        assert!(!ours.is_empty(), "our relays flagged");
        for o in &ours {
            assert!(
                o.max_ratio > 100.0 && o.max_ratio < 50_000.0,
                "{}",
                o.max_ratio
            );
        }
    }

    #[test]
    fn consecutive_run_helper() {
        let d = |n: u64| SimTime::from_ymd(2013, 1, 1) + n * tor_sim::clock::DAY;
        assert_eq!(longest_consecutive_run(&[]), 0);
        assert_eq!(longest_consecutive_run(&[d(1)]), 1);
        assert_eq!(longest_consecutive_run(&[d(1), d(2), d(3), d(7), d(8)]), 3);
        assert_eq!(longest_consecutive_run(&[d(5), d(1), d(2)]), 2);
    }

    #[test]
    fn binomial_null_model_scales() {
        let a = archive((2013, 3, 1), (2013, 3, 31), 15);
        let analysis = detector().analyse(
            &a,
            scenario::silkroad(),
            SimTime::from_ymd(2013, 3, 1),
            SimTime::from_ymd(2013, 3, 31),
        );
        // μ = n·p with n = 31 days, p = 6/N.
        let expected = 31.0 * 6.0 / analysis.mean_hsdirs;
        let server = &analysis.servers[0];
        assert!((server.expected - expected).abs() < 0.5);
        assert!(server.sigma > 0.0);
    }
}
