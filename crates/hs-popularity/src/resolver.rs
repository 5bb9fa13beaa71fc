//! Resolving logged descriptor IDs back to onion addresses (Sec. V).
//!
//! The harvest logs raw descriptor IDs. Because the descriptor ID is a
//! one-way function of (permanent id, time period, replica), the
//! attacker recomputes the forward map for every harvested onion
//! address over a window of days (the paper used 28 Jan – 8 Feb, to be
//! robust to clients with wrong clocks) and joins it against the log.

use std::collections::{HashMap, HashSet};

use onion_crypto::descriptor::{DaySecretParts, DescriptorId, TimePeriod};
use onion_crypto::onion::OnionAddress;
use tor_sim::clock::{SimTime, DAY};

use hs_harvest::LoggedRequest;

/// The outcome of descriptor-ID resolution.
#[derive(Clone, Debug, Default)]
pub struct ResolutionReport {
    /// Total requests in the log (paper: 1,031,176).
    pub total_requests: u64,
    /// Unique descriptor IDs requested (paper: 29,123).
    pub unique_desc_ids: usize,
    /// Descriptor IDs that resolved to a known onion (paper: 6,113).
    pub resolved_desc_ids: usize,
    /// Distinct onion addresses resolved (paper: 3,140).
    pub resolved_onions: usize,
    /// Requests per resolved onion address.
    pub requests_per_onion: HashMap<OnionAddress, u64>,
    /// Requests whose descriptor ID resolved to nothing (the phantom
    /// stream; paper: ~80 %).
    pub unresolved_requests: u64,
}

impl ResolutionReport {
    /// Share of requests that targeted unresolvable descriptor IDs.
    pub fn phantom_share(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.unresolved_requests as f64 / self.total_requests as f64
    }

    /// The popularity distribution itself: requests per resolved onion
    /// as a log2 histogram. Built on demand from the per-onion map;
    /// histogram contents are insensitive to map iteration order, so
    /// the result is deterministic.
    pub fn requests_histogram(&self) -> obs::Histogram {
        let mut h = obs::Histogram::new();
        for &n in self.requests_per_onion.values() {
            h.record(n);
        }
        h
    }
}

/// The resolver: a precomputed desc-ID → onion table over a date
/// window.
#[derive(Clone, Debug)]
pub struct Resolver {
    table: HashMap<DescriptorId, OnionAddress>,
}

impl Resolver {
    /// Builds the forward table for `onions` over `[start, end]`
    /// (inclusive, stepped daily; both replicas). Each day's secret-ID
    /// parts are computed once and shared by every onion, so an entry
    /// costs one SHA-1.
    pub fn build(onions: &[OnionAddress], start: SimTime, end: SimTime) -> Self {
        let mut table = HashMap::new();
        let mut t = start;
        // Step by day; the per-service stagger means consecutive days
        // always hit consecutive periods.
        while t <= end + DAY {
            let parts = DaySecretParts::for_day_of(t.unix());
            for &onion in onions {
                let id = onion.permanent_id();
                for desc_id in parts.pair(id, TimePeriod::at(t.unix(), id)) {
                    table.insert(desc_id, onion);
                }
            }
            t += DAY;
        }
        Resolver { table }
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Looks up one descriptor ID.
    pub fn resolve(&self, id: DescriptorId) -> Option<OnionAddress> {
        self.table.get(&id).copied()
    }

    /// Resolves a harvest request log.
    pub fn resolve_log(&self, requests: &[LoggedRequest]) -> ResolutionReport {
        let mut report = ResolutionReport::default();
        let mut seen: HashSet<DescriptorId> = HashSet::new();
        let mut resolved_ids: HashSet<DescriptorId> = HashSet::new();
        for req in requests {
            report.total_requests += 1;
            let id = req.record.descriptor_id;
            seen.insert(id);
            match self.resolve(id) {
                Some(onion) => {
                    resolved_ids.insert(id);
                    *report.requests_per_onion.entry(onion).or_insert(0) += 1;
                }
                None => report.unresolved_requests += 1,
            }
        }
        report.unique_desc_ids = seen.len();
        report.resolved_desc_ids = resolved_ids.len();
        report.resolved_onions = report.requests_per_onion.len();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tor_sim::relay::RelayId;
    use tor_sim::store::RequestRecord;

    fn onion(n: u8) -> OnionAddress {
        OnionAddress::from_pubkey(&[n; 16])
    }

    fn request(id: DescriptorId, t: SimTime) -> LoggedRequest {
        LoggedRequest {
            relay: RelayId(0),
            record: RequestRecord {
                time: t,
                descriptor_id: id,
                found: true,
            },
        }
    }

    #[test]
    fn resolves_current_descriptor_ids() {
        let start = SimTime::from_ymd(2013, 1, 28);
        let end = SimTime::from_ymd(2013, 2, 8);
        let onions = [onion(1), onion(2)];
        let resolver = Resolver::build(&onions, start, end);

        let mid = SimTime::from_ymd(2013, 2, 4) + 7 * 3600;
        let [a, b] = DescriptorId::pair_at(onion(1), mid.unix());
        assert_eq!(resolver.resolve(a), Some(onion(1)));
        assert_eq!(resolver.resolve(b), Some(onion(1)));
    }

    #[test]
    fn window_edges_covered() {
        let start = SimTime::from_ymd(2013, 1, 28);
        let end = SimTime::from_ymd(2013, 2, 8);
        let resolver = Resolver::build(&[onion(3)], start, end);
        for t in [start, end, end + DAY - 1] {
            let [a, _] = DescriptorId::pair_at(onion(3), t.unix());
            assert!(resolver.resolve(a).is_some(), "time {t}");
        }
        // Far outside the window: unresolvable.
        let [x, _] = DescriptorId::pair_at(onion(3), SimTime::from_ymd(2013, 6, 1).unix());
        assert!(resolver.resolve(x).is_none());
    }

    #[test]
    fn table_size_is_days_times_replicas() {
        let start = SimTime::from_ymd(2013, 2, 1);
        let end = SimTime::from_ymd(2013, 2, 5);
        let resolver = Resolver::build(&[onion(4)], start, end);
        // 2013-02-01 .. 2013-02-06 inclusive (end + 1 day of slack),
        // i.e. 6 periods × 2 replicas.
        assert_eq!(resolver.len(), 12);
        assert!(!resolver.is_empty());
    }

    #[test]
    fn log_resolution_counts() {
        let start = SimTime::from_ymd(2013, 2, 1);
        let end = SimTime::from_ymd(2013, 2, 8);
        let resolver = Resolver::build(&[onion(5)], start, end);
        let t = SimTime::from_ymd(2013, 2, 4);
        let [known, _] = DescriptorId::pair_at(onion(5), t.unix());
        let [phantom, _] = DescriptorId::pair_at(onion(99), t.unix());

        let log = vec![
            request(known, t),
            request(known, t + 60),
            request(phantom, t),
            request(phantom, t + 120),
            request(phantom, t + 180),
        ];
        let report = resolver.resolve_log(&log);
        assert_eq!(report.total_requests, 5);
        assert_eq!(report.unique_desc_ids, 2);
        assert_eq!(report.resolved_desc_ids, 1);
        assert_eq!(report.resolved_onions, 1);
        assert_eq!(report.requests_per_onion[&onion(5)], 2);
        assert_eq!(report.unresolved_requests, 3);
        assert!((report.phantom_share() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_log() {
        let resolver = Resolver::build(&[], SimTime::EPOCH, SimTime::EPOCH);
        let report = resolver.resolve_log(&[]);
        assert_eq!(report.total_requests, 0);
        assert_eq!(report.phantom_share(), 0.0);
    }
}
