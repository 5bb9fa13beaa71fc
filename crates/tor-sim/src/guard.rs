//! Client entry-guard management.
//!
//! A Tor client keeps a small set of three entry guards; every circuit's
//! first hop is drawn from that set. Guards expire after a uniform
//! 30–60 days, and whenever fewer than two guards in the set are usable
//! the client tops the set back up. The client-deanonymisation attack of
//! Sec. VI succeeds exactly when one of the victim's guards belongs to
//! the attacker, so this rotation policy determines the attack's catch
//! rate.

use rand::{Rng, RngExt};

use crate::clock::{SimTime, DAY};
use crate::consensus::Consensus;
use crate::relay::RelayId;

/// Target number of guards in a client's set.
pub const GUARD_SET_SIZE: usize = 3;

/// Minimum guard lifetime in days.
pub const GUARD_LIFETIME_MIN_DAYS: u64 = 30;

/// Maximum guard lifetime in days.
pub const GUARD_LIFETIME_MAX_DAYS: u64 = 60;

/// One guard in a client's set.
#[derive(Clone, Copy, Debug)]
pub struct GuardEntry {
    /// The guard relay.
    pub relay: RelayId,
    /// When this entry expires and is dropped from the set.
    pub expires: SimTime,
}

/// A client's entry-guard set.
#[derive(Clone, Debug, Default)]
pub struct GuardSet {
    guards: Vec<GuardEntry>,
}

impl GuardSet {
    /// Creates an empty guard set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current entries (including currently-unusable guards, which stay
    /// in the set until they expire).
    pub fn entries(&self) -> &[GuardEntry] {
        &self.guards
    }

    /// Whether `relay` is in the set.
    pub fn contains(&self, relay: RelayId) -> bool {
        self.guards.iter().any(|g| g.relay == relay)
    }

    /// Maintains the set against the current consensus:
    /// 1. drops expired entries;
    /// 2. if fewer than two listed (usable) guards remain, samples new
    ///    guards — bandwidth-weighted from the consensus Guard nodes —
    ///    until the set again holds [`GUARD_SET_SIZE`] usable entries.
    pub fn maintain(&mut self, consensus: &Consensus, now: SimTime, rng: &mut impl Rng) {
        self.guards.retain(|g| g.expires > now);

        let usable = |guards: &[GuardEntry]| {
            guards
                .iter()
                .filter(|g| consensus.is_listed_guard(g.relay))
                .count()
        };

        if usable(&self.guards) >= 2 && !self.guards.is_empty() {
            return;
        }

        let candidates: Vec<(RelayId, u64)> = consensus
            .guards()
            .filter(|e| !self.contains(e.relay))
            .map(|e| (e.relay, e.bandwidth))
            .collect();
        let mut candidates = candidates;

        while usable(&self.guards) < GUARD_SET_SIZE {
            let Some(idx) = sample_weighted_index(&candidates, rng) else {
                break; // network too small to supply more guards
            };
            let (relay, _) = candidates.swap_remove(idx);
            let lifetime_days = rng.random_range(GUARD_LIFETIME_MIN_DAYS..=GUARD_LIFETIME_MAX_DAYS);
            self.guards.push(GuardEntry {
                relay,
                expires: now + lifetime_days * DAY,
            });
        }
    }

    /// Picks the guard for a new circuit: uniform among the usable
    /// members of the set, per the paper's model ("one node from the set
    /// of Guard nodes is used for the first hop"). Allocation-free, and
    /// O(set size) through the consensus's guard index.
    pub fn pick(&self, consensus: &Consensus, rng: &mut impl Rng) -> Option<RelayId> {
        let mut usable = self
            .guards
            .iter()
            .map(|g| g.relay)
            .filter(|&r| consensus.is_listed_guard(r));
        let count = usable.clone().count();
        if count == 0 {
            return None;
        }
        usable.nth(rng.random_range(0..count))
    }
}

/// Samples an index from `(item, weight)` pairs proportionally to
/// weight. Returns `None` for an empty or zero-weight list.
pub fn sample_weighted_index<T>(items: &[(T, u64)], rng: &mut impl Rng) -> Option<usize> {
    let total: u64 = items.iter().map(|(_, w)| *w).sum();
    if total == 0 {
        return None;
    }
    let mut target = rng.random_range(0..total);
    for (i, (_, w)) in items.iter().enumerate() {
        if target < *w {
            return Some(i);
        }
        target -= w;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::ConsensusEntry;
    use crate::flags::RelayFlags;
    use crate::test_support::tiny_consensus;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference guard check: a linear scan of the consensus's guards.
    fn listed_by_scan(consensus: &Consensus, relay: RelayId) -> bool {
        consensus.guards().any(|e| e.relay == relay)
    }

    /// Reference [`GuardSet::pick`] on the linear scan.
    fn pick_by_scan(set: &GuardSet, consensus: &Consensus, rng: &mut impl Rng) -> Option<RelayId> {
        let usable: Vec<RelayId> = set
            .guards
            .iter()
            .map(|g| g.relay)
            .filter(|&r| listed_by_scan(consensus, r))
            .collect();
        if usable.is_empty() {
            None
        } else {
            Some(usable[rng.random_range(0..usable.len())])
        }
    }

    /// Reference [`GuardSet::maintain`] on the linear scan.
    fn maintain_by_scan(
        set: &mut GuardSet,
        consensus: &Consensus,
        now: SimTime,
        rng: &mut impl Rng,
    ) {
        set.guards.retain(|g| g.expires > now);
        let usable = |guards: &[GuardEntry]| {
            guards
                .iter()
                .filter(|g| listed_by_scan(consensus, g.relay))
                .count()
        };
        if usable(&set.guards) >= 2 && !set.guards.is_empty() {
            return;
        }
        let mut candidates: Vec<(RelayId, u64)> = consensus
            .guards()
            .filter(|e| !set.contains(e.relay))
            .map(|e| (e.relay, e.bandwidth))
            .collect();
        while usable(&set.guards) < GUARD_SET_SIZE {
            let Some(idx) = sample_weighted_index(&candidates, rng) else {
                break;
            };
            let (relay, _) = candidates.swap_remove(idx);
            let lifetime_days = rng.random_range(GUARD_LIFETIME_MIN_DAYS..=GUARD_LIFETIME_MAX_DAYS);
            set.guards.push(GuardEntry {
                relay,
                expires: now + lifetime_days * DAY,
            });
        }
    }

    fn listing(set: &GuardSet) -> Vec<(RelayId, SimTime)> {
        set.entries().iter().map(|g| (g.relay, g.expires)).collect()
    }

    proptest! {
        /// Through consensuses in which guards lose and regain the flag
        /// (and non-guards gain it), the indexed `maintain` and `pick`
        /// keep the same sets, return the same relays and leave the RNG
        /// where the linear scans left it.
        #[test]
        fn indexed_guard_checks_match_the_linear_scan(
            seed in any::<u64>(),
            steps in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), 0u64..40, 0usize..6),
                1..16,
            ),
        ) {
            let base = tiny_consensus(48);
            let mut now = base.valid_after();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = rng.clone();
            let mut set = GuardSet::new();
            let mut reference = GuardSet::new();
            for (lose_a, lose_b, days, picks) in steps {
                let lose = lose_a & lose_b;
                let entries: Vec<ConsensusEntry> = base
                    .entries()
                    .iter()
                    .cloned()
                    .map(|mut e| {
                        if lose >> e.relay.0 & 1 == 1 {
                            e.flags.remove(RelayFlags::GUARD);
                        } else if lose_a >> 63 == 1 && e.relay.0 % 7 == 0 {
                            e.flags.insert(RelayFlags::GUARD);
                        }
                        e
                    })
                    .collect();
                now += days * DAY;
                let c = Consensus::new(now, entries);
                set.maintain(&c, now, &mut rng);
                maintain_by_scan(&mut reference, &c, now, &mut reference_rng);
                prop_assert_eq!(listing(&set), listing(&reference));
                for _ in 0..picks {
                    prop_assert_eq!(
                        set.pick(&c, &mut rng),
                        pick_by_scan(&reference, &c, &mut reference_rng)
                    );
                }
                prop_assert_eq!(rng.random::<u64>(), reference_rng.random::<u64>());
            }
        }
    }

    #[test]
    fn maintains_three_guards() {
        let c = tiny_consensus(40);
        let now = c.valid_after();
        let mut rng = StdRng::seed_from_u64(1);
        let mut set = GuardSet::new();
        set.maintain(&c, now, &mut rng);
        assert_eq!(set.entries().len(), GUARD_SET_SIZE);
        // All picked relays carry the Guard flag.
        for g in set.entries() {
            assert!(c.is_listed_guard(g.relay));
        }
    }

    #[test]
    fn guards_expire_and_are_replaced() {
        let c = tiny_consensus(40);
        let now = c.valid_after();
        let mut rng = StdRng::seed_from_u64(2);
        let mut set = GuardSet::new();
        set.maintain(&c, now, &mut rng);
        let original: Vec<RelayId> = set.entries().iter().map(|g| g.relay).collect();

        // After 61 days everything has expired; maintenance resamples.
        let later = now + 61 * DAY;
        set.maintain(&c, later, &mut rng);
        assert_eq!(set.entries().len(), GUARD_SET_SIZE);
        for g in set.entries() {
            assert!(g.expires > later);
        }
        // With 40 relays the odds all three match the originals are tiny;
        // expiry must at least have reset lifetimes.
        let _ = original;
    }

    #[test]
    fn lifetimes_within_30_to_60_days() {
        let c = tiny_consensus(40);
        let now = c.valid_after();
        let mut rng = StdRng::seed_from_u64(3);
        let mut set = GuardSet::new();
        set.maintain(&c, now, &mut rng);
        for g in set.entries() {
            let days = g.expires.since(now) / DAY;
            assert!(
                (GUARD_LIFETIME_MIN_DAYS..=GUARD_LIFETIME_MAX_DAYS).contains(&days),
                "lifetime {days} days"
            );
        }
    }

    #[test]
    fn pick_returns_member() {
        let c = tiny_consensus(40);
        let now = c.valid_after();
        let mut rng = StdRng::seed_from_u64(4);
        let mut set = GuardSet::new();
        set.maintain(&c, now, &mut rng);
        for _ in 0..20 {
            let g = set.pick(&c, &mut rng).unwrap();
            assert!(set.contains(g));
        }
    }

    #[test]
    fn empty_set_picks_none() {
        let c = tiny_consensus(10);
        let mut rng = StdRng::seed_from_u64(5);
        let set = GuardSet::new();
        assert!(set.pick(&c, &mut rng).is_none());
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(6);
        let items = [("a", 1u64), ("b", 0), ("c", 99)];
        let mut counts = [0u32; 3];
        for _ in 0..1000 {
            counts[sample_weighted_index(&items, &mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight item never sampled");
        assert!(counts[2] > counts[0] * 10, "heavy item dominates");
        assert!(sample_weighted_index::<u8>(&[], &mut rng).is_none());
    }
}
