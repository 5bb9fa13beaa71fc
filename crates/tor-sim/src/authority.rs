//! Directory authorities: uptime monitoring, flag voting and the
//! two-relays-per-IP consensus rule.
//!
//! The rule set reproduces exactly the behaviour the harvesting attack of
//! Biryukov et al. exploits:
//!
//! 1. *All* running, reachable relays are monitored and accrue uptime —
//!    whether or not they make it into the consensus.
//! 2. Flag eligibility (most importantly HSDir at ≥ 25 h uptime) is
//!    computed from that observed uptime.
//! 3. Only the **two highest-bandwidth relays per IP address** are listed
//!    in the consensus. The rest — *shadow relays* — keep running and
//!    keep their accrued flags, so the moment an active relay disappears
//!    a shadow relay enters the consensus as an instant HSDir.

use crate::clock::SimTime;
use crate::consensus::{Consensus, ConsensusEntry};
use crate::flags::RelayFlags;
use crate::relay::Relay;

/// Flag-assignment policy of the directory authorities.
#[derive(Clone, Debug)]
pub struct AuthorityPolicy {
    /// Minimum continuous uptime for the HSDir flag (25 h in 2013).
    pub hsdir_min_uptime: u64,
    /// Minimum continuous uptime for the Guard flag.
    pub guard_min_uptime: u64,
    /// Minimum bandwidth (kB/s) for the Fast flag.
    pub fast_min_bandwidth: u64,
    /// Maximum relays listed per IP address.
    pub max_per_ip: usize,
}

impl Default for AuthorityPolicy {
    fn default() -> Self {
        AuthorityPolicy {
            hsdir_min_uptime: 25 * crate::clock::HOUR,
            guard_min_uptime: 8 * crate::clock::DAY,
            fast_min_bandwidth: 100,
            max_per_ip: 2,
        }
    }
}

/// The directory-authority quorum, collapsed into a single voter (the
/// paper's analysis never depends on authority disagreement).
#[derive(Clone, Debug, Default)]
pub struct Authority {
    policy: AuthorityPolicy,
}

impl Authority {
    /// Creates an authority with the 2013 default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an authority with a custom policy.
    pub fn with_policy(policy: AuthorityPolicy) -> Self {
        Authority { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> &AuthorityPolicy {
        &self.policy
    }

    /// Computes the flags a relay has *earned* at `now`, independent of
    /// whether the two-per-IP rule lets it into the consensus.
    ///
    /// This observable-for-all-running-relays behaviour is the flaw:
    /// a shadow relay that has been up 25 h walks into the consensus
    /// already carrying HSDir.
    pub fn earned_flags(&self, relay: &Relay, now: SimTime, guard_bw_threshold: u64) -> RelayFlags {
        let mut flags = RelayFlags::NONE;
        if !(relay.running && relay.reachable) {
            return flags;
        }
        flags.insert(RelayFlags::RUNNING | RelayFlags::VALID);
        let uptime = relay.uptime(now);
        if relay.bandwidth >= self.policy.fast_min_bandwidth {
            flags.insert(RelayFlags::FAST);
        }
        if uptime >= self.policy.hsdir_min_uptime {
            flags.insert(RelayFlags::HSDIR | RelayFlags::STABLE);
        }
        if uptime >= self.policy.guard_min_uptime
            && relay.bandwidth >= guard_bw_threshold
            && flags.contains(RelayFlags::FAST)
        {
            flags.insert(RelayFlags::GUARD);
        }
        flags
    }

    /// Runs a voting round over all relays and produces the consensus
    /// valid from `now`.
    ///
    /// Reachable running relays are grouped by IP; within each group only
    /// the `max_per_ip` highest-bandwidth relays are listed. Everything
    /// else about a relay (uptime, earned flags) is retained for future
    /// rounds because it is derived from the relay's own state.
    ///
    /// Grouping is a single global sort by `(ip, bandwidth desc,
    /// fingerprint)` — no hash map anywhere, so the vote is structurally
    /// deterministic before `Consensus::new` even sorts by fingerprint.
    pub fn vote(&self, relays: &[Relay], now: SimTime) -> Consensus {
        let mut eligible: Vec<&Relay> =
            relays.iter().filter(|r| r.running && r.reachable).collect();

        // Median bandwidth of eligible relays gates the Guard flag.
        let guard_bw_threshold = median_bandwidth(&eligible);

        eligible.sort_unstable_by(|a, b| {
            a.ip.cmp(&b.ip)
                .then_with(|| b.bandwidth.cmp(&a.bandwidth))
                .then_with(|| a.fingerprint().cmp(&b.fingerprint()))
        });

        let mut entries = Vec::with_capacity(eligible.len());
        let mut taken = 0usize;
        for (i, relay) in eligible.iter().enumerate() {
            if i > 0 && relay.ip == eligible[i - 1].ip {
                taken += 1;
            } else {
                taken = 0;
            }
            if taken >= self.policy.max_per_ip {
                continue;
            }
            entries.push(ConsensusEntry {
                relay: relay.id,
                fingerprint: relay.fingerprint(),
                nickname: relay.nickname.clone(),
                ip: relay.ip,
                or_port: relay.or_port,
                bandwidth: relay.bandwidth,
                flags: self.earned_flags(relay, now, guard_bw_threshold),
            });
        }

        Consensus::new(now, entries)
    }

    /// The earliest time after `now` at which a running, reachable
    /// relay's uptime reaches the HSDir or the Guard threshold. A vote
    /// reads nothing else that changes with time: until then, relays in
    /// the same state get the same consensus entries from
    /// [`Authority::vote`]. `u64::MAX` seconds if no threshold lies
    /// ahead.
    pub(crate) fn flags_hold_until(&self, relays: &[Relay], now: SimTime) -> SimTime {
        relays
            .iter()
            .filter(|r| r.running && r.reachable)
            .flat_map(|r| {
                [self.policy.hsdir_min_uptime, self.policy.guard_min_uptime]
                    .map(|min| r.last_restart + min)
            })
            .filter(|&crossing| crossing > now)
            .min()
            .unwrap_or(SimTime::from_unix(u64::MAX))
    }
}

fn median_bandwidth(relays: &[&Relay]) -> u64 {
    if relays.is_empty() {
        return 0;
    }
    let mut bws: Vec<u64> = relays.iter().map(|r| r.bandwidth).collect();
    bws.sort_unstable();
    bws[bws.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimTime, DAY, HOUR};
    use crate::relay::{Ipv4, Relay, RelayId};
    use onion_crypto::identity::SimIdentity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mk_relay(id: usize, ip: Ipv4, bw: u64, started: SimTime, rng: &mut StdRng) -> Relay {
        Relay::new(
            RelayId(id),
            format!("relay{id}"),
            ip,
            9001,
            SimIdentity::generate(rng),
            bw,
            started,
        )
    }

    #[test]
    fn hsdir_requires_25_hours() {
        let auth = Authority::new();
        let t0 = SimTime::from_ymd(2013, 1, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let r = mk_relay(0, Ipv4::new(1, 1, 1, 1), 500, t0, &mut rng);

        let early = auth.earned_flags(&r, t0 + 24 * HOUR, 0);
        assert!(!early.contains(RelayFlags::HSDIR));
        let late = auth.earned_flags(&r, t0 + 25 * HOUR, 0);
        assert!(late.contains(RelayFlags::HSDIR));
    }

    #[test]
    fn guard_requires_uptime_and_bandwidth() {
        let auth = Authority::new();
        let t0 = SimTime::from_ymd(2013, 1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let r = mk_relay(0, Ipv4::new(1, 1, 1, 1), 5000, t0, &mut rng);

        assert!(!auth
            .earned_flags(&r, t0 + 7 * DAY, 1000)
            .contains(RelayFlags::GUARD));
        assert!(auth
            .earned_flags(&r, t0 + 9 * DAY, 1000)
            .contains(RelayFlags::GUARD));
        // Below the bandwidth threshold: never a guard.
        assert!(!auth
            .earned_flags(&r, t0 + 9 * DAY, 6000)
            .contains(RelayFlags::GUARD));
    }

    #[test]
    fn two_per_ip_selects_highest_bandwidth() {
        let auth = Authority::new();
        let t0 = SimTime::from_ymd(2013, 1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let ip = Ipv4::new(10, 0, 0, 1);
        let relays: Vec<Relay> = (0..5)
            .map(|i| mk_relay(i, ip, 100 * (i as u64 + 1), t0, &mut rng))
            .collect();

        let consensus = auth.vote(&relays, t0 + 30 * HOUR);
        assert_eq!(consensus.len(), 2);
        let mut bws: Vec<u64> = consensus.entries().iter().map(|e| e.bandwidth).collect();
        bws.sort_unstable();
        assert_eq!(bws, vec![400, 500]);
    }

    #[test]
    fn shadow_relay_enters_with_hsdir_flag() {
        // The flaw end-to-end: 3 relays on one IP, all up 30 h. Only the
        // two fastest are listed. Kill one active relay → the shadow
        // appears in the next vote *already carrying HSDir*.
        let auth = Authority::new();
        let t0 = SimTime::from_ymd(2013, 1, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let ip = Ipv4::new(10, 0, 0, 2);
        let mut relays: Vec<Relay> = (0..3)
            .map(|i| mk_relay(i, ip, 100 * (i as u64 + 1), t0, &mut rng))
            .collect();

        let t1 = t0 + 30 * HOUR;
        let c1 = auth.vote(&relays, t1);
        let listed: Vec<usize> = c1.entries().iter().map(|e| e.relay.0).collect();
        assert!(!listed.contains(&0), "slowest relay is the shadow");

        // The shadow relay is reachable but unlisted; make an active
        // relay unreachable.
        relays[2].reachable = false;
        let c2 = auth.vote(&relays, t1 + HOUR);
        let entry = c2
            .entries()
            .iter()
            .find(|e| e.relay.0 == 0)
            .expect("shadow relay enters consensus");
        assert!(
            entry.flags.contains(RelayFlags::HSDIR),
            "shadow enters with full accrued uptime → instant HSDir"
        );
    }

    #[test]
    fn stopped_relays_earn_nothing() {
        let auth = Authority::new();
        let t0 = SimTime::from_ymd(2013, 1, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let mut r = mk_relay(0, Ipv4::new(1, 2, 3, 4), 500, t0, &mut rng);
        r.stop();
        assert!(auth.earned_flags(&r, t0 + 48 * HOUR, 0).is_empty());
        let c = auth.vote(&[r], t0 + 48 * HOUR);
        assert!(c.is_empty());
    }

    #[test]
    fn flags_hold_until_the_next_uptime_threshold() {
        let auth = Authority::new();
        let t0 = SimTime::from_ymd(2013, 1, 1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut relays: Vec<Relay> = (0..3)
            .map(|i| mk_relay(i, Ipv4::new(10, 0, i as u8, 1), 5000, t0, &mut rng))
            .collect();
        relays[1].last_restart = t0 - 20 * HOUR;
        // A stopped relay's thresholds do not count.
        relays[2].last_restart = t0 - 24 * HOUR;
        relays[2].stop();
        let until = auth.flags_hold_until(&relays, t0);
        assert_eq!(until, t0 + 5 * HOUR, "relay 1 earns HSDir first");
        let flags = |t: SimTime| -> Vec<RelayFlags> {
            auth.vote(&relays, t)
                .entries()
                .iter()
                .map(|e| e.flags)
                .collect()
        };
        assert_eq!(flags(t0), flags(until - 1));
        assert_ne!(flags(t0), flags(until));
        // Past every HSDir threshold, the next one is the Guard's.
        let later = t0 + 26 * HOUR;
        assert_eq!(
            auth.flags_hold_until(&relays, later),
            t0 - 20 * HOUR + 8 * DAY
        );
        relays[0].last_restart = SimTime::EPOCH;
        relays[1].last_restart = SimTime::EPOCH;
        assert_eq!(
            auth.flags_hold_until(&relays, later),
            SimTime::from_unix(u64::MAX),
            "no threshold lies ahead"
        );
    }

    #[test]
    fn vote_is_deterministic() {
        let auth = Authority::new();
        let t0 = SimTime::from_ymd(2013, 1, 1);
        let mut rng = StdRng::seed_from_u64(6);
        let relays: Vec<Relay> = (0..20)
            .map(|i| mk_relay(i, Ipv4::new(10, 0, (i / 2) as u8, 1), 300, t0, &mut rng))
            .collect();
        let a = auth.vote(&relays, t0 + 26 * HOUR);
        let b = auth.vote(&relays, t0 + 26 * HOUR);
        let fps_a: Vec<_> = a.entries().iter().map(|e| e.fingerprint).collect();
        let fps_b: Vec<_> = b.entries().iter().map(|e| e.fingerprint).collect();
        assert_eq!(fps_a, fps_b);
    }
}
