//! Deterministic fault injection: relay crashes, HSDir overload and
//! drops, descriptor-upload failures, and transient service
//! unreachability.
//!
//! A [`FaultPlan`] describes *rates*; the decisions themselves are pure
//! hashes of `(plan seed, entity, time | query serial)` — no RNG stream
//! is consumed, so injecting faults never perturbs the network's own
//! randomness. Two consequences the test suite relies on:
//!
//! * a plan with every rate at zero is **byte-identical** to running
//!   without a fault layer at all (no draws, no counter changes, no
//!   behavioural difference), and
//! * an adversarial plan is fully deterministic: the same seed replays
//!   the same crashes, drops and flaps, fetch for fetch.
//!
//! The per-relay *load counter* models HSDir overload: every descriptor
//! query a relay receives within one consensus round increments its
//! load, and queries beyond [`FaultPlan::overload_threshold`] are
//! dropped — popular services degrade their own HSDirs, exactly the
//! failure mode the 2013 measurements had to survive.

use crate::clock::{SimTime, HOUR};
use crate::relay::{Relay, RelayId};
use onion_crypto::descriptor::DescriptorId;
use onion_crypto::onion::OnionAddress;

/// Configured fault rates, all independent and all deterministic under
/// [`FaultPlan::seed`]. The default plan injects nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault decisions. Distinct from every other seed
    /// domain; changing it re-rolls the faults without touching the
    /// world, network or traffic randomness.
    pub seed: u64,
    /// Per-relay, per-consensus-round probability of crashing.
    pub relay_crash_rate: f64,
    /// Hours a crashed relay stays down before its operator restarts
    /// it (restarting resets the uptime clock, so the relay loses its
    /// HSDir flag for the next 25 h).
    pub restart_after_hours: u64,
    /// Per-query probability that a responsible HSDir silently drops a
    /// descriptor fetch (the client observes a timeout).
    pub hsdir_drop_rate: f64,
    /// Per-upload probability that a descriptor publish to one HSDir
    /// fails.
    pub publish_drop_rate: f64,
    /// Per-hour probability that a service is transiently unreachable
    /// at the rendezvous step even though its descriptor resolves.
    pub service_flap_rate: f64,
    /// Queries per relay per consensus round beyond which further
    /// queries are dropped as overload. `0` disables the limit.
    pub overload_threshold: u32,
    /// Per-page probability of a transient failure during the Sec. IV
    /// crawl. Consumed by the crawler (which runs against the world
    /// snapshot, not the live network), carried here so one plan
    /// describes the whole campaign's adversity.
    pub crawl_transient_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            relay_crash_rate: 0.0,
            restart_after_hours: 0,
            hsdir_drop_rate: 0.0,
            publish_drop_rate: 0.0,
            service_flap_rate: 0.0,
            overload_threshold: 0,
            crawl_transient_rate: 0.0,
        }
    }

    /// The committed adversarial profile: relay churn, lossy HSDirs,
    /// failed uploads, flapping services and a flaky crawl — rates
    /// chosen so a test-scale study degrades visibly but still
    /// completes.
    pub fn adversarial(seed: u64) -> Self {
        FaultPlan {
            seed,
            relay_crash_rate: 0.002,
            restart_after_hours: 3,
            hsdir_drop_rate: 0.05,
            publish_drop_rate: 0.03,
            service_flap_rate: 0.02,
            overload_threshold: 400,
            crawl_transient_rate: 0.10,
        }
    }

    /// Whether the plan can ever inject anything. An inert plan is
    /// skipped entirely on the hot path (and is byte-identical to no
    /// plan even when not skipped, because decisions are hash-based).
    pub fn is_inert(&self) -> bool {
        self.relay_crash_rate == 0.0
            && self.hsdir_drop_rate == 0.0
            && self.publish_drop_rate == 0.0
            && self.service_flap_rate == 0.0
            && self.overload_threshold == 0
            && self.crawl_transient_rate == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Cumulative counts of injected faults, snapshot-and-diff friendly
/// like `HotPathCounters`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FaultCounters {
    /// Relays crashed by the plan.
    pub relay_crashes: u64,
    /// Crashed relays restarted after their downtime elapsed.
    pub relay_restarts: u64,
    /// Descriptor queries dropped by the per-query drop rate.
    pub fetch_drops: u64,
    /// Descriptor queries dropped because the relay was overloaded.
    pub overload_drops: u64,
    /// Descriptor uploads dropped at publish time.
    pub publish_drops: u64,
    /// Connections refused because the service was flapping.
    pub service_flaps: u64,
}

impl FaultCounters {
    /// Component-wise `self - earlier`: faults injected since a
    /// snapshot.
    pub fn since(self, earlier: FaultCounters) -> FaultCounters {
        FaultCounters {
            relay_crashes: self.relay_crashes - earlier.relay_crashes,
            relay_restarts: self.relay_restarts - earlier.relay_restarts,
            fetch_drops: self.fetch_drops - earlier.fetch_drops,
            overload_drops: self.overload_drops - earlier.overload_drops,
            publish_drops: self.publish_drops - earlier.publish_drops,
            service_flaps: self.service_flaps - earlier.service_flaps,
        }
    }

    /// Folds the counters into a metric registry under their
    /// historical `bench_stages.json` names, in the historical order.
    /// Callers gate this on an active plan so fault-free runs keep the
    /// legacy counter layout byte-stable.
    pub fn record_into(self, reg: &mut obs::Registry) {
        reg.inc("relay_crashes", self.relay_crashes);
        reg.inc("relay_restarts", self.relay_restarts);
        reg.inc("fetch_drops", self.fetch_drops);
        reg.inc("overload_drops", self.overload_drops);
        reg.inc("publish_drops", self.publish_drops);
        reg.inc("service_flaps", self.service_flaps);
    }

    /// Total faults injected across all categories.
    pub fn total(self) -> u64 {
        self.relay_crashes
            + self.fetch_drops
            + self.overload_drops
            + self.publish_drops
            + self.service_flaps
    }
}

/// Capped exponential backoff for descriptor-fetch retries. Backoff is
/// accounted, not slept: the simulation never advances time for it, so
/// a zero-fault run (which never retries) is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum fetch attempts (including the first). Values below 1
    /// behave as 1.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in seconds.
    pub base_backoff_secs: u64,
    /// Backoff cap per attempt, in seconds.
    pub max_backoff_secs: u64,
}

impl RetryPolicy {
    /// The 2013 client defaults the measurement code uses: three
    /// attempts, 2 s doubling to a 30 s cap.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_secs: 2,
            max_backoff_secs: 30,
        }
    }

    /// The backoff charged after failed attempt number `attempt`
    /// (1-based): `min(base << (attempt-1), max)`.
    pub fn backoff_after(&self, attempt: u32) -> u64 {
        let shifted = self
            .base_backoff_secs
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(32));
        shifted.min(self.max_backoff_secs)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// SplitMix64 finalizer: the avalanche stage used to turn structured
/// keys into uniform bits.
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Maps mixed bits to `[0, 1)` with 53-bit precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic Bernoulli roll keyed on the plan seed, a decision
/// kind and two structured operands.
pub fn roll(seed: u64, kind: u64, a: u64, b: u64) -> f64 {
    unit(mix(mix(mix(seed ^ kind) ^ a) ^ b))
}

const KIND_CRASH: u64 = 0x000c_7a5e;
pub(crate) const KIND_QUERY: u64 = 0x0009_d70f;
const KIND_PUBLISH: u64 = 0x000b_ab11;
const KIND_FLAP: u64 = 0x000f_1ab5;

/// First eight bytes of a descriptor ID as a hash operand.
pub(crate) fn desc_key(id: DescriptorId) -> u64 {
    let digest = id.digest();
    let bytes = digest.as_bytes();
    let mut k = [0u8; 8];
    k.copy_from_slice(&bytes[..8]);
    u64::from_be_bytes(k)
}

/// The onion's permanent identifier as a hash operand.
pub(crate) fn onion_key(onion: OnionAddress) -> u64 {
    let perm = onion.permanent_id();
    let bytes = perm.as_bytes();
    let mut k = [0u8; 8];
    k[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
    u64::from_be_bytes(k)
}

/// Live fault-injection state carried by a `Network`. Cloning a
/// network clones this verbatim, so branched timelines replay their
/// faults independently and deterministically.
#[derive(Clone, Debug, Default)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Per-relay restart schedule: `(restart due, reachable before the
    /// crash)`. Fault-layer restarts restore the pre-crash
    /// reachability so wave-scheduled fleet relays do not jump their
    /// activation wave.
    crashed_until: Vec<Option<(SimTime, bool)>>,
    /// Per-relay descriptor queries received this consensus round.
    load: Vec<u32>,
    /// Monotonic query serial: makes per-query drop rolls independent
    /// draws (so client retries are not doomed to repeat the exact
    /// same decision) while staying fully deterministic.
    query_serial: u64,
    pub(crate) counters: FaultCounters,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            ..FaultState::default()
        }
    }

    pub(crate) fn is_inert(&self) -> bool {
        self.plan.is_inert()
    }

    fn ensure_len(&mut self, n: usize) {
        if self.crashed_until.len() < n {
            self.crashed_until.resize(n, None);
        }
        if self.load.len() < n {
            self.load.resize(n, 0);
        }
    }

    /// One consensus round of relay-level faults: restart relays whose
    /// downtime elapsed, roll fresh crashes, reset the per-round load
    /// counters. Idempotent within a round (revotes re-roll the same
    /// hashes against already-stopped relays). The churn rolls are pure
    /// hashes of `(seed, relay index, time)`, applied in relay index
    /// order.
    pub(crate) fn on_round(&mut self, relays: &mut [Relay], now: SimTime) {
        self.ensure_len(relays.len());
        for (idx, relay) in relays.iter_mut().enumerate() {
            if let Some((due, was_reachable)) = self.crashed_until[idx] {
                if relay.running {
                    // The operator restarted it out-of-band (e.g. the
                    // harvest fleet re-registering a crashed instance);
                    // the scheduled restart is moot.
                    self.crashed_until[idx] = None;
                } else if now >= due {
                    relay.start(now);
                    relay.reachable = was_reachable;
                    self.counters.relay_restarts += 1;
                    self.crashed_until[idx] = None;
                }
            }
            if relay.running
                && self.crashed_until[idx].is_none()
                && roll(self.plan.seed, KIND_CRASH, idx as u64, now.unix())
                    < self.plan.relay_crash_rate
            {
                let was_reachable = relay.reachable;
                relay.stop();
                self.crashed_until[idx] = Some((
                    now + self.plan.restart_after_hours.max(1) * HOUR,
                    was_reachable,
                ));
                self.counters.relay_crashes += 1;
            }
        }
        for load in &mut self.load {
            *load = 0;
        }
    }

    /// Whether a responsible HSDir drops this descriptor query
    /// (overload first, then the random drop rate). Increments the
    /// relay's round load either way.
    pub(crate) fn drops_query(&mut self, relay: RelayId, desc_id: DescriptorId) -> bool {
        self.ensure_len(relay.0 + 1);
        self.load[relay.0] += 1;
        if self.plan.overload_threshold > 0 && self.load[relay.0] > self.plan.overload_threshold {
            self.counters.overload_drops += 1;
            return true;
        }
        self.query_serial += 1;
        if roll(
            self.plan.seed,
            KIND_QUERY,
            desc_key(desc_id),
            self.query_serial,
        ) < self.plan.hsdir_drop_rate
        {
            self.counters.fetch_drops += 1;
            return true;
        }
        false
    }

    /// A relay's accumulated descriptor-query load this consensus
    /// round, as seen by a read-only measurement wave (the snapshot
    /// the wave's overload decisions add their local load to).
    pub(crate) fn round_load(&self, relay: RelayId) -> u32 {
        self.load.get(relay.0).copied().unwrap_or(0)
    }

    /// Folds a wave unit's per-relay load increments back into the
    /// global round-load table. Addition is commutative, so the merge
    /// order across units does not matter.
    pub(crate) fn add_load(&mut self, increments: &[(usize, u32)]) {
        for &(idx, load) in increments {
            self.ensure_len(idx + 1);
            self.load[idx] += load;
        }
    }

    /// The drop roll a read-only wave uses in place of the sequential
    /// path's `query_serial`: the serial operand is derived from the
    /// unit's stable key instead of global fetch order, so the decision
    /// is identical at any thread count.
    pub(crate) fn wave_drop_roll(&self, desc_id: DescriptorId, serial: u64) -> bool {
        roll(self.plan.seed, KIND_QUERY, desc_key(desc_id), serial) < self.plan.hsdir_drop_rate
    }

    /// Whether a descriptor upload to one HSDir fails. Keyed on
    /// `(relay, descriptor, time)` — not the query serial — because
    /// publish order must not influence the decision: each publish unit
    /// rolls this per upload and only merges the *count* of drops back,
    /// in canonical `ServiceId` order.
    pub(crate) fn publish_drop_roll(
        &self,
        relay: RelayId,
        desc_id: DescriptorId,
        now: SimTime,
    ) -> bool {
        roll(
            self.plan.seed,
            KIND_PUBLISH,
            desc_key(desc_id) ^ now.unix(),
            relay.0 as u64,
        ) < self.plan.publish_drop_rate
    }

    /// Whether a service is transiently unreachable this hour.
    pub(crate) fn service_flapping(&mut self, onion: OnionAddress, now: SimTime) -> bool {
        if roll(self.plan.seed, KIND_FLAP, onion_key(onion), now.hours())
            < self.plan.service_flap_rate
        {
            self.counters.service_flaps += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_is_inert() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan::adversarial(1).is_inert());
        let mut one = FaultPlan::none();
        one.service_flap_rate = 0.01;
        assert!(!one.is_inert());
    }

    #[test]
    fn rolls_are_deterministic_and_distinct() {
        assert_eq!(roll(7, KIND_CRASH, 3, 9), roll(7, KIND_CRASH, 3, 9));
        assert_ne!(roll(7, KIND_CRASH, 3, 9), roll(8, KIND_CRASH, 3, 9));
        assert_ne!(roll(7, KIND_CRASH, 3, 9), roll(7, KIND_QUERY, 3, 9));
        let r = roll(7, KIND_FLAP, 1, 2);
        assert!((0.0..1.0).contains(&r));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff_after(1), 2);
        assert_eq!(p.backoff_after(2), 4);
        assert_eq!(p.backoff_after(3), 8);
        assert_eq!(p.backoff_after(10), 30, "capped at max_backoff_secs");
    }

    #[test]
    fn counters_since_subtracts() {
        let a = FaultCounters {
            relay_crashes: 5,
            fetch_drops: 10,
            ..FaultCounters::default()
        };
        let b = FaultCounters {
            relay_crashes: 2,
            fetch_drops: 4,
            ..FaultCounters::default()
        };
        let d = a.since(b);
        assert_eq!(d.relay_crashes, 3);
        assert_eq!(d.fetch_drops, 6);
        assert_eq!(d.total(), 9);
    }
}
