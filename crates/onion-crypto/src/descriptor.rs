//! v2 hidden-service descriptor identifiers and the 24-hour rotation
//! schedule (rend-spec-v2 §1.3).
//!
//! Every hidden service periodically publishes two *descriptors* (one per
//! replica). Each descriptor is stored under a *descriptor ID* that
//! changes every 24 hours:
//!
//! ```text
//! descriptor-id = SHA1(permanent-id | secret-id-part)
//! secret-id-part = SHA1(time-period | replica)        // no cookie: public service
//! time-period = (current-time + permanent-id-byte-0 * 86400 / 256) / 86400
//! ```
//!
//! The per-service offset derived from `permanent-id-byte-0` staggers
//! rotation moments across services so all descriptors don't rotate at
//! midnight simultaneously. The popularity measurement of Sec. V resolves
//! observed descriptor IDs back to onion addresses by recomputing this
//! forward map for every collected address over a window of days.

use core::fmt;

use crate::onion::{OnionAddress, PermanentId};
use crate::sha1::{Digest, Sha1};
use crate::u160::U160;

/// Seconds in a time period (24 hours).
pub const TIME_PERIOD_SECS: u64 = 86_400;

/// Number of descriptor replicas a service publishes per period.
pub const REPLICAS: u8 = 2;

/// Number of consecutive HSDir fingerprints responsible per replica.
pub const HSDIRS_PER_REPLICA: usize = 3;

/// A descriptor replica index (`0` or `1`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Replica(u8);

impl Replica {
    /// Both replicas, in order.
    pub const ALL: [Replica; REPLICAS as usize] = [Replica(0), Replica(1)];

    /// Creates a replica index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= REPLICAS`.
    pub fn new(index: u8) -> Self {
        assert!(index < REPLICAS, "replica index out of range");
        Replica(index)
    }

    /// The raw index.
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replica {}", self.0)
    }
}

/// A time-period number: which 24-hour window a descriptor ID is valid
/// for, *as seen by one particular service* (periods are per-service
/// staggered).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimePeriod(pub u64);

impl TimePeriod {
    /// Computes the time period for a service at a Unix timestamp.
    pub fn at(now_unix: u64, id: PermanentId) -> Self {
        TimePeriod((now_unix + u64::from(id.byte0()) * TIME_PERIOD_SECS / 256) / TIME_PERIOD_SECS)
    }

    /// The Unix timestamp at which this service's period began.
    ///
    /// Period 0 of a service with a nonzero `byte0` offset nominally
    /// begins *before* the Unix epoch; the subtraction saturates to 0
    /// instead of underflowing (`TimePeriod::at(0, id)` is period 0 for
    /// every service, so the clamped start stays consistent with `at`).
    pub fn start_unix(self, id: PermanentId) -> u64 {
        (self.0 * TIME_PERIOD_SECS).saturating_sub(u64::from(id.byte0()) * TIME_PERIOD_SECS / 256)
    }

    /// The next period.
    pub fn next(self) -> Self {
        TimePeriod(self.0 + 1)
    }
}

impl fmt::Display for TimePeriod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "period {}", self.0)
    }
}

/// The secret-ID part `SHA1(time-period | replica)` of a public
/// service's descriptor ID. It does not depend on the service, so every
/// service in the same period shares it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SecretIdPart(Digest);

impl SecretIdPart {
    /// Computes `SHA1(time-period | replica)`: one SHA-1.
    pub fn compute(period: TimePeriod, replica: Replica) -> Self {
        let mut h = Sha1::new();
        h.update((period.0 as u32).to_be_bytes());
        h.update([replica.index()]);
        SecretIdPart(h.finalize())
    }

    /// Both replicas' parts for `period`, in replica order: two SHA-1s.
    pub fn pair(period: TimePeriod) -> [SecretIdPart; REPLICAS as usize] {
        Replica::ALL.map(|r| SecretIdPart::compute(period, r))
    }

    /// The underlying digest.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

/// The secret-ID parts of the two periods a service can be in during
/// one UTC day. A service's stagger offset is under a day, so at any
/// time of day `d` its period is `d` or `d + 1` ([`TimePeriod::at`]).
/// Holding both lets a caller derive any service's descriptor IDs for
/// that day with one SHA-1 per replica instead of two.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DaySecretParts {
    day: u64,
    parts: [[SecretIdPart; REPLICAS as usize]; 2],
}

impl DaySecretParts {
    /// SHA-1 finalisations [`DaySecretParts::for_day_of`] performs.
    pub const DIGESTS: u64 = 2 * REPLICAS as u64;

    /// The parts of the day containing `now_unix`.
    pub fn for_day_of(now_unix: u64) -> Self {
        let day = now_unix / TIME_PERIOD_SECS;
        DaySecretParts {
            day,
            parts: [
                SecretIdPart::pair(TimePeriod(day)),
                SecretIdPart::pair(TimePeriod(day + 1)),
            ],
        }
    }

    /// Whether `now_unix` falls on the day these parts were built for.
    pub fn covers(&self, now_unix: u64) -> bool {
        now_unix / TIME_PERIOD_SECS == self.day
    }

    /// Both replicas' descriptor IDs of `id` in `period`: two SHA-1s.
    ///
    /// # Panics
    ///
    /// Panics if `period` is neither of the day's two periods.
    pub fn pair(&self, id: PermanentId, period: TimePeriod) -> [DescriptorId; REPLICAS as usize] {
        let slot = period
            .0
            .checked_sub(self.day)
            .filter(|&k| k < 2)
            .expect("period lies on the parts' day");
        self.parts[slot as usize].map(|part| DescriptorId::from_secret_id_part(id, part))
    }
}

/// A v2 descriptor identifier: the ring position a descriptor is stored
/// at for one (service, period, replica) triple.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescriptorId(Digest);

impl DescriptorId {
    /// Computes `SHA1(permanent-id | SHA1(time-period | replica))`: two
    /// SHA-1s.
    pub fn compute(id: PermanentId, period: TimePeriod, replica: Replica) -> Self {
        DescriptorId::from_secret_id_part(id, SecretIdPart::compute(period, replica))
    }

    /// Computes `SHA1(permanent-id | secret-id-part)`: one SHA-1.
    pub fn from_secret_id_part(id: PermanentId, part: SecretIdPart) -> Self {
        let mut h = Sha1::new();
        h.update(id.as_bytes());
        h.update(part.0.as_bytes());
        DescriptorId(h.finalize())
    }

    /// Computes both replicas' descriptor IDs for a service at `now`.
    pub fn pair_at(onion: OnionAddress, now_unix: u64) -> [DescriptorId; REPLICAS as usize] {
        let id = onion.permanent_id();
        let period = TimePeriod::at(now_unix, id);
        Replica::ALL.map(|r| DescriptorId::compute(id, period, r))
    }

    /// Wraps a raw digest (e.g. an ID observed in a request log).
    pub fn from_digest(d: Digest) -> Self {
        DescriptorId(d)
    }

    /// The underlying digest.
    pub fn digest(&self) -> Digest {
        self.0
    }

    /// The ID as a ring position.
    pub fn to_u160(self) -> U160 {
        U160::from(self.0)
    }

    /// Base32 rendering, as descriptor IDs appear in HSDir request logs.
    pub fn to_base32(self) -> String {
        crate::base32::encode(self.0.as_bytes())
    }
}

impl fmt::Debug for DescriptorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DescriptorId({})", &self.0.to_hex()[..12])
    }
}

impl fmt::Display for DescriptorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_base32())
    }
}

impl From<DescriptorId> for U160 {
    fn from(d: DescriptorId) -> Self {
        d.to_u160()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onion::OnionAddress;

    fn onion(seed: &[u8]) -> OnionAddress {
        OnionAddress::from_pubkey(seed)
    }

    #[test]
    fn period_changes_every_24h() {
        let o = onion(b"svc");
        let id = o.permanent_id();
        let t0 = 1_359_936_000u64; // 2013-02-04 00:00 UTC
        let p0 = TimePeriod::at(t0, id);
        assert_eq!(TimePeriod::at(t0 + 3600, id), p0);
        assert_eq!(TimePeriod::at(t0 + TIME_PERIOD_SECS, id).0, p0.0 + 1);
    }

    #[test]
    fn period_offset_staggers_services() {
        // A service whose byte0 is large rotates earlier within the day.
        let id_hi = PermanentId::from_bytes([0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let id_lo = PermanentId::from_bytes([0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        // Just before midnight, the high-offset service is already in the
        // next period.
        let t = TIME_PERIOD_SECS - 120;
        assert_eq!(TimePeriod::at(t, id_lo).0, 0);
        assert_eq!(TimePeriod::at(t, id_hi).0, 1);
    }

    #[test]
    fn period_start_inverse() {
        let id = onion(b"k").permanent_id();
        let t = 1_360_000_000u64;
        let p = TimePeriod::at(t, id);
        let start = p.start_unix(id);
        assert!(start <= t);
        assert_eq!(TimePeriod::at(start, id), p);
        assert_eq!(TimePeriod::at(start + TIME_PERIOD_SECS - 1, id), p);
        assert_eq!(TimePeriod::at(start + TIME_PERIOD_SECS, id).0, p.0 + 1);
    }

    #[test]
    fn start_unix_saturates_at_epoch_boundary() {
        // Period 0 of a service with a nonzero byte0 nominally starts
        // before the epoch; the subtraction must clamp, not underflow.
        let id_hi = PermanentId::from_bytes([0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(TimePeriod::at(0, id_hi), TimePeriod(0));
        assert_eq!(TimePeriod(0).start_unix(id_hi), 0);
        // Later periods are unaffected by the clamp.
        let start1 = TimePeriod(1).start_unix(id_hi);
        assert_eq!(
            start1,
            TIME_PERIOD_SECS - u64::from(0xffu8) * TIME_PERIOD_SECS / 256
        );
        assert_eq!(TimePeriod::at(start1, id_hi), TimePeriod(1));
    }

    #[test]
    fn replicas_differ() {
        let o = onion(b"svc2");
        let [a, b] = DescriptorId::pair_at(o, 1_360_000_000);
        assert_ne!(a, b);
    }

    #[test]
    fn ids_stable_within_period_and_rotate() {
        let o = onion(b"svc3");
        let id = o.permanent_id();
        let start = TimePeriod::at(1_360_000_000, id).start_unix(id);
        let a = DescriptorId::pair_at(o, start);
        let b = DescriptorId::pair_at(o, start + TIME_PERIOD_SECS / 2);
        assert_eq!(a, b);
        let c = DescriptorId::pair_at(o, start + TIME_PERIOD_SECS);
        assert_ne!(a[0], c[0]);
        assert_ne!(a[1], c[1]);
    }

    #[test]
    fn distinct_services_distinct_ids() {
        let t = 1_360_000_000;
        let a = DescriptorId::pair_at(onion(b"one"), t);
        let b = DescriptorId::pair_at(onion(b"two"), t);
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn descriptor_ids_match_known_answers() {
        // Values computed independently with Python's hashlib:
        // SHA1(SHA1("svc")[..10] | SHA1(be32(15742) | replica)).
        let id = onion(b"svc").permanent_id();
        let period = TimePeriod(15_742);
        let parts = SecretIdPart::pair(period);
        assert_eq!(
            parts.map(|p| p.digest().to_hex()),
            [
                "1d39138e88611be6701970fae8f4ed10126899e8",
                "4a795220af856eafc5fab8786cb2e5975dd53299",
            ]
        );
        let want = [
            "dfb92d354259deea86a27b5fbac5c021bb4059a8",
            "7b9fc1d5c93acdd850de436f8715d0ab51993602",
        ];
        for r in Replica::ALL {
            let i = usize::from(r.index());
            assert_eq!(
                DescriptorId::compute(id, period, r).digest().to_hex(),
                want[i]
            );
            assert_eq!(
                DescriptorId::from_secret_id_part(id, parts[i])
                    .digest()
                    .to_hex(),
                want[i]
            );
        }
    }

    #[test]
    fn day_parts_derive_pair_at_for_every_stagger() {
        let t0 = 1_360_000_000u64;
        let day = DaySecretParts::for_day_of(t0);
        let last = (t0 / TIME_PERIOD_SECS + 1) * TIME_PERIOD_SECS - 1;
        assert!(day.covers(t0) && day.covers(last) && !day.covers(last + 1));
        for byte0 in 0..=255u8 {
            let id = PermanentId::from_bytes([byte0, 3, 1, 4, 1, 5, 9, 2, 6, 5]);
            let onion = id.to_onion();
            for t in [t0 - t0 % TIME_PERIOD_SECS, t0, last] {
                let period = TimePeriod::at(t, id);
                assert_eq!(day.pair(id, period), DescriptorId::pair_at(onion, t));
            }
        }
    }

    #[test]
    #[should_panic(expected = "period lies on the parts' day")]
    fn day_parts_reject_other_days() {
        let day = DaySecretParts::for_day_of(1_360_000_000);
        let id = onion(b"svc").permanent_id();
        let _ = day.pair(id, TimePeriod(1_360_000_000 / TIME_PERIOD_SECS + 2));
    }

    #[test]
    #[should_panic(expected = "replica index out of range")]
    fn replica_bounds() {
        let _ = Replica::new(2);
    }

    #[test]
    fn base32_rendering_is_32_chars() {
        let [a, _] = DescriptorId::pair_at(onion(b"svc4"), 1_360_000_000);
        assert_eq!(a.to_base32().len(), 32);
    }
}
