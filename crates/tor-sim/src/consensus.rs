//! The network consensus: the hourly directory document listing usable
//! relays, and the responsible-HSDir ring lookup performed against it.

use core::cmp::Ordering;
use core::fmt;

use onion_crypto::descriptor::{DescriptorId, HSDIRS_PER_REPLICA};
use onion_crypto::identity::Fingerprint;
use onion_crypto::onion::OnionAddress;
use onion_crypto::u160::U160;

use crate::clock::SimTime;
use crate::flags::RelayFlags;
use crate::relay::{Ipv4, RelayId};

/// One router-status line of a consensus.
#[derive(Clone, Debug)]
pub struct ConsensusEntry {
    /// Simulator handle of the relay.
    pub relay: RelayId,
    /// Identity fingerprint (the ring position).
    pub fingerprint: Fingerprint,
    /// Operator-chosen nickname.
    pub nickname: String,
    /// Advertised IP address.
    pub ip: Ipv4,
    /// OR port.
    pub or_port: u16,
    /// Measured bandwidth in kB/s.
    pub bandwidth: u64,
    /// Assigned flags.
    pub flags: RelayFlags,
}

/// How the HSDir ring moved between two consensuses (see
/// [`Consensus::hsdir_ring_change`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct RingChange {
    /// Relays whose ring position is gone: they left the ring or took a
    /// new identity. Sorted.
    departed: Vec<RelayId>,
    /// Fingerprints of the positions that are new. Sorted.
    joined: Vec<Fingerprint>,
}

impl RingChange {
    /// Whether the HSDirs that were responsible for `desc_id` before the
    /// change — `responsible`, in ring order, the last at fingerprint
    /// `last` — still are: none of them departed, and no position
    /// joined between `desc_id` and `last`. Then the new ring holds
    /// exactly these HSDirs there, so they are still the first
    /// [`HSDIRS_PER_REPLICA`] after `desc_id`.
    pub(crate) fn keeps(
        &self,
        desc_id: DescriptorId,
        responsible: [RelayId; HSDIRS_PER_REPLICA],
        last: Fingerprint,
    ) -> bool {
        if responsible
            .iter()
            .any(|r| self.departed.binary_search(r).is_ok())
        {
            return false;
        }
        let after = self
            .joined
            .partition_point(|j| j.digest() <= desc_id.digest());
        let pos = desc_id.to_u160();
        // The first joined position after `desc_id` on the ring; every
        // other one lies further on.
        match self.joined.get(after).or(self.joined.first()) {
            Some(joined) => pos.distance_to(joined.to_u160()) > pos.distance_to(last.to_u160()),
            None => true,
        }
    }
}

/// A consensus document: all usable relays at one `valid_after` time,
/// ordered by fingerprint.
///
/// # Examples
///
/// Responsible-HSDir lookup walks the fingerprint ring:
///
/// ```
/// # use tor_sim::test_support::tiny_consensus;
/// let consensus = tiny_consensus(12);
/// let onion: onion_crypto::OnionAddress = "silkroadvb5piz3r".parse().unwrap();
/// let responsible = consensus.responsible_for_service(onion, consensus.valid_after().unix());
/// assert_eq!(responsible.len(), 6); // 3 per replica × 2 replicas
/// ```
#[derive(Clone, Debug)]
pub struct Consensus {
    valid_after: SimTime,
    /// Entries sorted by fingerprint.
    entries: Vec<ConsensusEntry>,
    /// Indices (into `entries`) of relays with the HSDir flag, in
    /// fingerprint order — the hidden-service directory ring.
    hsdir_ring: Vec<usize>,
    /// Bit `r % 64` of word `r / 64` set: relay `RelayId(r)` is listed
    /// with the Guard flag. Sized by the largest listed guard's index.
    guard_bits: Vec<u64>,
}

impl Consensus {
    /// Builds a consensus from unsorted entries.
    pub fn new(valid_after: SimTime, mut entries: Vec<ConsensusEntry>) -> Self {
        entries.sort_by_key(|e| e.fingerprint);
        let hsdir_ring = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.flags.contains(RelayFlags::HSDIR))
            .map(|(i, _)| i)
            .collect();
        let mut guard_bits = Vec::new();
        for e in entries
            .iter()
            .filter(|e| e.flags.contains(RelayFlags::GUARD))
        {
            let word = e.relay.0 / 64;
            if guard_bits.len() <= word {
                guard_bits.resize(word + 1, 0u64);
            }
            guard_bits[word] |= 1 << (e.relay.0 % 64);
        }
        Consensus {
            valid_after,
            entries,
            hsdir_ring,
            guard_bits,
        }
    }

    /// The time this consensus became valid.
    pub fn valid_after(&self) -> SimTime {
        self.valid_after
    }

    /// Re-issues the consensus at `now` with the same entries: what a
    /// vote over unchanged relays produces while no flag threshold is
    /// crossed.
    pub(crate) fn revalidate(&mut self, now: SimTime) {
        self.valid_after = now;
    }

    /// All entries, in fingerprint order.
    pub fn entries(&self) -> &[ConsensusEntry] {
        &self.entries
    }

    /// Number of listed relays.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the consensus lists no relays.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of relays carrying the HSDir flag.
    pub fn hsdir_count(&self) -> usize {
        self.hsdir_ring.len()
    }

    /// Iterates over the HSDir ring in fingerprint order.
    pub fn hsdirs(&self) -> impl Iterator<Item = &ConsensusEntry> + '_ {
        self.hsdir_ring.iter().map(move |&i| &self.entries[i])
    }

    /// How the HSDir ring changed since `prev`, as the `(relay,
    /// fingerprint)` positions that went and came; `None` if the ring
    /// is the same. Responsible-HSDir lookups depend on nothing else,
    /// so an unchanged ring places every descriptor ID where `prev`
    /// did. One merge walk over both rings.
    pub(crate) fn hsdir_ring_change(&self, prev: &Consensus) -> Option<RingChange> {
        let position = |e: &ConsensusEntry| (e.fingerprint, e.relay);
        let mut old = prev.hsdirs().map(position).peekable();
        let mut new = self.hsdirs().map(position).peekable();
        let mut change = RingChange::default();
        loop {
            let order = match (old.peek(), new.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(a), Some(b)) => a.cmp(b),
            };
            match order {
                Ordering::Equal => {
                    old.next();
                    new.next();
                }
                Ordering::Less => change.departed.extend(old.next().map(|(_, relay)| relay)),
                Ordering::Greater => change.joined.extend(new.next().map(|(fp, _)| fp)),
            }
        }
        if change.departed.is_empty() && change.joined.is_empty() {
            return None;
        }
        change.departed.sort_unstable();
        Some(change)
    }

    /// Looks up an entry by fingerprint.
    pub fn entry(&self, fp: Fingerprint) -> Option<&ConsensusEntry> {
        self.entries
            .binary_search_by_key(&fp, |e| e.fingerprint)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The relays responsible for storing one descriptor replica: the
    /// `HSDIRS_PER_REPLICA` HSDir-flagged relays whose fingerprints
    /// *follow* the descriptor ID on the ring (wrapping).
    ///
    /// Returns fewer entries when the ring itself is smaller.
    pub fn responsible_hsdirs(&self, desc_id: DescriptorId) -> Vec<&ConsensusEntry> {
        self.hsdirs_after(desc_id.to_u160(), HSDIRS_PER_REPLICA)
    }

    /// Allocation-free variant of [`Consensus::responsible_hsdirs`] for
    /// the consensus-round and fetch hot paths: writes the responsible
    /// relay handles into `out` and returns how many were filled
    /// (fewer than `HSDIRS_PER_REPLICA` only on tiny rings, zero on an
    /// empty ring). The filled prefix matches the `Vec` variant
    /// entry-for-entry.
    pub fn responsible_hsdirs_into(
        &self,
        desc_id: DescriptorId,
        out: &mut [RelayId; HSDIRS_PER_REPLICA],
    ) -> usize {
        let n = self.hsdir_ring.len();
        if n == 0 {
            return 0;
        }
        // Digests order as ring positions do.
        let pos = desc_id.digest();
        let start = self
            .hsdir_ring
            .partition_point(|&i| self.entries[i].fingerprint.digest() <= pos);
        let count = HSDIRS_PER_REPLICA.min(n);
        for (k, slot) in out.iter_mut().take(count).enumerate() {
            *slot = self.entries[self.hsdir_ring[(start + k) % n]].relay;
        }
        count
    }

    /// The first `count` HSDirs strictly after ring position `pos`.
    pub fn hsdirs_after(&self, pos: U160, count: usize) -> Vec<&ConsensusEntry> {
        let n = self.hsdir_ring.len();
        if n == 0 {
            return Vec::new();
        }
        // Find the first ring slot whose fingerprint exceeds `pos`.
        let start = self
            .hsdir_ring
            .partition_point(|&i| self.entries[i].fingerprint.to_u160() <= pos);
        (0..count.min(n))
            .map(|k| &self.entries[self.hsdir_ring[(start + k) % n]])
            .collect()
    }

    /// All six relays responsible for a service at `now_unix` (three per
    /// replica; duplicates possible on tiny rings).
    pub fn responsible_for_service(
        &self,
        onion: OnionAddress,
        now_unix: u64,
    ) -> Vec<&ConsensusEntry> {
        DescriptorId::pair_at(onion, now_unix)
            .into_iter()
            .flat_map(|id| self.responsible_hsdirs(id))
            .collect()
    }

    /// Entries with the Guard flag.
    pub fn guards(&self) -> impl Iterator<Item = &ConsensusEntry> + '_ {
        self.entries
            .iter()
            .filter(|e| e.flags.contains(RelayFlags::GUARD))
    }

    /// Whether `relay` is listed with the Guard flag, in O(1): the same
    /// answer as `self.guards().any(|e| e.relay == relay)`.
    pub fn is_listed_guard(&self, relay: RelayId) -> bool {
        self.guard_bits
            .get(relay.0 / 64)
            .is_some_and(|word| word >> (relay.0 % 64) & 1 == 1)
    }

    /// Total bandwidth of all Guard-flagged entries.
    pub fn guard_bandwidth(&self) -> u64 {
        self.guards().map(|e| e.bandwidth).sum()
    }

    /// The average gap between consecutive HSDir fingerprints on the
    /// ring (`2^160 / hsdir_count`), used by the Sec. VII ratio
    /// statistic.
    pub fn average_hsdir_gap(&self) -> U160 {
        match self.hsdir_count() {
            0 => U160::MAX,
            n => U160::MAX.div_u64(n as u64),
        }
    }
}

impl fmt::Display for Consensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "consensus {} ({} relays, {} HSDirs)",
            self.valid_after,
            self.len(),
            self.hsdir_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_consensus;
    use onion_crypto::sha1::Sha1;

    #[test]
    fn entries_sorted_by_fingerprint() {
        let c = tiny_consensus(20);
        let fps: Vec<_> = c.entries().iter().map(|e| e.fingerprint).collect();
        let mut sorted = fps.clone();
        sorted.sort();
        assert_eq!(fps, sorted);
    }

    #[test]
    fn responsible_hsdirs_follow_descriptor_id() {
        let c = tiny_consensus(30);
        let desc = DescriptorId::from_digest(Sha1::digest(b"some descriptor"));
        let resp = c.responsible_hsdirs(desc);
        assert_eq!(resp.len(), 3);
        // Every responsible fingerprint is > desc on the wrapped ring:
        // walking from desc forward, the three relays returned must be the
        // three nearest in forward distance among all HSDirs.
        let d0 = desc.to_u160();
        let mut dists: Vec<_> = c
            .hsdirs()
            .map(|e| d0.distance_to(e.fingerprint.to_u160()))
            .collect();
        dists.sort();
        let mut resp_dists: Vec<_> = resp
            .iter()
            .map(|e| d0.distance_to(e.fingerprint.to_u160()))
            .collect();
        resp_dists.sort();
        assert_eq!(resp_dists, dists[..3].to_vec());
    }

    #[test]
    fn responsible_into_matches_vec_variant() {
        for ring in [1usize, 2, 10, 30] {
            let c = tiny_consensus(ring);
            for seed in 0..20u32 {
                let desc = DescriptorId::from_digest(Sha1::digest(seed.to_be_bytes()));
                let via_vec: Vec<RelayId> =
                    c.responsible_hsdirs(desc).iter().map(|e| e.relay).collect();
                let mut buf = [RelayId(usize::MAX); HSDIRS_PER_REPLICA];
                let n = c.responsible_hsdirs_into(desc, &mut buf);
                assert_eq!(&buf[..n], &via_vec[..], "ring {ring} seed {seed}");
            }
        }
    }

    #[test]
    fn responsible_into_empty_ring_fills_nothing() {
        let c = Consensus::new(SimTime::EPOCH, Vec::new());
        let desc = DescriptorId::from_digest(Sha1::digest(b"x"));
        let mut buf = [RelayId(usize::MAX); HSDIRS_PER_REPLICA];
        assert_eq!(c.responsible_hsdirs_into(desc, &mut buf), 0);
    }

    #[test]
    fn ring_wraps() {
        let c = tiny_consensus(10);
        // A descriptor ID beyond the largest fingerprint wraps to the
        // smallest fingerprints.
        let max_fp = c.hsdirs().map(|e| e.fingerprint).max().unwrap();
        let desc = DescriptorId::from_digest(max_fp.digest());
        let resp = c.responsible_hsdirs(desc);
        let first_fp = c.hsdirs().next().unwrap().fingerprint;
        assert!(resp.iter().any(|e| e.fingerprint == first_fp));
    }

    #[test]
    fn service_gets_six_responsible() {
        let c = tiny_consensus(50);
        let onion: OnionAddress = "duckduckgo123456"
            .parse()
            .unwrap_or_else(|_| OnionAddress::from_pubkey(b"ddg"));
        let resp = c.responsible_for_service(onion, c.valid_after().unix());
        assert_eq!(resp.len(), 6);
    }

    #[test]
    fn ring_change_ignores_everything_but_the_ring() {
        let a = tiny_consensus(10);
        let mut entries = a.entries().to_vec();
        entries[0].bandwidth += 1;
        entries[0].nickname.push('x');
        assert_eq!(
            Consensus::new(a.valid_after(), entries.clone()).hsdir_ring_change(&a),
            None
        );
        let left = entries[3].relay;
        entries[3].flags = RelayFlags::RUNNING | RelayFlags::VALID;
        let moved = entries[5].relay;
        entries[5].fingerprint = Fingerprint::from_digest(Sha1::digest(b"new key"));
        let joined = entries[5].fingerprint;
        let change = Consensus::new(a.valid_after(), entries)
            .hsdir_ring_change(&a)
            .unwrap();
        let mut departed = vec![left, moved];
        departed.sort();
        assert_eq!(change.departed, departed);
        assert_eq!(change.joined, vec![joined]);
    }

    #[test]
    fn ring_change_keeps_exactly_the_unmoved_responsible_sets() {
        let before = tiny_consensus(30);
        let mut entries = before.entries().to_vec();
        entries[7].flags = RelayFlags::RUNNING | RelayFlags::VALID;
        entries[19].fingerprint = Fingerprint::from_digest(Sha1::digest(b"re-keyed"));
        let after = Consensus::new(before.valid_after(), entries);
        let change = after.hsdir_ring_change(&before).unwrap();
        let mut kept = 0;
        for seed in 0..200u32 {
            let desc = DescriptorId::from_digest(Sha1::digest(seed.to_be_bytes()));
            let old: Vec<&ConsensusEntry> = before.responsible_hsdirs(desc);
            let new: Vec<RelayId> = after
                .responsible_hsdirs(desc)
                .iter()
                .map(|e| e.relay)
                .collect();
            let responsible = [old[0].relay, old[1].relay, old[2].relay];
            let keeps = change.keeps(desc, responsible, old[2].fingerprint);
            assert_eq!(keeps, new == responsible, "seed {seed}");
            kept += usize::from(keeps);
        }
        assert!(
            kept > 100,
            "most responsible sets survive two moves: {kept}"
        );
    }

    #[test]
    fn guard_index_matches_a_scan_of_the_entries() {
        let full = tiny_consensus(150);
        let mut entries = full.entries().to_vec();
        // Strip the flag from every third guard, and give relay 149
        // (the last word's high bits) a listing of its own.
        for e in entries.iter_mut().filter(|e| e.relay.0 % 3 == 0) {
            e.flags.remove(RelayFlags::GUARD);
        }
        for e in entries.iter_mut().filter(|e| e.relay.0 == 149) {
            e.flags.insert(RelayFlags::GUARD);
        }
        for c in [full, Consensus::new(SimTime::EPOCH, entries)] {
            assert!(c.guards().count() > 10);
            for r in (0..c.len() + 130).map(RelayId) {
                let scanned = c.guards().any(|e| e.relay == r);
                assert_eq!(c.is_listed_guard(r), scanned, "relay {}", r.0);
            }
            assert!(!c.is_listed_guard(RelayId(usize::MAX)));
        }
        assert!(!Consensus::new(SimTime::EPOCH, Vec::new()).is_listed_guard(RelayId(0)));
    }

    #[test]
    fn lookup_by_fingerprint() {
        let c = tiny_consensus(8);
        let fp = c.entries()[3].fingerprint;
        assert_eq!(c.entry(fp).unwrap().fingerprint, fp);
        let absent = Fingerprint::from_digest(Sha1::digest(b"absent"));
        assert!(c.entry(absent).is_none());
    }

    #[test]
    fn empty_ring_returns_nothing() {
        let c = Consensus::new(SimTime::EPOCH, Vec::new());
        assert!(c.is_empty());
        let desc = DescriptorId::from_digest(Sha1::digest(b"x"));
        assert!(c.responsible_hsdirs(desc).is_empty());
        assert_eq!(c.average_hsdir_gap(), U160::MAX);
    }

    #[test]
    fn average_gap_scales() {
        let c = tiny_consensus(16);
        let gap = c.average_hsdir_gap();
        let expected = U160::MAX.div_u64(c.hsdir_count() as u64);
        assert_eq!(gap, expected);
    }
}
