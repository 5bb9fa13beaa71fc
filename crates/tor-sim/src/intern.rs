//! Interned service identifiers and the struct-of-arrays service table.
//!
//! The network's per-service hot state used to live in six separate
//! `HashMap<OnionAddress, _>`s, which meant every consensus round paid
//! one hash + probe per service per column. At scale 1.0 (~40k hidden
//! services) that dominates the mutate phase. This module replaces the
//! maps with one *interner* — a stable `OnionAddress → ServiceId(u32)`
//! assignment — and dense `Vec` columns indexed by [`ServiceId`], so
//! the publish/fetch/coverage paths are allocation- and hash-free.
//!
//! # ID stability rules
//!
//! - A [`ServiceId`] is assigned on first sight of an onion address and
//!   **never changes or gets reused** afterwards: IDs are arena indices
//!   in registration order, which is deterministic (world generation
//!   order), so partitioning work by `ServiceId` is seed-stable.
//! - Churn never deletes a row. A service going offline flips its
//!   `online` column; phantom onions (fetched but never registered)
//!   intern with `online == None` so descriptor-cache bookkeeping
//!   stays per-row without making them look like registered services.
//! - Lookups by address go through one sorted index plus a small
//!   unsorted `pending` tail; [`ServiceInterner::flush`] merges the
//!   tail before any shared-`&self` wave so reads stay `O(log n)`.

use onion_crypto::descriptor::{DescriptorId, TimePeriod, HSDIRS_PER_REPLICA, REPLICAS};
use onion_crypto::onion::OnionAddress;

use crate::cells::TrafficSignature;
use crate::network::ServiceRecord;
use crate::relay::RelayId;

/// A service's cached descriptor-ID pair and the period it was
/// computed in.
pub type DescPair = (TimePeriod, [DescriptorId; REPLICAS as usize]);

/// Upload slots one service fills per round: both replicas times the
/// responsible HSDirs per replica. Slot `r * HSDIRS_PER_REPLICA + k`
/// is replica `r`'s `k`-th responsible HSDir.
pub(crate) const UPLOAD_SLOTS: usize = REPLICAS as usize * HSDIRS_PER_REPLICA;

/// Where a service's descriptors went in its latest publish round.
///
/// A round reuses the placement instead of walking the ring again when
/// nothing it depends on moved: the same time period (so the same
/// descriptor IDs), a ring that still puts the IDs on the same HSDirs,
/// and a placement computed with faults inert (so every responsible
/// slot was uploaded to). Kept compact, because the column has a row
/// per interned onion and is copied with every network clone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Placement {
    /// The descriptor IDs uploaded, in replica order.
    pub ids: [DescriptorId; REPLICAS as usize],
    /// The time period `ids` belong to.
    pub period: TimePeriod,
    /// The HSDir ring generation the slots were looked up in.
    pub ring: u32,
    /// Relay index per upload slot; [`Placement::NO_RELAY`] where the
    /// ring had fewer HSDirs than slots.
    pub slots: [u32; UPLOAD_SLOTS],
    /// Bit `i` set: slot `i` received its upload.
    pub uploaded: u8,
    /// Computed with faults inert, so every responsible slot was
    /// uploaded to and the placement holds until the period rotates or
    /// the ring moves near `ids`.
    pub reusable: bool,
}

// The column is copied with every network clone; keep a row at 80 bytes.
const _: () = assert!(std::mem::size_of::<Option<Placement>>() <= 80);

impl Placement {
    /// Slot marker for "no responsible HSDir".
    pub(crate) const NO_RELAY: u32 = u32::MAX;

    /// The `(relay index, descriptor ID)` pairs that were uploaded.
    pub(crate) fn uploads(&self) -> impl Iterator<Item = (usize, DescriptorId)> + '_ {
        (0..UPLOAD_SLOTS)
            .filter(|&i| self.uploaded >> i & 1 == 1)
            .map(|i| (self.slots[i] as usize, self.ids[i / HSDIRS_PER_REPLICA]))
    }

    /// Replica `replica`'s responsible HSDirs in ring order, if the ring
    /// had all of them.
    pub(crate) fn responsible(&self, replica: usize) -> Option<[RelayId; HSDIRS_PER_REPLICA]> {
        let slots = &self.slots[replica * HSDIRS_PER_REPLICA..][..HSDIRS_PER_REPLICA];
        if slots.contains(&Self::NO_RELAY) {
            return None;
        }
        Some(std::array::from_fn(|k| RelayId(slots[k] as usize)))
    }

    /// Whether this placement uploaded `id` to relay `relay`.
    pub(crate) fn has_upload(&self, relay: usize, id: DescriptorId) -> bool {
        self.uploads().any(|u| u == (relay, id))
    }

    /// The responsible relays of every slot, dropped uploads included.
    pub(crate) fn relays(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .filter(|&&r| r != Self::NO_RELAY)
            .map(|&r| r as usize)
    }
}

/// Pending-tail size at which [`ServiceInterner::intern`] merges the
/// tail into the sorted index on its own.
const PENDING_FLUSH: usize = 512;

/// Dense, stable handle for an interned onion address.
///
/// IDs are assigned in first-sight order and never reused; see the
/// module docs for the stability rules.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServiceId(pub u32);

impl ServiceId {
    /// The ID as a column index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The `OnionAddress → ServiceId` intern table.
///
/// Forward resolution (`ServiceId → OnionAddress`) is an arena index;
/// reverse lookup binary-searches a sorted vec, falling back to a
/// linear scan of the unsorted `pending` tail for addresses interned
/// since the last [`flush`](Self::flush).
#[derive(Clone, Debug, Default)]
pub struct ServiceInterner {
    /// Arena: `onions[id.index()]` is the interned address.
    onions: Vec<OnionAddress>,
    /// Sorted-by-address lookup index.
    sorted: Vec<(OnionAddress, ServiceId)>,
    /// Recently interned addresses not yet merged into `sorted`.
    pending: Vec<(OnionAddress, ServiceId)>,
}

impl ServiceInterner {
    /// Number of interned addresses (registered services and phantoms).
    pub fn len(&self) -> usize {
        self.onions.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.onions.is_empty()
    }

    /// The ID of an already-interned address, if any.
    pub fn get(&self, onion: OnionAddress) -> Option<ServiceId> {
        if let Ok(i) = self.sorted.binary_search_by_key(&onion, |&(o, _)| o) {
            return Some(self.sorted[i].1);
        }
        self.pending
            .iter()
            .find(|&&(o, _)| o == onion)
            .map(|&(_, id)| id)
    }

    /// The address an ID resolves to.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: ServiceId) -> OnionAddress {
        self.onions[id.index()]
    }

    /// Interns an address, assigning a fresh ID on first sight.
    pub fn intern(&mut self, onion: OnionAddress) -> ServiceId {
        if let Some(id) = self.get(onion) {
            return id;
        }
        let id = ServiceId(u32::try_from(self.onions.len()).expect("more than u32::MAX services"));
        self.onions.push(onion);
        self.pending.push((onion, id));
        if self.pending.len() >= PENDING_FLUSH {
            self.flush();
        }
        id
    }

    /// Merges the pending tail into the sorted index (a sort of the
    /// tail plus one linear merge — never a full re-sort).
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable_by_key(|&(o, _)| o);
        let old = std::mem::take(&mut self.sorted);
        self.sorted = Vec::with_capacity(old.len() + self.pending.len());
        let mut tail = self.pending.drain(..).peekable();
        for entry in old {
            while let Some(t) = tail.next_if(|t| t.0 < entry.0) {
                self.sorted.push(t);
            }
            self.sorted.push(entry);
        }
        self.sorted.extend(tail);
    }
}

/// Number of phase buckets: one per value of `PermanentId::byte0`, the
/// only part of a service that `TimePeriod::at` reads.
const PHASES: usize = 256;

/// Struct-of-arrays table of all per-service network state, indexed by
/// [`ServiceId`].
///
/// Every column the `Network` hot paths touch per round — liveness,
/// descriptor-ID cache, slot-hour coverage, armed traffic signatures —
/// is a dense `Vec` here, grown (never shrunk) as addresses intern.
///
/// The table also keeps a round's *agenda* (see [`ServiceTable::agenda`]):
/// registered rows grouped by rotation phase, so a round finds the rows
/// whose period rotated without visiting the rest, and the rows whose
/// liveness was set since the previous round.
#[derive(Clone, Debug, Default)]
pub struct ServiceTable {
    interner: ServiceInterner,
    /// `Some(online)` for registered services, `None` for phantoms.
    online: Vec<Option<bool>>,
    /// Logging-relay slot-hour coverage per service, settled up to
    /// coverage hour `settled_at` (see [`ServiceTable::slot_hours`]).
    slot_hours: Vec<u64>,
    /// The logging slots of each row's placement (0 while it has none):
    /// the slot-hours the row earns per recorded coverage hour.
    rates: Vec<u8>,
    /// The coverage-hour count at which each row's `slot_hours` was
    /// last settled.
    settled_at: Vec<u32>,
    /// Coverage hours recorded so far.
    coverage_hours: u32,
    /// Registered rows by `PermanentId::byte0`, each bucket in
    /// registration order (empty until the first registration).
    phases: Vec<Vec<u32>>,
    /// Rows registered, or whose liveness changed, since the previous
    /// round's agenda was taken.
    dirty: Vec<u32>,
    /// Per-period descriptor-ID pair cache.
    desc_cache: Vec<Option<DescPair>>,
    /// Each service's latest publish round (`None` if it uploaded
    /// nothing: offline, phantom, or never online).
    placements: Vec<Option<Placement>>,
    /// Armed traffic signatures (attack targets only).
    signatures: Vec<Option<TrafficSignature>>,
    /// The period each armed target's `sig_index` entries were built for.
    sig_periods: Vec<Option<TimePeriod>>,
    /// Reverse index over armed targets: descriptor ID → service,
    /// sorted by descriptor ID.
    sig_index: Vec<(DescriptorId, ServiceId)>,
}

impl ServiceTable {
    /// Interns an address and grows every column to cover its row.
    pub fn intern(&mut self, onion: OnionAddress) -> ServiceId {
        let id = self.interner.intern(onion);
        let rows = self.interner.len();
        if self.online.len() < rows {
            self.online.resize(rows, None);
            self.slot_hours.resize(rows, 0);
            self.rates.resize(rows, 0);
            self.settled_at.resize(rows, 0);
            self.desc_cache.resize(rows, None);
            self.placements.resize(rows, None);
            self.signatures.resize(rows, None);
            self.sig_periods.resize(rows, None);
        }
        id
    }

    /// The ID of an already-interned address, if any.
    pub fn get(&self, onion: OnionAddress) -> Option<ServiceId> {
        self.interner.get(onion)
    }

    /// The address a row belongs to.
    pub fn onion(&self, id: ServiceId) -> OnionAddress {
        self.interner.resolve(id)
    }

    /// Merges the interner's pending tail; call before sharing `&self`
    /// across wave threads so reverse lookups stay `O(log n)`.
    pub fn flush(&mut self) {
        self.interner.flush();
    }

    /// Registers (or re-registers) a hidden service. The next round
    /// visits its row.
    pub fn register(&mut self, onion: OnionAddress, online: bool) {
        let id = self.intern(onion);
        if self.online[id.index()].is_none() {
            if self.phases.is_empty() {
                self.phases.resize_with(PHASES, Vec::new);
            }
            self.phases[usize::from(onion.permanent_id().byte0())].push(id.0);
        }
        self.online[id.index()] = Some(online);
        self.dirty.push(id.0);
    }

    /// Sets a registered service's liveness; phantoms are left alone.
    /// The next round visits the row if its liveness changed.
    pub fn set_online(&mut self, onion: OnionAddress, online: bool) {
        if let Some(id) = self.get(onion) {
            if let Some(state) = self.online.get_mut(id.index()) {
                if state.is_some_and(|was| was != online) {
                    *state = Some(online);
                    self.dirty.push(id.0);
                }
            }
        }
    }

    /// Fills `out` with the rows a round visits, in row order, and
    /// empties the dirty list. A full walk visits every registered
    /// row. Otherwise the round visits the rows registered or flipped
    /// since the previous round, plus the registered rows of every
    /// phase (`PermanentId::byte0`) for which `rotated` holds.
    pub(crate) fn agenda(&mut self, full: bool, rotated: impl Fn(u8) -> bool, out: &mut Vec<u32>) {
        out.clear();
        if full {
            out.extend(
                (0..self.online.len() as u32).filter(|&row| self.online[row as usize].is_some()),
            );
        } else {
            out.extend_from_slice(&self.dirty);
            for (phase, rows) in (0..=u8::MAX).zip(&self.phases) {
                if rotated(phase) {
                    out.extend_from_slice(rows);
                }
            }
            out.sort_unstable();
            out.dedup();
        }
        self.dirty.clear();
    }

    /// A registered service's liveness (`None` for phantoms).
    pub fn is_online(&self, id: ServiceId) -> Option<bool> {
        self.online[id.index()]
    }

    /// Registered services as records, in stable `ServiceId` order.
    pub fn records(&self) -> impl Iterator<Item = ServiceRecord> + '_ {
        self.registered().map(|(_, record)| record)
    }

    /// Registered services with their rows, in `ServiceId` order;
    /// phantom rows are skipped.
    pub fn registered(&self) -> impl Iterator<Item = (ServiceId, ServiceRecord)> + '_ {
        self.interner
            .onions
            .iter()
            .zip(&self.online)
            .enumerate()
            .filter_map(|(row, (&onion, online))| {
                online.map(|online| (ServiceId(row as u32), ServiceRecord { onion, online }))
            })
    }

    /// The cached descriptor-ID pair of a row, if any.
    pub fn cache(&self, id: ServiceId) -> Option<DescPair> {
        self.desc_cache[id.index()]
    }

    /// Installs a row's descriptor-ID pair for `period`.
    pub fn set_cache(&mut self, id: ServiceId, pair: DescPair) {
        self.desc_cache[id.index()] = Some(pair);
    }

    /// A row's latest placement, if it uploaded anything.
    pub(crate) fn placement(&self, id: ServiceId) -> Option<Placement> {
        self.placements[id.index()]
    }

    /// Replaces a row's placement, returning the previous one.
    pub(crate) fn replace_placement(
        &mut self,
        id: ServiceId,
        placement: Option<Placement>,
    ) -> Option<Placement> {
        std::mem::replace(&mut self.placements[id.index()], placement)
    }

    /// Accumulated slot-hours of a row: what it had when last settled,
    /// plus its rate for every coverage hour recorded since.
    pub fn slot_hours(&self, id: ServiceId) -> u64 {
        let i = id.index();
        let unsettled = self.coverage_hours - self.settled_at[i];
        self.slot_hours[i] + u64::from(self.rates[i]) * u64::from(unsettled)
    }

    /// Sets the logging slots a row earns per coverage hour from now
    /// on, settling what it earned at its old rate first.
    pub(crate) fn set_rate(&mut self, id: ServiceId, rate: u8) {
        let i = id.index();
        if self.rates[i] != rate {
            self.slot_hours[i] = self.slot_hours(id);
            self.settled_at[i] = self.coverage_hours;
            self.rates[i] = rate;
        }
    }

    /// Records one coverage hour: every row earns its current rate.
    pub(crate) fn record_coverage_hour(&mut self) {
        self.coverage_hours += 1;
    }

    /// The full nonzero slot-hour table, sorted by onion address — the
    /// deterministic view callers get instead of a `HashMap` borrow.
    pub fn slot_hours_sorted(&self) -> Vec<(OnionAddress, u64)> {
        let mut out: Vec<(OnionAddress, u64)> = (0..self.interner.len())
            .map(|row| {
                let id = ServiceId(row as u32);
                (self.onion(id), self.slot_hours(id))
            })
            .filter(|&(_, hours)| hours > 0)
            .collect();
        out.sort_unstable_by_key(|&(onion, _)| onion);
        out
    }

    /// Arms the traffic signature on a row.
    pub fn arm(&mut self, id: ServiceId, signature: TrafficSignature) {
        self.signatures[id.index()] = Some(signature);
    }

    /// The armed signature of a row, if any.
    pub fn signature(&self, id: ServiceId) -> Option<&TrafficSignature> {
        self.signatures[id.index()].as_ref()
    }

    /// IDs of all armed targets, in `ServiceId` order.
    pub fn armed_ids(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.signatures
            .iter()
            .enumerate()
            .filter(|&(_, sig)| sig.is_some())
            .map(|(i, _)| ServiceId(i as u32))
    }

    /// The period a target's reverse-index entries were built for.
    pub fn sig_period(&self, id: ServiceId) -> Option<TimePeriod> {
        self.sig_periods[id.index()]
    }

    /// Which armed target (if any) a descriptor ID belongs to.
    pub fn sig_lookup(&self, desc_id: DescriptorId) -> Option<ServiceId> {
        self.sig_index
            .binary_search_by_key(&desc_id, |&(d, _)| d)
            .ok()
            .map(|i| self.sig_index[i].1)
    }

    /// Replaces a target's reverse-index entries with `ids` and stamps
    /// the period they were built for.
    pub fn reindex_signature(&mut self, id: ServiceId, ids: &[DescriptorId], period: TimePeriod) {
        self.sig_index.retain(|&(_, sid)| sid != id);
        for &desc_id in ids {
            match self.sig_index.binary_search_by_key(&desc_id, |&(d, _)| d) {
                Ok(i) => self.sig_index[i] = (desc_id, id),
                Err(i) => self.sig_index.insert(i, (desc_id, id)),
            }
        }
        self.sig_periods[id.index()] = Some(period);
    }

    /// Clears the descriptor-ID cache, the signature reverse index and
    /// its period stamps (the `set_desc_cache_enabled` reset).
    pub fn clear_runtime_caches(&mut self) {
        self.desc_cache.fill(None);
        self.sig_periods.fill(None);
        self.sig_index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onion(k: u8) -> OnionAddress {
        OnionAddress::from_pubkey(&[k, 7, 9])
    }

    #[test]
    fn intern_is_stable_and_first_sight_ordered() {
        let mut it = ServiceInterner::default();
        let a = it.intern(onion(1));
        let b = it.intern(onion(2));
        assert_eq!(a, ServiceId(0));
        assert_eq!(b, ServiceId(1));
        assert_eq!(it.intern(onion(1)), a, "re-intern returns the same ID");
        assert_eq!(it.get(onion(2)), Some(b));
        assert_eq!(it.resolve(a), onion(1));
        it.flush();
        assert_eq!(it.get(onion(1)), Some(a), "flush preserves lookups");
        assert_eq!(it.get(onion(99)), None);
    }

    #[test]
    fn flush_merges_many_pending_batches() {
        let mut it = ServiceInterner::default();
        let mut ids = Vec::new();
        for k in 0..=255u8 {
            ids.push((k, it.intern(onion(k))));
            if k % 17 == 0 {
                it.flush();
            }
        }
        for &(k, id) in &ids {
            assert_eq!(it.get(onion(k)), Some(id), "key {k}");
            assert_eq!(it.resolve(id), onion(k));
        }
        assert_eq!(it.len(), 256);
    }

    #[test]
    fn table_tracks_liveness_and_phantoms() {
        let mut t = ServiceTable::default();
        t.register(onion(1), true);
        t.register(onion(2), false);
        let phantom = t.intern(onion(3));
        assert_eq!(t.is_online(phantom), None);

        let recs: Vec<ServiceRecord> = t.records().collect();
        assert_eq!(recs.len(), 2, "phantom is not a registered service");
        assert!(recs[0].online && !recs[1].online);

        t.set_online(onion(2), true);
        t.set_online(onion(3), true);
        assert_eq!(t.is_online(phantom), None, "phantoms cannot come online");
        let online: Vec<Option<bool>> = (0..3).map(|i| t.is_online(ServiceId(i))).collect();
        assert_eq!(online, vec![Some(true), Some(true), None]);
    }

    #[test]
    fn slot_hours_sorted_is_nonzero_and_ordered() {
        let mut t = ServiceTable::default();
        for k in [9u8, 3, 6] {
            t.register(onion(k), true);
        }
        let a = t.get(onion(9)).unwrap();
        let c = t.get(onion(6)).unwrap();
        t.set_rate(a, 2);
        t.set_rate(c, 1);
        t.record_coverage_hour();
        t.record_coverage_hour();
        // A rate change settles what the row earned at its old rate.
        t.set_rate(a, 0);
        t.record_coverage_hour();
        assert_eq!((t.slot_hours(a), t.slot_hours(c)), (4, 3));
        let rows = t.slot_hours_sorted();
        assert_eq!(rows.len(), 2, "zero rows are omitted");
        assert!(rows[0].0 < rows[1].0, "sorted by onion address");
        let total: u64 = rows.iter().map(|&(_, h)| h).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn agenda_visits_dirty_and_rotated_rows_in_row_order() {
        let mut t = ServiceTable::default();
        let phantom = t.intern(onion(0));
        for k in 1..=6u8 {
            t.register(onion(k), k % 2 == 0);
        }
        let mut agenda = Vec::new();
        t.agenda(false, |_| false, &mut agenda);
        assert_eq!(agenda, vec![1, 2, 3, 4, 5, 6], "registrations are dirty");
        t.agenda(false, |_| false, &mut agenda);
        assert!(
            agenda.is_empty(),
            "taking the agenda empties the dirty list"
        );

        // Only a change of liveness makes a row dirty.
        t.set_online(onion(2), true);
        t.set_online(onion(3), true);
        t.set_online(onion(0), true);
        let phase = |k: u8| onion(k).permanent_id().byte0();
        let rotated = [phase(5), phase(1)];
        t.agenda(false, |p| rotated.contains(&p), &mut agenda);
        // Row k holds onion(k): the dirty row, then each rotated
        // phase's rows, merged into row order without repeats.
        let want: Vec<u32> = (1..=6u8)
            .filter(|&k| k == 3 || rotated.contains(&phase(k)))
            .map(u32::from)
            .collect();
        assert_eq!(agenda, want);
        assert!(want.len() >= 3);
        // A full walk visits every registered row, never a phantom.
        t.agenda(true, |_| false, &mut agenda);
        assert_eq!(agenda, vec![1, 2, 3, 4, 5, 6]);
        assert!(!agenda.contains(&phantom.0));
    }

    #[test]
    fn signature_reverse_index_tracks_rearming() {
        let mut t = ServiceTable::default();
        t.register(onion(1), true);
        t.register(onion(2), true);
        let a = t.get(onion(1)).unwrap();
        let b = t.get(onion(2)).unwrap();
        t.arm(a, TrafficSignature::default());
        t.arm(b, TrafficSignature::default());
        assert_eq!(t.armed_ids().collect::<Vec<_>>(), vec![a, b]);

        let ids_a = DescriptorId::pair_at(onion(1), 0);
        let ids_b = DescriptorId::pair_at(onion(2), 0);
        let period = TimePeriod::at(0, onion(1).permanent_id());
        t.reindex_signature(a, &ids_a, period);
        t.reindex_signature(b, &ids_b, period);
        assert_eq!(t.sig_lookup(ids_a[0]), Some(a));
        assert_eq!(t.sig_lookup(ids_b[1]), Some(b));

        // Re-indexing a target replaces its rows without touching others.
        let later = DescriptorId::pair_at(onion(1), 1_000_000_000);
        t.reindex_signature(a, &later, period);
        assert_eq!(t.sig_lookup(ids_a[0]), None);
        assert_eq!(t.sig_lookup(later[0]), Some(a));
        assert_eq!(t.sig_lookup(ids_b[0]), Some(b));

        t.clear_runtime_caches();
        assert_eq!(t.sig_lookup(later[0]), None);
        assert_eq!(t.sig_period(a), None);
        assert!(t.signature(a).is_some(), "arming survives a cache reset");
    }
}
