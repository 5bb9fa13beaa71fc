//! Per-relay hidden-service descriptor storage and request logging.
//!
//! Every relay with the HSDir flag stores the descriptors it is
//! responsible for, for 24 hours. Honest relays keep no records of who
//! asked for what; the harvesting attack works precisely because an
//! *attacker's* relay can log every descriptor publication and every
//! client request it sees — which is all the popularity measurement of
//! Sec. V consists of.

use onion_crypto::descriptor::DescriptorId;
use onion_crypto::onion::OnionAddress;

use crate::clock::{SimTime, DAY};

/// A stored v2 descriptor (contents abstracted to what the measurement
/// pipelines consume).
#[derive(Clone, Copy, Debug)]
pub struct StoredDescriptor {
    /// The ID the descriptor is filed under.
    pub descriptor_id: DescriptorId,
    /// The service it belongs to. A real descriptor contains the public
    /// key, from which the onion address is derived — the paper's
    /// harvesters did exactly that derivation.
    pub onion: OnionAddress,
    /// Publication time; descriptors expire 24 h later.
    pub published: SimTime,
}

/// The `published` value that marks a live entry inside a store. It
/// never leaves the store: every accessor reports a live entry as
/// published at the latest round.
const LIVE: SimTime = SimTime::from_unix(u64::MAX);

impl StoredDescriptor {
    /// A live entry: its service re-uploads it every round, so it reads
    /// as published at the store's latest round until
    /// [`DescriptorStore::retire`] freezes it.
    pub(crate) fn live(descriptor_id: DescriptorId, onion: OnionAddress) -> Self {
        StoredDescriptor {
            descriptor_id,
            onion,
            published: LIVE,
        }
    }
}

/// When an entry reads as published: a live one at `latest`.
fn reported(d: &StoredDescriptor, latest: SimTime) -> SimTime {
    if d.published == LIVE {
        latest
    } else {
        d.published
    }
}

/// One descriptor store, held by one HSDir relay.
///
/// Stored as a single `Vec` sorted by descriptor ID (unique keys, the
/// latest publication wins), so lookup is a binary search and expiry is
/// a linear retain — no hashing anywhere on the consensus/publish/fetch
/// paths.
///
/// An online service uploads the same descriptors to the same HSDirs
/// round after round, so the network stores them once as *live*
/// entries: a live entry reads as published at the latest round
/// ([`stamp`](Self::stamp)), and a round writes only what changed —
/// [`retire`](Self::retire) for uploads that stopped, one
/// [`apply_batch`](Self::apply_batch) merge for new ones.
#[derive(Clone, Debug, Default)]
pub struct DescriptorStore {
    descriptors: Vec<StoredDescriptor>,
    /// The latest round: live entries read as published at this time.
    latest: SimTime,
}

impl DescriptorStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry as callers see it: a live entry carries the latest
    /// round's time.
    fn view(&self, d: &StoredDescriptor) -> StoredDescriptor {
        StoredDescriptor {
            published: reported(d, self.latest),
            ..*d
        }
    }

    fn position(&self, id: DescriptorId) -> Result<usize, usize> {
        self.descriptors
            .binary_search_by_key(&id, |d| d.descriptor_id)
    }

    /// Stores (or refreshes) a descriptor.
    pub fn publish(&mut self, desc: StoredDescriptor) {
        match self.position(desc.descriptor_id) {
            Ok(i) => self.descriptors[i] = desc,
            Err(i) => self.descriptors.insert(i, desc),
        }
    }

    /// Stores a batch of publications in one linear merge, in place.
    ///
    /// Equivalent to calling [`publish`](Self::publish) for each batch
    /// entry in order: within the batch the **last** entry per ID wins
    /// (`batch` is stably sorted by ID in place), and batch entries
    /// overwrite already-stored descriptors with the same ID. Stored
    /// IDs are refreshed where they sit and new IDs are merged in from
    /// the back, so the merge allocates nothing but the store's growth.
    pub fn apply_batch(&mut self, batch: &mut [StoredDescriptor]) {
        batch.sort_by_key(|d| d.descriptor_id);
        let winner = |k: usize| {
            batch
                .get(k + 1)
                .is_none_or(|next| next.descriptor_id != batch[k].descriptor_id)
        };
        let mut added = 0;
        for k in (0..batch.len()).filter(|&k| winner(k)) {
            match self.position(batch[k].descriptor_id) {
                Ok(i) => self.descriptors[i] = batch[k],
                Err(_) => added += 1,
            }
        }
        if added == 0 {
            return;
        }
        let stored = self.descriptors.len();
        self.descriptors.resize(stored + added, batch[0]);
        // `read` walks the stored entries and `write` the merged tail,
        // both from the back; the gap between them is the number of
        // new IDs still to place.
        let (mut read, mut write) = (stored, stored + added);
        let mut next = batch.len();
        while read < write {
            next -= 1;
            if !winner(next) {
                continue;
            }
            let d = batch[next];
            while read > 0 && self.descriptors[read - 1].descriptor_id > d.descriptor_id {
                self.descriptors[write - 1] = self.descriptors[read - 1];
                read -= 1;
                write -= 1;
            }
            if read > 0 && self.descriptors[read - 1].descriptor_id == d.descriptor_id {
                continue; // refreshed in place above
            }
            self.descriptors[write - 1] = d;
            write -= 1;
        }
    }

    /// Freezes a live entry at the latest round: its service stopped
    /// uploading it there, so it keeps that publication time and
    /// expires 24 h later. Entries that are not live are left alone.
    pub(crate) fn retire(&mut self, id: DescriptorId) {
        if let Ok(i) = self.position(id) {
            let d = &mut self.descriptors[i];
            if d.published == LIVE {
                d.published = self.latest;
            }
        }
    }

    /// Makes `now` the latest round: from here on every live entry
    /// reads as published at `now`.
    pub(crate) fn stamp(&mut self, now: SimTime) {
        self.latest = now;
    }

    /// Looks up a descriptor by ID.
    pub fn fetch(&self, id: DescriptorId) -> Option<StoredDescriptor> {
        self.position(id)
            .ok()
            .map(|i| self.view(&self.descriptors[i]))
    }

    /// Whether a descriptor with this ID is stored.
    pub fn contains(&self, id: DescriptorId) -> bool {
        self.position(id).is_ok()
    }

    /// Drops descriptors published 24 h or more before `now`, so one
    /// published exactly 24 h earlier goes too. A live entry counts as
    /// published at the latest round.
    pub fn expire(&mut self, now: SimTime) {
        let latest = self.latest;
        self.descriptors
            .retain(|d| now.since(reported(d, latest)) < DAY);
    }

    /// Number of stored descriptors.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Iterates over stored descriptors in descriptor-ID order (the
    /// harvester's crop).
    pub fn iter(&self) -> impl Iterator<Item = StoredDescriptor> + '_ {
        self.descriptors.iter().map(|d| self.view(d))
    }
}

/// One descriptor request observed by a logging relay.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// When the request arrived.
    pub time: SimTime,
    /// The descriptor ID asked for.
    pub descriptor_id: DescriptorId,
    /// Whether the store had the descriptor.
    pub found: bool,
}

/// The request log an attacker-operated HSDir accumulates.
#[derive(Clone, Debug, Default)]
pub struct RequestLog {
    records: Vec<RequestRecord>,
}

impl RequestLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn record(&mut self, rec: RequestRecord) {
        self.records.push(rec);
    }

    /// All records, in arrival order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Number of logged requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drains the log, returning all records.
    pub fn take(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::HOUR;

    fn desc(seed: &[u8], published: SimTime) -> StoredDescriptor {
        let onion = OnionAddress::from_pubkey(seed);
        let [id, _] = DescriptorId::pair_at(onion, published.unix());
        StoredDescriptor {
            descriptor_id: id,
            onion,
            published,
        }
    }

    #[test]
    fn publish_fetch_roundtrip() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let mut store = DescriptorStore::new();
        let d = desc(b"svc", t);
        store.publish(d);
        assert!(store.contains(d.descriptor_id));
        assert_eq!(store.fetch(d.descriptor_id).unwrap().onion, d.onion);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn expiry_after_24h() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let mut store = DescriptorStore::new();
        let d = desc(b"svc", t);
        let id = d.descriptor_id;
        store.publish(d);
        store.expire(t + 23 * HOUR);
        assert!(store.contains(id));
        store.expire(t + 24 * HOUR);
        assert!(!store.contains(id));
        assert!(store.is_empty());
    }

    #[test]
    fn republish_refreshes_expiry() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let mut store = DescriptorStore::new();
        let mut d = desc(b"svc", t);
        let id = d.descriptor_id;
        store.publish(d);
        d.published = t + 12 * HOUR;
        store.publish(d);
        store.expire(t + 30 * HOUR);
        assert!(store.contains(id));
    }

    #[test]
    fn apply_batch_equals_individual_publishes() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let mut batch: Vec<StoredDescriptor> = (0..20u8)
            .map(|k| desc(&[k, k / 3], t + u64::from(k) * HOUR))
            .collect();
        let mut seq = DescriptorStore::new();
        seq.publish(desc(b"pre-existing", t));
        let mut merged = seq.clone();
        for d in &batch {
            seq.publish(*d);
        }
        merged.apply_batch(&mut batch);
        let render = |s: &DescriptorStore| {
            s.iter()
                .map(|d| format!("{:?}|{:?}|{:?}", d.descriptor_id, d.onion, d.published))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&seq), render(&merged));
        assert_eq!(seq.len(), merged.len());
    }

    #[test]
    fn apply_batch_last_entry_per_id_wins() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let mut early = desc(b"svc", t);
        let mut late = early;
        late.published = t + 5 * HOUR;
        early.published = t;
        let id = early.descriptor_id;
        let mut store = DescriptorStore::new();
        store.apply_batch(&mut [early, late]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.fetch(id).unwrap().published, t + 5 * HOUR);
        // And a batch refresh overwrites a stored descriptor too.
        let mut refresh = desc(b"svc", t);
        refresh.published = t + 9 * HOUR;
        store.apply_batch(&mut [refresh]);
        assert_eq!(store.fetch(id).unwrap().published, t + 9 * HOUR);
    }

    #[test]
    fn live_entries_read_as_latest_round_until_retired() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let d = desc(b"svc", t);
        let id = d.descriptor_id;
        let mut store = DescriptorStore::new();
        store.stamp(t);
        store.apply_batch(&mut [StoredDescriptor::live(id, d.onion)]);
        assert_eq!(store.fetch(id).unwrap().published, t);
        store.stamp(t + 30 * HOUR);
        store.expire(t + 30 * HOUR);
        let seen: Vec<SimTime> = store.iter().map(|d| d.published).collect();
        assert_eq!(seen, vec![t + 30 * HOUR], "a live entry never ages");
        store.retire(id);
        store.stamp(t + 31 * HOUR);
        assert_eq!(store.fetch(id).unwrap().published, t + 30 * HOUR);
        store.retire(id);
        assert_eq!(
            store.fetch(id).unwrap().published,
            t + 30 * HOUR,
            "retiring a frozen entry changes nothing"
        );
        store.expire(t + 54 * HOUR);
        assert!(store.is_empty(), "frozen entries expire 24 h later");
    }

    #[test]
    fn live_entry_unstamped_for_a_day_expires() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let d = desc(b"svc", t);
        let mut store = DescriptorStore::new();
        store.stamp(t);
        store.apply_batch(&mut [StoredDescriptor::live(d.descriptor_id, d.onion)]);
        store.expire(t + 24 * HOUR);
        assert!(
            store.is_empty(),
            "it reads as published at the latest round"
        );
    }

    #[test]
    fn iter_is_descriptor_id_sorted() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let mut store = DescriptorStore::new();
        for k in 0..12u8 {
            store.publish(desc(&[k, 200], t));
        }
        let ids: Vec<DescriptorId> = store.iter().map(|d| d.descriptor_id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn request_log_accumulates_and_drains() {
        let t = SimTime::from_ymd(2013, 2, 4);
        let mut log = RequestLog::new();
        assert!(log.is_empty());
        let onion = OnionAddress::from_pubkey(b"q");
        let [id, _] = DescriptorId::pair_at(onion, t.unix());
        log.record(RequestRecord {
            time: t,
            descriptor_id: id,
            found: false,
        });
        log.record(RequestRecord {
            time: t + 60,
            descriptor_id: id,
            found: true,
        });
        assert_eq!(log.len(), 2);
        assert!(!log.records()[0].found);
        let drained = log.take();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
    }
}
