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

/// One descriptor store, held by one HSDir relay.
///
/// Stored as a single `Vec` sorted by descriptor ID (unique keys, the
/// latest publication wins), so lookup is a binary search, expiry is a
/// linear retain, and each publish round lands one canonical
/// [`apply_batch`](Self::apply_batch) merge per store per round —
/// no hashing anywhere on the consensus/publish/fetch paths.
#[derive(Clone, Debug, Default)]
pub struct DescriptorStore {
    descriptors: Vec<StoredDescriptor>,
}

impl DescriptorStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or refreshes) a descriptor.
    pub fn publish(&mut self, desc: StoredDescriptor) {
        match self
            .descriptors
            .binary_search_by_key(&desc.descriptor_id, |d| d.descriptor_id)
        {
            Ok(i) => self.descriptors[i] = desc,
            Err(i) => self.descriptors.insert(i, desc),
        }
    }

    /// Stores a whole round's publications in one sorted merge.
    ///
    /// Equivalent to calling [`publish`](Self::publish) for each batch
    /// entry in order: within the batch the **last** entry per ID wins
    /// (the sort is stable over batch order), and batch entries
    /// overwrite already-stored descriptors with the same ID.
    pub fn apply_batch(&mut self, batch: &[StoredDescriptor]) {
        if batch.is_empty() {
            return;
        }
        let mut incoming = batch.to_vec();
        incoming.sort_by_key(|d| d.descriptor_id);
        let mut deduped: Vec<StoredDescriptor> = Vec::with_capacity(incoming.len());
        for d in incoming {
            match deduped.last_mut() {
                Some(prev) if prev.descriptor_id == d.descriptor_id => *prev = d,
                _ => deduped.push(d),
            }
        }
        let old = std::mem::take(&mut self.descriptors);
        self.descriptors = Vec::with_capacity(old.len() + deduped.len());
        let mut fresh = deduped.into_iter().peekable();
        for entry in old {
            while let Some(d) = fresh.next_if(|d| d.descriptor_id < entry.descriptor_id) {
                self.descriptors.push(d);
            }
            // A batch entry with the stored ID refreshes it.
            match fresh.next_if(|d| d.descriptor_id == entry.descriptor_id) {
                Some(d) => self.descriptors.push(d),
                None => self.descriptors.push(entry),
            }
        }
        self.descriptors.extend(fresh);
    }

    /// Looks up a descriptor by ID.
    pub fn fetch(&self, id: DescriptorId) -> Option<&StoredDescriptor> {
        self.descriptors
            .binary_search_by_key(&id, |d| d.descriptor_id)
            .ok()
            .map(|i| &self.descriptors[i])
    }

    /// Whether a descriptor with this ID is stored.
    pub fn contains(&self, id: DescriptorId) -> bool {
        self.descriptors
            .binary_search_by_key(&id, |d| d.descriptor_id)
            .is_ok()
    }

    /// Drops descriptors published more than 24 h before `now`.
    pub fn expire(&mut self, now: SimTime) {
        self.descriptors.retain(|d| now.since(d.published) < DAY);
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
    pub fn iter(&self) -> impl Iterator<Item = &StoredDescriptor> + '_ {
        self.descriptors.iter()
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
        let batch: Vec<StoredDescriptor> = (0..20u8)
            .map(|k| desc(&[k, k / 3], t + u64::from(k) * HOUR))
            .collect();
        let mut seq = DescriptorStore::new();
        seq.publish(desc(b"pre-existing", t));
        let mut merged = seq.clone();
        for d in &batch {
            seq.publish(*d);
        }
        merged.apply_batch(&batch);
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
        store.apply_batch(&[early, late]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.fetch(id).unwrap().published, t + 5 * HOUR);
        // And a batch refresh overwrites a stored descriptor too.
        let mut refresh = desc(b"svc", t);
        refresh.published = t + 9 * HOUR;
        store.apply_batch(&[refresh]);
        assert_eq!(store.fetch(id).unwrap().published, t + 9 * HOUR);
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
