//! Content-addressed stage cache for incremental recompute.
//!
//! Every stage's output is addressed by a [`CacheKey`] derived from
//! the stage's identity, the study's root seed, a fingerprint of the
//! full [`StudyConfig`], and — transitively — the keys of every
//! upstream stage, with the resident daemon's epoch salt folded into
//! the `Setup` key. The chaining gives the incremental-recompute
//! property for free: change any input (seed, scale, fault profile,
//! world epoch) and the `Setup` key changes, which changes every
//! downstream key, so stale artifacts can never be served; leave the
//! inputs alone and a repeated query resolves every stage from cache
//! without touching the simulator.
//!
//! Keys are 128 bits built from two independent SplitMix64 lanes
//! ([`wave::mix2`] with different initial tags), which makes an
//! accidental collision across the handful of keys a daemon ever
//! holds astronomically unlikely.
//!
//! [`StudyConfig`]: crate::StudyConfig

use std::collections::VecDeque;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hs_content::{CertSurvey, CrawlReport};
use hs_harvest::HarvestOutcome;
use hs_popularity::{StreamingPopularity, TrafficDriver};
use hs_portscan::ScanReport;
use hs_world::{GeoDb, World};
use tor_sim::network::Network;
use tor_sim::relay::RelayId;

use super::artifacts::{DeanonReport, DeanonWindowOut, PopularityOut, TrackingReport};
use super::stage::StageId;

/// A 128-bit content address for one stage's output.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// High lane.
    pub hi: u64,
    /// Low lane.
    pub lo: u64,
}

impl CacheKey {
    fn fold(self, v: u64) -> CacheKey {
        CacheKey {
            hi: wave::mix2(self.hi, v),
            lo: wave::mix2(self.lo, v ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    fn fold_key(self, other: CacheKey) -> CacheKey {
        self.fold(other.hi).fold(other.lo)
    }

    fn fold_bytes(self, bytes: &[u8]) -> CacheKey {
        let mut k = self.fold(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            k = k.fold(u64::from_le_bytes(b));
        }
        k
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Derives the per-stage key chain for one (seed, config, epoch)
/// triple, indexed by `StageId as usize`.
///
/// Each stage folds its name, the root seed, and the config
/// fingerprint, then the full key of every dependency (in `deps()`
/// order). `epoch_salt` enters only the `Setup` key; the chaining
/// propagates it to every stage that (transitively) reads the sim
/// world — `Tracking` has no dependencies and is deliberately left
/// epoch-invariant, so its expensive 3-year archive analysis survives
/// world ticks.
pub fn derive_keys(seed: u64, config_fingerprint: u64, epoch_salt: u64) -> [CacheKey; 9] {
    let mut keys = [CacheKey { hi: 0, lo: 0 }; 9];
    for stage in StageId::ALL {
        let mut k = CacheKey {
            hi: 0x6873_6361_6368_6500, // "hscache"
            lo: 0x6b65_7963_6861_696e, // "keychain"
        }
        .fold_bytes(stage.name().as_bytes())
        .fold(seed)
        .fold(config_fingerprint);
        if stage == StageId::Setup {
            k = k.fold(epoch_salt);
        }
        for dep in stage.deps() {
            k = k.fold_key(keys[*dep as usize]);
        }
        keys[stage as usize] = k;
    }
    keys
}

/// Everything the `Setup` stage deposits, bundled for caching. Only
/// the network changes between the daemon's epochs (`TICK` advances
/// it), so the rest sits behind `Arc`s every epoch's bundle shares.
#[derive(Clone, Debug)]
pub struct SetupBundle {
    /// Ground-truth world.
    pub world: Arc<World>,
    /// IP-geography database.
    pub geo: Arc<GeoDb>,
    /// Attacker guard relays.
    pub attacker_guards: Arc<Vec<RelayId>>,
    /// Network snapshot after setup.
    pub net: Network,
    /// Traffic driver as constructed at setup.
    pub traffic: Arc<TrafficDriver>,
}

/// Everything the `Harvest` stage deposits, bundled for caching.
#[derive(Clone, Debug)]
pub struct HarvestBundle {
    /// Harvest outcome.
    pub harvest: HarvestOutcome,
    /// Network snapshot after the harvest window.
    pub net: Network,
    /// Traffic driver state after the harvest window.
    pub traffic: TrafficDriver,
    /// Streaming aggregator, when the run used sketches.
    pub streaming: Option<StreamingPopularity>,
}

/// One stage's complete output, shared without copying: payloads hold
/// [`Arc`]s, so a cache hit, a cache insert and an
/// [`ArtifactStore::extract`] are all pointer clones, and the artifacts
/// inside are immutable by construction. A sim stage that continues a
/// snapshot clones only the network and traffic driver it advances.
///
/// [`ArtifactStore::extract`]: super::ArtifactStore::extract
#[derive(Clone, Debug)]
pub enum StagePayload {
    /// `Setup` output.
    Setup(Arc<SetupBundle>),
    /// `Harvest` output.
    Harvest(Arc<HarvestBundle>),
    /// `DeanonWindow` output.
    DeanonWindow(Arc<DeanonWindowOut>),
    /// `PortScan` output.
    PortScan(Arc<ScanReport>),
    /// `Geomap` output.
    Geomap(Arc<DeanonReport>),
    /// `Certs` output.
    Certs(Arc<CertSurvey>),
    /// `Crawl` output.
    Crawl(Arc<CrawlReport>),
    /// `Popularity` output.
    Popularity(Arc<PopularityOut>),
    /// `Tracking` output.
    Tracking(Arc<TrackingReport>),
}

impl StagePayload {
    /// The stage this payload belongs to.
    pub fn stage(&self) -> StageId {
        match self {
            StagePayload::Setup(_) => StageId::Setup,
            StagePayload::Harvest(_) => StageId::Harvest,
            StagePayload::DeanonWindow(_) => StageId::DeanonWindow,
            StagePayload::PortScan(_) => StageId::PortScan,
            StagePayload::Geomap(_) => StageId::Geomap,
            StagePayload::Certs(_) => StageId::Certs,
            StagePayload::Crawl(_) => StageId::Crawl,
            StagePayload::Popularity(_) => StageId::Popularity,
            StagePayload::Tracking(_) => StageId::Tracking,
        }
    }

    /// Approximate resident size of this payload in bytes.
    ///
    /// The estimate is a deterministic function of element counts
    /// (per-element constants sized from the dominant struct fields),
    /// not of allocator behaviour — so byte-budget eviction decisions
    /// are identical across runs and machines. Absolute accuracy
    /// matters less than ordering: the sim bundles (world + network
    /// snapshots) must dwarf the flat report payloads, which they do.
    pub fn approx_bytes(&self) -> u64 {
        const BASE: u64 = 256;
        match self {
            StagePayload::Setup(b) => {
                BASE + 4096
                    + 256 * b.net.relays().len() as u64
                    + 192 * b.world.services().len() as u64
                    + 64 * b.net.client_count() as u64
                    + 8 * b.attacker_guards.len() as u64
            }
            StagePayload::Harvest(b) => {
                BASE + 4096
                    + 256 * b.net.relays().len() as u64
                    + 64 * b.net.client_count() as u64
                    + 24 * b.harvest.onions.len() as u64
                    + 48 * b.harvest.requests.len() as u64
                    + 32 * b.harvest.slot_hours.len() as u64
                    + 8 * b.harvest.fleet_relays.len() as u64
                    + if b.streaming.is_some() { 65_536 } else { 0 }
            }
            StagePayload::DeanonWindow(o) => BASE + 48 * o.observations.len() as u64,
            StagePayload::PortScan(r) => {
                BASE + 16 * r.open_by_port.len() as u64 + 40 * r.open_by_onion.len() as u64
            }
            StagePayload::Geomap(r) => BASE + 48 * r.geomap.country_count() as u64,
            StagePayload::Certs(s) => BASE + 64 * s.deanonymised.len() as u64,
            StagePayload::Crawl(r) => {
                BASE + 64 * r.classified.len() as u64 + 16 * r.connected_by_port.len() as u64
            }
            StagePayload::Popularity(p) => {
                BASE + 48 * p.resolution.requests_per_onion.len() as u64
                    + 64 * p.ranking.rows().len() as u64
            }
            StagePayload::Tracking(t) => BASE + 128 * t.years.len() as u64,
        }
    }
}

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Default, Debug)]
pub struct CacheCounters {
    /// Lookups that returned a payload.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Payloads inserted.
    pub insertions: u64,
    /// Payloads evicted by the capacity or byte-budget bound.
    pub evictions: u64,
    /// Payloads currently resident.
    pub entries: u64,
    /// Approximate bytes currently resident
    /// ([`StagePayload::approx_bytes`] summed over entries).
    pub resident_bytes: u64,
    /// Approximate bytes freed by evictions over the cache's lifetime.
    pub evicted_bytes: u64,
}

/// A content-addressed stage cache shared between the daemon and the
/// engine. Implementations must be safe for concurrent queries.
pub trait StageCache: Send + Sync {
    /// Fetches the payload for `key`, counting a hit or miss.
    fn lookup(&self, key: CacheKey) -> Option<StagePayload>;
    /// Whether `key` is resident, *without* touching the hit/miss
    /// counters — used by `GET` probes that must not skew metrics.
    fn peek(&self, key: CacheKey) -> bool;
    /// Fetches the payload for `key` without touching the hit/miss
    /// counters. The daemon's `GET` path uses this so read-only
    /// artifact queries never skew the recompute-cache statistics.
    fn fetch_uncounted(&self, key: CacheKey) -> Option<StagePayload>;
    /// Stores the payload for `key`.
    fn insert(&self, key: CacheKey, payload: StagePayload);
    /// Current statistics.
    fn counters(&self) -> CacheCounters;
}

/// In-memory [`StageCache`] with a bounded entry count, an optional
/// resident-byte budget, and insertion-order eviction.
///
/// Insertion order (not LRU) keeps eviction deterministic under
/// concurrent readers: lookups never reorder anything, so the eviction
/// sequence depends only on the sequence of inserts. Byte weights come
/// from [`StagePayload::approx_bytes`]; when a budget is set, inserts
/// evict oldest-first until both the entry bound and the byte budget
/// hold — never dropping the last remaining entry, even when it alone
/// exceeds the budget (an empty cache would just thrash). Keys pinned
/// via [`MemoryCache::pin`] are skipped by eviction entirely.
pub struct MemoryCache {
    capacity: usize,
    byte_budget: Option<u64>,
    inner: Mutex<MemoryCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

#[derive(Default)]
struct MemoryCacheInner {
    map: HashMap<CacheKey, (StagePayload, u64)>,
    order: VecDeque<CacheKey>,
    resident_bytes: u64,
    /// Keys exempt from eviction (a resident daemon epoch's Setup
    /// payload). Pinned keys still count toward `resident_bytes`.
    pinned: HashSet<CacheKey>,
}

impl MemoryCache {
    /// A cache holding at most `capacity` payloads (minimum 1), with
    /// no byte budget.
    pub fn new(capacity: usize) -> Self {
        MemoryCache {
            capacity: capacity.max(1),
            byte_budget: None,
            inner: Mutex::new(MemoryCacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    /// A cache bounded by both entry count and an approximate
    /// resident-byte budget.
    pub fn with_byte_budget(capacity: usize, budget_bytes: u64) -> Self {
        let mut cache = MemoryCache::new(capacity);
        cache.byte_budget = Some(budget_bytes);
        cache
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, MemoryCacheInner> {
        // A poisoned cache mutex means a panic while holding the lock;
        // payload inserts/removes cannot leave the map inconsistent,
        // so recover the guard rather than poisoning every query.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl fmt::Debug for MemoryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        f.debug_struct("MemoryCache")
            .field("capacity", &self.capacity)
            .field("counters", &c)
            .finish()
    }
}

impl MemoryCache {
    /// Exempts `key` from eviction until [`MemoryCache::unpin`]. The
    /// key need not be resident yet: pinning before the insert closes
    /// the window in which a concurrent insert could evict it. Pinned
    /// payloads still count toward the byte budget; eviction simply
    /// skips them. A resident daemon pins the live epoch's Setup
    /// payload so a byte-budget squeeze can never evict the world out
    /// from under `TICK`.
    pub fn pin(&self, key: CacheKey) {
        self.locked().pinned.insert(key);
    }

    /// Makes `key` evictable again (no-op if it was not pinned).
    pub fn unpin(&self, key: CacheKey) {
        self.locked().pinned.remove(&key);
    }

    /// Whether `key` is currently pinned.
    pub fn is_pinned(&self, key: CacheKey) -> bool {
        self.locked().pinned.contains(&key)
    }

    /// Evicts oldest-first — skipping pinned keys — until the entry
    /// bound and byte budget both hold, never dropping the last
    /// remaining entry. If only pinned entries remain, eviction stops
    /// even while over budget.
    fn enforce_bounds(&self, inner: &mut MemoryCacheInner) {
        let over = |inner: &MemoryCacheInner| {
            inner.map.len() > self.capacity
                || self
                    .byte_budget
                    .is_some_and(|budget| inner.resident_bytes > budget)
        };
        while inner.map.len() > 1 && over(inner) {
            let Some(pos) = inner
                .order
                .iter()
                .position(|key| !inner.pinned.contains(key))
            else {
                break;
            };
            let Some(old) = inner.order.remove(pos) else {
                break;
            };
            if let Some((_, weight)) = inner.map.remove(&old) {
                inner.resident_bytes = inner.resident_bytes.saturating_sub(weight);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(weight, Ordering::Relaxed);
            }
        }
    }
}

impl StageCache for MemoryCache {
    fn lookup(&self, key: CacheKey) -> Option<StagePayload> {
        let found = self.locked().map.get(&key).map(|(p, _)| p.clone());
        match found {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn peek(&self, key: CacheKey) -> bool {
        self.locked().map.contains_key(&key)
    }

    fn fetch_uncounted(&self, key: CacheKey) -> Option<StagePayload> {
        self.locked().map.get(&key).map(|(p, _)| p.clone())
    }

    fn insert(&self, key: CacheKey, payload: StagePayload) {
        let weight = payload.approx_bytes();
        let mut inner = self.locked();
        match inner.map.insert(key, (payload, weight)) {
            None => {
                inner.order.push_back(key);
                inner.resident_bytes += weight;
            }
            Some((_, old_weight)) => {
                inner.resident_bytes = inner.resident_bytes.saturating_sub(old_weight) + weight;
            }
        }
        self.enforce_bounds(&mut inner);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    fn counters(&self) -> CacheCounters {
        let (entries, resident_bytes) = {
            let inner = self.locked();
            (inner.map.len() as u64, inner.resident_bytes)
        };
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            resident_bytes,
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(stage_tag: u64) -> StagePayload {
        if stage_tag.is_multiple_of(2) {
            StagePayload::Certs(Arc::new(CertSurvey::default()))
        } else {
            StagePayload::PortScan(Arc::new(ScanReport::default()))
        }
    }

    #[test]
    fn keys_are_pairwise_distinct() {
        let keys = derive_keys(7, 42, 0);
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn epoch_salt_changes_every_key_except_tracking() {
        let a = derive_keys(7, 42, 0);
        let b = derive_keys(7, 42, 1);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if StageId::ALL[i] == StageId::Tracking {
                // Tracking reads no sim artifact (its dependency list
                // is empty), so a world-epoch change must NOT
                // invalidate its cached analysis.
                assert_eq!(x, y);
            } else {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn seed_and_config_change_every_key() {
        let base = derive_keys(7, 42, 0);
        for other in [derive_keys(8, 42, 0), derive_keys(7, 43, 0)] {
            for (x, y) in base.iter().zip(&other) {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn derivation_is_stable() {
        assert_eq!(derive_keys(7, 42, 0), derive_keys(7, 42, 0));
    }

    #[test]
    fn memory_cache_counts_and_evicts_in_insert_order() {
        let cache = MemoryCache::new(2);
        let keys = derive_keys(1, 2, 3);
        assert!(cache.lookup(keys[0]).is_none());
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[1], dummy(1));
        assert!(cache.lookup(keys[0]).is_some());
        cache.insert(keys[2], dummy(2)); // evicts keys[0]
        assert!(!cache.peek(keys[0]));
        assert!(cache.peek(keys[1]) && cache.peek(keys[2]));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(c.insertions, 3);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.entries, 2);
    }

    #[test]
    fn peek_does_not_touch_counters() {
        let cache = MemoryCache::new(2);
        let keys = derive_keys(1, 2, 3);
        assert!(!cache.peek(keys[0]));
        cache.insert(keys[0], dummy(0));
        assert!(cache.peek(keys[0]));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (0, 0));
    }

    #[test]
    fn payload_weights_are_deterministic_and_ordered() {
        let flat = dummy(0).approx_bytes();
        assert_eq!(flat, dummy(0).approx_bytes());
        assert!(flat >= 256);
        let mut survey = CertSurvey::default();
        survey.deanonymised.push((
            onion_crypto::onion::OnionAddress::from_pubkey(&[1u8; 16]),
            "host.example".to_string(),
        ));
        let heavier = StagePayload::Certs(Arc::new(survey)).approx_bytes();
        assert!(heavier > flat);
    }

    #[test]
    fn byte_budget_evicts_oldest_and_tracks_bytes() {
        let weight = dummy(0).approx_bytes();
        // Budget fits exactly two flat payloads; capacity is generous.
        let cache = MemoryCache::with_byte_budget(16, weight * 2);
        let keys = derive_keys(1, 2, 3);
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[1], dummy(0));
        let c = cache.counters();
        assert_eq!(c.entries, 2);
        assert_eq!(c.resident_bytes, weight * 2);
        assert_eq!((c.evictions, c.evicted_bytes), (0, 0));
        cache.insert(keys[2], dummy(0)); // over budget: keys[0] goes
        assert!(!cache.peek(keys[0]));
        assert!(cache.peek(keys[1]) && cache.peek(keys[2]));
        let c = cache.counters();
        assert_eq!(c.entries, 2);
        assert_eq!(c.resident_bytes, weight * 2);
        assert_eq!((c.evictions, c.evicted_bytes), (1, weight));
    }

    #[test]
    fn byte_budget_always_keeps_newest_entry() {
        let cache = MemoryCache::with_byte_budget(16, 1);
        let keys = derive_keys(1, 2, 3);
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[1], dummy(1));
        // Each payload alone exceeds the 1-byte budget, but the newest
        // must survive.
        assert!(!cache.peek(keys[0]));
        assert!(cache.peek(keys[1]));
        assert_eq!(cache.counters().entries, 1);
    }

    #[test]
    fn reinsert_adjusts_resident_bytes_without_double_count() {
        let cache = MemoryCache::new(4);
        let keys = derive_keys(1, 2, 3);
        cache.insert(keys[0], dummy(0));
        let first = cache.counters().resident_bytes;
        cache.insert(keys[0], dummy(1));
        let second = cache.counters().resident_bytes;
        assert_eq!(second, dummy(1).approx_bytes());
        assert_ne!(first, 0);
        assert_eq!(cache.counters().entries, 1);
    }

    #[test]
    fn reinsert_same_key_does_not_grow_order() {
        let cache = MemoryCache::new(2);
        let keys = derive_keys(1, 2, 3);
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[1], dummy(1));
        assert!(cache.peek(keys[0]) && cache.peek(keys[1]));
        assert_eq!(cache.counters().entries, 2);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn pinned_key_survives_eviction_pressure() {
        let cache = MemoryCache::new(2);
        let keys = derive_keys(1, 2, 3);
        cache.pin(keys[0]);
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[1], dummy(1));
        // Over capacity: eviction must skip the pinned oldest entry
        // and drop the next-oldest unpinned one instead.
        cache.insert(keys[2], dummy(2));
        assert!(cache.peek(keys[0]), "pinned key evicted");
        assert!(!cache.peek(keys[1]));
        assert!(cache.peek(keys[2]));
        assert_eq!(cache.counters().entries, 2);
    }

    #[test]
    fn pinned_key_survives_byte_budget_squeeze() {
        let cache = MemoryCache::with_byte_budget(16, 1);
        let keys = derive_keys(1, 2, 3);
        cache.pin(keys[0]);
        cache.insert(keys[0], dummy(0));
        for (i, key) in keys.iter().enumerate().skip(1).take(4) {
            cache.insert(*key, dummy(i as u64));
        }
        // Every unpinned insert was squeezed out, the pin held.
        assert!(cache.peek(keys[0]), "pinned key evicted by byte budget");
        assert_eq!(cache.counters().entries, 1);
    }

    #[test]
    fn unpin_restores_evictability() {
        let cache = MemoryCache::new(2);
        let keys = derive_keys(1, 2, 3);
        cache.pin(keys[0]);
        assert!(cache.is_pinned(keys[0]));
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[1], dummy(1));
        cache.unpin(keys[0]);
        assert!(!cache.is_pinned(keys[0]));
        cache.insert(keys[2], dummy(2));
        // With the pin gone, plain insertion-order eviction resumes.
        assert!(!cache.peek(keys[0]));
        assert!(cache.peek(keys[1]) && cache.peek(keys[2]));
    }

    #[test]
    fn all_pinned_entries_stop_eviction_without_spinning() {
        let cache = MemoryCache::new(1);
        let keys = derive_keys(1, 2, 3);
        cache.pin(keys[0]);
        cache.pin(keys[1]);
        cache.insert(keys[0], dummy(0));
        cache.insert(keys[1], dummy(1));
        // Over capacity but everything is pinned: eviction gives up
        // rather than loop or drop a pinned payload.
        assert!(cache.peek(keys[0]) && cache.peek(keys[1]));
        assert_eq!(cache.counters().entries, 2);
        assert_eq!(cache.counters().evictions, 0);
    }
}
