//! Property-based tests over the protocol-critical invariants.

#![cfg(test)]

use std::collections::{BTreeMap, HashMap, HashSet};

use proptest::prelude::*;

use onion_crypto::descriptor::{DescriptorId, TimePeriod};
use onion_crypto::identity::Fingerprint;
use onion_crypto::onion::OnionAddress;
use onion_crypto::sha1::{Digest, Sha1};
use onion_crypto::u160::U160;

use crate::clock::{SimTime, DAY, HOUR};
use crate::consensus::{Consensus, ConsensusEntry};
use crate::flags::RelayFlags;
use crate::network::{ClientId, HotPathCounters, Network, NetworkBuilder};
use crate::relay::{Ipv4, RelayId};

fn consensus_from_fps(fps: &[[u8; 20]]) -> Consensus {
    let entries = fps
        .iter()
        .enumerate()
        .map(|(i, fp)| ConsensusEntry {
            relay: RelayId(i),
            fingerprint: Fingerprint::from_digest(Digest::from_bytes(*fp)),
            nickname: format!("r{i}"),
            ip: Ipv4::new(10, 0, (i / 200) as u8, (i % 200) as u8),
            or_port: 9001,
            bandwidth: 100 + i as u64,
            flags: RelayFlags::RUNNING | RelayFlags::HSDIR | RelayFlags::VALID,
        })
        .collect();
    Consensus::new(SimTime::from_ymd(2013, 2, 4), entries)
}

/// The last timestamp with a four-digit year: 9999-12-31T23:59:59Z.
const LAST_VALID_AFTER: u64 = 253_402_300_799;

/// The characters a generated nickname draws from.
const NICK_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// Every relay flag, in bit order for [`flag_subset`].
const ALL_FLAGS: [RelayFlags; 7] = [
    RelayFlags::RUNNING,
    RelayFlags::FAST,
    RelayFlags::STABLE,
    RelayFlags::GUARD,
    RelayFlags::HSDIR,
    RelayFlags::EXIT,
    RelayFlags::VALID,
];

/// The flags whose bits are set in `bits` (zero is the empty set).
fn flag_subset(bits: u8) -> RelayFlags {
    let mut flags = RelayFlags::NONE;
    for (i, &flag) in ALL_FLAGS.iter().enumerate() {
        if bits >> i & 1 == 1 {
            flags.insert(flag);
        }
    }
    flags
}

/// Byte ranges of a document's fields: maximal runs of ASCII digits
/// or of ASCII letters, so `2013-02-04T00:00:00Z` has a field for each
/// date and time component.
fn field_spans(doc: &str) -> Vec<(usize, usize)> {
    let class = |b: u8| {
        if b.is_ascii_digit() {
            1
        } else if b.is_ascii_alphabetic() {
            2
        } else {
            0
        }
    };
    let bytes = doc.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let kind = class(bytes[i]);
        while i < bytes.len() && class(bytes[i]) == kind {
            i += 1;
        }
        if kind != 0 {
            spans.push((start, i));
        }
    }
    spans
}

/// A reference publisher for [`incremental_publication_matches_eager_model`]:
/// every round it expires each store at 24 h and then uploads every
/// online service's descriptors to all of its responsible HSDirs
/// afresh, minus the uploads fault injection drops — the publication
/// rule with nothing carried over between rounds — and adds every
/// online service's logging slots to its slot-hours in each hour it
/// records coverage, from the current `logging` flags.
///
/// It also predicts the network's round work from its own view of the
/// previous round: which services the agenda visits (and so probe the
/// descriptor-ID cache), and when the authority votes afresh.
struct EagerPublisher {
    /// Per relay: descriptor ID → (onion, publication time).
    stores: Vec<BTreeMap<DescriptorId, (OnionAddress, SimTime)>>,
    /// Slot-hours per service.
    slot_hours: HashMap<OnionAddress, u64>,
    /// The hour whose coverage was recorded last.
    recorded_hour: Option<u64>,
    /// The period each service's descriptor-ID pair was last derived in.
    cached: HashMap<OnionAddress, TimePeriod>,
    /// Whether the descriptor-ID cache is on.
    cache_enabled: bool,
    /// The day whose secret-ID parts the network holds.
    day: u64,
    /// The previous round; `None` before the first round and after a
    /// cache toggle.
    prev: Option<PrevRound>,
    /// Services registered or flipped since the previous round.
    dirty: HashSet<OnionAddress>,
    /// When the authority last voted afresh.
    voted_at: SimTime,
    /// Whether a relay was edited or added since then.
    relays_changed: bool,
    hot: HotPathCounters,
    publish_drops: u64,
}

/// What [`EagerPublisher`] saw at a round.
struct PrevRound {
    time: SimTime,
    /// The HSDir ring as (fingerprint, relay) positions.
    ring: Vec<(Fingerprint, RelayId)>,
    faults_active: bool,
    /// Every relay's `logging` flag.
    logging: Vec<bool>,
}

impl EagerPublisher {
    /// A publisher for a freshly built `net`, which computed the
    /// secret-ID parts of its start day and voted once; every service
    /// in `services` is registered before the first round.
    fn new(net: &Network, services: &[(OnionAddress, bool)]) -> Self {
        EagerPublisher {
            stores: Vec::new(),
            slot_hours: HashMap::new(),
            recorded_hour: None,
            cached: HashMap::new(),
            cache_enabled: true,
            day: net.time().unix() / DAY,
            prev: None,
            dirty: services.iter().map(|&(onion, _)| onion).collect(),
            voted_at: net.time(),
            relays_changed: false,
            hot: HotPathCounters {
                sha1_digests: 4,
                votes: 1,
                ..HotPathCounters::default()
            },
            publish_drops: 0,
        }
    }

    /// The network holds a day's secret-ID parts while the cache is on,
    /// computing them (four SHA-1s) whenever the day changes.
    fn refresh_day(&mut self, now: SimTime) {
        if self.cache_enabled && now.unix() / DAY != self.day {
            self.day = now.unix() / DAY;
            self.hot.sha1_digests += 4;
        }
    }

    /// Mirrors `Network::set_desc_cache_enabled(enabled)`.
    fn set_cache(&mut self, net: &Network, enabled: bool) {
        self.cache_enabled = enabled;
        self.cached.clear();
        self.prev = None;
        self.refresh_day(net.time());
    }

    /// Replays the round `net` just ran.
    fn round(&mut self, net: &Network, services: &[(OnionAddress, bool)]) {
        let now = net.time();
        let faults_active = !net.fault_plan().is_inert();
        self.refresh_day(now);
        // The authority votes afresh when a relay changed, when a fault
        // plan may have crashed or restarted one, or when a running,
        // reachable relay's uptime crossed a flag threshold since the
        // last fresh vote; otherwise the entries would be the same.
        let policy = crate::authority::AuthorityPolicy::default();
        let crossed = net
            .relays()
            .iter()
            .filter(|r| r.running && r.reachable)
            .flat_map(|r| {
                [policy.hsdir_min_uptime, policy.guard_min_uptime].map(|min| r.last_restart + min)
            })
            .any(|crossing| self.voted_at < crossing && crossing <= now);
        if self.relays_changed || faults_active || crossed {
            self.hot.votes += 1;
            self.voted_at = now;
            self.relays_changed = false;
        }

        // The agenda: every service on a full walk, else the ones
        // flipped since the previous round and the ones whose period
        // rotated since then.
        let seen = PrevRound {
            time: now,
            ring: net
                .consensus()
                .hsdirs()
                .map(|e| (e.fingerprint, e.relay))
                .collect(),
            faults_active,
            logging: net.relays().iter().map(|r| r.logging).collect(),
        };
        let full = self.prev.as_ref().is_none_or(|prev| {
            prev.ring != seen.ring
                || faults_active
                || prev.faults_active
                || prev.logging != seen.logging
        });
        let period =
            |t: SimTime, onion: OnionAddress| TimePeriod::at(t.unix(), onion.permanent_id());
        for &(onion, online) in services {
            let visited = full
                || self.dirty.contains(&onion)
                || self
                    .prev
                    .as_ref()
                    .is_some_and(|prev| period(prev.time, onion) != period(now, onion));
            if !visited {
                continue;
            }
            self.hot.publish_rows += 1;
            if !online {
                continue;
            }
            if !self.cache_enabled {
                // Both SHA-1s of both replicas, nothing cached.
                self.hot.sha1_digests += 4;
            } else if self.cached.insert(onion, period(now, onion)) == Some(period(now, onion)) {
                self.hot.desc_cache_hits += 1;
            } else {
                // One SHA-1 per replica on the day's parts.
                self.hot.desc_cache_misses += 1;
                self.hot.sha1_digests += 2;
            }
        }
        self.prev = Some(seen);
        self.dirty.clear();

        self.stores.resize(net.relays().len(), BTreeMap::new());
        for store in &mut self.stores {
            store.retain(|_, &mut (_, published)| now.since(published) < DAY);
        }
        let record_coverage = self.recorded_hour != Some(now.hours());
        self.recorded_hour = Some(now.hours());
        for &(onion, _) in services.iter().filter(|&&(_, online)| online) {
            for id in DescriptorId::pair_at(onion, now.unix()) {
                for entry in net.consensus().responsible_hsdirs(id) {
                    if record_coverage && net.relay(entry.relay).logging {
                        *self.slot_hours.entry(onion).or_insert(0) += 1;
                    }
                    if net.upload_dropped(entry.relay, id) {
                        self.publish_drops += 1;
                    } else {
                        self.stores[entry.relay.0].insert(id, (onion, now));
                    }
                }
            }
        }
    }
}

proptest! {
    /// The ring lookup returns exactly the 3 nearest successors, for
    /// arbitrary fingerprint sets and query points.
    #[test]
    fn responsible_lookup_matches_bruteforce(
        fps in proptest::collection::hash_set(any::<[u8; 20]>(), 3..40),
        query in any::<[u8; 20]>(),
    ) {
        let fps: Vec<[u8; 20]> = fps.into_iter().collect();
        let consensus = consensus_from_fps(&fps);
        let desc = DescriptorId::from_digest(Digest::from_bytes(query));
        let pos = desc.to_u160();

        let got: Vec<U160> = consensus
            .responsible_hsdirs(desc)
            .iter()
            .map(|e| pos.distance_to(e.fingerprint.to_u160()))
            .collect();

        let mut brute: Vec<U160> = fps
            .iter()
            .map(|fp| pos.distance_to(U160::from_bytes(fp)))
            .collect();
        brute.sort();
        let mut got_sorted = got.clone();
        got_sorted.sort();
        prop_assert_eq!(got_sorted, brute[..3.min(brute.len())].to_vec());
    }

    /// The lookup never returns duplicates when the ring has ≥ 3
    /// distinct members.
    #[test]
    fn responsible_lookup_distinct(
        fps in proptest::collection::hash_set(any::<[u8; 20]>(), 3..30),
        query in any::<[u8; 20]>(),
    ) {
        let fps: Vec<[u8; 20]> = fps.into_iter().collect();
        let consensus = consensus_from_fps(&fps);
        let desc = DescriptorId::from_digest(Digest::from_bytes(query));
        let resp = consensus.responsible_hsdirs(desc);
        let mut fingerprints: Vec<_> = resp.iter().map(|e| e.fingerprint).collect();
        fingerprints.sort();
        fingerprints.dedup();
        prop_assert_eq!(fingerprints.len(), resp.len());
    }

    /// The dir-spec document encoding round-trips arbitrary consensuses
    /// field for field, and re-encoding the parsed consensus
    /// reproduces the document byte for byte.
    #[test]
    fn docfmt_roundtrip(
        valid_after in 0u64..LAST_VALID_AFTER + 1,
        fps in proptest::collection::hash_set(any::<[u8; 20]>(), 1..20),
        relays in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..NICK_CHARS.len(), 1..20),
                any::<u32>(),
                any::<u16>(),
                (0u8..1 << ALL_FLAGS.len(), any::<u64>()),
            ),
            19..20,
        ),
    ) {
        // Sorted, so the fingerprint-to-relay pairing is seed-determined.
        let mut fps: Vec<[u8; 20]> = fps.into_iter().collect();
        fps.sort();
        let entries = fps
            .iter()
            .zip(relays)
            .enumerate()
            .map(|(i, (fp, (nick, ip, or_port, (flags, bandwidth))))| ConsensusEntry {
                relay: RelayId(i),
                fingerprint: Fingerprint::from_digest(Digest::from_bytes(*fp)),
                nickname: nick.iter().map(|&c| char::from(NICK_CHARS[c])).collect(),
                ip: Ipv4(ip),
                or_port,
                bandwidth,
                flags: flag_subset(flags),
            })
            .collect();
        let consensus = Consensus::new(SimTime::from_unix(valid_after), entries);
        let doc = crate::docfmt::encode(&consensus);
        let parsed = crate::docfmt::decode(&doc).unwrap();
        prop_assert_eq!(parsed.valid_after(), consensus.valid_after());
        prop_assert_eq!(parsed.len(), consensus.len());
        for (a, b) in parsed.entries().iter().zip(consensus.entries()) {
            prop_assert_eq!(a.fingerprint, b.fingerprint);
            prop_assert_eq!(&a.nickname, &b.nickname);
            prop_assert_eq!(a.ip, b.ip);
            prop_assert_eq!(a.or_port, b.or_port);
            prop_assert_eq!(a.flags, b.flags);
            prop_assert_eq!(a.bandwidth, b.bandwidth);
        }
        prop_assert_eq!(crate::docfmt::encode(&parsed), doc);
    }

    /// A valid document with any one field (a run of digits or of
    /// letters) replaced by an arbitrary number or arbitrary bytes
    /// decodes to `Ok` or `Err`, never a panic.
    #[test]
    fn docfmt_forged_field_never_panics(
        fps in proptest::collection::hash_set(any::<[u8; 20]>(), 1..4),
        number in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut fps: Vec<[u8; 20]> = fps.into_iter().collect();
        fps.sort();
        let doc = crate::docfmt::encode(&consensus_from_fps(&fps));
        let forgeries = [number.to_string(), String::from_utf8_lossy(&bytes).into_owned()];
        for (start, end) in field_spans(&doc) {
            for field in &forgeries {
                let forged = format!("{}{field}{}", &doc[..start], &doc[end..]);
                if let Ok(parsed) = crate::docfmt::decode(&forged) {
                    crate::docfmt::encode(&parsed);
                }
            }
        }
    }

    /// Weighted sampling always returns a valid index with nonzero
    /// weight.
    #[test]
    fn weighted_sampling_valid(
        weights in proptest::collection::vec(0u64..1000, 1..50),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let items: Vec<(usize, u64)> =
            weights.iter().copied().enumerate().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        match crate::guard::sample_weighted_index(&items, &mut rng) {
            Some(idx) => {
                prop_assert!(idx < items.len());
                prop_assert!(items[idx].1 > 0, "zero-weight item sampled");
            }
            None => {
                prop_assert!(weights.iter().all(|&w| w == 0));
            }
        }
    }

    /// The traffic signature matcher detects every encoding of itself
    /// and never fires on plain responses.
    #[test]
    fn signature_soundness(run in 1usize..80, payload in 0usize..40) {
        use crate::cells::{plain_response, TrafficSignature};
        let sig = TrafficSignature::new(run);
        prop_assert!(sig.matches(&sig.encode_response(payload)));
        prop_assert!(!sig.matches(&plain_response(payload)));
    }

    /// Consensuses voted under arbitrary fault plans still satisfy the
    /// authority invariants: at most two relays per IP, every listed
    /// relay running and reachable, and the HSDir flag only on relays
    /// with ≥ 25 h of uptime.
    #[test]
    fn faulted_consensus_preserves_invariants(
        fault_seed in any::<u64>(),
        crash_permille in 0u64..300,
        restart_after in 1u64..6,
        hours in 1u64..30,
    ) {
        use crate::fault::FaultPlan;

        let plan = FaultPlan {
            seed: fault_seed,
            relay_crash_rate: crash_permille as f64 / 1000.0,
            restart_after_hours: restart_after,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(60)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        net.advance_hours(hours);

        let now = net.consensus().valid_after();
        let mut per_ip: HashMap<Ipv4, usize> = HashMap::new();
        for entry in net.consensus().entries() {
            *per_ip.entry(entry.ip).or_insert(0) += 1;
            let relay = net.relay(entry.relay);
            prop_assert!(relay.running && relay.reachable,
                "listed relay {} is down", entry.nickname);
            if entry.flags.contains(RelayFlags::HSDIR) {
                prop_assert!(relay.uptime(now) >= 25 * crate::clock::HOUR,
                    "HSDir {} has only {}s uptime", entry.nickname, relay.uptime(now));
            }
        }
        prop_assert!(per_ip.values().all(|&n| n <= 2), "2-per-IP rule violated");
    }

    /// Differential test: the sorted-vec descriptor store agrees with
    /// a naive `HashMap` reference model on every observable — length,
    /// membership, fetched payloads, iteration contents — across
    /// arbitrary interleavings of single publishes, canonical batch
    /// merges, live publications, retirements, round stamps and expiry
    /// sweeps. The model keeps explicit times only: a live entry is
    /// re-stamped with every round's time until it is retired or
    /// overwritten.
    #[test]
    fn store_matches_naive_hashmap_model(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((any::<u8>(), 0u64..40, 0u8..4), 0..12),
                1u64..6,
                any::<bool>(),
            ),
            1..16,
        ),
    ) {
        use std::collections::HashSet;
        use crate::store::{DescriptorStore, StoredDescriptor};

        let base = SimTime::from_ymd(2013, 2, 1);
        let mut now = base + 48 * crate::clock::HOUR;
        let mut store = DescriptorStore::default();
        let mut model: HashMap<DescriptorId, StoredDescriptor> = HashMap::new();
        let mut live: HashSet<DescriptorId> = HashSet::new();
        let mut latest = SimTime::EPOCH;

        for (entries, advance, stamp) in rounds {
            if stamp {
                store.stamp(now);
                latest = now;
                for id in &live {
                    model.get_mut(id).unwrap().published = now;
                }
            }
            let descs: Vec<(StoredDescriptor, u8)> = entries
                .iter()
                .map(|&(key, age_hours, op)| {
                    let d = StoredDescriptor {
                        descriptor_id: DescriptorId::from_digest(
                            Sha1::digest([key, 0x5d]),
                        ),
                        onion: OnionAddress::from_pubkey(&[key]),
                        published: base + (48 + age_hours) * crate::clock::HOUR,
                    };
                    (d, op)
                })
                .collect();
            // Op 0 takes the single-publish path and op 3 retires, in
            // entry order; ops 1 (explicit time) and 2 (live) go
            // through one canonical batch merge — applied after the
            // singles, exactly as a round orders them.
            let mut batch = Vec::new();
            for &(d, op) in &descs {
                match op {
                    0 => {
                        store.publish(d);
                        model.insert(d.descriptor_id, d);
                        live.remove(&d.descriptor_id);
                    }
                    1 => batch.push(d),
                    2 => batch.push(StoredDescriptor::live(d.descriptor_id, d.onion)),
                    _ => {
                        store.retire(d.descriptor_id);
                        live.remove(&d.descriptor_id);
                    }
                }
            }
            for &(d, op) in &descs {
                match op {
                    1 => {
                        model.insert(d.descriptor_id, d);
                        live.remove(&d.descriptor_id);
                    }
                    2 => {
                        model.insert(d.descriptor_id, StoredDescriptor { published: latest, ..d });
                        live.insert(d.descriptor_id);
                    }
                    _ => {}
                }
            }
            store.apply_batch(&mut batch);
            store.expire(now);
            model.retain(|_, d| now.since(d.published) < crate::clock::DAY);
            live.retain(|id| model.contains_key(id));

            prop_assert_eq!(store.len(), model.len());
            let mut expected: Vec<&StoredDescriptor> = model.values().collect();
            expected.sort_by_key(|d| d.descriptor_id);
            for (got, want) in store.iter().zip(expected) {
                prop_assert_eq!(got.descriptor_id, want.descriptor_id);
                prop_assert_eq!(got.onion, want.onion);
                prop_assert_eq!(got.published, want.published);
            }
            for (d, _) in &descs {
                let id = d.descriptor_id;
                prop_assert_eq!(store.contains(id), model.contains_key(&id));
                prop_assert_eq!(
                    store.fetch(id).map(|s| s.published),
                    model.get(&id).map(|s| s.published)
                );
            }
            let absent = DescriptorId::from_digest(Sha1::digest(b"never published"));
            prop_assert!(store.fetch(absent).is_none());
            now += advance * crate::clock::HOUR;
        }
    }

    /// Differential test of incremental publication: after every step
    /// of a random sequence — rounds, same-hour revotes, relays joining
    /// the ring, services flipping, relays flipping reachability,
    /// taking a new identity or flipping their `logging` flag, the
    /// descriptor-ID cache toggling, fault plans swapping between
    /// publish drops, relay crashes and none — every HSDir store holds
    /// exactly what [`EagerPublisher`] holds, every service's slot-hours
    /// match its eager count, and the hot counters (the rows the
    /// rounds visited and the fresh votes among them) and publish-drop
    /// counter match its accounting.
    #[test]
    fn incremental_publication_matches_eager_model(
        steps in proptest::collection::vec((0u8..10, any::<u64>()), 1..24),
    ) {
        use crate::fault::FaultPlan;
        use crate::relay::Operator;
        use onion_crypto::identity::SimIdentity;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Established relays only: the ring changes when a step changes
        // it, so most rounds can reuse placements.
        let mut net = NetworkBuilder::new()
            .relays(40)
            .seed(5)
            .start(SimTime::from_ymd(2013, 2, 1))
            .established_fraction(1.0)
            .build();
        let mut services: Vec<(OnionAddress, bool)> = (0..8u8)
            .map(|k| (OnionAddress::from_pubkey(&[k, 0x17]), k % 4 != 0))
            .collect();
        for &(onion, online) in &services {
            net.register_service(onion, online);
        }
        let mut eager = EagerPublisher::new(&net, &services);
        let mut cache_enabled = true;
        for (op, arg) in steps {
            match op {
                0 | 1 => {
                    for _ in 0..1 + arg % 6 {
                        net.advance_hours(1);
                        eager.round(&net, &services);
                    }
                }
                2 => {
                    net.revote();
                    eager.round(&net, &services);
                }
                3 => {
                    // Backdated, so the relay joins the ring as an HSDir
                    // at the next vote.
                    let n = net.relays().len();
                    let id = net.add_relay(
                        format!("joiner{n}"),
                        Ipv4::new(198, 18, (n / 250) as u8, (n % 250) as u8 + 1),
                        9001,
                        SimIdentity::generate(&mut StdRng::seed_from_u64(arg)),
                        500,
                        Operator::Honest,
                    );
                    net.relay_mut(id).last_restart = net.time() - 30 * HOUR;
                    eager.relays_changed = true;
                }
                4 | 5 => {
                    let k = (arg % services.len() as u64) as usize;
                    services[k].1 = !services[k].1;
                    net.set_service_online(services[k].0, services[k].1);
                    eager.dirty.insert(services[k].0);
                }
                6 => {
                    let relay = net.relay_mut(RelayId((arg % 40) as usize));
                    if arg & 64 == 0 {
                        relay.reachable = !relay.reachable;
                    } else {
                        relay.rotate_identity(SimIdentity::generate(&mut StdRng::seed_from_u64(arg)));
                    }
                    eager.relays_changed = true;
                }
                7 => {
                    let n = net.relays().len() as u64;
                    let relay = net.relay_mut(RelayId((arg % n) as usize));
                    relay.logging = !relay.logging;
                    eager.relays_changed = true;
                }
                8 => {
                    cache_enabled = !cache_enabled;
                    net.set_desc_cache_enabled(cache_enabled);
                    eager.set_cache(&net, cache_enabled);
                }
                _ => {
                    net.set_fault_plan(match arg % 3 {
                        0 => FaultPlan {
                            seed: arg,
                            publish_drop_rate: 0.3,
                            ..FaultPlan::none()
                        },
                        1 => FaultPlan {
                            seed: arg,
                            relay_crash_rate: 0.1,
                            restart_after_hours: 1 + arg % 3,
                            ..FaultPlan::none()
                        },
                        _ => FaultPlan::none(),
                    });
                    eager.publish_drops = 0;
                }
            }
            for (i, want) in eager.stores.iter().enumerate() {
                let got: Vec<(DescriptorId, OnionAddress, SimTime)> = net
                    .store(RelayId(i))
                    .iter()
                    .map(|d| (d.descriptor_id, d.onion, d.published))
                    .collect();
                let want: Vec<(DescriptorId, OnionAddress, SimTime)> =
                    want.iter().map(|(&id, &(onion, t))| (id, onion, t)).collect();
                prop_assert_eq!(got, want, "store of relay {} after op {}", i, op);
            }
            for &(onion, _) in &services {
                let want = eager.slot_hours.get(&onion).copied().unwrap_or(0);
                prop_assert_eq!(net.slot_hours(onion), want, "slot-hours after op {}", op);
            }
            prop_assert_eq!(net.hot_counters(), eager.hot, "after op {}", op);
            prop_assert_eq!(net.fault_counters().publish_drops, eager.publish_drops);
        }
    }

    /// A consensus the network reuses is the consensus a fresh vote
    /// would produce: after every step of a random sequence of relay
    /// edits (reachability, bandwidth, identity, restarts), joins,
    /// fault-plan swaps and rounds, `net.consensus()` equals
    /// `Authority::vote(net.relays(), net.time())` field for field.
    /// Young relays cross the HSDir and Guard thresholds on the way.
    #[test]
    fn consensus_equals_a_fresh_vote(
        net_seed in 0u64..1_000,
        steps in proptest::collection::vec((0u8..6, any::<u64>(), 0u64..30), 1..20),
    ) {
        use crate::authority::Authority;
        use crate::fault::FaultPlan;
        use crate::relay::Operator;
        use onion_crypto::identity::SimIdentity;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut net = NetworkBuilder::new()
            .relays(40)
            .seed(net_seed)
            .start(SimTime::from_ymd(2013, 2, 1))
            .established_fraction(0.5)
            .build();
        for (op, arg, hours) in steps {
            let n = net.relays().len();
            let pick = RelayId((arg % n as u64) as usize);
            match op {
                0 => {
                    let relay = net.relay_mut(pick);
                    relay.reachable = !relay.reachable;
                }
                1 => net.relay_mut(pick).bandwidth = 20 + arg % 10_000,
                2 => net
                    .relay_mut(pick)
                    .rotate_identity(SimIdentity::generate(&mut StdRng::seed_from_u64(arg))),
                3 => {
                    let now = net.time();
                    let relay = net.relay_mut(pick);
                    if relay.running {
                        relay.stop();
                    } else {
                        relay.start(now - (arg % 200) * HOUR);
                    }
                }
                4 => {
                    let id = net.add_relay(
                        format!("joiner{n}"),
                        Ipv4::new(198, 18, (n / 250) as u8, (n % 250) as u8 + 1),
                        9001,
                        SimIdentity::generate(&mut StdRng::seed_from_u64(arg)),
                        20 + arg % 10_000,
                        Operator::Honest,
                    );
                    net.relay_mut(id).last_restart = net.time() - (arg % 300) * HOUR;
                }
                _ => net.set_fault_plan(if arg % 2 == 0 {
                    FaultPlan {
                        seed: arg,
                        relay_crash_rate: 0.05,
                        restart_after_hours: 1 + arg % 4,
                        ..FaultPlan::none()
                    }
                } else {
                    FaultPlan::none()
                }),
            }
            if hours == 0 {
                net.revote();
            } else {
                net.advance_hours(hours);
            }
            let fresh = Authority::new().vote(net.relays(), net.time());
            let got = net.consensus();
            prop_assert_eq!(got.valid_after(), fresh.valid_after());
            prop_assert_eq!(got.len(), fresh.len());
            for (a, b) in got.entries().iter().zip(fresh.entries()) {
                prop_assert_eq!(a.relay, b.relay);
                prop_assert_eq!(a.fingerprint, b.fingerprint);
                prop_assert_eq!(&a.nickname, &b.nickname);
                prop_assert_eq!(a.ip, b.ip);
                prop_assert_eq!(a.or_port, b.or_port);
                prop_assert_eq!(a.bandwidth, b.bandwidth);
                prop_assert_eq!(a.flags, b.flags);
            }
            prop_assert!(got.hsdirs().map(|e| e.relay).eq(fresh.hsdirs().map(|e| e.relay)));
            for r in 0..net.relays().len() {
                prop_assert_eq!(got.is_listed_guard(RelayId(r)), fresh.is_listed_guard(RelayId(r)));
            }
        }
    }

    /// A read-only wave unit's `n` fetches of one onion through one
    /// [`FetchPlan`](crate::network::FetchPlan) match `n` fetches
    /// through the per-fetch reference path, which looks everything up
    /// anew: the same outcomes in order, the same effects (hot
    /// counters, derived pairs, request logs, guard observations, drop
    /// counters, per-relay load and query serial) and the same next
    /// RNG draw. Each case runs registered online, registered offline
    /// and phantom onions with the descriptor-ID cache on and off, under
    /// an inert, the adversarial or a lossy fault plan, with or without
    /// retries, and may arm the online onion behind attacker guards and
    /// HSDirs.
    #[test]
    fn planned_fetches_match_the_per_fetch_reference(
        net_seed in 0u64..1_000,
        relays in 30usize..80,
        hours in 1u64..40,
        attacker_quarters in 0u64..4,
        armed in any::<bool>(),
        faults in 0u8..3,
        retry in any::<bool>(),
        warmup in 0usize..6,
        unit_seed in any::<u64>(),
        n in 0usize..16,
    ) {
        use crate::cells::TrafficSignature;
        use crate::fault::{FaultPlan, RetryPolicy};
        use crate::network::{onion_unit_key, FetchAttempts, WaveEffects};
        use crate::relay::Operator;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let plan = match faults {
            0 => FaultPlan::none(),
            1 => FaultPlan::adversarial(net_seed),
            // Lossy: most queries drop, and a few per round overload.
            _ => FaultPlan {
                seed: net_seed,
                hsdir_drop_rate: 0.7,
                overload_threshold: 6,
                ..FaultPlan::none()
            },
        };
        let mut base = NetworkBuilder::new()
            .relays(relays)
            .seed(net_seed)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        let [online, offline, phantom] =
            [0u8, 1, 2].map(|k| OnionAddress::from_pubkey(&[k, 0x9f, net_seed as u8]));
        base.register_service(online, true);
        base.register_service(offline, false);
        if armed {
            base.arm_signature(online, TrafficSignature::default());
        }
        for i in 0..relays {
            let roll = wave::mix2(net_seed, i as u64);
            let relay = base.relay_mut(RelayId(i));
            if roll % 4 < attacker_quarters {
                relay.operator = Operator::Harvester;
                relay.logging = true;
            } else {
                relay.logging = roll.is_multiple_of(3);
            }
        }
        base.advance_hours(hours);
        let clients: Vec<_> = (0..3u8)
            .map(|k| base.add_client(Ipv4::new(10, 9, 0, k)))
            .collect();
        // One-off fetches before the wave leave round load behind for
        // the overload check to start from.
        for _ in 0..warmup {
            base.client_fetch(clients[0], online);
        }
        let policy = RetryPolicy::standard();

        for cache in [true, false] {
            let mut net = base.clone();
            net.set_desc_cache_enabled(cache);
            net.prepare_wave();
            for onion in [online, offline, phantom] {
                let unit_key = wave::mix2(unit_seed, onion_unit_key(onion));
                let once = |outcome| FetchAttempts {
                    outcome,
                    attempts: 1,
                    backoff_secs: 0,
                };

                let mut rng = StdRng::seed_from_u64(unit_key);
                let mut fx = WaveEffects::new(unit_key);
                let mut planned = Vec::new();
                if n > 0 {
                    let mut plan = net.plan_fetches(onion, &mut fx);
                    for _ in 0..n {
                        let client = clients[rng.random_range(0..clients.len())];
                        planned.push(if retry {
                            net.client_fetch_with_retry_readonly(
                                client, &mut plan, &policy, &mut rng, &mut fx,
                            )
                        } else {
                            once(net.client_fetch_readonly(client, &mut plan, &mut rng, &mut fx))
                        });
                    }
                }
                let planned = (planned, format!("{fx:?}"), rng.random::<u64>());

                let mut rng = StdRng::seed_from_u64(unit_key);
                let mut fx = WaveEffects::new(unit_key);
                let mut reference = Vec::new();
                for _ in 0..n {
                    let client = clients[rng.random_range(0..clients.len())];
                    reference.push(if retry {
                        net.reference_fetch_with_retry(client, onion, &policy, &mut rng, &mut fx)
                    } else {
                        once(net.reference_fetch(client, onion, &mut rng, &mut fx))
                    });
                }
                let reference = (reference, format!("{fx:?}"), rng.random::<u64>());

                prop_assert_eq!(planned, reference, "cache {}, onion {}", cache, onion);
            }
        }
    }

    /// One-off fetches ([`Network::client_fetch`]) with faults inert
    /// leave the network as the sequential fetch they replaced does:
    /// the same outcomes in order, `state_hash` (stores, request logs,
    /// guard observations), hot counters, guard sets and next draw of
    /// the network RNG. Each case fetches registered online, registered
    /// offline and phantom onions as new and existing clients, with
    /// logging HSDirs, optionally attacker HSDirs and guards with an
    /// armed target, and the descriptor-ID cache on or off; a step may
    /// run a consensus round between fetches.
    #[test]
    fn one_off_fetches_match_the_sequential_reference(
        net_seed in 0u64..1_000,
        relays in 30usize..80,
        hours in 1u64..40,
        attacker_quarters in 0u64..4,
        armed in any::<bool>(),
        cache in any::<bool>(),
        steps in proptest::collection::vec((0u8..4, 0u8..4), 1..24),
    ) {
        use crate::cells::TrafficSignature;
        use crate::relay::Operator;

        let mut base = NetworkBuilder::new()
            .relays(relays)
            .seed(net_seed)
            .start(SimTime::from_ymd(2013, 2, 1))
            .build();
        let onions = [0u8, 1, 2].map(|k| OnionAddress::from_pubkey(&[k, 0x51, net_seed as u8]));
        base.register_service(onions[0], true);
        base.register_service(onions[1], false);
        if armed {
            base.arm_signature(onions[0], TrafficSignature::default());
        }
        for i in 0..relays {
            let roll = wave::mix2(net_seed, i as u64);
            let relay = base.relay_mut(RelayId(i));
            if roll % 4 < attacker_quarters {
                relay.operator = Operator::Harvester;
                relay.logging = true;
            } else {
                relay.logging = roll.is_multiple_of(3);
            }
        }
        base.advance_hours(hours);
        base.set_desc_cache_enabled(cache);
        base.add_client(Ipv4::new(10, 5, 0, 0));

        let run = |one_off: bool| {
            let mut net = base.clone();
            let mut outcomes = Vec::new();
            for &(who, what) in &steps {
                if what == 3 {
                    net.advance_hours(1);
                    continue;
                }
                let client = if who == 3 {
                    net.add_client(Ipv4::new(10, 5, 0, net.client_count() as u8))
                } else {
                    ClientId(usize::from(who) % net.client_count())
                };
                let onion = onions[usize::from(what)];
                outcomes.push(if one_off {
                    net.client_fetch(client, onion)
                } else {
                    net.sequential_fetch(client, onion)
                });
            }
            let guards: Vec<String> = (0..net.client_count())
                .map(|c| format!("{:?}", net.client(ClientId(c)).guards))
                .collect();
            (outcomes, net.state_hash(), net.hot_counters(), guards, net.next_draw())
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// SHA-1-derived ring positions are uniform enough that the
    /// average-gap estimate is within an order of magnitude of every
    /// observed gap for moderate rings — sanity for the ratio statistic.
    #[test]
    fn ring_positions_cover_space(n in 50usize..200) {
        let mut positions: Vec<U160> = (0..n)
            .map(|i| U160::from(Sha1::digest(format!("relay {i}").as_bytes())))
            .collect();
        positions.sort();
        // Largest gap should not exceed ~20x the average for n ≥ 50
        // (loose bound; catches gross non-uniformity or sort bugs).
        let avg = U160::MAX.div_u64(n as u64);
        let mut worst = U160::ZERO;
        for pair in positions.windows(2) {
            let gap = pair[0].distance_to(pair[1]);
            if gap > worst {
                worst = gap;
            }
        }
        let bound = avg.to_f64() * 20.0;
        prop_assert!(worst.to_f64() < bound);
    }
}
