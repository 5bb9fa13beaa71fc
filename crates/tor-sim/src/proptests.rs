//! Property-based tests over the protocol-critical invariants.

#![cfg(test)]

use proptest::prelude::*;

use onion_crypto::descriptor::DescriptorId;
use onion_crypto::identity::Fingerprint;
use onion_crypto::sha1::{Digest, Sha1};
use onion_crypto::u160::U160;

use crate::clock::SimTime;
use crate::consensus::{Consensus, ConsensusEntry};
use crate::flags::RelayFlags;
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
        use crate::network::NetworkBuilder;
        use std::collections::HashMap;

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
    /// merges, and expiry sweeps.
    #[test]
    fn store_matches_naive_hashmap_model(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((any::<u8>(), 0u64..40), 0..12),
                1u64..6,
            ),
            1..16,
        ),
    ) {
        use std::collections::HashMap;
        use crate::store::{DescriptorStore, StoredDescriptor};
        use onion_crypto::OnionAddress;

        let base = SimTime::from_ymd(2013, 2, 1);
        let mut now = base + 48 * crate::clock::HOUR;
        let mut store = DescriptorStore::default();
        let mut model: HashMap<DescriptorId, StoredDescriptor> = HashMap::new();

        for (entries, advance) in rounds {
            let descs: Vec<StoredDescriptor> = entries
                .iter()
                .map(|&(key, age_hours)| StoredDescriptor {
                    descriptor_id: DescriptorId::from_digest(
                        Sha1::digest([key, 0x5d]),
                    ),
                    onion: OnionAddress::from_pubkey(&[key]),
                    published: base + (48 + age_hours) * crate::clock::HOUR,
                })
                .collect();
            // Even-indexed entries take the single-publish path, the
            // rest go through one canonical batch merge — applied
            // after the singles, exactly as `step()` orders them.
            let mut batch = Vec::new();
            for (i, d) in descs.iter().enumerate() {
                if i % 2 == 0 {
                    store.publish(*d);
                    model.insert(d.descriptor_id, *d);
                } else {
                    batch.push(*d);
                }
            }
            store.apply_batch(&batch);
            for d in &batch {
                model.insert(d.descriptor_id, *d);
            }
            store.expire(now);
            model.retain(|_, d| now.since(d.published) < crate::clock::DAY);

            prop_assert_eq!(store.len(), model.len());
            let mut expected: Vec<&StoredDescriptor> = model.values().collect();
            expected.sort_by_key(|d| d.descriptor_id);
            for (got, want) in store.iter().zip(expected) {
                prop_assert_eq!(got.descriptor_id, want.descriptor_id);
                prop_assert_eq!(got.onion, want.onion);
                prop_assert_eq!(got.published, want.published);
            }
            for d in &descs {
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
