//! Cryptographic identifiers of the Tor v2 hidden-service protocol.
//!
//! This crate is the foundation of the `tor-hs-landscape` workspace, a
//! reproduction of *"Content and popularity analysis of Tor hidden
//! services"* (Biryukov, Pustogarov, Thill, Weinmann, ICDCS 2014). It
//! implements, from scratch, every identifier derivation the paper's
//! measurement pipelines depend on:
//!
//! - [`sha1`] — the SHA-1 digest (FIPS 180-4), Tor's v2 workhorse hash;
//! - [`base32`] — RFC 4648 base32, the `.onion` address encoding;
//! - [`u160`] — 160-bit ring arithmetic for HSDir ring positions;
//! - [`identity`] — simulated RSA identities and relay fingerprints;
//! - [`onion`] — v2 onion addresses and permanent identifiers;
//! - [`descriptor`] — descriptor IDs, replicas and the 24 h rotation
//!   schedule;
//! - [`hsdesc`] — the v2 descriptor document format (encode/parse with
//!   signature and consistency checks).
//!
//! Only key *generation* is simulated (opaque random bytes instead of RSA
//! moduli); every hash and every derived identifier is computed exactly as
//! the 2013 Tor network computed it, so ring placement, descriptor
//! rotation and the paper's statistical detectors behave faithfully.
//!
//! # Examples
//!
//! Derive a service's onion address and its current descriptor IDs:
//!
//! ```
//! use onion_crypto::{identity::SimIdentity, onion::OnionAddress,
//!                    descriptor::DescriptorId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(2013);
//! let key = SimIdentity::generate(&mut rng);
//! let addr = OnionAddress::from_pubkey(key.public_key());
//! let now = 1_359_936_000; // 2013-02-04, the paper's harvest date
//! let [replica0, replica1] = DescriptorId::pair_at(addr, now);
//! assert_ne!(replica0, replica1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod base32;
pub mod descriptor;
pub mod hsdesc;
pub mod identity;
pub mod onion;
pub mod sha1;
pub mod u160;

pub use descriptor::{DaySecretParts, DescriptorId, Replica, SecretIdPart, TimePeriod};
pub use identity::{Fingerprint, SimIdentity};
pub use onion::{OnionAddress, PermanentId};
pub use sha1::{Digest, Sha1};
pub use u160::U160;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::hsdesc::HsDescriptor;
    use crate::{
        base32, sha1::Sha1, u160::U160, DescriptorId, Digest, Fingerprint, PermanentId, Replica,
    };

    fn intro_points(raw: Vec<[u8; 20]>) -> Vec<Fingerprint> {
        raw.into_iter()
            .map(|b| Fingerprint::from_digest(Digest::from_bytes(b)))
            .collect()
    }

    proptest! {
        #[test]
        fn base32_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let enc = base32::encode(&data);
            prop_assert_eq!(base32::decode(&enc).unwrap(), data);
        }

        #[test]
        fn base32_output_alphabet(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let enc = base32::encode(&data);
            prop_assert!(enc.bytes().all(|c| c.is_ascii_lowercase() || (b'2'..=b'7').contains(&c)));
        }

        #[test]
        fn sha1_incremental_equals_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            split in 0usize..512,
        ) {
            let split = split.min(data.len());
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Sha1::digest(&data));
        }

        #[test]
        fn u160_add_sub_inverse(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
            let a = U160::from_bytes(&a);
            let b = U160::from_bytes(&b);
            prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
        }

        #[test]
        fn u160_distance_antisymmetry(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
            let a = U160::from_bytes(&a);
            let b = U160::from_bytes(&b);
            let d1 = a.distance_to(b);
            let d2 = b.distance_to(a);
            // Forward + backward distances sum to 0 mod 2^160.
            prop_assert_eq!(d1.wrapping_add(d2), U160::ZERO);
        }

        #[test]
        fn u160_bytes_roundtrip(a in any::<[u8; 20]>()) {
            prop_assert_eq!(U160::from_bytes(&a).to_bytes(), a);
        }

        #[test]
        fn u160_ordering_matches_byte_ordering(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
            let (ua, ub) = (U160::from_bytes(&a), U160::from_bytes(&b));
            prop_assert_eq!(ua.cmp(&ub), a.cmp(&b));
        }

        /// Word-wise ordering equals byte ordering, for pairs that
        /// share a prefix of any length (so every word boundary and
        /// equality itself are exercised).
        #[test]
        fn word_ordering_matches_byte_ordering(
            a in any::<[u8; 20]>(),
            tail in any::<[u8; 20]>(),
            shared in 0usize..21,
        ) {
            let mut b = a;
            b[shared..].copy_from_slice(&tail[shared..]);
            let (da, db) = (Digest::from_bytes(a), Digest::from_bytes(b));
            prop_assert_eq!(da.cmp(&db), a.cmp(&b));
            prop_assert_eq!(da.partial_cmp(&db), a.partial_cmp(&b));
            prop_assert_eq!(
                DescriptorId::from_digest(da).cmp(&DescriptorId::from_digest(db)),
                a.cmp(&b)
            );
            prop_assert_eq!(
                Fingerprint::from_digest(da).cmp(&Fingerprint::from_digest(db)),
                a.cmp(&b)
            );
            let mut pa = [0u8; 10];
            let mut pb = [0u8; 10];
            pa.copy_from_slice(&a[..10]);
            pb.copy_from_slice(&b[..10]);
            let (ia, ib) = (PermanentId::from_bytes(pa), PermanentId::from_bytes(pb));
            prop_assert_eq!(ia.cmp(&ib), pa.cmp(&pb));
            prop_assert_eq!(ia.partial_cmp(&ib), pa.partial_cmp(&pb));
            prop_assert_eq!(ia.to_onion().cmp(&ib.to_onion()), pa.cmp(&pb));
        }

        #[test]
        fn hsdesc_create_encode_decode_roundtrips(
            key in proptest::collection::vec(any::<u8>(), 0..96),
            replica in 0u8..2,
            now in 0u64..u64::MAX / 2,
            intro in proptest::collection::vec(any::<[u8; 20]>(), 0..10),
        ) {
            let desc = HsDescriptor::create(key, Replica::new(replica), now, intro_points(intro));
            prop_assert!(desc.is_consistent());
            prop_assert_eq!(HsDescriptor::decode(&desc.encode()), Ok(desc));
        }

        #[test]
        fn hsdesc_forged_intro_point_count_never_panics(
            key in proptest::collection::vec(any::<u8>(), 1..48),
            intro in proptest::collection::vec(any::<[u8; 20]>(), 0..6),
            small in 0u64..8,
            count in any::<u64>(),
        ) {
            let desc = HsDescriptor::create(key, Replica::new(0), 1_359_936_000, intro_points(intro));
            let doc = desc.encode();
            let real = format!("introduction-points {}\n", desc.introduction_points.len());
            // A forged count decodes only when it happens to be the
            // true one; every other value is a typed error.
            for forged in [small, count] {
                let forged_doc =
                    doc.replacen(&real, &format!("introduction-points {forged}\n"), 1);
                match HsDescriptor::decode(&forged_doc) {
                    Ok(parsed) => {
                        prop_assert_eq!(forged, desc.introduction_points.len() as u64);
                        prop_assert_eq!(parsed, desc.clone());
                    }
                    Err(_) => prop_assert_ne!(forged, desc.introduction_points.len() as u64),
                }
            }
        }
    }
}
