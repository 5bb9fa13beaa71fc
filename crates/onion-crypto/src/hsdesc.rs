//! The v2 hidden-service descriptor document (rend-spec-v2 §1.3):
//! text encoding and parsing.
//!
//! A v2 descriptor is a line-oriented document a hidden service uploads
//! to its responsible directories and a client fetches to learn the
//! service's public key and introduction points. The harvesting attack
//! derived its onion-address crop from exactly these documents: the
//! `permanent-key` field yields the onion address by hashing.
//!
//! ```text
//! rendezvous-service-descriptor <descriptor-id-base32>
//! version 2
//! permanent-key <base32 of key bytes>
//! secret-id-part <base32>
//! publication-time 2013-02-04T12:00:00Z
//! protocol-versions 2,3
//! introduction-points <count>
//! introduction-point <relay fingerprint hex>
//! (repeated)
//! signature <base32>
//! ```
//!
//! The real format wraps RSA keys and intro-point blobs in PEM-style
//! armor; this codec keeps the same field structure over the simulated
//! key bytes, which is all the measurement pipelines consume.

use core::fmt;

use crate::base32;
use crate::descriptor::{DescriptorId, Replica, TimePeriod};
use crate::identity::Fingerprint;
use crate::onion::OnionAddress;
use crate::sha1::{Digest, Sha1};

/// An in-memory v2 descriptor document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HsDescriptor {
    /// The ID the document is stored under.
    pub descriptor_id: DescriptorId,
    /// The service's public identity key bytes.
    pub permanent_key: Vec<u8>,
    /// The secret-id-part for the (period, replica) pair.
    pub secret_id_part: Digest,
    /// Unix publication time.
    pub publication_time: u64,
    /// Fingerprints of the introduction-point relays.
    pub introduction_points: Vec<Fingerprint>,
}

impl HsDescriptor {
    /// Builds the descriptor a service publishes for `replica` at
    /// `now_unix`.
    pub fn create(
        permanent_key: Vec<u8>,
        replica: Replica,
        now_unix: u64,
        introduction_points: Vec<Fingerprint>,
    ) -> Self {
        let onion = OnionAddress::from_pubkey(&permanent_key);
        let perm = onion.permanent_id();
        let period = TimePeriod::at(now_unix, perm);

        let mut inner = Sha1::new();
        inner.update((period.0 as u32).to_be_bytes());
        inner.update([replica.index()]);
        let secret_id_part = inner.finalize();

        let mut outer = Sha1::new();
        outer.update(perm.as_bytes());
        outer.update(secret_id_part.as_bytes());
        let descriptor_id = DescriptorId::from_digest(outer.finalize());

        HsDescriptor {
            descriptor_id,
            permanent_key,
            secret_id_part,
            publication_time: now_unix,
            introduction_points,
        }
    }

    /// The onion address derived from the permanent key — what the
    /// harvesters extracted from every collected descriptor.
    pub fn onion_address(&self) -> OnionAddress {
        OnionAddress::from_pubkey(&self.permanent_key)
    }

    /// Whether the document is internally consistent: the descriptor
    /// ID must equal `SHA1(permanent-id | secret-id-part)`. Honest
    /// directories verify this before storing.
    pub fn is_consistent(&self) -> bool {
        let perm = self.onion_address().permanent_id();
        let mut outer = Sha1::new();
        outer.update(perm.as_bytes());
        outer.update(self.secret_id_part.as_bytes());
        DescriptorId::from_digest(outer.finalize()) == self.descriptor_id
    }

    /// Serializes to the text document format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rendezvous-service-descriptor {}\n",
            self.descriptor_id.to_base32()
        ));
        out.push_str("version 2\n");
        out.push_str(&format!(
            "permanent-key {}\n",
            base32::encode(&self.permanent_key)
        ));
        out.push_str(&format!(
            "secret-id-part {}\n",
            base32::encode(self.secret_id_part.as_bytes())
        ));
        out.push_str(&format!("publication-time {}\n", self.publication_time));
        out.push_str(&format!(
            "introduction-points {}\n",
            self.introduction_points.len()
        ));
        for ip in &self.introduction_points {
            out.push_str(&format!("introduction-point {}\n", ip.to_hex()));
        }
        // The "signature" ties the document to the permanent key; the
        // simulator stands in a keyed hash for the RSA signature.
        let mut sig = Sha1::new();
        sig.update(&self.permanent_key);
        sig.update(self.descriptor_id.digest().as_bytes());
        sig.update(self.publication_time.to_be_bytes());
        out.push_str(&format!(
            "signature {}\n",
            base32::encode(sig.finalize().as_bytes())
        ));
        out
    }

    /// Parses a document produced by [`HsDescriptor::encode`],
    /// verifying the signature and descriptor-ID consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDescError`] for malformed fields, a wrong
    /// signature, or an inconsistent descriptor ID.
    pub fn decode(doc: &str) -> Result<Self, ParseDescError> {
        let mut lines = doc.lines();
        let take = |lines: &mut std::str::Lines<'_>, key: &'static str| {
            lines
                .next()
                .and_then(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_owned())
                .ok_or(ParseDescError::MissingField(key))
        };

        let desc_id_b32 = take(&mut lines, "rendezvous-service-descriptor ")?;
        let version = take(&mut lines, "version ")?;
        if version != "2" {
            return Err(ParseDescError::BadVersion);
        }
        let key_b32 = take(&mut lines, "permanent-key ")?;
        let secret_b32 = take(&mut lines, "secret-id-part ")?;
        let pub_time = take(&mut lines, "publication-time ")?;
        let ip_count = take(&mut lines, "introduction-points ")?;

        let descriptor_id = DescriptorId::from_digest(digest_from_b32(&desc_id_b32)?);
        let permanent_key =
            base32::decode(&key_b32).map_err(|_| ParseDescError::BadEncoding("permanent-key"))?;
        let secret_id_part = digest_from_b32(&secret_b32)?;
        let publication_time: u64 = pub_time
            .parse()
            .map_err(|_| ParseDescError::BadEncoding("publication-time"))?;
        let n: u64 = ip_count
            .parse()
            .map_err(|_| ParseDescError::BadEncoding("introduction-points"))?;

        // The count is untrusted: grow with the lines actually present
        // rather than reserving `n` up front.
        let mut introduction_points = Vec::new();
        for _ in 0..n {
            let fp_hex = take(&mut lines, "introduction-point ")?;
            let digest = Digest::parse_hex(&fp_hex)
                .map_err(|_| ParseDescError::BadEncoding("introduction-point"))?;
            introduction_points.push(Fingerprint::from_digest(digest));
        }
        let sig_b32 = take(&mut lines, "signature ")?;

        let desc = HsDescriptor {
            descriptor_id,
            permanent_key,
            secret_id_part,
            publication_time,
            introduction_points,
        };

        let mut sig = Sha1::new();
        sig.update(&desc.permanent_key);
        sig.update(desc.descriptor_id.digest().as_bytes());
        sig.update(desc.publication_time.to_be_bytes());
        if base32::encode(sig.finalize().as_bytes()) != sig_b32 {
            return Err(ParseDescError::BadSignature);
        }
        if !desc.is_consistent() {
            return Err(ParseDescError::InconsistentId);
        }
        Ok(desc)
    }
}

fn digest_from_b32(s: &str) -> Result<Digest, ParseDescError> {
    let bytes = base32::decode(s).map_err(|_| ParseDescError::BadEncoding("digest"))?;
    if bytes.len() != 20 {
        return Err(ParseDescError::BadEncoding("digest length"));
    }
    let mut d = [0u8; 20];
    d.copy_from_slice(&bytes);
    Ok(Digest::from_bytes(d))
}

/// Errors from [`HsDescriptor::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseDescError {
    /// A required field is missing or out of order.
    MissingField(&'static str),
    /// Only version 2 descriptors are supported.
    BadVersion,
    /// A field failed to decode.
    BadEncoding(&'static str),
    /// The signature does not match the document.
    BadSignature,
    /// The descriptor ID does not match the key and secret-id-part.
    InconsistentId,
}

impl fmt::Display for ParseDescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDescError::MissingField(k) => write!(f, "missing field {k:?}"),
            ParseDescError::BadVersion => f.write_str("unsupported descriptor version"),
            ParseDescError::BadEncoding(k) => write!(f, "malformed field {k:?}"),
            ParseDescError::BadSignature => f.write_str("signature verification failed"),
            ParseDescError::InconsistentId => {
                f.write_str("descriptor id inconsistent with key and secret-id-part")
            }
        }
    }
}

impl std::error::Error for ParseDescError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::SimIdentity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> HsDescriptor {
        let mut rng = StdRng::seed_from_u64(77);
        let key = SimIdentity::generate(&mut rng);
        let intro: Vec<Fingerprint> = (0..3)
            .map(|_| SimIdentity::generate(&mut rng).fingerprint())
            .collect();
        HsDescriptor::create(
            key.public_key().to_vec(),
            Replica::new(0),
            1_359_936_000,
            intro,
        )
    }

    #[test]
    fn created_descriptor_matches_pair_at() {
        let desc = sample();
        let ids = DescriptorId::pair_at(desc.onion_address(), desc.publication_time);
        assert_eq!(desc.descriptor_id, ids[0]);
        assert!(desc.is_consistent());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let desc = sample();
        let doc = desc.encode();
        let parsed = HsDescriptor::decode(&doc).unwrap();
        assert_eq!(parsed, desc);
        assert_eq!(parsed.onion_address(), desc.onion_address());
        assert_eq!(parsed.introduction_points.len(), 3);
    }

    #[test]
    fn tampered_signature_rejected() {
        let desc = sample();
        let doc = desc.encode();
        // Flip the publication time without re-signing.
        let tampered = doc.replace("publication-time 1359936000", "publication-time 1359936001");
        assert_eq!(
            HsDescriptor::decode(&tampered),
            Err(ParseDescError::BadSignature)
        );
    }

    #[test]
    fn tampered_descriptor_id_rejected() {
        let mut desc = sample();
        // Claim a different ID than the key derives.
        desc.descriptor_id = DescriptorId::from_digest(Sha1::digest(b"forged"));
        assert!(!desc.is_consistent());
        // Encoding re-signs over the forged ID, so the signature passes
        // but the consistency check still rejects it.
        assert_eq!(
            HsDescriptor::decode(&desc.encode()),
            Err(ParseDescError::InconsistentId)
        );
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(matches!(
            HsDescriptor::decode(""),
            Err(ParseDescError::MissingField(_))
        ));
        let desc = sample();
        let doc = desc.encode().replace("version 2", "version 3");
        assert_eq!(HsDescriptor::decode(&doc), Err(ParseDescError::BadVersion));
    }

    #[test]
    fn oversized_intro_point_count_is_an_error() {
        let doc = sample().encode();
        for count in ["18446744073709551615", "1000000000000"] {
            let forged = doc.replace(
                "introduction-points 3\n",
                &format!("introduction-points {count}\n"),
            );
            assert_ne!(forged, doc);
            assert_eq!(
                HsDescriptor::decode(&forged),
                Err(ParseDescError::MissingField("introduction-point "))
            );
        }
    }

    #[test]
    fn replicas_give_different_ids() {
        let mut rng = StdRng::seed_from_u64(78);
        let key = SimIdentity::generate(&mut rng);
        let a = HsDescriptor::create(
            key.public_key().to_vec(),
            Replica::new(0),
            1_360_000_000,
            vec![],
        );
        let b = HsDescriptor::create(
            key.public_key().to_vec(),
            Replica::new(1),
            1_360_000_000,
            vec![],
        );
        assert_ne!(a.descriptor_id, b.descriptor_id);
        assert_eq!(a.onion_address(), b.onion_address());
    }
}
