//! v2 onion addresses and permanent identifiers.
//!
//! A v2 onion address is the base32 encoding of the first 10 bytes of the
//! SHA-1 digest of the hidden service's public identity key — 16 lowercase
//! characters, e.g. `silkroadvb5piz3r`. Those 10 bytes are the service's
//! *permanent identifier*, the value the descriptor-ID schedule of
//! [`crate::descriptor`] is keyed on.

use core::cmp::Ordering;
use core::fmt;
use std::str::FromStr;

use crate::base32;
use crate::sha1::Sha1;

/// Length of the permanent identifier in bytes.
pub const PERMANENT_ID_LEN: usize = 10;

/// Length of a v2 onion address in base32 characters (without `.onion`).
pub const ONION_ADDR_LEN: usize = 16;

/// The first 10 bytes of `SHA1(public key)`: a hidden service's permanent
/// identifier.
///
/// Identifiers (and the onion addresses wrapping them) order as their
/// bytes do, compared as two big-endian words instead of through
/// `memcmp`: the service interner binary-searches on this order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PermanentId(pub(crate) [u8; PERMANENT_ID_LEN]);

impl Ord for PermanentId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.words().cmp(&other.words())
    }
}

impl PartialOrd for PermanentId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PermanentId {
    /// Derives the permanent identifier from public-key bytes.
    pub fn from_pubkey(pubkey: &[u8]) -> Self {
        let digest = Sha1::digest(pubkey);
        let mut id = [0u8; PERMANENT_ID_LEN];
        id.copy_from_slice(&digest.as_bytes()[..PERMANENT_ID_LEN]);
        PermanentId(id)
    }

    /// Wraps raw identifier bytes.
    pub fn from_bytes(bytes: [u8; PERMANENT_ID_LEN]) -> Self {
        PermanentId(bytes)
    }

    /// The identifier bytes.
    pub fn as_bytes(&self) -> &[u8; PERMANENT_ID_LEN] {
        &self.0
    }

    /// The first byte, used by the descriptor-ID time-period offset.
    pub fn byte0(&self) -> u8 {
        self.0[0]
    }

    /// The bytes as big-endian words, which order as the bytes do.
    fn words(&self) -> (u64, u16) {
        let [a0, a1, a2, a3, a4, a5, a6, a7, b0, b1] = self.0;
        (
            u64::from_be_bytes([a0, a1, a2, a3, a4, a5, a6, a7]),
            u16::from_be_bytes([b0, b1]),
        )
    }

    /// The onion address corresponding to this identifier.
    pub fn to_onion(self) -> OnionAddress {
        OnionAddress(self)
    }
}

impl fmt::Debug for PermanentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PermanentId({})", base32::encode(self.0))
    }
}

/// A v2 onion address (the 16-character label, without the `.onion`
/// suffix).
///
/// # Examples
///
/// ```
/// use onion_crypto::onion::OnionAddress;
///
/// let addr: OnionAddress = "silkroadvb5piz3r".parse()?;
/// assert_eq!(addr.to_string(), "silkroadvb5piz3r.onion");
/// # Ok::<(), onion_crypto::onion::ParseOnionError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OnionAddress(PermanentId);

impl OnionAddress {
    /// Derives the onion address of a public key.
    pub fn from_pubkey(pubkey: &[u8]) -> Self {
        OnionAddress(PermanentId::from_pubkey(pubkey))
    }

    /// The underlying permanent identifier.
    pub fn permanent_id(&self) -> PermanentId {
        self.0
    }

    /// The bare 16-character base32 label (no `.onion` suffix).
    pub fn label(&self) -> String {
        base32::encode(self.0 .0)
    }
}

impl fmt::Debug for OnionAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OnionAddress({}.onion)", self.label())
    }
}

impl fmt::Display for OnionAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.onion", self.label())
    }
}

impl From<PermanentId> for OnionAddress {
    fn from(id: PermanentId) -> Self {
        OnionAddress(id)
    }
}

/// Error parsing an onion address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOnionError {
    /// The label is not exactly 16 characters.
    BadLength(usize),
    /// The label contains a character outside the base32 alphabet.
    BadCharacter(base32::DecodeError),
}

impl fmt::Display for ParseOnionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseOnionError::BadLength(n) => {
                write!(f, "onion label must be 16 characters, got {n}")
            }
            ParseOnionError::BadCharacter(e) => write!(f, "invalid onion label: {e}"),
        }
    }
}

impl std::error::Error for ParseOnionError {}

impl FromStr for OnionAddress {
    type Err = ParseOnionError;

    /// Parses `xxxxxxxxxxxxxxxx` or `xxxxxxxxxxxxxxxx.onion`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let label = s.strip_suffix(".onion").unwrap_or(s);
        if label.len() != ONION_ADDR_LEN {
            return Err(ParseOnionError::BadLength(label.len()));
        }
        let bytes = base32::decode(label).map_err(ParseOnionError::BadCharacter)?;
        let mut id = [0u8; PERMANENT_ID_LEN];
        id.copy_from_slice(&bytes[..PERMANENT_ID_LEN]);
        Ok(OnionAddress(PermanentId(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_matches_spec() {
        // Address = base32(first 10 bytes of SHA1(pubkey)).
        let pubkey = b"example public key bytes";
        let addr = OnionAddress::from_pubkey(pubkey);
        let digest = Sha1::digest(pubkey);
        assert_eq!(addr.label(), base32::encode(&digest.as_bytes()[..10]));
        assert_eq!(addr.label().len(), ONION_ADDR_LEN);
    }

    #[test]
    fn parse_roundtrip() {
        let addr = OnionAddress::from_pubkey(b"some key");
        let parsed: OnionAddress = addr.label().parse().unwrap();
        assert_eq!(parsed, addr);
        let parsed2: OnionAddress = addr.to_string().parse().unwrap();
        assert_eq!(parsed2, addr);
    }

    #[test]
    fn parse_silkroad() {
        let addr: OnionAddress = "silkroadvb5piz3r.onion".parse().unwrap();
        assert_eq!(addr.label(), "silkroadvb5piz3r");
        assert_eq!(addr.to_string(), "silkroadvb5piz3r.onion");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(matches!(
            "short".parse::<OnionAddress>(),
            Err(ParseOnionError::BadLength(5))
        ));
        assert!(matches!(
            "0000000000000000".parse::<OnionAddress>(),
            Err(ParseOnionError::BadCharacter(_))
        ));
    }

    #[test]
    fn byte0_is_first_digest_byte() {
        let pubkey = b"key";
        let id = PermanentId::from_pubkey(pubkey);
        assert_eq!(id.byte0(), Sha1::digest(pubkey).as_bytes()[0]);
    }
}
