//! A from-scratch implementation of the SHA-1 message digest (FIPS 180-4).
//!
//! Tor's v2 hidden-service machinery is built entirely on SHA-1: relay
//! fingerprints, onion addresses and descriptor identifiers are all (parts
//! of) SHA-1 digests. The simulator therefore carries its own
//! implementation rather than pulling in an external dependency.
//!
//! SHA-1 is cryptographically broken for collision resistance, but the
//! protocol logic reproduced here only relies on it as a deterministic
//! 160-bit map, exactly as the 2013 Tor network did.
//!
//! # Examples
//!
//! ```
//! use onion_crypto::sha1::Sha1;
//!
//! let digest = Sha1::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d"
//! );
//! ```

use core::cmp::Ordering;
use core::fmt;

/// Length of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// A 160-bit SHA-1 digest.
///
/// The inner bytes are exposed through [`Digest::as_bytes`] and
/// [`Digest::into_bytes`]; the type mainly exists so digests render as hex
/// in debug output and can be compared/ordered as ring positions.
///
/// Digests order as their bytes do (big-endian, the ring order), but
/// compare as three big-endian words instead of through `memcmp`: the
/// sorted stores, the HSDir ring and the interner binary-search on
/// this order in every round and fetch.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub(crate) [u8; DIGEST_LEN]);

impl Ord for Digest {
    fn cmp(&self, other: &Self) -> Ordering {
        self.words().cmp(&other.words())
    }
}

impl PartialOrd for Digest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Digest {
    /// Wraps raw digest bytes.
    pub fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Consumes the digest, returning the raw bytes.
    pub fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// The bytes as big-endian words, which order as the bytes do.
    fn words(&self) -> (u64, u64, u32) {
        let [a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3, b4, b5, b6, b7, c0, c1, c2, c3] =
            self.0;
        (
            u64::from_be_bytes([a0, a1, a2, a3, a4, a5, a6, a7]),
            u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
            u32::from_be_bytes([c0, c1, c2, c3]),
        )
    }

    /// Lowercase hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in &self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Parses a 40-character hex string into a digest.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDigestError`] if the input is not exactly 40 hex
    /// characters.
    pub fn parse_hex(s: &str) -> Result<Self, ParseDigestError> {
        let bytes = s.as_bytes();
        if bytes.len() != DIGEST_LEN * 2 {
            return Err(ParseDigestError);
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = hex_val(chunk[0]).ok_or(ParseDigestError)?;
            let lo = hex_val(chunk[1]).ok_or(ParseDigestError)?;
            out[i] = (hi << 4) | lo;
        }
        Ok(Digest(out))
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Error returned by [`Digest::parse_hex`] for malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDigestError;

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid sha-1 digest hex string")
    }
}

impl std::error::Error for ParseDigestError {}

/// Incremental SHA-1 hasher.
///
/// Use [`Sha1::digest`] for one-shot hashing, or [`Sha1::new`] +
/// [`Sha1::update`] + [`Sha1::finalize`] for streaming input.
///
/// # Examples
///
/// ```
/// use onion_crypto::sha1::Sha1;
///
/// let mut hasher = Sha1::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), Sha1::digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the standard initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: impl AsRef<[u8]>) -> Digest {
        let mut h = Sha1::new();
        h.update(data.as_ref());
        h.finalize()
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut data = data.as_ref();
        self.len = self.len.wrapping_add(data.len() as u64);

        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            } else {
                // Buffer still partial ⇒ the input was fully consumed;
                // falling through would clobber buf_len with an empty
                // remainder.
                return;
            }
        }

        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Append 0x80, zero-pad to 56 mod 64, then the 64-bit length,
        // in place. With 56 or more bytes buffered the length does not
        // fit behind the 0x80, so the padding spills into a second block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;

        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        Sha1::digest(data).to_hex()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    /// `sha1sum` of the first `n` bytes of the pattern `(i * 37 + 11)
    /// mod 256`, for every `n` in `0..=130`: every padding case (one
    /// and two final blocks, the 55/56/63/64-byte edges) up to two
    /// full blocks and a partial third.
    const PATTERN_DIGESTS: [&str; 131] = [
        "da39a3ee5e6b4b0d3255bfef95601890afd80709",
        "067d5096f219c64b53bb1c7d5e3754285b565a47",
        "4be654dd621d5ec3bc2063b90547a6535c0f9b18",
        "5e8b290f00d31c341d769e40255c757924864ef3",
        "2dd70ef5eb275db816ad751aa8522f37195df68b",
        "3cf4fce5cd85b5982c1f4658d9fbaec7477122d5",
        "b00c286ecaa8ed96a4d3acd9c92b6c687027c237",
        "fa39e4b946d2fee587051a87d47d68a5590f64b9",
        "3e17075dce4d6126b81819ad27c1ed1dbc09da96",
        "395d20b7b6380ee7ee9637f7fa84eea3eaa8a4bb",
        "35136dff4606d0a81510297e30cef176f9e062ca",
        "56981b2bf0d6e1cdbf0803b46dc24695ee6f2381",
        "7ab5ef94757f046269cd6875a492ce2f0cba16f1",
        "879d14a6c7d91c391c8ace8c94f536f9ba311fb6",
        "59261b7212751d215331bb219c288165c2596f0f",
        "b3d944a4a992367acc8b98647cfbc7b70a9815d5",
        "285bb70cf533e49774327262d098532912b051ad",
        "6a2b7be01ac2e99f75828a830157bf7472afee68",
        "4ef363751c121af5342f7db324d67e799e6ccde5",
        "65dd27e3c6143ae9400a770c2b029172171b0ded",
        "c08c26f20f9b6e425705af5ccc0300325c4d619a",
        "20a14b20b61ad4c992f03f11bb65e1547fc15705",
        "663f80ccb5a0e75242370d7c01e8160b88cf33e8",
        "46b5088563575fb3c694bb2d2dac5dd9fdd23151",
        "83611dfdad1842b9b5078f94440a3175554f5542",
        "da317f34b61a0742acc08a9200203ec2c65ab0b8",
        "3d85ecb2a28fc6ac3c98ab3f4f22b900dbee5f9c",
        "538bb5bba2a530207144d23bf8a1e9e31410e0f7",
        "24a127b6fd45815fe8c84eefc6c10eaecf24abdd",
        "ba843372d39029e36842213f8710342046d197ce",
        "c26809384885c78dfd5c13235bba74f87fb4178d",
        "e2deeb8b4b6105f32d5b16eafe20ff3ee98876c6",
        "95e96dd17403929a339e339e680dd076e78ac039",
        "6c150252887fe3e0f4f4165da9c9e53aeabf1dec",
        "55bc9b2e3d4e456827b1c36b55ef8c4c45d58fc7",
        "4cb485eefd617f01a1939aa56474213a925c41a1",
        "59a46f9488bf2a420010fb9b28b94cdabf792d70",
        "da4801164e04942221bebfcfacc7cc7b5a79ae50",
        "afd418b6a1efd4fe7eaa1cfb28a4e276e1244972",
        "5c0782f42be644c3e293e5cac5dcbb49413eb719",
        "b4cef9aebd96975376eca04e064acd5bd7b9bce7",
        "879a893a15bc101818673a8aabcfaee369e12d32",
        "16b13d64b3d010493acd7d5bea99b6aba3bb5452",
        "c6207c3658c508d675628689cdd0d00ec22458a0",
        "1f5bdc9d380f714d051f3cc82439ecc1406c4916",
        "c9a1d1a1d58c875ff6375c288eb0a261873bf9e4",
        "178b06cf8927bea91305fcf83bd87a4666cf45f8",
        "7349e05796e3aad67a0d3ee127c181b9d9267648",
        "3896e0b517ab062fbad6a58fc90f178a36dfa91f",
        "361b7c34514e07cc6c22789244c8cec14df29ffb",
        "ee82d4e1b239b40826cef2a9f9f513700d36ea4c",
        "77ec79b6831d152c44aa31e9472407ff918a6616",
        "deade998775fb1c6a56d4779e3c0c1e74b804cc6",
        "9f7b8b29044bcf9e215c56a1e2ec9dfd2b9a62bf",
        "e5d956aa039fb09be02efb91ee8646e55fccaf14",
        "c4622048cfef59b72875839ee7ae1cbcf55e7658",
        "ddc12942656468475970fa4fa49161f52ed138e4",
        "c3299df7d6a56509d38a55d09ccf403d4a56d044",
        "fad4fc85c2d9f50c4a8950e0a20c531acc4c3728",
        "d715dca3216d5aa47ae00dbddfbd22f7ce47c780",
        "de372186202ca27222de76ba6693e7f0a7dbcde0",
        "791ec7d7c7c446666f8f3014799b96157976c9bc",
        "c28f79c3d8bdbda7d224d4f91e7dc16a1182efc9",
        "7f8c3fa49f1297bd8b9feb964b6b419987f9f0d1",
        "a334b47180c61fd522f99905ec02c36f9e848211",
        "dd27d9eb923d39687e10872c3e8133ba2f0a68a1",
        "79f5114808f0be75c4fbf37c3c762917e5592883",
        "cb0f23e8d6b4c38bc559fee9266a09463abbc927",
        "80c2b4bbb7ad0c69259a99e209828cfe5f26016a",
        "4c06350856bd5dcf34df6393257556b87fa44624",
        "e47e0540cd6e2a702ae240424083e6449ee0116c",
        "bdb828f97254d1d5bf733d1acb7adf894a41d343",
        "cca562c1390ae4cbfc61e35d9455e98056994879",
        "9190a5474c084a40af87f21a69d50ddefd7b52bf",
        "cabaf4e45424c40614489b3c1864ea3ddc609097",
        "fb611bc738b32806b508a3ea668917f3ad755a83",
        "8e721ca1af0d7a29f3ab142696d1558e709c3923",
        "b0ad0d5a66024fe3412de3396b0816a08980c485",
        "5ac0b9e368026f4cb7a61024a7342fc0c6a762c5",
        "d84649b47497c0b8d8a39773543e6f4a6d75d3c9",
        "c6c13ad16223f6aecda02f985efc2ea5b8a0b7e7",
        "5462c04834bc59abef12b53f0ff7cdc80a7ec4e7",
        "dec348c727d716dc20621fb242c3bd2eea232990",
        "70ae45ec6bd7df839e1671c68c2d8a3521d9a0dc",
        "eb00b28a4f2e63e24c0c6b61ae64ec30df6c7bc8",
        "e3364207213cfea2076039ac9a439f691a8dc148",
        "1ca5eb669a314b10cd70402743f93a122486b325",
        "5d0ce749b80b8b8c7cf90ea9646bc52d08d1e739",
        "e661812643a01364065f3f430e596f389624a714",
        "f1bd3bb677a9f64cf3351886daea408b64214ab2",
        "936cdaec96ff6bb2813088f31d911da82cc38231",
        "c5f7ec79bab3d695691af2be8d73c6abc98c0753",
        "89e4bca200cabf221f6411851b3bdc7853c7a327",
        "975e8d6b97942374518c2d28a7cb658f77a2fb43",
        "e000647921c14e8a2836235403c091ea59948bd8",
        "ade943c8f9117109898a15c0d55ba3089b2e4123",
        "73f1b9a6bd5506a9719792d54354cc29cbf28474",
        "e0b6c708776452a3a77bffc02994a8bc0c0765d0",
        "94dd5c1a1b67e51e0860100ae91c1cbda85c0962",
        "baabf5ea908c083b3dbb6f234ec67185e1641cd0",
        "e5d160eb8f641e92d5f02b2779bcc5261de3eec7",
        "f4a5ebcfea421c132244805be5b1f64272247e9b",
        "747a9f07203d437f60893d4d8d93e5d502fdb1bf",
        "fa161cc7caec7bc39463ab6f1ae4d601874bf9f7",
        "481fc0a4d6f333932bae7965fe2bd08d7d595f3a",
        "8568047b6d369735aab1195716890295bc2ec736",
        "eaeb6c0cc2026195a654b9b4fcac20b02df99884",
        "fa2338135957b2b416b08c825d83b43ee5705a80",
        "5892c542dcd348f8cd239b85ce127a52d1e23354",
        "b5dd5fb462721061cee241ef335786858a8fff29",
        "063dd225888c77fcf4f4f09fefaa7199085575c0",
        "aa138368b05cd08f2e4c0d7ef9be54552bb00f7f",
        "28528b51ef6d26dc41f33652db6540d0f5c0f124",
        "6d1ae0def5a2dfda8af7cf8414b1a1a2400accf4",
        "047b33a092a92a27ce63ad03baa5a1bbb2ee4c93",
        "767588f4d1ca3cd40ad944a58b124ac93162f698",
        "16962dfb3634dee5d538c188a0a7e5f6785715db",
        "ef17880b45a95a58379deac7494e9a9f9f567534",
        "41272ca90dacde8fb603895149bb039c8d24bae5",
        "bea949473b1ec34747ce121c3293624b5d9d8f84",
        "bf05266acd3ec21592b4d42aaea97fa6f3e51926",
        "f7688ed0507cf4592f4c56e0f8c7c839569e3a2a",
        "9e399ab1efb7cf69ba80ed31e1270c94409c68d4",
        "45a38809a0edb5023e8522c8856b1965f239a944",
        "1c97d8f8ea9f5f0e4b73b70a973759f365bfad3c",
        "54f856669404556694a3d84b081f38608ef479f6",
        "a21da359c0ea8a3daf515769a9f6209b08df176b",
        "b2b4bfd7b2112a167b77a600cca227593523c406",
        "3b1953091899492377f686c266b81d84b5d40f70",
        "4fd6558b2a93925fb7129447e1d1fac8cff56287",
        "ee8120e7f5787120dce7a850d22547f1fe197c72",
    ];

    #[test]
    fn pattern_prefixes_match_sha1sum() {
        let pattern: Vec<u8> = (0..130u32).map(|i| ((i * 37 + 11) % 256) as u8).collect();
        for (n, want) in PATTERN_DIGESTS.iter().enumerate() {
            assert_eq!(hex(&pattern[..n]), *want, "length {n}");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Messages around the 55/56/64-byte padding boundaries.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            // Compare against a second independent run; the digest must be
            // stable and the hasher must not panic on any boundary.
            assert_eq!(Sha1::digest(&data), Sha1::digest(&data));
        }
        assert_eq!(hex(&[0u8; 64]), "c8d7d0ef0eedfa82d2ea1aa592845b9a6d4b02b7");
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = Sha1::digest(b"roundtrip");
        let parsed = Digest::parse_hex(&d.to_hex()).unwrap();
        assert_eq!(d, parsed);
    }

    #[test]
    fn parse_hex_rejects_bad_input() {
        assert!(Digest::parse_hex("abc").is_err());
        assert!(Digest::parse_hex(&"g".repeat(40)).is_err());
        let ok = "a".repeat(40);
        assert!(Digest::parse_hex(&ok).is_ok());
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let d = Sha1::digest(b"x");
        assert!(!format!("{d}").is_empty());
        assert!(format!("{d:?}").starts_with("Digest("));
    }
}
