//! A dir-spec-flavoured text serialization of consensus documents.
//!
//! Real Tor consensuses are line-oriented documents (`r` router lines,
//! `s` flag lines, …). The Sec. VII analysis consumes multi-year
//! archives of such documents; this module provides a compatible
//! encoding so generated consensuses can be written to disk, diffed,
//! and re-parsed — the same workflow the paper ran against the
//! metrics.torproject.org archive.
//!
//! Format (per relay):
//!
//! ```text
//! network-status-version 3
//! valid-after 2013-02-04T00:00:00Z
//! r <nickname> <fingerprint-hex> <ip> <orport>
//! s <flag> <flag> …
//! (repeated)
//! directory-footer
//! ```

use core::fmt;

use onion_crypto::identity::Fingerprint;
use onion_crypto::sha1::Digest;

use crate::clock::{SimTime, HOUR};
use crate::consensus::{Consensus, ConsensusEntry};
use crate::flags::RelayFlags;
use crate::relay::{Ipv4, RelayId};

/// Serializes a consensus to the dir-spec-flavoured text format.
pub fn encode(consensus: &Consensus) -> String {
    let mut out = String::new();
    out.push_str("network-status-version 3\n");
    out.push_str(&format!("valid-after {}\n", consensus.valid_after()));
    for e in consensus.entries() {
        out.push_str(&format!(
            "r {} {} {} {}\n",
            e.nickname,
            e.fingerprint.to_hex(),
            e.ip,
            e.or_port
        ));
        out.push_str(&format!("s {}\n", e.flags));
        out.push_str(&format!("w Bandwidth={}\n", e.bandwidth));
    }
    out.push_str("directory-footer\n");
    out
}

/// Error from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDocError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseDocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDocError {}

fn err(line: usize, message: impl Into<String>) -> ParseDocError {
    ParseDocError {
        line,
        message: message.into(),
    }
}

/// Parses a document produced by [`encode`] back into a [`Consensus`].
///
/// # Errors
///
/// Returns [`ParseDocError`] on malformed headers, router lines, flag
/// lines or timestamps.
pub fn decode(doc: &str) -> Result<Consensus, ParseDocError> {
    let mut lines = doc.lines().enumerate().peekable();

    let (n, first) = lines.next().ok_or_else(|| err(1, "empty document"))?;
    if first.trim() != "network-status-version 3" {
        return Err(err(n + 1, "expected network-status-version 3"));
    }
    let (n, va_line) = lines.next().ok_or_else(|| err(2, "missing valid-after"))?;
    let valid_after = va_line
        .strip_prefix("valid-after ")
        .ok_or_else(|| err(n + 1, "expected valid-after"))?;
    let valid_after = parse_timestamp(valid_after)
        .ok_or_else(|| err(n + 1, format!("bad timestamp {valid_after:?}")))?;

    let mut entries: Vec<ConsensusEntry> = Vec::new();
    let mut index = 0usize;
    while let Some((n, line)) = lines.next() {
        let line = line.trim_end();
        if line == "directory-footer" {
            break;
        }
        let rest = line
            .strip_prefix("r ")
            .ok_or_else(|| err(n + 1, format!("expected r line, got {line:?}")))?;
        let mut parts = rest.split_whitespace();
        let nickname = parts.next().ok_or_else(|| err(n + 1, "missing nickname"))?;
        let fp_hex = parts
            .next()
            .ok_or_else(|| err(n + 1, "missing fingerprint"))?;
        let ip_str = parts.next().ok_or_else(|| err(n + 1, "missing ip"))?;
        let port_str = parts.next().ok_or_else(|| err(n + 1, "missing orport"))?;
        let fingerprint = Fingerprint::from_digest(
            Digest::parse_hex(fp_hex).map_err(|_| err(n + 1, "bad fingerprint hex"))?,
        );
        let ip = parse_ipv4(ip_str).ok_or_else(|| err(n + 1, "bad ip"))?;
        let or_port: u16 = port_str.parse().map_err(|_| err(n + 1, "bad orport"))?;

        let (sn, s_line) = lines.next().ok_or_else(|| err(n + 2, "missing s line"))?;
        let flags_str = s_line
            .strip_prefix("s ")
            .ok_or_else(|| err(sn + 1, "expected s line"))?;
        let flags = parse_flags(flags_str).ok_or_else(|| err(sn + 1, "unknown flag"))?;

        let (wn, w_line) = lines.next().ok_or_else(|| err(sn + 2, "missing w line"))?;
        let bandwidth: u64 = w_line
            .strip_prefix("w Bandwidth=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(wn + 1, "expected w Bandwidth="))?;

        entries.push(ConsensusEntry {
            relay: RelayId(index),
            fingerprint,
            nickname: nickname.to_owned(),
            ip,
            or_port,
            bandwidth,
            flags,
        });
        index += 1;
    }

    Ok(Consensus::new(valid_after, entries))
}

/// Parses `YYYY-MM-DDThh:mm:ssZ`. Every field is range-checked (the
/// date must exist, in the years 1970–9999), so a forged timestamp is
/// `None`, never a panic or a wrapped value.
fn parse_timestamp(s: &str) -> Option<SimTime> {
    let (date, time) = s.strip_suffix('Z')?.split_once('T')?;
    let [y, m, d] = three_fields(date, '-')?;
    let [hh, mm, ss] = three_fields(time, ':')?;
    if hh > 23 || mm > 59 || ss > 59 {
        return None;
    }
    let midnight = SimTime::try_from_ymd(
        i64::try_from(y).ok()?,
        u32::try_from(m).ok()?,
        u32::try_from(d).ok()?,
    )?;
    let secs = midnight.unix().checked_add(hh * HOUR + mm * 60 + ss)?;
    Some(SimTime::from_unix(secs))
}

/// Splits `s` on `sep` into exactly three unsigned integers.
fn three_fields(s: &str, sep: char) -> Option<[u64; 3]> {
    let mut parts = s.split(sep).map(|p| p.parse::<u64>().ok());
    let fields = [parts.next()??, parts.next()??, parts.next()??];
    parts.next().is_none().then_some(fields)
}

fn parse_ipv4(s: &str) -> Option<Ipv4> {
    let mut parts = s.split('.');
    let a = parts.next()?.parse().ok()?;
    let b = parts.next()?.parse().ok()?;
    let c = parts.next()?.parse().ok()?;
    let d = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(Ipv4::new(a, b, c, d))
}

fn parse_flags(s: &str) -> Option<RelayFlags> {
    let mut flags = RelayFlags::NONE;
    if s.trim() == "-" {
        return Some(flags);
    }
    for word in s.split_whitespace() {
        flags.insert(match word {
            "Running" => RelayFlags::RUNNING,
            "Fast" => RelayFlags::FAST,
            "Stable" => RelayFlags::STABLE,
            "Guard" => RelayFlags::GUARD,
            "HSDir" => RelayFlags::HSDIR,
            "Exit" => RelayFlags::EXIT,
            "Valid" => RelayFlags::VALID,
            _ => return None,
        });
    }
    Some(flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_consensus;

    #[test]
    fn roundtrip() {
        let c = tiny_consensus(25);
        let doc = encode(&c);
        let parsed = decode(&doc).unwrap();
        assert_eq!(parsed.valid_after(), c.valid_after());
        assert_eq!(parsed.len(), c.len());
        for (a, b) in parsed.entries().iter().zip(c.entries()) {
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.nickname, b.nickname);
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.or_port, b.or_port);
            assert_eq!(a.bandwidth, b.bandwidth);
            assert_eq!(a.flags, b.flags);
        }
        assert_eq!(parsed.hsdir_count(), c.hsdir_count());
    }

    #[test]
    fn document_shape() {
        let c = tiny_consensus(3);
        let doc = encode(&c);
        assert!(doc.starts_with("network-status-version 3\n"));
        assert!(doc.contains("valid-after 2013-02-01T00:00:00Z"));
        assert!(doc.trim_end().ends_with("directory-footer"));
        assert_eq!(doc.matches("\nr ").count() + 1, 4); // 3 r-lines (one after header)
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode("").is_err());
        assert!(decode("network-status-version 2\n").is_err());
        let bad_r = "network-status-version 3\nvalid-after 2013-02-01T00:00:00Z\nr onlynick\n";
        let e = decode(bad_r).unwrap_err();
        assert_eq!(e.line, 3);
        let bad_time = "network-status-version 3\nvalid-after yesterday\n";
        assert!(decode(bad_time).is_err());
    }

    #[test]
    fn timestamp_parser() {
        let t = parse_timestamp("2013-02-04T12:34:56Z").unwrap();
        assert_eq!(t.to_string(), "2013-02-04T12:34:56Z");
        assert!(parse_timestamp("2013-13-04T00:00:00Z").is_none());
        assert!(parse_timestamp("2013-02-04 00:00:00").is_none());
        // 2^32 + 2: a month only a truncating cast would accept.
        assert!(parse_timestamp("2013-4294967298-04T00:00:00Z").is_none());
        assert!(parse_timestamp("2013-02-04-01T00:00:00Z").is_none());
        assert!(parse_timestamp("2013-02-04T00:00:00:00Z").is_none());
        assert!(parse_timestamp("2013-02T00:00:00Z").is_none());
    }

    /// Decodes a one-relay document whose `valid-after` is `stamp`.
    fn decode_stamp(stamp: &str) -> Result<Consensus, ParseDocError> {
        let doc = encode(&tiny_consensus(1)).replace("2013-02-01T00:00:00Z", stamp);
        decode(&doc)
    }

    #[test]
    fn rejects_valid_after_before_1970() {
        assert_eq!(decode_stamp("1969-12-31T00:00:00Z").unwrap_err().line, 2);
    }

    #[test]
    fn rejects_valid_after_hour_overflow() {
        assert_eq!(
            decode_stamp("2013-02-01T99999999999999999:00:00Z")
                .unwrap_err()
                .line,
            2
        );
    }

    #[test]
    fn rejects_valid_after_year_overflow() {
        assert_eq!(
            decode_stamp("999999999999-02-01T00:00:00Z")
                .unwrap_err()
                .line,
            2
        );
    }

    #[test]
    fn rejects_valid_after_time_out_of_range() {
        assert_eq!(decode_stamp("2013-02-01T25:61:61Z").unwrap_err().line, 2);
    }

    #[test]
    fn rejects_valid_after_nonexistent_date() {
        assert_eq!(decode_stamp("2013-02-31T00:00:00Z").unwrap_err().line, 2);
    }

    #[test]
    fn valid_after_edges_decode() {
        for stamp in [
            "1970-01-01T00:00:00Z",
            "2012-02-29T23:59:59Z",
            "9999-12-31T23:59:59Z",
        ] {
            let c = decode_stamp(stamp).unwrap();
            assert_eq!(c.valid_after().to_string(), stamp);
        }
    }

    #[test]
    fn flag_parser_handles_empty() {
        assert_eq!(parse_flags("-").unwrap(), RelayFlags::NONE);
        assert!(parse_flags("Running BogusFlag").is_none());
    }
}
