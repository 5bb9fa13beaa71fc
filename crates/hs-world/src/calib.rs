//! Calibration constants: every population count the paper reports,
//! collected in one place so the generator, the pipelines and the
//! EXPERIMENTS.md cross-checks all agree on the targets.
//!
//! All counts are at paper scale (`scale = 1.0`); the generator rounds
//! them down proportionally at smaller scales.

/// Onion addresses harvested on 2013-02-04.
pub const TOTAL_ADDRESSES: u32 = 39_824;

/// Addresses whose descriptors were still available during the
/// 14–21 Feb scan week.
pub const WITH_DESCRIPTORS: u32 = 24_511;

/// Open ports found in total (Fig. 1 sums to exactly this).
pub const TOTAL_OPEN_PORTS: u32 = 22_007;

/// Fig. 1: services answering abnormally on Skynet's port 55080.
pub const SKYNET_BOTS: u32 = 13_854;

/// Fig. 1: port 80 (includes the Goldnet command-and-control front
/// ends, which also listen on 80).
pub const PORT_80: u32 = 4_027;

/// Fig. 1: port 443.
pub const PORT_443: u32 = 1_366;

/// Fig. 1: port 22.
pub const PORT_22: u32 = 1_238;

/// Fig. 1: port 11009 (TorChat).
pub const PORT_TORCHAT: u32 = 385;

/// Fig. 1: port 4050.
pub const PORT_4050: u32 = 138;

/// Fig. 1: port 6667 (IRC).
pub const PORT_IRC: u32 = 113;

/// Fig. 1: all ports with fewer than 50 hits, grouped.
pub const PORT_OTHER: u32 = 886;

/// Unique port numbers seen across the whole scan.
pub const UNIQUE_PORTS: u32 = 495;

/// Goldnet command-and-control front ends (5 in the top-5 plus 4 more
/// discovered via server-status fingerprinting).
pub const GOLDNET_FRONTENDS: u32 = 9;

/// Skynet command-and-control / bitcoin-pool onions ranked 9–28 in
/// Table II.
pub const SKYNET_CC: u32 = 11;

/// Port-443 destinations whose content mirrors port 80 (excluded from
/// classification as duplicates).
pub const HTTPS_MIRRORS: u32 = 1_108;

/// Sec. III: self-signed certificates whose common name does not match
/// the requested host name.
pub const CERT_SELF_SIGNED_MISMATCH: u32 = 1_225;

/// Sec. III: certificates with the TorHost common name
/// `esjqyk2khizsy43i.onion` (a subset of the mismatching ones).
pub const CERT_TORHOST_CN: u32 = 1_168;

/// Sec. III: certificates carrying the service's *public DNS* name —
/// deanonymising the operator.
pub const CERT_CLEARNET_DNS: u32 = 34;

/// Sec. IV: destinations attempted in the crawl (everything except
/// port 55080): `TOTAL_OPEN_PORTS - SKYNET_BOTS`.
pub const CRAWL_DESTINATIONS: u32 = 8_153;

/// Sec. IV: destinations still open at crawl time (two months later).
pub const CRAWL_STILL_OPEN: u32 = 7_114;

/// Sec. IV: destinations that completed an HTTP(S) connection.
pub const CRAWL_CONNECTED: u32 = 6_579;

/// Table I: connected destinations on port 80.
pub const TABLE1_PORT_80: u32 = 3_741;

/// Table I: connected destinations on port 443.
pub const TABLE1_PORT_443: u32 = 1_289;

/// Table I: connected destinations on port 22.
pub const TABLE1_PORT_22: u32 = 1_094;

/// Table I: connected destinations on port 8080.
pub const TABLE1_PORT_8080: u32 = 4;

/// Table I: connected destinations on other ports.
pub const TABLE1_OTHER: u32 = 451;

/// Sec. IV: destinations excluded for having fewer than 20 words.
pub const EXCLUDED_SHORT: u32 = 2_348;

/// Sec. IV: SSH banners within the short-page exclusions.
pub const EXCLUDED_SSH_BANNERS: u32 = 1_092;

/// Sec. IV: destinations excluded as HTML-wrapped error messages.
pub const EXCLUDED_ERROR_PAGES: u32 = 73;

/// Sec. IV: destinations that survived the funnel and were classified.
pub const CLASSIFIED: u32 = 3_050;

/// Sec. IV: classified pages that were English (84 %).
pub const CLASSIFIED_ENGLISH: u32 = 2_618;

/// Sec. IV: English pages showing the TorHost default page.
pub const TORHOST_DEFAULT_PAGES: u32 = 805;

/// Sec. IV: English pages classified into the 18 topics of Fig. 2.
pub const TOPIC_CLASSIFIED: u32 = 1_813;

/// Sec. V: total descriptor requests received.
pub const TOTAL_REQUESTS: u32 = 1_031_176;

/// Sec. V: unique descriptor IDs requested.
pub const UNIQUE_DESC_IDS: u32 = 29_123;

/// Sec. V: descriptor IDs resolved to onion addresses.
pub const RESOLVED_DESC_IDS: u32 = 6_113;

/// Sec. V: distinct onion addresses resolved.
pub const RESOLVED_ONIONS: u32 = 3_140;

/// Sec. V: share of client requests targeting never-published
/// descriptors, in percent.
pub const PHANTOM_REQUEST_PERCENT: u32 = 80;

/// Sec. V: share of published descriptors ever requested, in percent.
pub const REQUESTED_PUBLISHED_PERCENT: u32 = 10;

/// Sec. II: IP addresses the paper's harvesting fleet used.
pub const HARVEST_IPS: u32 = 58;

/// Sec. II: IP addresses a naïve (non-shadowing) attacker would need.
pub const NAIVE_ATTACK_IPS: u32 = 300;

/// Sec. VII: relays with the HSDir flag on 2011-02-01.
pub const HSDIR_COUNT_2011: u32 = 757;

/// Sec. VII: relays with the HSDir flag on 2013-10-31.
pub const HSDIR_COUNT_2013: u32 = 1_862;

/// Scales a paper-scale count down; never returns 0 for a nonzero
/// input so tiny test worlds keep one exemplar of every population.
pub fn scaled(count: u32, scale: f64) -> u32 {
    if count == 0 {
        return 0;
    }
    (((count as f64) * scale).round() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_sums_to_total_open_ports() {
        assert_eq!(
            SKYNET_BOTS
                + PORT_80
                + PORT_443
                + PORT_22
                + PORT_TORCHAT
                + PORT_4050
                + PORT_IRC
                + PORT_OTHER,
            TOTAL_OPEN_PORTS
        );
    }

    #[test]
    fn crawl_destinations_exclude_skynet() {
        assert_eq!(CRAWL_DESTINATIONS, TOTAL_OPEN_PORTS - SKYNET_BOTS);
    }

    #[test]
    fn funnel_is_consistent() {
        assert_eq!(
            CRAWL_CONNECTED - EXCLUDED_SHORT - HTTPS_MIRRORS - EXCLUDED_ERROR_PAGES,
            CLASSIFIED
        );
        assert_eq!(
            TABLE1_PORT_80 + TABLE1_PORT_443 + TABLE1_PORT_22 + TABLE1_PORT_8080 + TABLE1_OTHER,
            CRAWL_CONNECTED
        );
    }

    #[test]
    fn english_funnel() {
        // 84 % of 3050 ≈ 2618; after removing TorHost defaults, 1813.
        assert_eq!(CLASSIFIED_ENGLISH - TORHOST_DEFAULT_PAGES, TOPIC_CLASSIFIED);
        let pct = CLASSIFIED_ENGLISH as f64 / CLASSIFIED as f64;
        assert!((0.83..=0.87).contains(&pct));
    }

    #[test]
    fn certs_nest() {
        // Checked at compile time: a constant edit that breaks the
        // nesting fails the test build.
        const _: () = assert!(CERT_TORHOST_CN < CERT_SELF_SIGNED_MISMATCH);
        const _: () = assert!(CERT_SELF_SIGNED_MISMATCH + CERT_CLEARNET_DNS < PORT_443);
    }

    #[test]
    fn scaled_rounds_and_floors() {
        assert_eq!(scaled(1000, 0.1), 100);
        assert_eq!(scaled(9, 0.01), 1, "nonzero counts never vanish");
        assert_eq!(scaled(0, 0.5), 0);
        assert_eq!(scaled(1000, 1.0), 1000);
    }
}
