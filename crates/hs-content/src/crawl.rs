//! The HTTP(S) crawl and exclusion funnel of Sec. IV.
//!
//! Two months after the port scan the paper tried every non-55080
//! destination (8,153), found 7,114 still open, connected to 6,579
//! (Table I), and then excluded: error pages wrapped in HTML (73),
//! pages with fewer than 20 words of text (2,348, of which 1,092 were
//! SSH banners) and port-443 copies of port-80 content (1,108) —
//! leaving 3,050 destinations for language detection and topic
//! classification.

use std::collections::{BTreeMap, HashMap};
use std::sync::LazyLock;

use onion_crypto::onion::OnionAddress;
use wave::{WavePool, WaveStats};

use hs_world::taxonomy::{Language, Topic};
use hs_world::World;

use crate::html::{strip_tags, word_count};
use crate::langdetect::LanguageDetector;
use crate::topics::TopicClassifier;

/// Crawl adversity model: transient connection failures with a bounded
/// retry budget. The default injects nothing.
///
/// Failures are pure hashes of `(seed, destination, attempt)` — fully
/// deterministic, and a zero-rate config is byte-identical to not
/// modelling failures at all (mirroring `tor_sim::fault`, without
/// coupling the content crates to the simulator).
#[derive(Clone, Debug)]
pub struct CrawlConfig {
    /// Per-attempt probability that a destination's connection fails
    /// transiently (circuit collapse, intro-point churn).
    pub transient_failure_rate: f64,
    /// Seed for the failure hashes.
    pub seed: u64,
    /// Connection attempts per destination (including the first).
    /// Values below 1 behave as 1.
    pub retry_attempts: u32,
    /// Worker threads for the fetch and classify waves (1 = inline).
    pub threads: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            transient_failure_rate: 0.0,
            seed: 0,
            retry_attempts: 3,
            threads: 1,
        }
    }
}

/// SplitMix64 finalizer over `(seed, onion, port, attempt)` compared
/// against the failure rate.
fn connection_flakes(config: &CrawlConfig, onion: OnionAddress, port: u16, attempt: u32) -> bool {
    if config.transient_failure_rate <= 0.0 {
        return false;
    }
    let onion_bits = {
        let perm = onion.permanent_id();
        let bytes = perm.as_bytes();
        let mut k = [0u8; 8];
        k[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
        u64::from_be_bytes(k)
    };
    let mut x =
        config.seed ^ 0x0c_4a_37 ^ onion_bits ^ (u64::from(port) << 32) ^ u64::from(attempt);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let unit = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < config.transient_failure_rate
}

/// One page that survived the funnel and was classified.
#[derive(Clone, Debug)]
pub struct ClassifiedPage {
    /// The destination.
    pub onion: OnionAddress,
    /// The destination port.
    pub port: u16,
    /// Detected language.
    pub language: Language,
    /// Detected topic (only for English, non-TorHost pages).
    pub topic: Option<Topic>,
    /// Whether the page is the TorHost hosting default.
    pub torhost_default: bool,
    /// Word count of the stripped text.
    pub words: usize,
}

/// Everything the crawl measured.
#[derive(Clone, Debug, Default)]
pub struct CrawlReport {
    /// Destinations attempted (paper: 8,153).
    pub attempted: usize,
    /// Destinations still open (paper: 7,114).
    pub still_open: usize,
    /// Destinations connected via HTTP(S) (paper: 6,579).
    pub connected: usize,
    /// Connected destinations per port (Table I).
    pub connected_by_port: BTreeMap<u16, u32>,
    /// Excluded: HTML-wrapped error messages (paper: 73).
    pub excluded_errors: usize,
    /// Excluded: fewer than 20 words (paper: 2,348).
    pub excluded_short: usize,
    /// SSH banners within the short exclusions (paper: 1,092).
    pub ssh_banners: usize,
    /// Excluded: port-443 copies of port-80 content (paper: 1,108).
    pub excluded_mirrors: usize,
    /// Pages that survived and were classified (paper: 3,050).
    pub classified: Vec<ClassifiedPage>,
    /// Connection attempts that failed transiently. Zero under the
    /// default (fault-free) [`CrawlConfig`].
    pub transient_failures: u64,
    /// Re-attempts made after a transient failure.
    pub retries: u64,
    /// Destinations abandoned after exhausting the retry budget.
    pub gave_ups: u64,
    /// Distribution of connection attempts per connecting destination
    /// (1 everywhere under the fault-free default config).
    pub connect_attempts: obs::Histogram,
    /// Distribution of stripped-text word counts over non-error pages
    /// (the funnel's "fewer than 20 words" cut, as a distribution).
    pub words_per_page: obs::Histogram,
}

impl CrawlReport {
    /// Table I rows: connected destinations for ports 80, 443, 22,
    /// 8080, and everything else aggregated.
    pub fn table1_rows(&self) -> Vec<(String, u32)> {
        let named = [80u16, 443, 22, 8080];
        let mut rows: Vec<(String, u32)> = named
            .iter()
            .map(|p| (p.to_string(), *self.connected_by_port.get(p).unwrap_or(&0)))
            .collect();
        let other: u32 = self
            .connected_by_port
            .iter()
            .filter(|(p, _)| !named.contains(p))
            .map(|(_, c)| *c)
            .sum();
        rows.push(("Other".to_owned(), other));
        rows
    }

    /// Language histogram over classified pages, descending (ties in
    /// declaration order, so same-seed runs render identically — the
    /// counts come out of a `HashMap` whose iteration order is not).
    pub fn language_histogram(&self) -> Vec<(Language, u32)> {
        let mut counts: HashMap<Language, u32> = HashMap::new();
        for p in &self.classified {
            *counts.entry(p.language).or_insert(0) += 1;
        }
        let mut rows: Vec<_> = counts.into_iter().collect();
        rows.sort_by_key(|&(lang, count)| (std::cmp::Reverse(count), lang));
        rows
    }

    /// Number of classified pages detected as English.
    pub fn english_count(&self) -> usize {
        self.classified
            .iter()
            .filter(|p| p.language == Language::English)
            .count()
    }

    /// English pages showing the TorHost default (paper: 805).
    pub fn torhost_count(&self) -> usize {
        self.classified.iter().filter(|p| p.torhost_default).count()
    }

    /// Fig. 2: topic histogram over English, non-TorHost pages, as
    /// (topic, count, percent) in [`Topic::ALL`] order.
    pub fn fig2_rows(&self) -> Vec<(Topic, u32, f64)> {
        let mut counts: HashMap<Topic, u32> = HashMap::new();
        let mut total = 0u32;
        for p in &self.classified {
            if let Some(t) = p.topic {
                *counts.entry(t).or_insert(0) += 1;
                total += 1;
            }
        }
        Topic::ALL
            .iter()
            .map(|&t| {
                let c = *counts.get(&t).unwrap_or(&0);
                let pct = if total == 0 {
                    0.0
                } else {
                    100.0 * f64::from(c) / f64::from(total)
                };
                (t, c, pct)
            })
            .collect()
    }

    /// Number of pages that entered topic classification (paper: 1,813).
    pub fn topic_classified_count(&self) -> usize {
        self.classified.iter().filter(|p| p.topic.is_some()).count()
    }
}

/// The classifier pair every crawler uses. Both models are pure
/// functions of the compiled-in lexicons and fixed seeds, so the first
/// crawler of a process trains them and every later one shares them.
static MODELS: LazyLock<(LanguageDetector, TopicClassifier)> = LazyLock::new(|| {
    (
        LanguageDetector::train_default(),
        TopicClassifier::train_default(),
    )
});

/// The crawler: fetches every destination, applies the funnel, runs
/// the classifiers.
#[derive(Debug)]
pub struct Crawler {
    detector: &'static LanguageDetector,
    classifier: &'static TopicClassifier,
    config: CrawlConfig,
}

impl Default for Crawler {
    fn default() -> Self {
        Crawler {
            detector: &MODELS.0,
            classifier: &MODELS.1,
            config: CrawlConfig::default(),
        }
    }
}

impl Crawler {
    /// Creates a crawler with the process's trained classifiers and the
    /// fault-free default config.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a crawler with an explicit adversity config.
    pub fn with_config(config: CrawlConfig) -> Self {
        Crawler {
            config,
            ..Crawler::default()
        }
    }

    /// Runs the crawl over the scan's destinations.
    pub fn run(&self, world: &World, destinations: &[(OnionAddress, u16)]) -> CrawlReport {
        self.run_traced(world, destinations).0
    }

    /// Runs the crawl and additionally returns wave accounting (one
    /// [`WaveStats`] each for the fetch and classify waves).
    ///
    /// The crawl has no RNG — flakes are pure hashes of the
    /// destination — so both phases parallelise as plain read-only
    /// waves over [`CrawlConfig::threads`] workers: fetch every
    /// destination, sequentially index port-80/8080 bodies (the mirror
    /// check needs the full fetch set), then funnel and classify every
    /// page. Results merge in destination order, so the report is
    /// byte-identical at any thread count.
    pub fn run_traced(
        &self,
        world: &World,
        destinations: &[(OnionAddress, u16)],
    ) -> (CrawlReport, Vec<WaveStats>) {
        let mut report = CrawlReport {
            attempted: destinations.len(),
            ..CrawlReport::default()
        };
        let pool = WavePool::new(self.config.threads);

        // Fetch wave: which destinations are still open and connect.
        struct Fetched {
            onion: OnionAddress,
            port: u16,
            status: u16,
            body: String,
        }
        enum FetchUnit {
            Unreachable,
            OpenOnly,
            GaveUp { failures: u32 },
            NoPage { attempt: u32 },
            Page { attempt: u32, page: Fetched },
        }
        let (units, fetch_stats) = pool.map(destinations, |_, &(onion, port)| {
            let Some(service) = world.get(onion) else {
                return FetchUnit::Unreachable;
            };
            if !service.alive_at_crawl {
                return FetchUnit::Unreachable;
            }
            if !service.connects_at_crawl {
                return FetchUnit::OpenOnly;
            }
            // Transient connection failures: retry up to the budget,
            // then abandon the destination (the paper's crawl simply
            // lost such pages).
            let budget = self.config.retry_attempts.max(1);
            let mut attempt = 0u32;
            let connected = loop {
                attempt += 1;
                if !connection_flakes(&self.config, onion, port, attempt) {
                    break true;
                }
                if attempt >= budget {
                    break false;
                }
            };
            if !connected {
                return FetchUnit::GaveUp { failures: budget };
            }
            match service.render_page(port) {
                Some(page) => FetchUnit::Page {
                    attempt,
                    page: Fetched {
                        onion,
                        port,
                        status: page.status,
                        body: page.body,
                    },
                },
                None => FetchUnit::NoPage { attempt },
            }
        });

        // Merge in destination order.
        let mut fetched: Vec<Fetched> = Vec::new();
        for unit in units {
            match unit {
                FetchUnit::Unreachable => {}
                FetchUnit::OpenOnly => report.still_open += 1,
                FetchUnit::GaveUp { failures } => {
                    report.still_open += 1;
                    report.transient_failures += u64::from(failures);
                    report.retries += u64::from(failures - 1);
                    report.gave_ups += 1;
                }
                FetchUnit::NoPage { attempt } => {
                    report.still_open += 1;
                    report.transient_failures += u64::from(attempt - 1);
                    report.retries += u64::from(attempt - 1);
                    report.connect_attempts.record(u64::from(attempt));
                }
                FetchUnit::Page { attempt, page } => {
                    report.still_open += 1;
                    report.transient_failures += u64::from(attempt - 1);
                    report.retries += u64::from(attempt - 1);
                    report.connect_attempts.record(u64::from(attempt));
                    report.connected += 1;
                    *report.connected_by_port.entry(page.port).or_insert(0) += 1;
                    fetched.push(page);
                }
            }
        }

        // Index port-80/8080 bodies to detect 443 mirrors — needs the
        // full fetch set, so this stays sequential between the waves.
        let mut http_bodies: HashMap<OnionAddress, &str> = HashMap::new();
        for f in &fetched {
            if f.port == 80 || f.port == 8080 {
                http_bodies.insert(f.onion, &f.body);
            }
        }

        // Funnel + classification wave.
        enum Funnel {
            Error,
            Short { words: usize, ssh: bool },
            Mirror { words: usize },
            Classified { words: usize, page: ClassifiedPage },
        }
        let http_bodies = &http_bodies;
        let (units, classify_stats) = pool.map(&fetched, |_, f| {
            let text = strip_tags(&f.body);
            // 1. HTML-wrapped error messages (and HTTP error statuses).
            if (f.status != 200 && f.status != 0) || text.starts_with("Error") {
                return Funnel::Error;
            }
            // 2. Fewer than 20 words (SSH banners fall in here).
            let words = word_count(&text);
            if words < 20 {
                return Funnel::Short {
                    words,
                    ssh: f.body.starts_with("SSH-"),
                };
            }
            // 3. Port-443 copies of port-80 content.
            if f.port == 443 {
                if let Some(http_body) = http_bodies.get(&f.onion) {
                    if *http_body == f.body {
                        return Funnel::Mirror { words };
                    }
                }
            }
            // Classification.
            let language = self.detector.detect(&text);
            let torhost_default = f.body.contains("TorHost free anonymous hosting");
            let topic = (language == Language::English && !torhost_default)
                .then(|| self.classifier.classify(&text));
            Funnel::Classified {
                words,
                page: ClassifiedPage {
                    onion: f.onion,
                    port: f.port,
                    language,
                    topic,
                    torhost_default,
                    words,
                },
            }
        });

        // Merge in fetch order.
        for unit in units {
            match unit {
                Funnel::Error => report.excluded_errors += 1,
                Funnel::Short { words, ssh } => {
                    report.words_per_page.record(words as u64);
                    report.excluded_short += 1;
                    report.ssh_banners += usize::from(ssh);
                }
                Funnel::Mirror { words } => {
                    report.words_per_page.record(words as u64);
                    report.excluded_mirrors += 1;
                }
                Funnel::Classified { words, page } => {
                    report.words_per_page.record(words as u64);
                    report.classified.push(page);
                }
            }
        }
        (report, vec![fetch_stats, classify_stats])
    }

    /// Classification accuracy against the world's ground truth —
    /// a diagnostic the paper could not compute on live data.
    pub fn evaluate_against_truth(&self, world: &World, report: &CrawlReport) -> (f64, f64) {
        let mut lang_ok = 0u32;
        let mut lang_n = 0u32;
        let mut topic_ok = 0u32;
        let mut topic_n = 0u32;
        for p in &report.classified {
            let Some(s) = world.get(p.onion) else {
                continue;
            };
            if !matches!(s.role, hs_world::Role::Web) {
                continue;
            }
            if !(s.web.torhost_default || s.web.short_page || s.web.error_page) {
                lang_n += 1;
                if s.web.language == p.language {
                    lang_ok += 1;
                }
                if let Some(t) = p.topic {
                    topic_n += 1;
                    if s.web.topic == t {
                        topic_ok += 1;
                    }
                }
            }
        }
        (
            if lang_n == 0 {
                0.0
            } else {
                f64::from(lang_ok) / f64::from(lang_n)
            },
            if topic_n == 0 {
                0.0
            } else {
                f64::from(topic_ok) / f64::from(topic_n)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_world::WorldConfig;

    fn crawl_world(scale: f64) -> (World, CrawlReport, Crawler) {
        let world = World::generate(WorldConfig { seed: 11, scale });
        // Destinations: every open non-55080 port of every service (a
        // perfect-coverage scan, adequate for funnel testing).
        let destinations: Vec<(OnionAddress, u16)> = world
            .services()
            .iter()
            .flat_map(|s| s.open_ports().into_iter().map(move |p| (s.onion, p)))
            .filter(|&(_, p)| p != hs_world::service::SKYNET_PORT)
            .collect();
        let crawler = Crawler::new();
        let report = crawler.run(&world, &destinations);
        (world, report, crawler)
    }

    #[test]
    fn shared_models_score_pages_as_freshly_trained_ones() {
        let world = World::generate(WorldConfig {
            seed: 5,
            scale: 0.02,
        });
        let texts: Vec<String> = world
            .services()
            .iter()
            .filter_map(|s| s.render_page(80))
            .map(|page| strip_tags(&page.body))
            .filter(|text| word_count(text) >= 20)
            .take(12)
            .collect();
        assert!(texts.len() >= 6, "only {} pages", texts.len());
        let (detector, classifier) = (
            LanguageDetector::train_default(),
            TopicClassifier::train_default(),
        );
        let shared = Crawler::new();
        for text in &texts {
            assert_eq!(shared.detector.scores(text), detector.scores(text));
            assert_eq!(shared.classifier.scores(text), classifier.scores(text));
        }
        assert!(
            std::ptr::eq(shared.detector, Crawler::new().detector),
            "one training per process"
        );
    }

    #[test]
    fn funnel_accounting_is_exact() {
        let (_, r, _) = crawl_world(0.05);
        assert_eq!(
            r.connected,
            r.excluded_errors + r.excluded_short + r.excluded_mirrors + r.classified.len()
        );
        assert!(r.still_open <= r.attempted);
        assert!(r.connected <= r.still_open);
    }

    #[test]
    fn table1_is_dominated_by_port_80() {
        let (_, r, _) = crawl_world(0.05);
        let rows = r.table1_rows();
        assert_eq!(rows[0].0, "80");
        assert!(rows[0].1 > rows[1].1, "{rows:?}");
    }

    #[test]
    fn ssh_banners_inside_short_exclusions() {
        let (_, r, _) = crawl_world(0.05);
        assert!(r.ssh_banners > 0);
        assert!(r.ssh_banners <= r.excluded_short);
    }

    #[test]
    fn mirrors_excluded() {
        let (_, r, _) = crawl_world(0.05);
        assert!(r.excluded_mirrors > 0);
        // No classified page is a 443 copy of its port-80 twin.
        for p in r.classified.iter().filter(|p| p.port == 443) {
            assert!(!r
                .classified
                .iter()
                .any(|q| q.port == 80 && q.onion == p.onion && q.words == p.words));
        }
    }

    #[test]
    fn english_share_near_84_percent() {
        let (_, r, _) = crawl_world(0.1);
        let share = r.english_count() as f64 / r.classified.len() as f64;
        assert!((0.78..0.92).contains(&share), "share {share}");
    }

    #[test]
    fn torhost_defaults_detected() {
        let (world, r, _) = crawl_world(0.1);
        let truth = world
            .services()
            .iter()
            .filter(|s| s.web.torhost_default && s.alive_at_crawl && s.connects_at_crawl)
            .count();
        let measured = r.torhost_count();
        assert!(measured > 0);
        let diff = (measured as i64 - truth as i64).abs();
        assert!(
            diff <= truth as i64 / 10 + 2,
            "measured {measured}, truth {truth}"
        );
    }

    #[test]
    fn fig2_shape_adult_and_drugs_lead() {
        let (_, r, _) = crawl_world(0.15);
        let rows = r.fig2_rows();
        let pct = |t: Topic| rows.iter().find(|(x, _, _)| *x == t).unwrap().2;
        assert!(pct(Topic::Adult) > 10.0, "adult {}", pct(Topic::Adult));
        assert!(pct(Topic::Drugs) > 8.0, "drugs {}", pct(Topic::Drugs));
        assert!(pct(Topic::Sports) < pct(Topic::Adult));
        let total: f64 = rows.iter().map(|(_, _, p)| p).sum();
        assert!((99.0..101.0).contains(&total));
    }

    #[test]
    fn classifier_accuracy_reasonable() {
        let (world, r, crawler) = crawl_world(0.1);
        let (lang_acc, topic_acc) = crawler.evaluate_against_truth(&world, &r);
        assert!(lang_acc > 0.85, "language accuracy {lang_acc}");
        assert!(topic_acc > 0.75, "topic accuracy {topic_acc}");
    }

    fn destinations_of(world: &World) -> Vec<(OnionAddress, u16)> {
        world
            .services()
            .iter()
            .flat_map(|s| s.open_ports().into_iter().map(move |p| (s.onion, p)))
            .filter(|&(_, p)| p != hs_world::service::SKYNET_PORT)
            .collect()
    }

    #[test]
    fn zero_rate_config_is_byte_identical() {
        let world = World::generate(WorldConfig {
            seed: 11,
            scale: 0.05,
        });
        let destinations = destinations_of(&world);
        let plain = Crawler::new().run(&world, &destinations);
        let zero = Crawler::with_config(CrawlConfig {
            transient_failure_rate: 0.0,
            seed: 0xfeed,
            retry_attempts: 5,
            threads: 1,
        })
        .run(&world, &destinations);
        assert_eq!(format!("{plain:?}"), format!("{zero:?}"));
        assert_eq!(plain.transient_failures, 0);
        assert_eq!(plain.gave_ups, 0);
    }

    #[test]
    fn total_flake_rate_abandons_every_destination() {
        let world = World::generate(WorldConfig {
            seed: 11,
            scale: 0.05,
        });
        let destinations = destinations_of(&world);
        let r = Crawler::with_config(CrawlConfig {
            transient_failure_rate: 1.0,
            seed: 3,
            retry_attempts: 3,
            threads: 1,
        })
        .run(&world, &destinations);
        assert_eq!(r.connected, 0);
        assert!(r.gave_ups > 0);
        assert_eq!(r.transient_failures, r.gave_ups * 3);
        assert_eq!(r.retries, r.gave_ups * 2);
        assert!(r.classified.is_empty());
    }

    #[test]
    fn moderate_flake_rate_recovers_and_accounts() {
        let world = World::generate(WorldConfig {
            seed: 11,
            scale: 0.05,
        });
        let destinations = destinations_of(&world);
        let r = Crawler::with_config(CrawlConfig {
            transient_failure_rate: 0.2,
            seed: 3,
            retry_attempts: 3,
            threads: 1,
        })
        .run(&world, &destinations);
        assert!(r.transient_failures > 0);
        assert!(r.retries > 0, "first-attempt failures must be retried");
        assert!(
            !r.classified.is_empty(),
            "the crawl still classifies through 20% flake"
        );
        // Funnel accounting still exact: gave-ups never reach connect.
        assert_eq!(
            r.connected,
            r.excluded_errors + r.excluded_short + r.excluded_mirrors + r.classified.len()
        );
        // Determinism: same config, same report.
        let again = Crawler::with_config(CrawlConfig {
            transient_failure_rate: 0.2,
            seed: 3,
            retry_attempts: 3,
            threads: 1,
        })
        .run(&world, &destinations);
        assert_eq!(format!("{r:?}"), format!("{again:?}"));
    }

    #[test]
    fn crawl_is_thread_invariant() {
        // Reports (including the flaky-retry accounting) must be
        // byte-identical at any wave width.
        let world = World::generate(WorldConfig {
            seed: 11,
            scale: 0.05,
        });
        let destinations = destinations_of(&world);
        let at = |threads: usize| {
            let (report, waves) = Crawler::with_config(CrawlConfig {
                transient_failure_rate: 0.2,
                seed: 3,
                retry_attempts: 3,
                threads,
            })
            .run_traced(&world, &destinations);
            assert_eq!(waves.len(), 2, "fetch + classify waves");
            assert_eq!(waves[0].items(), destinations.len());
            format!("{report:?}")
        };
        let one = at(1);
        assert_eq!(one, at(2));
        assert_eq!(one, at(8));
    }
}
