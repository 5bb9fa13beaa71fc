//! The world generator: a synthetic hidden-service population
//! calibrated to every marginal the paper reports, pluggable into
//! `tor-sim` as a [`ServiceBackend`].

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use onion_crypto::onion::OnionAddress;
use onion_crypto::sha1::Sha1;
use tor_sim::clock::SimTime;
use tor_sim::network::Network;
use tor_sim::service::{PortReply, ServiceBackend};

use crate::calib::{self, scaled};
use crate::entities::{self, EntityKind, PlantedEntity};
use crate::service::{CertKind, Role, Service, WebProfile, SKYNET_PORT};
use crate::taxonomy::{Language, Topic};

/// Configuration of a generated world.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Population scale relative to the paper (1.0 = 39,824 addresses).
    pub scale: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x2013_0204,
            scale: 1.0,
        }
    }
}

impl WorldConfig {
    /// Full paper-scale world.
    pub fn paper_scale() -> Self {
        Self::default()
    }

    /// A small world for tests (~2 % of paper scale).
    pub fn test_scale() -> Self {
        WorldConfig {
            seed: 0x2013_0204,
            scale: 0.02,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < scale <= 1.0`.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        self.scale = scale;
        self
    }
}

/// The synthetic hidden-service world.
///
/// # Examples
///
/// ```
/// use hs_world::world::{World, WorldConfig};
///
/// let world = World::generate(WorldConfig::test_scale());
/// assert!(world.services().len() > 500);
/// let skynet = world.services().iter().filter(|s| s.is_skynet_bot()).count();
/// // Skynet bots are the majority of port-bearing services, as in Fig. 1.
/// assert!(skynet > world.services().len() / 5);
/// ```
#[derive(Clone, Debug)]
pub struct World {
    config: WorldConfig,
    services: Vec<Service>,
    by_onion: HashMap<OnionAddress, u32>,
}

impl World {
    /// A world with no services at all. `generate` floors every
    /// population at one, so this is the only way to express the
    /// degenerate every-publish-gone scenario — used to pin
    /// divide-by-zero guards in downstream statistics.
    pub fn empty() -> Self {
        World {
            config: WorldConfig {
                seed: 0,
                scale: 1.0,
            },
            services: Vec::new(),
            by_onion: HashMap::new(),
        }
    }

    /// Generates a world from `config`.
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let sc = config.scale;
        let mut services: Vec<Service> = Vec::new();
        let mut used: HashMap<OnionAddress, ()> = HashMap::new();

        // --- 1. Planted Table II entities -------------------------------
        // Request rates scale with the world so measured counts are
        // `paper x scale` while ranks and ratios are preserved.
        let plant = |e: &PlantedEntity,
                     services: &mut Vec<Service>,
                     used: &mut HashMap<OnionAddress, ()>| {
            let onion: OnionAddress = e
                .onion_label
                .parse()
                .expect("planted labels are valid base32");
            used.insert(onion, ());
            let (role, web) = match e.kind {
                EntityKind::Goldnet { group } => (Role::GoldnetCc { group }, WebProfile::default()),
                EntityKind::SkynetCc | EntityKind::BitcoinMiner => {
                    (Role::SkynetCc, WebProfile::default())
                }
                EntityKind::Unknown => (
                    Role::Web,
                    WebProfile {
                        short_page: true,
                        ..WebProfile::default()
                    },
                ),
                EntityKind::Web(topic) => (
                    Role::Web,
                    WebProfile {
                        topic,
                        ..WebProfile::default()
                    },
                ),
            };
            services.push(Service {
                index: services.len() as u32,
                onion,
                role,
                web,
                popularity: f64::from(e.requests_2h) * sc,
                planted: Some(e.name),
                daily_availability: 0.995,
                alive_at_crawl: true,
                connects_at_crawl: true,
            });
        };
        for e in entities::PLANTED {
            plant(e, &mut services, &mut used);
        }
        plant(&entities::PUBLIC_POOL_SLUSH, &mut services, &mut used);
        plant(&entities::PUBLIC_POOL_ELIGIUS, &mut services, &mut used);

        let planted_goldnet = services
            .iter()
            .filter(|s| matches!(s.role, Role::GoldnetCc { .. }))
            .count() as u32;
        let planted_web = services
            .iter()
            .filter(|s| matches!(s.role, Role::Web))
            .count() as u32;

        // --- 2. Population quotas ---------------------------------------
        let n_skynet = scaled(calib::SKYNET_BOTS, sc);
        let n_web80 = scaled(calib::PORT_80, sc).saturating_sub(planted_goldnet + planted_web);
        let n_https_only = scaled(calib::PORT_443 - calib::HTTPS_MIRRORS, sc);
        let n_ssh = scaled(calib::PORT_22, sc);
        let n_torchat = scaled(calib::PORT_TORCHAT, sc);
        let n_4050 = scaled(calib::PORT_4050, sc);
        let n_irc = scaled(calib::PORT_IRC, sc);
        let n_other = scaled(calib::PORT_OTHER, sc);
        let n_noports = scaled(
            calib::WITH_DESCRIPTORS
                - calib::SKYNET_BOTS
                - calib::PORT_80
                - (calib::PORT_443 - calib::HTTPS_MIRRORS)
                - calib::PORT_22
                - calib::PORT_TORCHAT
                - calib::PORT_4050
                - calib::PORT_IRC
                - calib::PORT_OTHER,
            sc,
        );
        let n_dark = scaled(calib::TOTAL_ADDRESSES - calib::WITH_DESCRIPTORS, sc);

        let fresh_onion = |rng: &mut StdRng, used: &mut HashMap<OnionAddress, ()>| loop {
            let mut key = [0u8; 32];
            rng.fill(&mut key[..]);
            let onion = OnionAddress::from_pubkey(&key);
            if used.insert(onion, ()).is_none() {
                return onion;
            }
        };

        let push = |role: Role,
                    web: WebProfile,
                    rng: &mut StdRng,
                    used: &mut HashMap<OnionAddress, ()>,
                    services: &mut Vec<Service>| {
            let onion = fresh_onion(rng, used);
            // Mixture tuned so the multi-day scan concludes ~87 % of its
            // port probes, the coverage the paper reports.
            let avail = if rng.random::<f64>() < 0.80 {
                0.97
            } else {
                0.60
            };
            services.push(Service {
                index: services.len() as u32,
                onion,
                role,
                web,
                popularity: 0.0,
                planted: None,
                daily_availability: avail,
                alive_at_crawl: false,
                connects_at_crawl: false,
            });
        };

        for _ in 0..n_skynet {
            push(
                Role::SkynetBot,
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        let web_start = services.len();
        for _ in 0..n_web80 {
            push(
                Role::Web,
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        let https_only_start = services.len();
        for _ in 0..n_https_only {
            push(
                Role::Web,
                WebProfile {
                    https_only: true,
                    ..WebProfile::default()
                },
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        let web_end = services.len();
        for _ in 0..n_ssh {
            push(
                Role::SshHost,
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        for _ in 0..n_torchat {
            push(
                Role::TorChat,
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        for _ in 0..n_4050 {
            push(
                Role::CustomPort(crate::service::PORT_4050),
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        for _ in 0..n_irc {
            push(
                Role::Irc,
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        // The long tail of unusual ports: ~488 distinct port numbers so
        // the scan sees `UNIQUE_PORTS` unique ports in total.
        let unique_other = scaled(calib::UNIQUE_PORTS - 7, sc).max(1);
        for i in 0..n_other {
            let slot = i % unique_other;
            // Spread over 1024..49151 avoiding the named ports.
            let port = 1024 + ((u64::from(slot) * 47 + 11) % 48_000) as u16;
            let port = match port {
                4050 | 6667 | 8080 | 11009 => port + 1,
                _ => port,
            };
            push(
                Role::CustomPort(port),
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        for _ in 0..n_noports {
            push(
                Role::NoOpenPorts,
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }
        for _ in 0..n_dark {
            push(
                Role::Dark,
                WebProfile::default(),
                &mut rng,
                &mut used,
                &mut services,
            );
        }

        // --- 3. Web attribute quotas ------------------------------------
        Self::assign_web_attributes(
            &mut services,
            web_start..https_only_start,
            https_only_start..web_end,
            sc,
            &mut rng,
        );

        // --- 4. Crawl-time survival -------------------------------------
        Self::assign_crawl_survival(&mut services, &mut rng);

        // --- 5. Popularity tail & phantom pool --------------------------
        Self::assign_popularity(&mut services, sc, &mut rng);

        let by_onion = services.iter().map(|s| (s.onion, s.index)).collect();
        World {
            config,
            services,
            by_onion,
        }
    }

    /// Assigns TorHost defaults, short/error pages, languages, topics,
    /// mirrors and certificates within the web population.
    fn assign_web_attributes(
        services: &mut [Service],
        web80: std::ops::Range<usize>,
        https_only: std::ops::Range<usize>,
        sc: f64,
        rng: &mut StdRng,
    ) {
        let mut idx: Vec<usize> = web80.clone().collect();
        idx.shuffle(rng);

        let q_torhost = scaled(calib::TORHOST_DEFAULT_PAGES, sc) as usize;
        let q_short = scaled(820, sc) as usize; // ≈ the 799 short HTML pages + slack
        let q_error = scaled(calib::EXCLUDED_ERROR_PAGES - calib::GOLDNET_FRONTENDS, sc) as usize;
        let q_8080 = scaled(calib::TABLE1_PORT_8080, sc) as usize;
        let q_mirror = scaled(calib::HTTPS_MIRRORS, sc) as usize;

        let mut cursor = 0usize;
        let take = |n: usize, cursor: &mut usize, idx: &Vec<usize>| {
            let s = *cursor;
            let e = (s + n).min(idx.len());
            *cursor = e;
            idx[s..e].to_vec()
        };

        for i in take(q_torhost, &mut cursor, &idx) {
            services[i].web.torhost_default = true;
        }
        for i in take(q_short, &mut cursor, &idx) {
            services[i].web.short_page = true;
        }
        for i in take(q_error, &mut cursor, &idx) {
            services[i].web.error_page = true;
        }
        for i in take(q_8080, &mut cursor, &idx) {
            services[i].web.on_8080 = true;
        }

        // Mirrors can overlap with any attribute except 8080: assign on
        // a fresh shuffle of the web80 population.
        let mut mirror_idx: Vec<usize> = web80
            .clone()
            .filter(|&i| !services[i].web.on_8080)
            .collect();
        mirror_idx.shuffle(rng);
        for &i in mirror_idx.iter().take(q_mirror) {
            services[i].web.https = true;
            services[i].web.https_mirror = true;
        }

        // Languages and topics for every topical (non-default) page,
        // including HTTPS-only services. Shuffled so language/topic
        // assignment does not correlate with per-role crawl survival.
        let mut topical: Vec<usize> = web80
            .clone()
            .chain(https_only.clone())
            .filter(|&i| {
                let w = &services[i].web;
                !(w.torhost_default || w.short_page || w.error_page)
            })
            .collect();
        topical.shuffle(rng);
        // The paper's 84 % English is measured over *all* classified
        // pages — including the TorHost default pages, which are
        // English boilerplate. The topical population therefore carries
        // proportionally more non-English pages.
        let non_en_permille = 1_000 - Language::English.paper_permille();
        let non_en_target = (((topical.len() + q_torhost) as f64) * f64::from(non_en_permille)
            / 1_000.0)
            .round() as usize;
        let non_en_target = non_en_target.min(topical.len());
        let non_en_weights: Vec<(Language, u32)> = Language::ALL
            .iter()
            .filter(|&&l| l != Language::English)
            .map(|&l| (l, l.paper_permille()))
            .collect();
        let non_en_labels = quota_list(non_en_target, &non_en_weights);
        for (k, &i) in topical.iter().enumerate() {
            services[i].web.language = if k < non_en_target {
                non_en_labels[k]
            } else {
                Language::English
            };
        }
        // Topics are assigned over an independently shuffled order so
        // topic blocks do not line up with the language blocks (which
        // would, e.g., make every Adult page non-English).
        let mut topical_for_topics = topical.clone();
        topical_for_topics.shuffle(rng);
        let topic_quota = quota_list(
            topical_for_topics.len(),
            &Topic::ALL.map(|t| (t, t.paper_percent())),
        );
        for (k, &i) in topical_for_topics.iter().enumerate() {
            services[i].web.topic = topic_quota[k];
        }

        // Certificates over everything serving 443.
        let mut cert_idx: Vec<usize> = web80
            .chain(https_only)
            .filter(|&i| services[i].web.https || services[i].web.https_only)
            .collect();
        cert_idx.shuffle(rng);
        let q_torhost_cn = scaled(calib::CERT_TORHOST_CN, sc) as usize;
        let q_mismatch = scaled(
            calib::CERT_SELF_SIGNED_MISMATCH - calib::CERT_TORHOST_CN,
            sc,
        ) as usize;
        // At minuscule scales the clearnet-CN population would round
        // down to a single service, whose one scheduled 443 probe can
        // miss through churn; floor it so the cert survey measures a
        // population rather than one Bernoulli trial. Assigned first in
        // the shuffled order so the quota is never truncated when few
        // services serve HTTPS (positions carry no meaning after the
        // shuffle).
        let q_clearnet = (scaled(calib::CERT_CLEARNET_DNS, sc) as usize).max(3);
        for (k, &i) in cert_idx.iter().enumerate() {
            services[i].web.cert = if k < q_clearnet {
                CertKind::ClearnetDns
            } else if k < q_clearnet + q_torhost_cn {
                CertKind::TorHostCn
            } else if k < q_clearnet + q_torhost_cn + q_mismatch {
                CertKind::SelfSignedMismatch
            } else {
                CertKind::MatchingOnion
            };
        }
    }

    /// Samples per-role crawl survival: whether the destination is still
    /// open two months later and whether the connection completes.
    fn assign_crawl_survival(services: &mut [Service], rng: &mut StdRng) {
        for s in services.iter_mut() {
            if s.planted.is_some() {
                continue; // planted entities stay reachable
            }
            let (p_open, p_connect) = match s.role {
                Role::Web if s.web.https_only => (0.75, 0.935),
                Role::Web => (0.97, 0.958),
                Role::SshHost => (0.93, 0.95),
                Role::TorChat | Role::Irc | Role::CustomPort(_) => (0.35, 0.855),
                Role::GoldnetCc { .. } | Role::SkynetCc => (1.0, 1.0),
                Role::SkynetBot | Role::NoOpenPorts | Role::Dark => (0.0, 0.0),
            };
            s.alive_at_crawl = rng.random::<f64>() < p_open;
            s.connects_at_crawl = s.alive_at_crawl && rng.random::<f64>() < p_connect;
        }
    }

    /// Gives the popularity tail to non-dark services and phantom
    /// request weights to dark addresses.
    fn assign_popularity(services: &mut [Service], sc: f64, rng: &mut StdRng) {
        // Tail: after the ~40 planted ranks, weight = 57000 / rank^1.37,
        // the power law fitted through Table II's anchor rows
        // (rank 34 → 453, 157 → 55, 250 → 30, 547 → 10).
        let n_requested = scaled(calib::RESOLVED_ONIONS, sc) as usize;
        let mut candidates: Vec<usize> = services
            .iter()
            .enumerate()
            .filter(|(_, s)| s.planted.is_none() && s.publishes_descriptors())
            .map(|(i, _)| i)
            .collect();
        candidates.shuffle(rng);
        let planted_count = services.iter().filter(|s| s.planted.is_some()).count();
        for (k, &i) in candidates
            .iter()
            .take(n_requested.saturating_sub(planted_count))
            .enumerate()
        {
            let rank = (planted_count + k + 1) as f64;
            services[i].popularity = 57_000.0 * sc / rank.powf(1.37);
        }

        // Phantom pool: dead C&C addresses polled heavily by orphaned
        // bots, plus a light tail of stale addresses recrawled by search
        // engines. Rates are calibrated so the share of requests
        // *observed at the harvesting HSDirs* is ≈ 80 %: a fetch for a
        // never-published descriptor probes all six responsible dirs
        // before giving up, while a successful fetch stops at the first
        // hit, so phantom fetches are over-represented in the logs by
        // roughly 6–10×, exactly as in the live measurement.
        let mut dark: Vec<usize> = services
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.role, Role::Dark))
            .map(|(i, _)| i)
            .collect();
        dark.shuffle(rng);
        let n_heavy = scaled(250, sc) as usize;
        let n_light = scaled(11_250, sc) as usize;
        for (k, &i) in dark.iter().enumerate() {
            services[i].popularity = if k < n_heavy {
                150.0 + rng.random::<f64>() * 60.0
            } else if k < n_heavy + n_light {
                // Exponential with mean 1.5 fetches per window.
                -1.5 * rng.random::<f64>().max(1e-12).ln()
            } else {
                0.0
            };
        }
    }

    /// The configuration the world was generated from.
    pub fn config(&self) -> WorldConfig {
        self.config
    }

    /// All services.
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// Looks up a service by onion address.
    pub fn get(&self, onion: OnionAddress) -> Option<&Service> {
        self.by_onion
            .get(&onion)
            .map(|&i| &self.services[i as usize])
    }

    /// The most popular Goldnet command-and-control front end — the
    /// paper's Sec. VI client-deanonymisation target. Resolved from the
    /// generated world rather than hard-coded so an attack stage can
    /// never silently target a service this world does not contain.
    pub fn primary_goldnet_frontend(&self) -> Option<&Service> {
        self.services
            .iter()
            .filter(|s| matches!(s.role, Role::GoldnetCc { .. }))
            .max_by(|a, b| {
                a.popularity
                    .partial_cmp(&b.popularity)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Deterministic tie-break on the stable index.
                    .then(b.index.cmp(&a.index))
            })
    }

    /// Registers every descriptor-publishing service with the network.
    pub fn register_all(&self, net: &mut Network) {
        for s in &self.services {
            if s.publishes_descriptors() {
                net.register_service(s.onion, true);
            }
        }
    }

    /// Applies daily liveness churn to registered services.
    pub fn apply_churn(&self, net: &mut Network, now: SimTime) {
        for s in &self.services {
            if s.publishes_descriptors() {
                net.set_service_online(s.onion, self.service_online(s, now));
            }
        }
    }

    fn service_online(&self, s: &Service, now: SimTime) -> bool {
        if !s.publishes_descriptors() {
            return false;
        }
        let u = stable_unit(self.config.seed, s.onion, now.days());
        u < s.daily_availability
    }

    /// The service behind `onion` if it is online at `now`: a
    /// connection reaches nothing else.
    fn reachable(&self, onion: OnionAddress, now: SimTime) -> Option<&Service> {
        self.get(onion).filter(|s| self.service_online(s, now))
    }

    /// The reply of the reachable service `s`, listening on `open`, to
    /// a connection on `port`.
    fn port_reply(&self, s: &Service, open: &[u16], port: u16) -> PortReply {
        // Persistent per-destination timeouts (~3 % of destinations), as
        // the paper reports.
        if stable_unit(self.config.seed ^ 0x7107, s.onion, u64::from(port)) < 0.03 {
            return PortReply::Timeout;
        }
        if port == SKYNET_PORT && s.is_skynet_bot() {
            return PortReply::AbnormalClose;
        }
        if open.contains(&port) {
            PortReply::Open
        } else {
            PortReply::Closed
        }
    }
}

impl ServiceBackend for World {
    fn connect(&self, onion: OnionAddress, port: u16, now: SimTime) -> PortReply {
        match self.reachable(onion, now) {
            Some(s) => self.port_reply(s, &s.open_ports(), port),
            None => PortReply::Timeout,
        }
    }

    /// Looks the service up, decides its liveness and lists its open
    /// ports once for all of `ports`.
    fn connect_ports(&self, onion: OnionAddress, ports: &[u16], now: SimTime) -> Vec<PortReply> {
        let Some(s) = self.reachable(onion, now) else {
            return vec![PortReply::Timeout; ports.len()];
        };
        let open = s.open_ports();
        ports
            .iter()
            .map(|&port| self.port_reply(s, &open, port))
            .collect()
    }

    fn is_online(&self, onion: OnionAddress, now: SimTime) -> bool {
        self.get(onion)
            .map(|s| self.service_online(s, now))
            .unwrap_or(false)
    }
}

/// Splits `n` slots among weighted labels, largest-remainder style,
/// returning a label per slot.
fn quota_list<T: Copy>(n: usize, weights: &[(T, u32)]) -> Vec<T> {
    let total: u64 = weights.iter().map(|(_, w)| u64::from(*w)).sum();
    let mut out = Vec::with_capacity(n);
    if total == 0 || n == 0 {
        return out;
    }
    let mut acc = 0u64;
    let mut filled = 0usize;
    for (label, w) in weights {
        acc += u64::from(*w);
        let target = (acc * n as u64 / total) as usize;
        while filled < target {
            out.push(*label);
            filled += 1;
        }
    }
    while out.len() < n {
        out.push(weights[0].0);
    }
    out
}

/// Deterministic hash of (seed, onion, salt) to a unit float.
fn stable_unit(seed: u64, onion: OnionAddress, salt: u64) -> f64 {
    let mut h = Sha1::new();
    h.update(seed.to_be_bytes());
    h.update(onion.permanent_id().as_bytes());
    h.update(salt.to_be_bytes());
    let d = h.finalize();
    let b = d.as_bytes();
    let v = u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    (v >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(WorldConfig {
            seed: 99,
            scale: 0.05,
        })
    }

    #[test]
    fn population_counts_scale() {
        let w = small_world();
        let total = w.services().len() as f64;
        assert!((1_800.0..2_300.0).contains(&total), "total {total}");
        let skynet = w.services().iter().filter(|s| s.is_skynet_bot()).count();
        let expected = scaled(calib::SKYNET_BOTS, 0.05) as usize;
        assert_eq!(skynet, expected);
    }

    #[test]
    fn planted_entities_present() {
        let w = small_world();
        let silkroad: OnionAddress = "silkroadvb5piz3r".parse().unwrap();
        let s = w.get(silkroad).expect("silk road planted");
        assert_eq!(s.planted, Some("SilkRoad"));
        assert!((s.popularity - 1_175.0 * 0.05).abs() < 1e-9);
        let goldnet = w
            .services()
            .iter()
            .filter(|s| matches!(s.role, Role::GoldnetCc { .. }))
            .count();
        assert_eq!(goldnet as u32, calib::GOLDNET_FRONTENDS);
    }

    #[test]
    fn onions_unique() {
        let w = small_world();
        let mut onions: Vec<_> = w.services().iter().map(|s| s.onion).collect();
        let n = onions.len();
        onions.sort();
        onions.dedup();
        assert_eq!(onions.len(), n);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig {
            seed: 7,
            scale: 0.02,
        });
        let b = World::generate(WorldConfig {
            seed: 7,
            scale: 0.02,
        });
        assert_eq!(a.services().len(), b.services().len());
        for (x, y) in a.services().iter().zip(b.services()) {
            assert_eq!(x.onion, y.onion);
            assert_eq!(x.role, y.role);
            assert!((x.popularity - y.popularity).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn language_split_is_mostly_english() {
        let w = World::generate(WorldConfig {
            seed: 7,
            scale: 0.2,
        });
        let topical: Vec<_> = w
            .services()
            .iter()
            .filter(|s| {
                matches!(s.role, Role::Web)
                    && !(s.web.torhost_default || s.web.short_page || s.web.error_page)
            })
            .collect();
        let english = topical
            .iter()
            .filter(|s| s.web.language == Language::English)
            .count();
        // Topical pages are ~79 % English; together with the all-English
        // TorHost defaults the *classified* population lands at the
        // paper's 84 %.
        let share = english as f64 / topical.len() as f64;
        assert!((0.74..0.84).contains(&share), "english share {share}");
    }

    #[test]
    fn backend_port_semantics() {
        let w = small_world();
        let now = SimTime::from_ymd(2013, 2, 14);
        let bot = w.services().iter().find(|s| s.is_skynet_bot()).unwrap();
        // A bot answers 55080 abnormally (unless this one is in the 3 %
        // persistent-timeout set or offline today — pick one that is not).
        let bot = w
            .services()
            .iter()
            .filter(|s| s.is_skynet_bot())
            .find(|s| w.connect(s.onion, SKYNET_PORT, now) == PortReply::AbnormalClose)
            .unwrap_or(bot);
        assert_eq!(
            w.connect(bot.onion, SKYNET_PORT, now),
            PortReply::AbnormalClose
        );

        let ghost = OnionAddress::from_pubkey(b"not in world");
        assert_eq!(w.connect(ghost, 80, now), PortReply::Timeout);
    }

    #[test]
    fn connect_ports_equals_connect_per_port() {
        let w = small_world();
        let now = SimTime::from_ymd(2013, 2, 14);
        let online = |s: &&Service| w.is_online(s.onion, now);
        let pick = |pred: &dyn Fn(&&Service) -> bool| w.services().iter().find(pred).unwrap().onion;
        let onions = [
            pick(&|s| online(s) && !s.open_ports().is_empty()),
            pick(&|s| !online(s)),
            pick(&|s| online(s) && s.is_skynet_bot()),
            pick(&|s| online(s) && matches!(s.role, Role::SkynetCc)),
            OnionAddress::from_pubkey(b"not in world"),
        ];
        // Every port any service listens on, the Skynet port, decoys.
        let mut ports: Vec<u16> = w.services().iter().flat_map(|s| s.open_ports()).collect();
        ports.extend([SKYNET_PORT, 22, 6667, 80, 1, 65535]);
        ports.sort_unstable();
        ports.dedup();
        for onion in onions {
            let each: Vec<PortReply> = ports.iter().map(|&p| w.connect(onion, p, now)).collect();
            assert_eq!(w.connect_ports(onion, &ports, now), each, "{onion}");
            assert_eq!(w.connect_ports(onion, &[], now), Vec::new());
        }
        let replies = w.connect_ports(onions[0], &ports, now);
        assert!(replies.contains(&PortReply::Open) && replies.contains(&PortReply::Closed));
        assert!(w
            .connect_ports(onions[1], &ports, now)
            .iter()
            .all(|&r| r == PortReply::Timeout));
    }

    #[test]
    fn web_service_serves_http() {
        let w = small_world();
        let now = SimTime::from_ymd(2013, 2, 14);
        let ok = w
            .services()
            .iter()
            .filter(|s| matches!(s.role, Role::Web) && !s.web.https_only && !s.web.on_8080)
            .filter(|s| w.connect(s.onion, 80, now) == PortReply::Open)
            .count();
        assert!(ok > 50, "most web services answer on port 80 ({ok})");
    }

    #[test]
    fn phantom_pool_exists() {
        let w = small_world();
        let heavy = w
            .services()
            .iter()
            .filter(|s| matches!(s.role, Role::Dark) && s.popularity > 100.0)
            .count();
        assert_eq!(heavy, scaled(250, 0.05) as usize);
        let requested_dark = w
            .services()
            .iter()
            .filter(|s| matches!(s.role, Role::Dark) && s.popularity > 0.0)
            .count();
        assert!(requested_dark > heavy);
    }

    #[test]
    fn quota_list_respects_weights() {
        let q = quota_list(100, &[("a", 80), ("b", 15), ("c", 5)]);
        assert_eq!(q.len(), 100);
        assert_eq!(q.iter().filter(|&&x| x == "a").count(), 80);
        assert_eq!(q.iter().filter(|&&x| x == "b").count(), 15);
        assert_eq!(q.iter().filter(|&&x| x == "c").count(), 5);
    }

    #[test]
    fn churn_keeps_most_services_online() {
        let w = small_world();
        let now = SimTime::from_ymd(2013, 2, 15);
        let publishing: Vec<_> = w
            .services()
            .iter()
            .filter(|s| s.publishes_descriptors())
            .collect();
        let online = publishing
            .iter()
            .filter(|s| w.is_online(s.onion, now))
            .count();
        let share = online as f64 / publishing.len() as f64;
        assert!((0.84..0.95).contains(&share), "online share {share}");
    }
}
