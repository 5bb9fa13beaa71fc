//! The typed artifact store stages read from and write into.
//!
//! The store has one slot per stage, holding the [`StagePayload`] that
//! stage deposited. Payloads are `Arc`-backed and immutable, so one
//! payload can sit in a run's store and in the daemon's stage cache at
//! once: a cache hit installs a pointer and a cache insert hands one
//! over, with no copy of the world either way. Typed accessors
//! (`world()`, `net_setup()`, `popularity()`, …) project into the
//! producing stage's payload. Asking for an artifact whose stage has
//! not run is a *scheduling* bug in the engine, never a recoverable
//! condition, so the plain accessors panic with the producing stage's
//! name; the `try_` variants return that message as an `Err`.
//!
//! Sim stages deposit both their measurement artifact *and* a snapshot
//! of the [`Network`] (and, where relevant, the [`TrafficDriver`])
//! they produced. Downstream sim stages **clone** their input snapshot
//! instead of mutating it, which is what makes `DeanonWindow` and
//! `PortScan` independent siblings of the harvest: each branches its
//! own deterministic timeline, so a selective run reproduces a full
//! run's artifacts byte for byte.

use onion_crypto::onion::OnionAddress;
use tor_sim::network::{GuardObservation, Network};
use tor_sim::relay::RelayId;

use hs_content::{CertSurvey, CrawlReport};
use hs_deanon::GeoMap;
use hs_harvest::HarvestOutcome;
use hs_popularity::{
    BotnetForensics, Ranking, ResolutionReport, SketchSummary, StreamingPopularity, TrafficDriver,
};
use hs_portscan::ScanReport;
use hs_tracking::TrackingAnalysis;
use hs_world::{GeoDb, World};

use super::cache::StagePayload;
use super::stage::StageId;

/// Sec. VI results (assembled by the `Geomap` analysis stage).
#[derive(Clone, Debug)]
pub struct DeanonReport {
    /// The attacked service.
    pub target: OnionAddress,
    /// Unique client IPs deanonymised.
    pub unique_clients: u32,
    /// Analytic per-fetch catch probability.
    pub expected_rate: f64,
    /// Country census of the caught clients (Fig. 3).
    pub geomap: GeoMap,
}

/// Sec. VII results: one analysis per calendar year.
#[derive(Clone, Debug)]
pub struct TrackingReport {
    /// (label, analysis) per year.
    pub years: Vec<(String, TrackingAnalysis)>,
}

/// Raw output of the dedicated Sec. VI deanonymisation window, before
/// the geographic analysis runs.
#[derive(Clone, Debug)]
pub struct DeanonWindowOut {
    /// The Goldnet front end under attack (looked up from the world).
    pub target: OnionAddress,
    /// Signature hits logged at the attacker's guards.
    pub observations: Vec<GuardObservation>,
    /// Analytic per-fetch catch probability at window end.
    pub expected_rate: f64,
}

/// Sec. V outputs, bundled because they share the resolution log.
#[derive(Clone, Debug)]
pub struct PopularityOut {
    /// Descriptor-ID resolution over the harvest request log.
    pub resolution: ResolutionReport,
    /// Table II ranking.
    pub ranking: Ranking,
    /// Goldnet server-status forensics over the top-ranked onions.
    pub forensics: BotnetForensics,
    /// Share of published services ever requested.
    pub requested_published_share: f64,
    /// Sketch-state snapshot when the run used streaming aggregation;
    /// `None` on the exact path.
    pub sketch: Option<SketchSummary>,
}

/// Every artifact a pipeline run can produce: one slot per stage,
/// holding the [`StagePayload`] that stage deposited (or that a cache
/// hit installed). Slots start empty. Filling a slot from the cache,
/// or handing a slot to it, is a pointer clone.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    slots: [Option<StagePayload>; 9],
}

macro_rules! accessor {
    ($(#[$doc:meta])* $name:ident / $try_name:ident: $ty:ty,
     $variant:ident $(. $field:ident)?, $stage:literal) => {
        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics if the producing stage has not run.
        pub fn $name(&self) -> &$ty {
            self.$try_name().unwrap_or_else(|_| panic!(concat!(
                "artifact `", stringify!($name),
                "` requested but stage `", $stage, "` has not run"
            )))
        }

        $(#[$doc])*
        ///
        /// Fallible variant for degradation-aware callers: a missing
        /// artifact (producing stage degraded out of the run) is an
        /// `Err` naming the producer, never a panic.
        pub fn $try_name(&self) -> Result<&$ty, String> {
            match &self.slots[StageId::$variant as usize] {
                Some(StagePayload::$variant(payload)) => {
                    let artifact: &$ty = &payload $(.$field)?;
                    Ok(artifact)
                }
                _ => Err(concat!(
                    "artifact `", stringify!($name),
                    "` unavailable: stage `", $stage, "` did not complete"
                )
                .to_owned()),
            }
        }
    };
}

impl ArtifactStore {
    accessor!(
        /// The generated ground-truth world.
        world / try_world: World, Setup.world, "setup");
    accessor!(
        /// The IP-geography database.
        geo / try_geo: GeoDb, Setup.geo, "setup");
    accessor!(
        /// The attacker's prepositioned guard relays.
        attacker_guards / try_attacker_guards: Vec<RelayId>, Setup.attacker_guards, "setup");
    accessor!(
        /// Network snapshot after setup (world registered, guards
        /// prepositioned, first consensus voted).
        net_setup / try_net_setup: Network, Setup.net, "setup");
    accessor!(
        /// Traffic driver as constructed at setup time.
        traffic_setup / try_traffic_setup: TrafficDriver, Setup.traffic, "setup");
    accessor!(
        /// Sec. II harvesting outcome.
        harvest / try_harvest: HarvestOutcome, Harvest.harvest, "harvest");
    accessor!(
        /// Network snapshot after the harvest window.
        net_harvest / try_net_harvest: Network, Harvest.net, "harvest");
    accessor!(
        /// Traffic driver state after the harvest window.
        traffic_harvest / try_traffic_harvest: TrafficDriver, Harvest.traffic, "harvest");
    accessor!(
        /// Streaming sketch aggregator the harvest filled when the
        /// study ran with `StudyConfig::streaming`; `None` on the exact
        /// path.
        streaming / try_streaming: Option<StreamingPopularity>, Harvest.streaming, "harvest");
    accessor!(
        /// Raw Sec. VI window output.
        deanon_window / try_deanon_window: DeanonWindowOut, DeanonWindow, "deanon_window");
    accessor!(
        /// Sec. III port-scan report (Fig. 1).
        scan / try_scan: ScanReport, PortScan, "port_scan");
    accessor!(
        /// Sec. VI deanonymisation report (Fig. 3).
        deanon / try_deanon: DeanonReport, Geomap, "geomap");
    accessor!(
        /// Sec. III certificate survey.
        certs / try_certs: CertSurvey, Certs, "certs");
    accessor!(
        /// Sec. IV crawl funnel, Table I, languages, Fig. 2.
        crawl / try_crawl: CrawlReport, Crawl, "crawl");
    accessor!(
        /// Sec. V resolution, ranking, forensics.
        popularity / try_popularity: PopularityOut, Popularity, "popularity");
    accessor!(
        /// Sec. VII tracking detection.
        tracking / try_tracking: TrackingReport, Tracking, "tracking");

    /// `stage`'s payload, or `None` if the stage degraded or did not
    /// run. A pointer clone: the store and the caller share the
    /// artifacts.
    pub fn extract(&self, stage: StageId) -> Option<StagePayload> {
        self.slots[stage as usize].clone()
    }

    /// Deposits a payload into its stage's slot, exactly as if the
    /// stage had just run. A pointer clone: the store and the caller
    /// (typically the cache) share the artifacts.
    pub fn install(&mut self, payload: &StagePayload) {
        self.slots[payload.stage() as usize] = Some(payload.clone());
    }

    /// Every deposited payload, in canonical stage order.
    pub(crate) fn into_payloads(self) -> impl Iterator<Item = StagePayload> {
        self.slots.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_panics_with_stage_name() {
        let store = ArtifactStore::default();
        let err = std::panic::catch_unwind(|| {
            let _ = store.scan();
        })
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().unwrap();
        assert!(msg.contains("`scan`"), "{msg}");
        assert!(msg.contains("`port_scan`"), "{msg}");
    }

    #[test]
    fn try_accessor_errors_instead_of_panicking() {
        let store = ArtifactStore::default();
        let err = store.try_scan().unwrap_err();
        assert!(err.contains("`scan`"), "{err}");
        assert!(err.contains("`port_scan`"), "{err}");
        let err = store.try_harvest().unwrap_err();
        assert!(err.contains("`harvest`"), "{err}");
    }
}
