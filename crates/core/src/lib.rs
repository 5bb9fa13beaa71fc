//! `hs-landscape` — an end-to-end reproduction of *"Content and
//! popularity analysis of Tor hidden services"* (Biryukov, Pustogarov,
//! Thill, Weinmann — ICDCS 2014) against a simulated 2013 Tor network.
//!
//! The crate re-exports every subsystem and provides the [`Study`]
//! pipeline that runs the whole paper in order:
//!
//! 1. **Harvest** (Sec. II): the shadow-relay trawling attack collects
//!    onion addresses and logs client descriptor requests
//!    ([`hs_harvest`]).
//! 2. **Port scan** (Sec. III, Fig. 1): multi-day probe of every
//!    harvested address ([`hs_portscan`]), plus the HTTPS certificate
//!    survey ([`hs_content::certs`]).
//! 3. **Content analysis** (Sec. IV, Table I, Fig. 2): crawl funnel,
//!    language detection, topic classification ([`hs_content`]).
//! 4. **Popularity** (Sec. V, Table II): descriptor-ID resolution and
//!    ranking ([`hs_popularity`]).
//! 5. **Client deanonymisation** (Sec. VI, Fig. 3): traffic-signature
//!    attack and geographic mapping ([`hs_deanon`]).
//! 6. **Tracking detection** (Sec. VII): consensus-history analysis of
//!    Silk Road ([`hs_tracking`]).
//!
//! # Examples
//!
//! ```no_run
//! use hs_landscape::{report, Study, StudyConfig};
//!
//! let study = Study::new(StudyConfig::test_scale());
//! let results = study.run();
//! if let Some(scan) = &results.scan {
//!     println!("{}", report::render_fig1(scan));
//! }
//! if let Some(ranking) = &results.ranking {
//!     println!("{}", report::render_table2(ranking, 30));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod pipeline;
pub mod report;
pub mod study;

pub use pipeline::{
    CacheCounters, CancelToken, ExecMode, Halt, MemoryCache, PipelineRun, PipelineTimings,
    RunControl, RunOptions, StageCache, StageId, StagePayload, StageTiming,
};
pub use study::{check_scale, DeanonReport, Study, StudyConfig, StudyReport, TrackingReport};

// Re-export the subsystem crates under one roof.
pub use hs_content;
pub use hs_deanon;
pub use hs_harvest;
pub use hs_popularity;
pub use hs_portscan;
pub use hs_tracking;
pub use hs_world;
pub use obs;
pub use onion_crypto;
pub use tor_sim;
pub use wave;
