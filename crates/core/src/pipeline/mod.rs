//! The staged pipeline engine behind [`crate::Study`].
//!
//! The monolithic end-to-end run is decomposed into a fixed DAG of
//! nine stages over a typed [`ArtifactStore`]:
//!
//! ```text
//!  level 1   level 2   level 3              level 4
//!  ───────   ───────   ───────────────      ───────────
//!  setup ─→ harvest ─┬─→ deanon_window ──→  geomap
//!                    ├─→ port_scan ─┬────→  certs
//!                    │              └────→  crawl
//!                    └───────────────────→  popularity
//!  (independent) ──────────────────────→    tracking
//! ```
//!
//! * [`stage`] names the stages and their dependency edges;
//! * [`seeds`] centralises per-stage seed derivation from the root
//!   study seed;
//! * [`artifacts`] is the typed store stages read and write;
//! * [`timing`] records per-stage wall clock and domain counters;
//! * [`engine`] plans a closure and executes it, one stage at a time
//!   or with the independent stages of each level side by side.
//!
//! Selective runs (`Pipeline::run(&[StageId::PortScan], …)`) execute
//! exactly the dependency closure of the requested stages and are
//! byte-identical to the same stages inside a full run, because every
//! sim stage branches a cloned network snapshot instead of mutating a
//! shared timeline.

pub mod artifacts;
pub mod cache;
pub mod control;
pub mod engine;
pub mod seeds;
pub mod stage;
pub mod timing;

pub use artifacts::{ArtifactStore, DeanonReport, DeanonWindowOut, PopularityOut, TrackingReport};
pub use cache::{
    derive_keys, CacheCounters, CacheKey, HarvestBundle, MemoryCache, SetupBundle, StageCache,
    StagePayload,
};
pub use control::{CancelToken, Halt, RunControl};
pub use engine::{ExecMode, Pipeline, PipelineRun, RunOptions};
pub use seeds::{stage_seed, SeedDomain};
pub use stage::{StageId, StageKind};
pub use timing::{DegradedStage, PipelineTimings, StageTiming};
