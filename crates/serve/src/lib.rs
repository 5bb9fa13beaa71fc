//! `hs-serve` — the resident `landscaped` daemon.
//!
//! Keeps one simulated Tor network ([`tor_sim::network::Network`])
//! resident in memory and serves concurrent *study queries* against it
//! over a newline-delimited TCP protocol: `RUN_UNTIL` executes a
//! pipeline closure with per-query wall-clock and sim-hour budgets,
//! `GET` reads a finished artifact without computing anything, `TICK`
//! advances the world into a new epoch, and `CANCEL` cooperatively
//! aborts a running query from another connection.
//!
//! Robustness properties the daemon guarantees (and the test suite
//! pins):
//!
//! * **Admission control** — at most `max_inflight` queries run at
//!   once; the rest are shed immediately with a typed `BUSY` reply
//!   instead of queueing unboundedly.
//! * **Bounded execution** — connections are served by a fixed
//!   [`executor::Executor`] worker pool with a bounded queue; when
//!   both are full the accept loop sheds a connection-level `BUSY`,
//!   so daemon thread count is a function of configuration, never of
//!   load. `SHUTDOWN` drains the pool gracefully.
//! * **Deadlines and cancellation** — budgets are enforced at stage
//!   boundaries through [`hs_landscape::RunControl`]; an exhausted
//!   query answers `PARTIAL` with the halt reason and keeps every
//!   artifact it finished.
//! * **Crash containment** — a degraded or halted query fails alone.
//!   The resident world lives in immutable [`std::sync::Arc`]'d cache
//!   payloads, so every reply carries the epoch's world state-hash as
//!   proof the query left it byte-identical.
//! * **Snapshot isolation** — each query captures the epoch (world
//!   salt) at admission; a concurrent `TICK` opens a *new* epoch and
//!   never mutates the one in-flight readers see.
//! * **Observability** — a wall-clock telemetry plane (`METRICS PROM`
//!   Prometheus exposition, `STATUS FULL` extensions) and a
//!   [`flight::FlightRecorder`] of per-query span trees (`TRACE <id>`,
//!   `TRACE DUMP` Chrome-trace export, `TRACE ERRORS`), kept strictly
//!   apart from the deterministic sim-clock metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod client;
pub mod daemon;
pub mod executor;
pub mod flight;
pub mod inject;
pub mod protocol;

pub use client::Client;
pub use daemon::{Daemon, DaemonConfig, DaemonHandle, TickEvery};
pub use executor::Executor;
pub use flight::{FlightRecorder, QueryOutcome, QueryRecord};
pub use inject::{InjectAt, Injector};
pub use protocol::{parse_request, LineReader, ProtocolError, Request, Target, MAX_LINE};
