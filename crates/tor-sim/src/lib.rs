//! A discrete-time simulator of the Tor network, scoped to everything
//! the hidden-service measurement study of Biryukov et al. (ICDCS 2014)
//! depends on.
//!
//! The simulator reproduces the v2 hidden-service protocol rules of the
//! 2013 network:
//!
//! - [`relay`] — relays with uptime, bandwidth, reachability and
//!   operator provenance;
//! - [`authority`] — directory authorities: flag voting (HSDir at ≥ 25 h
//!   uptime) and the two-relays-per-IP consensus rule whose *shadow
//!   relay* loophole enabled the paper's harvesting attack;
//! - [`consensus`] — the hourly consensus and the responsible-HSDir ring
//!   lookup;
//! - [`fault`] — deterministic fault injection (relay crashes, HSDir
//!   overload/drops, upload failures, service flaps) with the property
//!   that a zero-rate plan is byte-identical to no plan at all;
//! - [`store`] — per-relay descriptor stores with 24 h expiry and the
//!   request logs attacker HSDirs keep;
//! - [`intern`] — the `ServiceId` intern table and struct-of-arrays
//!   service-state columns the hot paths index into;
//! - [`guard`] — client entry-guard sets (3 guards, 30–60 day rotation);
//! - [`cells`] — circuit cells and the traffic signature used for
//!   opportunistic client deanonymisation;
//! - [`service`] — the backend trait application worlds implement;
//! - [`network`] — the orchestrator tying it all together.
//!
//! # Examples
//!
//! Run a small network, publish a hidden service, fetch it as a client:
//!
//! ```
//! use tor_sim::clock::SimTime;
//! use tor_sim::network::{FetchOutcome, NetworkBuilder};
//! use tor_sim::relay::Ipv4;
//! use onion_crypto::OnionAddress;
//!
//! let mut net = NetworkBuilder::new()
//!     .relays(60)
//!     .seed(42)
//!     .start(SimTime::from_ymd(2013, 2, 4))
//!     .build();
//! let onion = OnionAddress::from_pubkey(b"example service key");
//! net.register_service(onion, true);
//! net.advance_hours(1);
//!
//! let client = net.add_client(Ipv4::new(198, 51, 100, 7));
//! assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod authority;
pub mod cells;
pub mod clock;
pub mod consensus;
pub mod docfmt;
pub mod fault;
pub mod flags;
pub mod guard;
pub mod intern;
pub mod network;
pub mod relay;
pub mod service;
pub mod store;

#[doc(hidden)]
pub mod test_support;

#[cfg(test)]
mod proptests;

pub use authority::{Authority, AuthorityPolicy};
pub use cells::TrafficSignature;
pub use clock::SimTime;
pub use consensus::{Consensus, ConsensusEntry};
pub use fault::{FaultCounters, FaultPlan, RetryPolicy};
pub use flags::RelayFlags;
pub use guard::GuardSet;
pub use intern::{ServiceId, ServiceInterner, ServiceTable};
pub use network::{
    onion_unit_key, ClientId, FetchOutcome, FetchPlan, Network, NetworkBuilder, RoundTrace,
    WaveEffects,
};
pub use relay::{Ipv4, Operator, Relay, RelayId};
pub use service::{PortReply, ServiceBackend};
