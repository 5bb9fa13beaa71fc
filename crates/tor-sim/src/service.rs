//! The service-side interface between the Tor transport simulation and
//! whatever application worlds are plugged into it.
//!
//! `tor-sim` moves connections; it does not know what a "Skynet bot" or
//! an "adult site" is. The world generator (`hs-world`) implements
//! [`ServiceBackend`] to answer what happens when a TCP connection
//! reaches a given `onion:port` — the same split a real scanner sees:
//! Tor delivers the stream, the remote daemon decides the reply.

use onion_crypto::onion::OnionAddress;

use crate::clock::SimTime;

/// What a remote hidden service does with an incoming TCP connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PortReply {
    /// The port accepted the connection.
    Open,
    /// The port refused the connection (service answered, port closed).
    Closed,
    /// The connection attempt timed out.
    Timeout,
    /// The port accepted and then immediately closed the stream with an
    /// error message different from an ordinary refusal — the behaviour
    /// the paper observed on Skynet's port 55080 and counted as open.
    AbnormalClose,
}

impl PortReply {
    /// Whether the paper's scanning methodology counts this reply as an
    /// open port (Sec. III counts `AbnormalClose` on 55080 as open).
    pub fn counts_as_open(self) -> bool {
        matches!(self, PortReply::Open | PortReply::AbnormalClose)
    }
}

/// Application-level behaviour of hidden services, provided by the world
/// generator.
pub trait ServiceBackend {
    /// The remote service's reaction to a TCP connection on `port`.
    fn connect(&self, onion: OnionAddress, port: u16, now: SimTime) -> PortReply;

    /// The replies to one connection on each of `ports`, in order: the
    /// same as [`ServiceBackend::connect`] per port. A backend can
    /// override it to look the service up once for all the ports.
    fn connect_ports(&self, onion: OnionAddress, ports: &[u16], now: SimTime) -> Vec<PortReply> {
        ports
            .iter()
            .map(|&port| self.connect(onion, port, now))
            .collect()
    }

    /// Whether the service is online (its Tor process is publishing
    /// descriptors and accepting rendezvous) at `now`.
    fn is_online(&self, onion: OnionAddress, now: SimTime) -> bool;
}

/// Outcome of a full client connection attempt through Tor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnectOutcome {
    /// No responsible HSDir returned a descriptor.
    NoDescriptor,
    /// A descriptor was found but the rendezvous failed (service gone).
    ServiceUnreachable,
    /// The connection reached the service; the port replied.
    Port(PortReply),
}

impl ConnectOutcome {
    /// Whether the scan records an open port for this outcome.
    pub fn counts_as_open(self) -> bool {
        matches!(self, ConnectOutcome::Port(p) if p.counts_as_open())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_semantics() {
        assert!(PortReply::Open.counts_as_open());
        assert!(PortReply::AbnormalClose.counts_as_open());
        assert!(!PortReply::Closed.counts_as_open());
        assert!(!PortReply::Timeout.counts_as_open());
        assert!(ConnectOutcome::Port(PortReply::Open).counts_as_open());
        assert!(!ConnectOutcome::NoDescriptor.counts_as_open());
        assert!(!ConnectOutcome::ServiceUnreachable.counts_as_open());
    }
}
