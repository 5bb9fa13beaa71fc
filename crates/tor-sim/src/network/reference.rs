//! Two fetch paths that the fetch core replaced, kept as test
//! references:
//!
//! - the per-fetch read-only path that [`FetchPlan`] replaced: every
//!   fetch looks up its onion's descriptor-ID pair, both ring lookups
//!   and the store probes anew. Tests check that a unit's fetches
//!   through one plan match the same fetches made here;
//! - the sequential fetch that the one-off unit of
//!   [`Network::client_fetch`] replaced, which writes through
//!   `&mut Network` as it goes. Tests check, with faults inert, that
//!   one-off fetches leave the network as it leaves it.
//!
//! [`FetchPlan`]: super::FetchPlan

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

use onion_crypto::descriptor::{DescriptorId, HSDIRS_PER_REPLICA};
use onion_crypto::onion::OnionAddress;

use super::{
    with_retry, ClientId, FetchAttempts, FetchOutcome, GuardObservation, Network, WaveEffects,
};
use crate::fault::RetryPolicy;
use crate::relay::{Operator, RelayId};
use crate::store::RequestRecord;

impl Network {
    /// One read-only fetch of `desc_id`, looked up from scratch.
    fn reference_fetch_desc_id(
        &self,
        client: ClientId,
        desc_id: DescriptorId,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchOutcome {
        fx.hot.fetches += 1;
        let Some(guard) = self.clients[client.0].guards.pick(&self.consensus, rng) else {
            return FetchOutcome::NoCircuit;
        };

        let mut order = [RelayId(usize::MAX); HSDIRS_PER_REPLICA];
        let n = self.consensus.responsible_hsdirs_into(desc_id, &mut order);
        if n == 0 {
            return FetchOutcome::NoHsdirs;
        }
        order[..n].shuffle(rng);

        let faults_active = !self.faults.is_inert();
        let mut outcome = FetchOutcome::NotFound;
        for &hsdir in &order[..n] {
            if faults_active && self.wave_drops_query(hsdir, desc_id, fx) {
                outcome = FetchOutcome::Timeout;
                continue;
            }
            let found = self.stores[hsdir.0].contains(desc_id);
            if self.relays[hsdir.0].logging {
                fx.logs.push((
                    hsdir,
                    RequestRecord {
                        time: self.time,
                        descriptor_id: desc_id,
                        found,
                    },
                ));
            }
            if !found {
                continue;
            }
            outcome = FetchOutcome::Found;
            if self.relays[hsdir.0].operator != Operator::Honest {
                if let Some((onion, sig)) = self.signature_for(desc_id) {
                    let cells = sig.encode_response(3);
                    if self.relays[guard.0].operator != Operator::Honest && sig.matches(&cells) {
                        fx.observations.push(GuardObservation {
                            time: self.time,
                            guard,
                            client_ip: self.clients[client.0].ip,
                            onion,
                        });
                    }
                }
            }
            break;
        }
        outcome
    }

    /// One read-only fetch of `onion` that looks up its descriptor-ID
    /// pair itself.
    pub(crate) fn reference_fetch(
        &self,
        client: ClientId,
        onion: OnionAddress,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchOutcome {
        let mut ids = self.pair_readonly(onion, fx);
        if rng.random::<bool>() {
            ids.swap(0, 1);
        }
        let first = self.reference_fetch_desc_id(client, ids[0], rng, fx);
        match first {
            FetchOutcome::Found | FetchOutcome::NoCircuit | FetchOutcome::NoHsdirs => first,
            FetchOutcome::NotFound | FetchOutcome::Timeout => {
                let second = self.reference_fetch_desc_id(client, ids[1], rng, fx);
                match second {
                    FetchOutcome::Found => FetchOutcome::Found,
                    _ if first == FetchOutcome::Timeout => FetchOutcome::Timeout,
                    other => other,
                }
            }
        }
    }

    /// [`Network::reference_fetch`] under the retry loop.
    pub(crate) fn reference_fetch_with_retry(
        &self,
        client: ClientId,
        onion: OnionAddress,
        policy: &RetryPolicy,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchAttempts {
        with_retry(policy, || self.reference_fetch(client, onion, rng, fx))
    }

    /// The sequential fetch of `onion` on a network with faults inert:
    /// it looks the pair up through the cache column, draws the replica
    /// swap from the network RNG, and fetches one replica, then the
    /// other if the first has no descriptor.
    pub(crate) fn sequential_fetch(
        &mut self,
        client: ClientId,
        onion: OnionAddress,
    ) -> FetchOutcome {
        assert!(
            self.faults.is_inert(),
            "the sequential reference rolls no faults"
        );
        let mut ids = self.cached_pair(onion);
        if self.rng.random::<bool>() {
            ids.swap(0, 1);
        }
        match self.sequential_fetch_desc_id(client, ids[0]) {
            FetchOutcome::NotFound => self.sequential_fetch_desc_id(client, ids[1]),
            first => first,
        }
    }

    /// One sequential fetch of `desc_id`: maintains the client's guards
    /// and picks one, then queries the responsible HSDirs in random
    /// order, writing logs, observations and counters into the network.
    fn sequential_fetch_desc_id(
        &mut self,
        client: ClientId,
        desc_id: DescriptorId,
    ) -> FetchOutcome {
        self.hot.fetches += 1;
        self.clients[client.0]
            .guards
            .maintain(&self.consensus, self.time, &mut self.rng);
        let Some(guard) = self.clients[client.0]
            .guards
            .pick(&self.consensus, &mut self.rng)
        else {
            return FetchOutcome::NoCircuit;
        };
        let mut order = [RelayId(usize::MAX); HSDIRS_PER_REPLICA];
        let n = self.consensus.responsible_hsdirs_into(desc_id, &mut order);
        if n == 0 {
            return FetchOutcome::NoHsdirs;
        }
        order[..n].shuffle(&mut self.rng);
        for &hsdir in &order[..n] {
            let found = self.stores[hsdir.0].contains(desc_id);
            if self.relays[hsdir.0].logging {
                self.logs[hsdir.0].record(RequestRecord {
                    time: self.time,
                    descriptor_id: desc_id,
                    found,
                });
            }
            if !found {
                continue;
            }
            if self.relays[hsdir.0].operator != Operator::Honest {
                if let Some((onion, sig)) = self.signature_for(desc_id) {
                    let cells = sig.encode_response(3);
                    if self.relays[guard.0].operator != Operator::Honest && sig.matches(&cells) {
                        self.guard_observations.push(GuardObservation {
                            time: self.time,
                            guard,
                            client_ip: self.clients[client.0].ip,
                            onion,
                        });
                    }
                }
            }
            return FetchOutcome::Found;
        }
        FetchOutcome::NotFound
    }

    /// The next draw of the network RNG.
    pub(crate) fn next_draw(&mut self) -> u64 {
        self.rng.random()
    }
}
