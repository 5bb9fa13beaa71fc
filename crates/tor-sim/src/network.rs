//! The network orchestrator: relays, consensus rounds, descriptor
//! publication, client fetches and full connections.
//!
//! [`Network`] owns all protocol state and advances it in consensus
//! intervals. Measurement crates drive it from outside: the world
//! generator registers services and toggles their liveness, the
//! harvester adds its relay fleet and flips reachability bits, the
//! popularity pipeline replays client request streams, and the
//! deanonymisation attack reads the guard-observation feed.

use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use onion_crypto::descriptor::{
    DaySecretParts, DescriptorId, Replica, TimePeriod, HSDIRS_PER_REPLICA, REPLICAS,
};
use onion_crypto::identity::SimIdentity;
use onion_crypto::onion::{OnionAddress, PermanentId, PERMANENT_ID_LEN};

use crate::authority::Authority;
use crate::cells::TrafficSignature;
use crate::clock::{SimTime, DAY, HOUR};
use crate::consensus::{Consensus, RingChange};
use crate::fault::{FaultCounters, FaultPlan, FaultState, RetryPolicy};
use crate::intern::{DescPair, Placement, ServiceId, ServiceTable, UPLOAD_SLOTS};

use crate::guard::GuardSet;
use crate::relay::{Ipv4, Operator, Relay, RelayId};
use crate::service::{PortReply, ServiceBackend};
use crate::store::{DescriptorStore, RequestLog, RequestRecord, StoredDescriptor};

#[cfg(test)]
mod reference;

/// Handle to a client registered in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub usize);

/// A Tor client: an IP address plus its entry-guard state.
#[derive(Clone, Debug)]
pub struct ClientState {
    /// The client's real IP address — what the deanonymisation attack
    /// recovers.
    pub ip: Ipv4,
    /// The client's guard set.
    pub guards: GuardSet,
}

/// A registered hidden service, from the network's point of view.
#[derive(Clone, Debug)]
pub struct ServiceRecord {
    /// The service's onion address.
    pub onion: OnionAddress,
    /// Whether its Tor process is currently publishing descriptors.
    pub online: bool,
}

/// What an attacker guard logged when it saw the traffic signature pass
/// toward one of its clients.
#[derive(Clone, Copy, Debug)]
pub struct GuardObservation {
    /// When the signature was detected.
    pub time: SimTime,
    /// The attacker guard that saw it.
    pub guard: RelayId,
    /// The deanonymised client IP.
    pub client_ip: Ipv4,
    /// The target service the signature was armed for.
    pub onion: OnionAddress,
}

/// Result of a client descriptor fetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FetchOutcome {
    /// A responsible HSDir served the descriptor.
    Found,
    /// All responsible HSDirs were queried; none had it.
    NotFound,
    /// The client has no usable guard (cannot build circuits).
    NoCircuit,
    /// The consensus currently lists no HSDirs.
    NoHsdirs,
    /// At least one responsible HSDir dropped the query (fault
    /// injection) and none served the descriptor — the client cannot
    /// tell absence from loss. Only reachable when a non-inert
    /// [`FaultPlan`] is installed; transient, so worth retrying.
    Timeout,
}

/// Result of [`Network::client_fetch_with_retry`]: the final outcome
/// plus how hard the client had to work for it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FetchAttempts {
    /// Outcome of the last attempt.
    pub outcome: FetchOutcome,
    /// Fetch attempts made (≥ 1).
    pub attempts: u32,
    /// Total backoff charged between attempts, in (virtual) seconds.
    pub backoff_secs: u64,
}

/// Side effects accumulated by one read-only fetch unit: a wave unit,
/// or the one-off unit of a [`Network::client_fetch`].
///
/// Fetches read `&Network`, so measurement waves can share it across
/// worker threads. Everything a fetch changes — hot-path counters,
/// derived descriptor-ID pairs, fault counters, per-relay query load,
/// request logs, guard observations — lands here and is folded back in
/// canonical input order by [`Network::apply_wave_effects`]. Log and
/// observation order is preserved within a unit, so the merged feeds
/// are identical to running the units one after another.
#[derive(Clone, Debug, Default)]
pub struct WaveEffects {
    /// Stable per-unit key: fault drop rolls derive their serial
    /// operand from it, never from shard or thread identity.
    unit_key: u64,
    /// Hot-path work the unit performed.
    hot: HotPathCounters,
    /// Descriptor-ID pairs the unit derived on cache misses, in miss
    /// order. They answer the unit's later lookups of the same onion
    /// (its fetch plan answers its repeat fetches), and
    /// [`Network::apply_wave_effects`] writes them into the cache.
    derived: Vec<(OnionAddress, DescPair)>,
    /// Queries dropped by the per-query drop rate.
    fetch_drops: u64,
    /// Queries dropped as overload against the wave-start snapshot.
    overload_drops: u64,
    /// Connections that met a flapping service.
    service_flaps: u64,
    /// Per-relay descriptor-query load the unit generated.
    load: Vec<(usize, u32)>,
    /// Request-log records in issue order.
    logs: Vec<(RelayId, RequestRecord)>,
    /// Guard observations in issue order.
    observations: Vec<GuardObservation>,
    /// Monotonic within-unit query counter feeding the drop rolls.
    query_serial: u64,
}

impl WaveEffects {
    /// An empty effect set for the unit identified by `unit_key`.
    pub fn new(unit_key: u64) -> Self {
        WaveEffects {
            unit_key,
            ..WaveEffects::default()
        }
    }

    /// Increments the unit-local load on `relay` and returns the new
    /// local total.
    fn bump_load(&mut self, relay: usize) -> u32 {
        for entry in &mut self.load {
            if entry.0 == relay {
                entry.1 += 1;
                return entry.1;
            }
        }
        self.load.push((relay, 1));
        1
    }
}

/// One read-only wave unit's plan for fetching one onion, built by
/// [`Network::plan_fetches`] and used by every fetch the unit makes.
///
/// The network cannot change during a wave, so everything a fetch
/// looks up before it draws randomness is the same for each of the
/// unit's fetches: the descriptor-ID pair, each replica's responsible
/// HSDirs, which of their stores hold the ID, which of them log, and
/// whether a response from one carries an armed signature. The plan
/// looks these up once; the fetches draw their replica swap, guard pick
/// and HSDir order exactly as before. A plan borrows the network it was
/// built from, so no plan outlives the wave: a consensus round would
/// make it stale.
///
/// Each use after the first counts as a descriptor-ID cache hit, as the
/// per-fetch lookup it replaces did.
///
/// # Examples
///
/// A plan cannot be used after the network it was built from moves on:
///
/// ```compile_fail,E0502
/// use onion_crypto::OnionAddress;
/// use rand::{rngs::StdRng, SeedableRng};
/// use tor_sim::{Ipv4, NetworkBuilder, SimTime, WaveEffects};
///
/// let mut net = NetworkBuilder::new()
///     .relays(60)
///     .start(SimTime::from_ymd(2013, 2, 1))
///     .build();
/// let client = net.add_client(Ipv4::new(10, 0, 0, 1));
/// let onion = OnionAddress::from_pubkey(b"service");
/// net.prepare_wave();
/// let mut fx = WaveEffects::new(1);
/// let mut plan = net.plan_fetches(onion, &mut fx);
/// let mut rng = StdRng::seed_from_u64(1);
/// net.client_fetch_readonly(client, &mut plan, &mut rng, &mut fx);
/// net.advance_hours(1);
/// net.client_fetch_readonly(client, &mut plan, &mut rng, &mut fx);
/// ```
#[derive(Clone, Debug)]
pub struct FetchPlan<'n> {
    onion: OnionAddress,
    ids: [DescriptorId; REPLICAS as usize],
    /// Each replica's HSDirs, looked up by the first fetch that queries
    /// that replica: if every fetch is served by the replica it tries
    /// first, the other one is never looked up.
    replicas: [Option<ReplicaPlan>; REPLICAS as usize],
    /// Whether a fetch has used the plan yet.
    used: bool,
    net: PhantomData<&'n Network>,
}

/// The responsible HSDirs of one replica's descriptor ID and what a
/// query to each would meet. Bit `k` of a mask describes `hsdirs[k]`.
#[derive(Clone, Copy, Debug)]
struct ReplicaPlan {
    hsdirs: [RelayId; HSDIRS_PER_REPLICA],
    /// How many of `hsdirs` are filled (fewer than three only on a tiny
    /// ring, none on an empty one).
    n: usize,
    /// The HSDir's store holds the ID.
    found: u8,
    /// The HSDir logs requests.
    logging: u8,
    /// The HSDir is attacker-operated, so it arms its responses.
    hostile: u8,
    /// The armed target whose signature a hostile HSDir's response
    /// carries (looked up only if a hostile HSDir holds the ID).
    target: Option<OnionAddress>,
}

/// Stable unit key material for an onion address: the first eight bytes
/// of its permanent identifier. Measurement crates combine this with
/// day/hour indices to seed per-unit RNG streams.
pub fn onion_unit_key(onion: OnionAddress) -> u64 {
    crate::fault::onion_key(onion)
}

/// Cumulative hot-path work counters, cheap enough to keep always-on.
///
/// The pipeline snapshots these around every stage and reports the
/// deltas in `bench_stages.json`, so determinism drift in the hot path
/// (cache misbehaviour, extra fetches) shows up as a counter diff even
/// when wall-clock noise hides it.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct HotPathCounters {
    /// SHA-1 finalisations performed for descriptor-ID derivation: two
    /// per cache miss (one per replica, on the day's shared secret-ID
    /// parts), four each time a day's parts are computed, and four per
    /// lookup with the cache disabled.
    pub sha1_digests: u64,
    /// Descriptor-ID pair lookups answered from the per-period cache
    /// (or, in a wave unit, from a pair the unit derived earlier, or
    /// from the unit's fetch plan).
    pub desc_cache_hits: u64,
    /// Lookups that had to derive their pair (first sight or period
    /// rotation): one per derived pair.
    pub desc_cache_misses: u64,
    /// Client descriptor fetches attempted (per descriptor ID).
    pub fetches: u64,
    /// Registered service rows that consensus rounds visited to
    /// publish: each round's agenda (a full walk visits every row).
    pub publish_rows: u64,
    /// Fresh authority votes: the network's build, and every round that
    /// could not reuse the current consensus.
    pub votes: u64,
}

impl HotPathCounters {
    /// Component-wise `self - earlier`: the work done since a snapshot.
    pub fn since(self, earlier: HotPathCounters) -> HotPathCounters {
        HotPathCounters {
            sha1_digests: self.sha1_digests - earlier.sha1_digests,
            desc_cache_hits: self.desc_cache_hits - earlier.desc_cache_hits,
            desc_cache_misses: self.desc_cache_misses - earlier.desc_cache_misses,
            fetches: self.fetches - earlier.fetches,
            publish_rows: self.publish_rows - earlier.publish_rows,
            votes: self.votes - earlier.votes,
        }
    }

    /// Folds the counters into a metric registry under their historical
    /// `bench_stages.json` names, in the historical order.
    pub fn record_into(self, reg: &mut obs::Registry) {
        reg.inc("sha1_digests", self.sha1_digests);
        reg.inc("desc_cache_hits", self.desc_cache_hits);
        reg.inc("desc_cache_misses", self.desc_cache_misses);
        reg.inc("fetches", self.fetches);
        reg.inc("publish_rows", self.publish_rows);
        reg.inc("votes", self.votes);
    }

    /// Total work items across all categories.
    pub fn total(self) -> u64 {
        self.sha1_digests
            + self.desc_cache_hits
            + self.desc_cache_misses
            + self.fetches
            + self.publish_rows
            + self.votes
    }
}

/// One consensus round as seen by the optional round recorder: the sim
/// interval it covered and the hot-path / fault work performed since
/// the previous recorded round (including client work driven between
/// rounds, which is attributed to the round that follows it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundTrace {
    /// Interval start (the previous round's end, or the enable time).
    pub start: SimTime,
    /// Interval end: the consensus time of this round.
    pub end: SimTime,
    /// Hot-path work since the previous recorded round.
    pub hot: HotPathCounters,
    /// Faults injected since the previous recorded round.
    pub faults: FaultCounters,
}

/// What a consensus round saw, kept so the next round can tell which
/// service rows it must visit.
#[derive(Clone, Debug)]
struct LastRound {
    time: SimTime,
    /// Whether a fault plan was active.
    faults_active: bool,
    /// Every relay's `logging` flag, in relay order.
    logging: Vec<bool>,
}

/// Snapshot marks for the round recorder.
#[derive(Clone, Debug)]
struct RoundRecorder {
    rounds: Vec<RoundTrace>,
    mark_time: SimTime,
    mark_hot: HotPathCounters,
    mark_faults: FaultCounters,
}

/// The simulated Tor network.
///
/// # Examples
///
/// ```
/// use tor_sim::network::NetworkBuilder;
/// use tor_sim::clock::SimTime;
///
/// let mut net = NetworkBuilder::new()
///     .relays(60)
///     .seed(7)
///     .start(SimTime::from_ymd(2013, 2, 1))
///     .build();
/// assert!(net.consensus().hsdir_count() > 0);
/// net.advance_hours(2);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    time: SimTime,
    consensus_interval: u64,
    authority: Authority,
    relays: Vec<Relay>,
    consensus: Consensus,
    /// All per-service hot state — liveness, slot-hour coverage, the
    /// per-period descriptor-ID cache, armed traffic signatures and
    /// their reverse index — as dense [`ServiceId`]-indexed columns.
    /// rend-spec-v2 IDs rotate once per (service-staggered) 24 h time
    /// period, so a consensus round only needs fresh SHA-1 work for
    /// services whose period just rolled over; the slot-hours column
    /// counts, per hour, how many of the six responsible HSDir slots
    /// were held by logging relays (derivable by the attacker from
    /// public consensuses plus its own relay list).
    svc: ServiceTable,
    stores: Vec<DescriptorStore>,
    logs: Vec<RequestLog>,
    clients: Vec<ClientState>,
    guard_observations: Vec<GuardObservation>,
    coverage_recorded_hour: Option<u64>,
    hot: HotPathCounters,
    /// Test hook: `false` forces the uncached reference path so the
    /// cache can be validated against first-principles recomputation.
    desc_cache_enabled: bool,
    /// The secret-ID parts of the two periods a service can be in
    /// today, shared by every cache miss. Kept current by every
    /// consensus round while the cache is enabled.
    day_parts: DaySecretParts,
    /// Deterministic fault injection (inert by default).
    faults: FaultState,
    /// Optional per-round trace recorder (disabled by default; purely
    /// observational, never consulted by simulation logic).
    round_trace: Option<RoundRecorder>,
    /// Bumped by a vote whose HSDir ring differs from the previous
    /// consensus's. A [`Placement`] from the generation before holds
    /// only where `ring_change` moved nothing near it; an older one is
    /// stale.
    ring_generation: u32,
    /// How the vote that started `ring_generation` moved the ring.
    ring_change: RingChange,
    /// Per-relay buffers of the uploads that are new this round,
    /// reused round to round.
    new_uploads: Vec<Vec<StoredDescriptor>>,
    /// The rows a round visits, a buffer reused round to round.
    agenda: Vec<u32>,
    /// The previous round, for this round's agenda; `None` before the
    /// first round and after a descriptor-cache toggle, so the next
    /// round walks every row.
    last_round: Option<LastRound>,
    /// Bumped by everything that can change the relays a vote reads:
    /// [`Network::relay_mut`], [`Network::add_relay`] and every round
    /// with an active fault plan (its crashes and restarts).
    relay_epoch: u64,
    /// The relay epoch the consensus was last voted afresh at, and the
    /// time from which a relay's uptime crosses a flag threshold
    /// ([`Authority::flags_hold_until`]). Until then, with the epoch
    /// unchanged, a vote would list exactly the same entries.
    voted: (u64, SimTime),
    /// Fetches made by [`Network::client_fetch`]: the key of the next
    /// one-off unit's fault rolls.
    one_off_units: u64,
    rng: StdRng,
}

impl Network {
    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The latest consensus.
    pub fn consensus(&self) -> &Consensus {
        &self.consensus
    }

    /// All relays (including stopped and shadow relays).
    pub fn relays(&self) -> &[Relay] {
        &self.relays
    }

    /// One relay by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn relay(&self, id: RelayId) -> &Relay {
        &self.relays[id.0]
    }

    /// Mutable access to a relay (to flip reachability, rotate identity,
    /// adjust bandwidth, …).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn relay_mut(&mut self, id: RelayId) -> &mut Relay {
        self.relay_epoch += 1;
        &mut self.relays[id.0]
    }

    /// The descriptor store held by a relay.
    pub fn store(&self, id: RelayId) -> &DescriptorStore {
        &self.stores[id.0]
    }

    /// The request log of a logging relay.
    pub fn request_log(&self, id: RelayId) -> &RequestLog {
        &self.logs[id.0]
    }

    /// Drains the request log of a relay.
    pub fn take_request_log(&mut self, id: RelayId) -> Vec<RequestRecord> {
        self.logs[id.0].take()
    }

    /// Guard observations accumulated by attacker guards so far.
    pub fn guard_observations(&self) -> &[GuardObservation] {
        &self.guard_observations
    }

    /// Drains the guard-observation feed.
    pub fn take_guard_observations(&mut self) -> Vec<GuardObservation> {
        std::mem::take(&mut self.guard_observations)
    }

    /// Registered services, in stable registration ([`ServiceId`]) order.
    pub fn services(&self) -> impl Iterator<Item = ServiceRecord> + '_ {
        self.svc.records()
    }

    /// Adds a relay and returns its handle. The relay participates from
    /// the *next* consensus round.
    pub fn add_relay(
        &mut self,
        nickname: impl Into<String>,
        ip: Ipv4,
        or_port: u16,
        identity: SimIdentity,
        bandwidth: u64,
        operator: Operator,
    ) -> RelayId {
        let id = RelayId(self.relays.len());
        let mut relay = Relay::new(id, nickname, ip, or_port, identity, bandwidth, self.time);
        relay.operator = operator;
        relay.logging = operator != Operator::Honest;
        self.relays.push(relay);
        self.relay_epoch += 1;
        self.stores.push(DescriptorStore::new());
        self.logs.push(RequestLog::new());
        id
    }

    /// Registers a hidden service. `online` services publish descriptors
    /// from the next consensus round on.
    pub fn register_service(&mut self, onion: OnionAddress, online: bool) {
        self.svc.register(onion, online);
    }

    /// Sets a service's liveness.
    pub fn set_service_online(&mut self, onion: OnionAddress, online: bool) {
        self.svc.set_online(onion, online);
    }

    /// Arms the traffic signature on all attacker HSDirs for `onion`:
    /// descriptor responses for that service will carry the signature.
    pub fn arm_signature(&mut self, onion: OnionAddress, signature: TrafficSignature) {
        let sid = self.svc.intern(onion);
        self.svc.arm(sid, signature);
        self.index_signature_target(sid);
    }

    /// Registers a client at `ip` and returns its handle. Guard sets are
    /// populated lazily on first use.
    pub fn add_client(&mut self, ip: Ipv4) -> ClientId {
        let id = ClientId(self.clients.len());
        self.clients.push(ClientState {
            ip,
            guards: GuardSet::new(),
        });
        id
    }

    /// A client's current state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn client(&self, id: ClientId) -> &ClientState {
        &self.clients[id.0]
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Advances time by `hours`, running a consensus round, descriptor
    /// expiry and descriptor publication at every consensus interval.
    ///
    /// The final step is clamped to the requested target, so a
    /// `consensus_interval` that does not divide the span never makes
    /// `time` overshoot (and the error never compounds across calls).
    pub fn advance_hours(&mut self, hours: u64) {
        let target = self.time + hours * HOUR;
        while self.time < target {
            let remaining = target.since(self.time);
            self.time += self.consensus_interval.min(remaining);
            self.step();
        }
    }

    /// Runs one consensus round *now* without moving time (useful after
    /// external mutations like reachability flips).
    pub fn revote(&mut self) {
        self.step();
    }

    /// One consensus round, inline on the caller's thread: churn and
    /// fault rolls, the authority vote, descriptor publication and
    /// store maintenance (DESIGN.md, "Consensus rounds run inline").
    fn step(&mut self) {
        self.svc.flush();
        self.refresh_day_parts();
        let faults_active = !self.faults.is_inert();
        if faults_active {
            // Relay-level faults apply before the vote so the consensus
            // reflects this round's crashes and restarts.
            self.faults.on_round(&mut self.relays, self.time);
            self.relay_epoch += 1;
        }
        let ring_moved = self.vote();
        self.publish_descriptors(ring_moved, faults_active);
        self.refresh_signature_index();
        self.record_round();
    }

    /// The round's consensus. While no relay changed since the last
    /// fresh vote and no relay's uptime crossed a flag threshold, a
    /// vote would list exactly the current entries, so the consensus is
    /// only moved to the current time. Otherwise the authority votes
    /// afresh. Returns whether the HSDir ring moved.
    fn vote(&mut self) -> bool {
        let (epoch, until) = self.voted;
        if epoch == self.relay_epoch && self.time < until {
            self.consensus.revalidate(self.time);
            return false;
        }
        let consensus = self.authority.vote(&self.relays, self.time);
        self.hot.votes += 1;
        self.voted = (
            self.relay_epoch,
            self.authority.flags_hold_until(&self.relays, self.time),
        );
        let change = consensus.hsdir_ring_change(&self.consensus);
        self.consensus = consensus;
        let Some(change) = change else {
            return false;
        };
        self.ring_generation = self.ring_generation.wrapping_add(1);
        self.ring_change = change;
        true
    }

    /// Recomputes the day's secret-ID parts once the clock has left the
    /// day they were built for. Only the cached path uses them; the
    /// reference path derives every pair from scratch.
    fn refresh_day_parts(&mut self) {
        let now = self.time.unix();
        if self.desc_cache_enabled && !self.day_parts.covers(now) {
            self.day_parts = DaySecretParts::for_day_of(now);
            self.hot.sha1_digests += DaySecretParts::DIGESTS;
        }
    }

    /// Appends a [`RoundTrace`] covering everything since the previous
    /// mark, when round tracing is enabled. Observation only: counters
    /// are read, never written.
    fn record_round(&mut self) {
        let (now, hot, faults) = (self.time, self.hot, self.faults.counters);
        if let Some(rec) = &mut self.round_trace {
            rec.rounds.push(RoundTrace {
                start: rec.mark_time,
                end: now,
                hot: hot.since(rec.mark_hot),
                faults: faults.since(rec.mark_faults),
            });
            rec.mark_time = now;
            rec.mark_hot = hot;
            rec.mark_faults = faults;
        }
    }

    /// Publishes both descriptor replicas of the round's online services
    /// to their responsible HSDirs, records slot-hour coverage (at most
    /// once per hour) for logging relays, then runs store maintenance.
    ///
    /// A round visits only the rows whose uploads can have changed: its
    /// agenda ([`ServiceTable::agenda`]). Those are the rows whose
    /// period rotated since the previous round, found by phase bucket,
    /// and the rows registered or flipped since then. Every registered
    /// row is visited instead (a full walk) when the ring moved this
    /// round, when a fault plan is active now or was at the previous
    /// round, when a relay's `logging` flag differs from the previous
    /// round's, after a descriptor-cache toggle, and in the first
    /// round. Any other row still has its previous round's placement,
    /// period and slot relays, so visiting it would change nothing.
    ///
    /// A visited online row probes the per-period descriptor-ID cache.
    /// If its [`Placement`] still holds — the same period, computed
    /// with faults inert and faults still inert, and a ring that still
    /// puts its IDs on the same HSDirs ([`ring_holds`]) — it does no
    /// ring lookup and no store write: its live entries read as
    /// published at this round. Otherwise it places its uploads afresh
    /// ([`place_uploads`]) and diffs them against its previous
    /// placement. Uploads that stopped are retired: they keep the
    /// previous round's time and expire 24 h later. New uploads go
    /// into one merge per store. A visited offline row retires all of
    /// its uploads.
    ///
    /// Slot-hours accrue lazily: a visited row sets its rate, the
    /// logging slots of its placement, and every row earns its rate in
    /// each recorded coverage hour.
    fn publish_descriptors(&mut self, ring_moved: bool, faults_active: bool) {
        let time = self.time;
        let hour = time.hours();
        let record_coverage = self.coverage_recorded_hour != Some(hour);
        let full = ring_moved
            || faults_active
            || self.last_round.as_ref().is_none_or(|last| {
                last.faults_active
                    || !last
                        .logging
                        .iter()
                        .copied()
                        .eq(self.relays.iter().map(|r| r.logging))
            });
        let last_time = self.last_round.as_ref().map(|last| last.time.unix());
        let rotated = |phase: u8| {
            let mut id = [0; PERMANENT_ID_LEN];
            id[0] = phase;
            let id = PermanentId::from_bytes(id);
            last_time
                .is_some_and(|last| TimePeriod::at(last, id) != TimePeriod::at(time.unix(), id))
        };
        self.svc.agenda(full, rotated, &mut self.agenda);
        self.hot.publish_rows += self.agenda.len() as u64;
        let Network {
            svc,
            hot,
            faults,
            relays,
            consensus,
            stores,
            new_uploads,
            desc_cache_enabled,
            day_parts,
            ring_generation,
            ring_change,
            agenda,
            ..
        } = &mut *self;
        if new_uploads.len() < relays.len() {
            new_uploads.resize_with(relays.len(), Vec::new);
        }
        let parts = desc_cache_enabled.then_some(&*day_parts);
        for &row in agenda.iter() {
            let sid = ServiceId(row);
            if svc.is_online(sid) != Some(true) {
                // Retirement stamps the previous round's time, so it
                // runs before the stores are stamped with this one.
                if let Some(old) = svc.replace_placement(sid, None) {
                    for (relay, id) in old.uploads() {
                        stores[relay].retire(id);
                    }
                }
                svc.set_rate(sid, 0);
                continue;
            }
            let (period, ids) = pair_for(svc, hot, parts, sid, time.unix());
            let placement = match svc.placement(sid) {
                Some(p)
                    if p.reusable
                        && !faults_active
                        && p.period == period
                        && ring_holds(&p, *ring_generation, ring_change, relays) =>
                {
                    if p.ring != *ring_generation {
                        let p = Placement {
                            ring: *ring_generation,
                            ..p
                        };
                        svc.replace_placement(sid, Some(p));
                    }
                    p
                }
                old => {
                    let (p, drops) = place_uploads(
                        consensus,
                        faults,
                        faults_active,
                        (period, ids),
                        *ring_generation,
                        time,
                    );
                    faults.counters.publish_drops += drops;
                    for (relay, id) in old.iter().flat_map(Placement::uploads) {
                        if !p.has_upload(relay, id) {
                            stores[relay].retire(id);
                        }
                    }
                    let onion = svc.onion(sid);
                    for (relay, id) in p.uploads() {
                        if !old.is_some_and(|o| o.has_upload(relay, id)) {
                            new_uploads[relay].push(StoredDescriptor::live(id, onion));
                        }
                    }
                    svc.replace_placement(sid, Some(p));
                    p
                }
            };
            // Slot coverage is derived from public consensuses
            // (responsibility), so a dropped upload still counts the
            // slot — matching what the attacker's normalisation could
            // actually observe.
            let logging = placement.relays().filter(|&r| relays[r].logging).count();
            svc.set_rate(sid, logging as u8);
        }
        // Expiry never drops this round's uploads: live entries read as
        // published now once the store is stamped.
        for (store, fresh) in stores.iter_mut().zip(new_uploads.iter_mut()) {
            store.stamp(time);
            store.expire(time);
            store.apply_batch(fresh);
            fresh.clear();
        }
        if record_coverage {
            // Counted after the loop, so a re-placed row earns its new
            // placement's slots for this hour.
            svc.record_coverage_hour();
            self.coverage_recorded_hour = Some(hour);
        }
        let last = self.last_round.get_or_insert_with(|| LastRound {
            time,
            faults_active,
            logging: Vec::new(),
        });
        last.time = time;
        last.faults_active = faults_active;
        last.logging.clear();
        last.logging.extend(self.relays.iter().map(|r| r.logging));
    }

    /// Re-indexes armed signature targets whose descriptor IDs rotated
    /// since the last round; a no-op in the (usual) hours where no armed
    /// target crosses a period boundary.
    fn refresh_signature_index(&mut self) {
        if !self.desc_cache_enabled {
            return;
        }
        let now = self.time.unix();
        let rotated: Vec<ServiceId> = self
            .svc
            .armed_ids()
            .filter(|&sid| {
                let period = TimePeriod::at(now, self.svc.onion(sid).permanent_id());
                self.svc.sig_period(sid) != Some(period)
            })
            .collect();
        for sid in rotated {
            self.index_signature_target(sid);
        }
    }

    /// (Re)builds the reverse `DescriptorId → ServiceId` entries for
    /// one armed target at the current time.
    fn index_signature_target(&mut self, sid: ServiceId) {
        if !self.desc_cache_enabled {
            return;
        }
        let onion = self.svc.onion(sid);
        let ids = self.cached_pair(onion);
        let period = TimePeriod::at(self.time.unix(), onion.permanent_id());
        self.svc.reindex_signature(sid, &ids, period);
    }

    /// The service's current descriptor-ID pair, answered from the
    /// per-period cache and derived only when the service's staggered
    /// 24 h period rotates.
    pub fn cached_pair(&mut self, onion: OnionAddress) -> [DescriptorId; REPLICAS as usize] {
        let sid = self.svc.intern(onion);
        let parts = self.desc_cache_enabled.then_some(&self.day_parts);
        pair_for(&mut self.svc, &mut self.hot, parts, sid, self.time.unix()).1
    }

    /// Cumulative hot-path work counters.
    pub fn hot_counters(&self) -> HotPathCounters {
        self.hot
    }

    /// Whether fault injection drops an upload of `id` to `relay` in a
    /// round at the current time (for reference models in tests).
    #[cfg(test)]
    pub(crate) fn upload_dropped(&self, relay: RelayId, id: DescriptorId) -> bool {
        !self.faults.is_inert() && self.faults.publish_drop_roll(relay, id, self.time)
    }

    /// A deterministic 64-bit digest of the complete simulated world:
    /// clock, relay population and liveness, the current consensus,
    /// the service table (liveness, slot-hour coverage, armed
    /// signatures), every HSDir's descriptor store, the attacker
    /// request logs, the client pool, and pending guard observations.
    /// Two networks that evolved through the same seeded history hash
    /// identically; any protocol-visible divergence changes the
    /// digest. The resident-daemon layer uses this to prove that a
    /// cancelled, deadline-expired, or panicking query left the shared
    /// world byte-identical, and to name world epochs in cache keys.
    ///
    /// Observability state (hot counters, round traces, wave stats)
    /// and the RNG cursor are deliberately excluded: they never feed
    /// back into protocol decisions, so including them would make the
    /// digest flag divergences no client can observe.
    pub fn state_hash(&self) -> u64 {
        fn fold(h: u64, v: u64) -> u64 {
            wave::mix2(h, v)
        }
        fn fold8(h: u64, bytes: &[u8]) -> u64 {
            let mut b = [0u8; 8];
            let n = bytes.len().min(8);
            b[..n].copy_from_slice(&bytes[..n]);
            fold(h, u64::from_le_bytes(b))
        }
        let mut h: u64 = 0x6c61_6e64_7363_6170; // "landscap"
        h = fold(h, self.time.unix());
        h = fold(h, self.consensus_interval);
        h = fold(h, self.relays.len() as u64);
        for r in &self.relays {
            h = fold(h, r.id.0 as u64);
            h = fold8(h, r.identity.fingerprint().digest().as_bytes());
            h = fold(h, u64::from(r.ip.0));
            h = fold(h, u64::from(r.or_port));
            h = fold(h, r.bandwidth);
            let bits =
                u64::from(r.running) | u64::from(r.reachable) << 1 | u64::from(r.logging) << 2;
            h = fold(h, bits);
            h = fold(h, r.last_restart.unix());
        }
        h = fold(h, self.consensus.valid_after().unix());
        h = fold(h, self.consensus.len() as u64);
        for e in self.consensus.entries() {
            h = fold(h, e.relay.0 as u64);
            h = fold8(h, e.fingerprint.digest().as_bytes());
            h = fold(h, e.bandwidth);
        }
        for (sid, rec) in self.svc.registered() {
            h = fold8(h, rec.onion.permanent_id().as_bytes());
            h = fold(h, u64::from(rec.online));
            h = fold(h, self.svc.slot_hours(sid));
            h = fold(h, u64::from(self.svc.signature(sid).is_some()));
        }
        for store in &self.stores {
            h = fold(h, store.len() as u64);
            for d in store.iter() {
                h = fold8(h, d.descriptor_id.digest().as_bytes());
                h = fold8(h, d.onion.permanent_id().as_bytes());
                h = fold(h, d.published.unix());
            }
        }
        for log in &self.logs {
            h = fold(h, log.len() as u64);
            for rec in log.records() {
                h = fold(h, rec.time.unix());
                h = fold8(h, rec.descriptor_id.digest().as_bytes());
                h = fold(h, u64::from(rec.found));
            }
        }
        h = fold(h, self.clients.len() as u64);
        for c in &self.clients {
            h = fold(h, u64::from(c.ip.0));
        }
        h = fold(h, self.guard_observations.len() as u64);
        for o in &self.guard_observations {
            h = fold(h, o.time.unix());
            h = fold(h, o.guard.0 as u64);
            h = fold(h, u64::from(o.client_ip.0));
            h = fold8(h, o.onion.permanent_id().as_bytes());
        }
        h = fold(h, self.coverage_recorded_hour.unwrap_or(u64::MAX));
        h
    }

    /// Replaces the fault plan (and resets all fault state: schedules,
    /// load counters, and fault counters).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(plan);
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults.plan
    }

    /// Cumulative injected-fault counters.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.counters
    }

    /// Enables (or disables) the per-round trace recorder. Enabling
    /// resets the recording marks to *now*, so the first recorded round
    /// starts at the current sim time; disabling discards any
    /// unconsumed rounds. Recording is observational only — no
    /// simulation behaviour changes either way.
    pub fn set_round_tracing(&mut self, enabled: bool) {
        self.round_trace = if enabled {
            Some(RoundRecorder {
                rounds: Vec::new(),
                mark_time: self.time,
                mark_hot: self.hot,
                mark_faults: self.faults.counters,
            })
        } else {
            None
        };
    }

    /// Whether the round recorder is active.
    pub fn round_tracing_enabled(&self) -> bool {
        self.round_trace.is_some()
    }

    /// Drains the recorded rounds, leaving the recorder enabled with
    /// its marks at the current position. A `Network` cloned *after* a
    /// drain therefore starts with an empty round buffer, so pipeline
    /// snapshots never duplicate rounds already attributed to an
    /// earlier stage.
    pub fn take_round_trace(&mut self) -> Vec<RoundTrace> {
        match &mut self.round_trace {
            Some(rec) => std::mem::take(&mut rec.rounds),
            None => Vec::new(),
        }
    }

    /// Disables (or re-enables) the descriptor-ID cache, forcing the
    /// uncached reference path: every lookup derives its pair from
    /// scratch (four SHA-1s, no day parts), nothing is cached or written
    /// back from waves, and `signature_for` scans linearly. Exists so
    /// tests can check the cached fast path against first-principles
    /// recomputation.
    pub fn set_desc_cache_enabled(&mut self, enabled: bool) {
        self.desc_cache_enabled = enabled;
        self.svc.clear_runtime_caches();
        // The cleared cache is refilled by the next round's full walk.
        self.last_round = None;
        self.refresh_day_parts();
        if enabled {
            let targets: Vec<ServiceId> = self.svc.armed_ids().collect();
            for sid in targets {
                self.index_signature_target(sid);
            }
        }
    }

    /// Slot-hours of logging-relay coverage accumulated for a service.
    pub fn slot_hours(&self, onion: OnionAddress) -> u64 {
        self.svc
            .get(onion)
            .map_or(0, |sid| self.svc.slot_hours(sid))
    }

    /// The full nonzero slot-hour coverage table, sorted by onion
    /// address — a deterministic owned view (the old `&HashMap` borrow
    /// leaked iteration-order nondeterminism to every caller).
    pub fn slot_hours_sorted(&self) -> Vec<(OnionAddress, u64)> {
        self.svc.slot_hours_sorted()
    }

    /// A client fetches the descriptor of a service by onion address
    /// (phantom requests — fetches for onions that never published —
    /// go through here too, like the 80 % of requests the paper
    /// observed).
    ///
    /// The fetch is a one-off unit of its own: it draws its replica
    /// swap from the network RNG, maintains the client's guards, runs
    /// the fetch core of [`Network::client_fetch_readonly`] through a
    /// fresh [`FetchPlan`] on the network RNG, and applies its effects
    /// at once. Its fault rolls are keyed by a per-network serial.
    pub fn client_fetch(&mut self, client: ClientId, onion: OnionAddress) -> FetchOutcome {
        let swap = self.rng.random::<bool>();
        self.clients[client.0]
            .guards
            .maintain(&self.consensus, self.time, &mut self.rng);
        self.one_off_units += 1;
        let mut fx = WaveEffects::new(self.one_off_units);
        // The core reads `&self`, so it draws from a copy of the network
        // RNG that is stored back.
        let mut rng = self.rng.clone();
        let mut plan = self.plan_fetches(onion, &mut fx);
        let outcome = self.fetch_planned(client, &mut plan, swap, &mut rng, &mut fx);
        self.rng = rng;
        self.apply_wave_effects(fx);
        outcome
    }

    /// [`Network::client_fetch`] under the retry loop of
    /// [`Network::client_fetch_with_retry_readonly`].
    pub fn client_fetch_with_retry(
        &mut self,
        client: ClientId,
        onion: OnionAddress,
        policy: &RetryPolicy,
    ) -> FetchAttempts {
        with_retry(policy, || self.client_fetch(client, onion))
    }

    /// Sequential prepare phase for a measurement wave: maintains every
    /// client's guard set against the current consensus, in client
    /// index order, using the network RNG. Run once per wave (after the
    /// mutate phase) so the read-only units can [`GuardSet::pick`]
    /// without touching shared state.
    pub fn prepare_wave(&mut self) {
        // Merge the interner's pending tail so read-only units resolve
        // addresses in `O(log n)` against the sorted index alone.
        self.svc.flush();
        let now = self.time;
        let Network {
            clients,
            consensus,
            rng,
            ..
        } = &mut *self;
        for client in clients.iter_mut() {
            client.guards.maintain(consensus, now, rng);
        }
    }

    /// Plans a read-only unit's fetches of `onion`: looks up its
    /// descriptor-ID pair, counting the lookup in `fx` (a miss is
    /// derived once and kept in `fx.derived`). Build one plan per unit
    /// that fetches, and pass it to each of the unit's
    /// [`Network::client_fetch_readonly`] calls.
    pub fn plan_fetches(&self, onion: OnionAddress, fx: &mut WaveEffects) -> FetchPlan<'_> {
        FetchPlan {
            onion,
            ids: self.pair_readonly(onion, fx),
            replicas: [None; REPLICAS as usize],
            used: false,
            net: PhantomData,
        }
    }

    /// The responsible HSDirs of `desc_id` and what a query to each
    /// would meet during this wave.
    fn plan_replica(&self, desc_id: DescriptorId) -> ReplicaPlan {
        let mut hsdirs = [RelayId(usize::MAX); HSDIRS_PER_REPLICA];
        let n = self.consensus.responsible_hsdirs_into(desc_id, &mut hsdirs);
        let (mut found, mut logging, mut hostile) = (0u8, 0u8, 0u8);
        for (k, hsdir) in hsdirs[..n].iter().enumerate() {
            let relay = &self.relays[hsdir.0];
            found |= u8::from(self.stores[hsdir.0].contains(desc_id)) << k;
            logging |= u8::from(relay.logging) << k;
            hostile |= u8::from(relay.operator != Operator::Honest) << k;
        }
        // Signature injection: an attacker HSDir knows the target
        // services' current descriptor IDs and arms its responses.
        let target = if found & hostile == 0 {
            None
        } else {
            self.signature_for(desc_id)
                .filter(|(_, sig)| sig.matches(&sig.encode_response(3)))
                .map(|(onion, _)| onion)
        };
        ReplicaPlan {
            hsdirs,
            n,
            found,
            logging,
            hostile,
            target,
        }
    }

    /// One read-only fetch of `plan`'s descriptor ID for `replica`.
    ///
    /// The fetch is routed through a circuit whose first hop is one of
    /// the client's guards; each responsible HSDir is tried in random
    /// order until one returns the descriptor. Logging HSDirs record the
    /// request; if the response carries an armed traffic signature and
    /// the guard is attacker-operated, a [`GuardObservation`] is
    /// emitted. Circuit and HSDir-order randomness comes from `rng`,
    /// and every side effect is recorded in `fx`. The client's guard
    /// set must have been maintained ([`Network::prepare_wave`]).
    fn fetch_replica(
        &self,
        client: ClientId,
        plan: &mut FetchPlan<'_>,
        replica: usize,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchOutcome {
        fx.hot.fetches += 1;
        let Some(guard) = self.clients[client.0].guards.pick(&self.consensus, rng) else {
            return FetchOutcome::NoCircuit;
        };
        let desc_id = plan.ids[replica];
        let r = *plan.replicas[replica].get_or_insert_with(|| self.plan_replica(desc_id));
        if r.n == 0 {
            return FetchOutcome::NoHsdirs;
        }
        // Shuffling slot indices draws from the RNG exactly like
        // shuffling the relays themselves.
        let mut order = [0, 1, 2];
        order[..r.n].shuffle(rng);

        let faults_active = !self.faults.is_inert();
        let mut outcome = FetchOutcome::NotFound;
        for &k in &order[..r.n] {
            let hsdir = r.hsdirs[k];
            // An overloaded or lossy HSDir neither serves nor logs the
            // query; the client sees a timeout on that circuit and
            // moves to the next responsible directory.
            if faults_active && self.wave_drops_query(hsdir, desc_id, fx) {
                outcome = FetchOutcome::Timeout;
                continue;
            }
            let found = r.found >> k & 1 == 1;
            if r.logging >> k & 1 == 1 {
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
            // The guard inspects cells flowing toward the client.
            if let Some(onion) = r.target.filter(|_| r.hostile >> k & 1 == 1) {
                if self.relays[guard.0].operator != Operator::Honest {
                    fx.observations.push(GuardObservation {
                        time: self.time,
                        guard,
                        client_ip: self.clients[client.0].ip,
                        onion,
                    });
                }
            }
            break;
        }
        outcome
    }

    /// Whether a responsible HSDir drops this query (overload first,
    /// then the random drop rate). Overload is decided against the
    /// round load at the wave's start plus the unit's own load, and the
    /// drop roll's serial operand derives from the unit key — both
    /// thread-count-invariant.
    fn wave_drops_query(
        &self,
        hsdir: RelayId,
        desc_id: DescriptorId,
        fx: &mut WaveEffects,
    ) -> bool {
        let local = fx.bump_load(hsdir.0);
        let threshold = self.faults.plan.overload_threshold;
        if threshold > 0 && self.faults.round_load(hsdir) + local > threshold {
            fx.overload_drops += 1;
            return true;
        }
        fx.query_serial += 1;
        let serial = crate::fault::mix(crate::fault::mix(fx.unit_key) ^ fx.query_serial);
        if self.faults.wave_drop_roll(desc_id, serial) {
            fx.fetch_drops += 1;
            return true;
        }
        false
    }

    /// Read-only fetch for measurement waves: one fetch through the
    /// unit's `plan`. The replica swap, guard pick and HSDir order draw
    /// from the unit `rng`.
    pub fn client_fetch_readonly<'n>(
        &'n self,
        client: ClientId,
        plan: &mut FetchPlan<'n>,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchOutcome {
        let swap = rng.random::<bool>();
        self.fetch_planned(client, plan, swap, rng, fx)
    }

    /// The fetch core of every client fetch, after its replica swap
    /// draw: tries one replica (the second if `swap`), and falls back
    /// to the other. Each use of `plan` after its first counts the
    /// descriptor-ID lookup it replaces as a cache hit; with the cache
    /// disabled it rebuilds the plan instead, so every lookup derives
    /// its pair from scratch.
    fn fetch_planned<'n>(
        &'n self,
        client: ClientId,
        plan: &mut FetchPlan<'n>,
        swap: bool,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchOutcome {
        if plan.used {
            if self.desc_cache_enabled {
                fx.hot.desc_cache_hits += 1;
            } else {
                *plan = self.plan_fetches(plan.onion, fx);
            }
        }
        plan.used = true;
        let replicas = if swap { [1, 0] } else { [0, 1] };
        let first = self.fetch_replica(client, plan, replicas[0], rng, fx);
        match first {
            FetchOutcome::Found | FetchOutcome::NoCircuit | FetchOutcome::NoHsdirs => first,
            FetchOutcome::NotFound | FetchOutcome::Timeout => {
                let second = self.fetch_replica(client, plan, replicas[1], rng, fx);
                match second {
                    // A timeout on either replica makes the whole fetch
                    // a timeout: the descriptor may exist behind the
                    // dropped query, so the result is transient.
                    FetchOutcome::Found => FetchOutcome::Found,
                    _ if first == FetchOutcome::Timeout => FetchOutcome::Timeout,
                    other => other,
                }
            }
        }
    }

    /// [`Network::client_fetch_readonly`] with capped exponential
    /// backoff: every attempt is one fetch through `plan`.
    pub fn client_fetch_with_retry_readonly<'n>(
        &'n self,
        client: ClientId,
        plan: &mut FetchPlan<'n>,
        policy: &RetryPolicy,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchAttempts {
        with_retry(policy, || self.client_fetch_readonly(client, plan, rng, fx))
    }

    /// Read-only descriptor-ID pair lookup. The cache column and the
    /// pairs the unit already derived both answer as hits. A miss
    /// derives the pair from the day's secret-ID parts and keeps it in
    /// `fx.derived`; the cache itself is written only by
    /// [`Network::apply_wave_effects`], in canonical order, so what a
    /// unit sees never depends on the other units of its wave. With the
    /// cache disabled every lookup derives from scratch and keeps
    /// nothing.
    fn pair_readonly(
        &self,
        onion: OnionAddress,
        fx: &mut WaveEffects,
    ) -> [DescriptorId; REPLICAS as usize] {
        let perm = onion.permanent_id();
        let period = TimePeriod::at(self.time.unix(), perm);
        if !self.desc_cache_enabled {
            return derive_uncached(&mut fx.hot, perm, period);
        }
        let hit = self
            .svc
            .get(onion)
            .and_then(|sid| self.svc.cache(sid))
            .filter(|&(cached, _)| cached == period)
            .or_else(|| {
                fx.derived
                    .iter()
                    .find(|&&(o, (kept, _))| o == onion && kept == period)
                    .map(|&(_, pair)| pair)
            });
        if let Some((_, ids)) = hit {
            fx.hot.desc_cache_hits += 1;
            return ids;
        }
        let ids = derive_pair(&mut fx.hot, &self.day_parts, perm, period);
        fx.derived.push((onion, (period, ids)));
        ids
    }

    /// Folds one wave unit's accumulated side effects back into the
    /// network. Call once per unit, in canonical input order, after the
    /// wave completes — the result is then identical to having run the
    /// units sequentially. The unit's derived descriptor-ID pairs go
    /// into the cache (phantom onions intern as phantom rows), so later
    /// lookups on this network hit.
    pub fn apply_wave_effects(&mut self, fx: WaveEffects) {
        for (onion, pair) in fx.derived {
            let sid = self.svc.intern(onion);
            self.svc.set_cache(sid, pair);
        }
        self.hot.sha1_digests += fx.hot.sha1_digests;
        self.hot.desc_cache_hits += fx.hot.desc_cache_hits;
        self.hot.desc_cache_misses += fx.hot.desc_cache_misses;
        self.hot.fetches += fx.hot.fetches;
        self.faults.counters.fetch_drops += fx.fetch_drops;
        self.faults.counters.overload_drops += fx.overload_drops;
        self.faults.counters.service_flaps += fx.service_flaps;
        self.faults.add_load(&fx.load);
        for (relay, record) in fx.logs {
            self.logs[relay.0].record(record);
        }
        self.guard_observations.extend(fx.observations);
    }

    /// The rendezvous after a fetch that found `onion`'s descriptor: the
    /// backend's replies to one connection on each of `ports`, in order.
    ///
    /// A service that flaps this hour (host churn, overloaded
    /// introduction points) is unreachable although its descriptor
    /// resolved: every port times out, as from a dead backend — exactly
    /// the paper's scan ambiguity. The flap is counted once in `fx`.
    pub fn connect_ports(
        &self,
        onion: OnionAddress,
        ports: &[u16],
        backend: &dyn ServiceBackend,
        fx: &mut WaveEffects,
    ) -> Vec<PortReply> {
        if !self.faults.is_inert() && self.faults.service_flapping(onion, self.time) {
            fx.service_flaps += 1;
            return vec![PortReply::Timeout; ports.len()];
        }
        backend.connect_ports(onion, ports, self.time)
    }

    /// Which armed target (if any) a served descriptor ID belongs to.
    ///
    /// The cached fast path is a single reverse-index lookup; with the
    /// cache disabled this falls back to the original linear scan that
    /// recomputes `pair_at` per armed target.
    fn signature_for(&self, desc_id: DescriptorId) -> Option<(OnionAddress, TrafficSignature)> {
        if self.desc_cache_enabled {
            let sid = self.svc.sig_lookup(desc_id)?;
            return Some((self.svc.onion(sid), self.svc.signature(sid)?.clone()));
        }
        let now = self.time.unix();
        for sid in self.svc.armed_ids() {
            let onion = self.svc.onion(sid);
            if DescriptorId::pair_at(onion, now).contains(&desc_id) {
                return Some((onion, self.svc.signature(sid)?.clone()));
            }
        }
        None
    }
}

/// Runs `fetch` with capped exponential backoff: transient
/// [`FetchOutcome::Timeout`] results are retried up to the policy's
/// attempt budget. Backoff is accounted in the result, never slept —
/// simulation time does not advance, and a fetch that does not time
/// out (as on a zero-fault network) is made exactly once.
fn with_retry(policy: &RetryPolicy, mut fetch: impl FnMut() -> FetchOutcome) -> FetchAttempts {
    let budget = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    let mut backoff_secs = 0u64;
    loop {
        attempts += 1;
        let outcome = fetch();
        if outcome != FetchOutcome::Timeout || attempts >= budget {
            return FetchAttempts {
                outcome,
                attempts,
                backoff_secs,
            };
        }
        backoff_secs += policy.backoff_after(attempts);
    }
}

/// Descriptor-ID pair lookup against the per-period cache column, free
/// of `&mut Network` so callers can run it under a split borrow. A miss
/// derives the pair from the day's secret-ID `parts` and caches it.
/// With the cache disabled (`parts` is `None`) it derives every pair
/// from scratch and caches nothing: the test reference path. Returns
/// the pair with the period it belongs to.
fn pair_for(
    svc: &mut ServiceTable,
    hot: &mut HotPathCounters,
    parts: Option<&DaySecretParts>,
    sid: ServiceId,
    now_unix: u64,
) -> DescPair {
    let perm = svc.onion(sid).permanent_id();
    let period = TimePeriod::at(now_unix, perm);
    let Some(parts) = parts else {
        return (period, derive_uncached(hot, perm, period));
    };
    if let Some(pair) = svc.cache(sid).filter(|&(cached, _)| cached == period) {
        hot.desc_cache_hits += 1;
        return pair;
    }
    let pair = (period, derive_pair(hot, parts, perm, period));
    svc.set_cache(sid, pair);
    pair
}

/// A cache miss: derives `perm`'s pair for `period` from the day's
/// secret-ID parts, one SHA-1 per replica.
fn derive_pair(
    hot: &mut HotPathCounters,
    parts: &DaySecretParts,
    perm: PermanentId,
    period: TimePeriod,
) -> [DescriptorId; REPLICAS as usize] {
    hot.desc_cache_misses += 1;
    hot.sha1_digests += u64::from(REPLICAS);
    parts.pair(perm, period)
}

/// The reference derivation with the cache disabled: both SHA-1s of
/// every replica, nothing shared.
fn derive_uncached(
    hot: &mut HotPathCounters,
    perm: PermanentId,
    period: TimePeriod,
) -> [DescriptorId; REPLICAS as usize] {
    hot.sha1_digests += 2 * u64::from(REPLICAS);
    Replica::ALL.map(|r| DescriptorId::compute(perm, period, r))
}

/// Whether `p`'s slots are still the responsible HSDirs in ring
/// generation `ring`: `p` was placed in it, or in the generation before
/// and `change` moved nothing near its descriptor IDs.
fn ring_holds(p: &Placement, ring: u32, change: &RingChange, relays: &[Relay]) -> bool {
    p.ring == ring
        || p.ring.wrapping_add(1) == ring
            && p.ids.iter().enumerate().all(|(replica, &id)| {
                p.responsible(replica).is_some_and(|responsible| {
                    let last = relays[responsible[HSDIRS_PER_REPLICA - 1].0].fingerprint();
                    change.keeps(id, responsible, last)
                })
            })
}

/// Looks up one service's responsible HSDirs for its descriptor IDs in
/// `consensus` (of ring generation `ring`) and rolls each upload's
/// fault drop: the slow path of a publish round, run only when a
/// service's [`Placement`] cannot be reused. Returns the placement and
/// the number of dropped uploads.
fn place_uploads(
    consensus: &Consensus,
    faults: &FaultState,
    faults_active: bool,
    (period, ids): DescPair,
    ring: u32,
    time: SimTime,
) -> (Placement, u64) {
    let mut placement = Placement {
        ids,
        period,
        ring,
        slots: [Placement::NO_RELAY; UPLOAD_SLOTS],
        uploaded: 0,
        reusable: !faults_active,
    };
    let mut drops = 0;
    let mut responsible = [RelayId(usize::MAX); HSDIRS_PER_REPLICA];
    for (replica, desc_id) in ids.into_iter().enumerate() {
        let n = consensus.responsible_hsdirs_into(desc_id, &mut responsible);
        for (k, &relay) in responsible[..n].iter().enumerate() {
            let slot = replica * HSDIRS_PER_REPLICA + k;
            placement.slots[slot] = u32::try_from(relay.0).expect("relay index fits in u32");
            if faults_active && faults.publish_drop_roll(relay, desc_id, time) {
                drops += 1;
            } else {
                placement.uploaded |= 1 << slot;
            }
        }
    }
    (placement, drops)
}

// Measurement waves share `&Network` across scoped worker threads, so
// every queried surface must stay `Sync`. `Network` has no interior
// mutability; this assertion turns any future regression (a `Cell`, an
// `Rc`) into a compile error rather than a lost `Sync` bound downstream.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Network>();
    assert_sync::<WaveEffects>();
};

/// Builder for [`Network`], seeding an initial honest relay population.
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    relays: usize,
    seed: u64,
    start: SimTime,
    consensus_interval: u64,
    min_bandwidth: u64,
    max_bandwidth: u64,
    /// Fraction of relays started long enough ago to hold every flag.
    established_fraction: f64,
    /// Fault plan the network starts under (inert by default).
    faults: FaultPlan,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder {
            relays: 1400,
            seed: 0x7042_2013,
            start: SimTime::from_ymd(2013, 2, 1),
            consensus_interval: HOUR,
            min_bandwidth: 20,
            max_bandwidth: 10_000,
            established_fraction: 0.8,
            faults: FaultPlan::none(),
        }
    }
}

impl NetworkBuilder {
    /// Creates a builder with 2013-scale defaults (~1400 relays).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of initial honest relays.
    pub fn relays(mut self, n: usize) -> Self {
        self.relays = n;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulation start time.
    pub fn start(mut self, t: SimTime) -> Self {
        self.start = t;
        self
    }

    /// Sets the consensus interval in seconds (default one hour).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is zero.
    pub fn consensus_interval(mut self, secs: u64) -> Self {
        assert!(secs > 0, "consensus interval must be nonzero");
        self.consensus_interval = secs;
        self
    }

    /// Sets the fraction of relays old enough to hold Guard/HSDir flags
    /// at start.
    pub fn established_fraction(mut self, f: f64) -> Self {
        self.established_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the fault plan the network starts under. The default
    /// ([`FaultPlan::none`]) injects nothing and is byte-identical to
    /// omitting the call.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the honest-relay bandwidth range in kB/s (heavy-tailed
    /// between `min` and `max`).
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max`.
    pub fn bandwidth_range(mut self, min: u64, max: u64) -> Self {
        assert!(
            min >= 1 && min <= max,
            "bandwidth range must satisfy 1 <= min <= max"
        );
        self.min_bandwidth = min;
        self.max_bandwidth = max;
        self
    }

    /// Builds the network and votes the initial consensus.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth range is invalid or the relay count
    /// exceeds the honest IP space.
    pub fn build(self) -> Network {
        assert!(
            self.min_bandwidth >= 1 && self.min_bandwidth <= self.max_bandwidth,
            "bandwidth range must satisfy 1 <= min <= max"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut relays = Vec::with_capacity(self.relays);
        for i in 0..self.relays {
            // Distinct public IPs for honest volunteers.
            let ip = honest_relay_ip(i);
            // Heavy-tailed bandwidth: a few fast relays, many slow ones.
            let u: f64 = rng.random::<f64>();
            let bw = heavy_tail_bandwidth(self.min_bandwidth, self.max_bandwidth, u);
            let established = rng.random::<f64>() < self.established_fraction;
            let age_secs = if established {
                rng.random_range(9 * DAY..120 * DAY)
            } else {
                rng.random_range(0..25 * HOUR)
            };
            let identity = SimIdentity::generate(&mut rng);
            relays.push(Relay::new(
                RelayId(i),
                format!("relay{i}"),
                ip,
                9001,
                identity,
                bw,
                self.start - age_secs,
            ));
        }

        let authority = Authority::new();
        let consensus = authority.vote(&relays, self.start);
        let flags_hold_until = authority.flags_hold_until(&relays, self.start);
        let n = relays.len();
        Network {
            time: self.start,
            consensus_interval: self.consensus_interval,
            authority,
            relays,
            consensus,
            svc: ServiceTable::default(),
            stores: vec![DescriptorStore::new(); n],
            logs: vec![RequestLog::new(); n],
            clients: Vec::new(),
            guard_observations: Vec::new(),
            coverage_recorded_hour: None,
            hot: HotPathCounters {
                sha1_digests: DaySecretParts::DIGESTS,
                votes: 1,
                ..HotPathCounters::default()
            },
            desc_cache_enabled: true,
            day_parts: DaySecretParts::for_day_of(self.start.unix()),
            faults: FaultState::new(self.faults),
            round_trace: None,
            ring_generation: 0,
            ring_change: RingChange::default(),
            new_uploads: Vec::new(),
            agenda: Vec::new(),
            last_round: None,
            relay_epoch: 0,
            voted: (0, flags_hold_until),
            one_off_units: 0,
            rng: StdRng::seed_from_u64(self.seed ^ 0x00c1_1e77_5eed),
        }
    }
}

/// Deterministic distinct public IP for the `i`-th honest seed relay.
///
/// Walks 51.b.c.1 … 255.b.c.1 and then rolls the final octet, so the
/// space holds ~3.3 billion relays; conversion is checked, so
/// exhausting it panics instead of silently wrapping the first octet
/// into colliding addresses (which would corrupt the 2-per-IP
/// consensus rule).
fn honest_relay_ip(i: usize) -> Ipv4 {
    let block = i / (253 * 253);
    let a = u8::try_from(51 + block % 205).expect("first octet stays within 51..=255");
    let d = u8::try_from(1 + block / 205)
        .unwrap_or_else(|_| panic!("relay index {i} exceeds the honest IP space"));
    Ipv4::new(a, 1 + ((i / 253) % 253) as u8, 1 + (i % 253) as u8, d)
}

/// Heavy-tailed bandwidth draw in kB/s: `min * (max/min)^(u²)`, with
/// the ratio taken in f64 so non-divisible ranges keep their tail
/// (integer division used to truncate `max/min` before `powf`).
fn heavy_tail_bandwidth(min: u64, max: u64, u: f64) -> u64 {
    let ratio = max as f64 / min as f64;
    ((min as f64 * ratio.powf(u * u)) as u64).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::RelayFlags;

    struct AlwaysOpen;
    impl ServiceBackend for AlwaysOpen {
        fn connect_ports(&self, _: OnionAddress, ports: &[u16], _: SimTime) -> Vec<PortReply> {
            vec![PortReply::Open; ports.len()]
        }
    }

    fn small_net() -> Network {
        NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .build()
    }

    #[test]
    fn builder_produces_flagged_relays() {
        let net = small_net();
        assert_eq!(net.relays().len(), 80);
        assert!(net.consensus().hsdir_count() > 20, "most relays are HSDirs");
        assert!(net.consensus().guards().count() > 5, "some guards exist");
    }

    #[test]
    fn descriptors_published_and_fetchable() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"my hidden service");
        net.register_service(onion, true);
        net.advance_hours(1);

        let client = net.add_client(Ipv4::new(93, 184, 216, 34));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
    }

    #[test]
    fn offline_service_not_fetchable() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"dead service");
        net.register_service(onion, false);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(1, 2, 3, 4));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::NotFound);
    }

    #[test]
    fn phantom_request_not_found_but_logged() {
        let mut net = small_net();
        net.advance_hours(1);
        // Make every relay a logging attacker so the request is surely
        // logged at the responsible HSDirs.
        for i in 0..net.relays().len() {
            net.relay_mut(RelayId(i)).logging = true;
        }
        let phantom = OnionAddress::from_pubkey(b"never published");
        let client = net.add_client(Ipv4::new(5, 6, 7, 8));
        assert_eq!(net.client_fetch(client, phantom), FetchOutcome::NotFound);

        let logged: usize = (0..net.relays().len())
            .map(|i| net.request_log(RelayId(i)).len())
            .sum();
        // Both replicas tried, 3 HSDirs each.
        assert_eq!(logged, 6);
        assert!((0..net.relays().len())
            .flat_map(|i| net.request_log(RelayId(i)).records().iter())
            .all(|r| !r.found));
    }

    #[test]
    fn descriptor_rotation_moves_stores() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"rotating service");
        net.register_service(onion, true);
        net.advance_hours(1);
        let pair_before = net.cached_pair(onion);
        let before: Vec<RelayId> = net
            .consensus()
            .responsible_for_service(onion, net.time().unix())
            .iter()
            .map(|e| e.relay)
            .collect();
        net.advance_hours(25);
        let pair_after = net.cached_pair(onion);
        let after: Vec<RelayId> = net
            .consensus()
            .responsible_for_service(onion, net.time().unix())
            .iter()
            .map(|e| e.relay)
            .collect();
        assert_ne!(before, after, "responsible set rotates with the period");
        assert_ne!(pair_before, pair_after, "cache invalidated on rotation");
        // The cache must have re-filled at least once (rotation) on top
        // of the initial miss, and answered the other rounds for free.
        let hot = net.hot_counters();
        assert!(hot.desc_cache_misses >= 2, "{hot:?}");
        assert!(hot.desc_cache_hits > hot.desc_cache_misses, "{hot:?}");
        // Two SHA-1s per derived pair, plus the secret-ID parts of the
        // start day (at build) and of the one day boundary crossed.
        assert_eq!(
            hot.sha1_digests,
            2 * hot.desc_cache_misses + 2 * DaySecretParts::DIGESTS,
            "{hot:?}"
        );
        // And the descriptor is still fetchable after rotation.
        let client = net.add_client(Ipv4::new(9, 9, 9, 9));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
    }

    /// An 80-relay network whose relays are all established HSDirs, so
    /// the ring changes only when a test changes it.
    fn steady_net() -> Network {
        NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .established_fraction(1.0)
            .build()
    }

    /// `n` onions whose descriptor IDs do not rotate within `hours`
    /// hours after `net`'s current time.
    fn steady_onions(net: &Network, n: usize, hours: u64) -> Vec<OnionAddress> {
        let (from, to) = (net.time().unix(), (net.time() + hours * HOUR).unix());
        (0..=255u8)
            .map(|k| OnionAddress::from_pubkey(&[k, 0x5e]))
            .filter(|o| {
                TimePeriod::at(from, o.permanent_id()) == TimePeriod::at(to, o.permanent_id())
            })
            .take(n)
            .collect()
    }

    /// Every stored entry of `onion` as (relay, descriptor ID, reported
    /// publication time), in relay and then ID order.
    fn entries_of(net: &Network, onion: OnionAddress) -> Vec<(usize, DescriptorId, SimTime)> {
        (0..net.relays().len())
            .flat_map(|i| {
                net.store(RelayId(i))
                    .iter()
                    .filter(|d| d.onion == onion)
                    .map(move |d| (i, d.descriptor_id, d.published))
            })
            .collect()
    }

    /// The (relay, descriptor ID) uploads `onion` owes the current ring.
    fn responsible_pairs(net: &Network, onion: OnionAddress) -> Vec<(usize, DescriptorId)> {
        let mut pairs: Vec<(usize, DescriptorId)> = DescriptorId::pair_at(onion, net.time().unix())
            .into_iter()
            .flat_map(|id| {
                net.consensus()
                    .responsible_hsdirs(id)
                    .into_iter()
                    .map(move |e| (e.relay.0, id))
            })
            .collect();
        pairs.sort();
        pairs
    }

    #[test]
    fn switching_publish_drops_off_restores_every_upload_in_one_round() {
        let mut net = steady_net();
        net.set_fault_plan(FaultPlan {
            seed: 21,
            publish_drop_rate: 0.5,
            ..FaultPlan::none()
        });
        let onions: Vec<OnionAddress> = (0..12u8)
            .map(|k| OnionAddress::from_pubkey(&[k, 4, 4]))
            .collect();
        for &o in &onions {
            net.register_service(o, true);
        }
        net.advance_hours(1);
        assert!(net.fault_counters().publish_drops > 0);
        // Same time, same ring: only the drops can make the faulted
        // placements unusable.
        net.set_fault_plan(FaultPlan::none());
        net.revote();
        let now = net.time();
        for &o in &onions {
            let pairs = responsible_pairs(&net, o);
            assert_eq!(pairs.len(), 6);
            for (relay, id) in pairs {
                let got = net.store(RelayId(relay)).fetch(id).map(|d| d.published);
                assert_eq!(got, Some(now), "relay {relay} misses an upload");
            }
        }
    }

    #[test]
    fn service_offline_and_back_around_a_revote_keeps_one_entry_per_id() {
        let mut net = steady_net();
        let onion = steady_onions(&net, 1, 4)[0];
        net.register_service(onion, true);
        net.advance_hours(1);
        let t1 = net.time();
        let live: Vec<(usize, DescriptorId, SimTime)> = responsible_pairs(&net, onion)
            .into_iter()
            .map(|(relay, id)| (relay, id, t1))
            .collect();
        assert_eq!(entries_of(&net, onion), live);

        net.set_service_online(onion, false);
        net.revote();
        net.set_service_online(onion, true);
        net.revote();
        assert_eq!(entries_of(&net, onion), live, "one entry per ID, at t1");
        net.advance_hours(1);
        let t2 = net.time();
        let at = |t: SimTime| {
            live.iter()
                .map(|&(r, id, _)| (r, id, t))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            entries_of(&net, onion),
            at(t2),
            "live again after the revote"
        );

        // Offline across a round: the entries keep the last upload's
        // time, then one revote makes them current again.
        net.set_service_online(onion, false);
        net.advance_hours(1);
        assert_eq!(entries_of(&net, onion), at(t2));
        net.set_service_online(onion, true);
        net.revote();
        assert_eq!(entries_of(&net, onion), at(net.time()));
    }

    #[test]
    fn relay_leaving_and_rejoining_the_ring_leaves_no_stale_entry() {
        let mut net = steady_net();
        let onion = steady_onions(&net, 1, 5)[0];
        net.register_service(onion, true);
        net.advance_hours(1);
        let t1 = net.time();
        let before = responsible_pairs(&net, onion);
        let (gone, id) = before[0];

        net.relay_mut(RelayId(gone)).reachable = false;
        net.advance_hours(1);
        let t2 = net.time();
        let (stand_in, _) = responsible_pairs(&net, onion)
            .into_iter()
            .find(|pair| !before.contains(pair))
            .expect("another HSDir takes over the slot");
        assert_eq!(
            net.store(RelayId(gone)).fetch(id).unwrap().published,
            t1,
            "the departed upload keeps the previous round's time"
        );
        assert_eq!(
            net.store(RelayId(stand_in)).fetch(id).unwrap().published,
            t2
        );

        net.relay_mut(RelayId(gone)).reachable = true;
        net.advance_hours(2);
        let t4 = net.time();
        assert_eq!(responsible_pairs(&net, onion), before, "the ring is back");
        // Current uploads read as this round; the stand-in's copy stays
        // frozen at its last upload.
        let mut expected: Vec<(usize, DescriptorId, SimTime)> =
            before.iter().map(|&(r, i)| (r, i, t4)).collect();
        expected.push((stand_in, id, t2));
        expected.sort();
        assert_eq!(entries_of(&net, onion), expected);
    }

    #[test]
    fn desc_cache_toggle_keeps_the_eager_counts() {
        let mut net = steady_net();
        let onions = steady_onions(&net, 10, 6);
        for &o in &onions {
            net.register_service(o, true);
        }
        let counts = |sha1_digests, desc_cache_misses, publish_rows| HotPathCounters {
            sha1_digests,
            desc_cache_misses,
            publish_rows,
            ..HotPathCounters::default()
        };
        // The build's day parts and vote, then two SHA-1s per derived
        // pair. Every relay is past every flag threshold, so no round
        // of this test votes afresh.
        net.advance_hours(1);
        assert_eq!(
            net.hot_counters(),
            HotPathCounters {
                votes: 1,
                ..counts(4 + 20, 10, 10)
            }
        );
        // The reference path: four SHA-1s per lookup, nothing cached.
        // The toggle makes the next round visit every row; the one
        // after visits none, because no period rotates.
        net.set_desc_cache_enabled(false);
        let before = net.hot_counters();
        net.advance_hours(2);
        assert_eq!(net.hot_counters().since(before), counts(40, 0, 10));
        // Still the same day, so re-enabling reuses its parts.
        net.set_desc_cache_enabled(true);
        let before = net.hot_counters();
        net.advance_hours(1);
        assert_eq!(net.hot_counters().since(before), counts(20, 10, 10));
        let before = net.hot_counters();
        net.advance_hours(1);
        assert_eq!(
            net.hot_counters().since(before),
            counts(0, 0, 0),
            "an idle row is not visited, so it does not probe the cache"
        );
        for &o in &onions {
            for (relay, id) in responsible_pairs(&net, o) {
                let got = net.store(RelayId(relay)).fetch(id).map(|d| d.published);
                assert_eq!(got, Some(net.time()));
            }
        }
    }

    #[test]
    fn live_entries_hash_and_read_like_fresh_uploads() {
        // `live` keeps its uploads live; `frozen` retires them at the
        // same round and comes back online before the next one, so the
        // two differ only in how their stores hold the same entries.
        let setup = || {
            let mut net = steady_net();
            net.register_service(OnionAddress::from_pubkey(b"hash svc"), true);
            net.advance_hours(1);
            net
        };
        let onion = OnionAddress::from_pubkey(b"hash svc");
        let mut live = setup();
        live.revote();
        let mut frozen = setup();
        frozen.set_service_online(onion, false);
        frozen.revote();
        frozen.set_service_online(onion, true);
        assert_eq!(entries_of(&live, onion), entries_of(&frozen, onion));
        assert_eq!(live.state_hash(), frozen.state_hash());
        assert!(entries_of(&live, onion).iter().all(|e| e.2 == live.time()));
    }

    #[test]
    fn advance_hours_clamps_to_target() {
        let mut net = NetworkBuilder::new()
            .relays(30)
            .seed(3)
            .start(SimTime::from_ymd(2013, 2, 1))
            .consensus_interval(2 * HOUR)
            .build();
        let start = net.time();
        // 2 h interval does not divide 5 h: the last step must clamp.
        net.advance_hours(5);
        assert_eq!(net.time().since(start), 5 * HOUR);
        // And the error must not compound across calls.
        net.advance_hours(5);
        assert_eq!(net.time().since(start), 10 * HOUR);
        net.advance_hours(1);
        assert_eq!(net.time().since(start), 11 * HOUR);
    }

    #[test]
    fn publish_round_caches_descriptor_ids() {
        let mut net = small_net();
        let onions: Vec<OnionAddress> = (0..10u8)
            .map(|k| OnionAddress::from_pubkey(&[k, 1, 2]))
            .collect();
        for &o in &onions {
            net.register_service(o, true);
        }
        net.advance_hours(1);
        let h1 = net.hot_counters();
        assert_eq!(h1.desc_cache_misses, 10, "{h1:?}");
        assert_eq!(h1.desc_cache_hits, 0, "{h1:?}");
        assert_eq!(
            h1.sha1_digests,
            DaySecretParts::DIGESTS + 20,
            "the day's secret-ID parts, then one SHA-1 x two replicas x ten"
        );
        let t1 = net.time().unix();
        net.advance_hours(1);
        let t2 = net.time().unix();
        // Only services whose staggered period rolled over may miss.
        let rotated = onions
            .iter()
            .filter(|o| {
                TimePeriod::at(t1, o.permanent_id()) != TimePeriod::at(t2, o.permanent_id())
            })
            .count() as u64;
        let h2 = net.hot_counters().since(h1);
        assert_eq!(h2.desc_cache_misses, rotated, "{h2:?}");
        assert_eq!(h2.desc_cache_hits, 10 - rotated, "{h2:?}");
        assert_eq!(h2.sha1_digests, 2 * rotated, "same day, same parts: {h2:?}");
    }

    #[test]
    fn round_tracing_records_contiguous_intervals_and_drains() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"traced svc");
        net.register_service(onion, true);
        net.advance_hours(1);
        assert!(
            net.take_round_trace().is_empty(),
            "disabled recorder yields nothing"
        );

        net.set_round_tracing(true);
        let enabled_at = net.time();
        let hot_before = net.hot_counters();
        net.advance_hours(3);
        let rounds = net.take_round_trace();
        assert_eq!(rounds.len(), 3, "one record per consensus round");
        assert_eq!(rounds[0].start, enabled_at);
        for pair in rounds.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "intervals are contiguous");
        }
        let delta = net.hot_counters().since(hot_before);
        let summed: u64 = rounds.iter().map(|r| r.hot.total()).sum();
        assert_eq!(summed, delta.total(), "round deltas partition the work");

        // A snapshot cloned after a drain starts with an empty buffer.
        let mut snapshot = net.clone();
        assert!(snapshot.round_tracing_enabled());
        assert!(snapshot.take_round_trace().is_empty());
        snapshot.advance_hours(1);
        assert_eq!(snapshot.take_round_trace().len(), 1);

        // Tracing itself never perturbs the simulation.
        let mut plain = small_net();
        plain.register_service(onion, true);
        plain.advance_hours(4);
        assert_eq!(plain.hot_counters(), net.hot_counters());
        assert_eq!(plain.time(), net.time());
    }

    #[test]
    fn cache_and_reference_paths_agree() {
        let run = |cached: bool| {
            let mut net = small_net();
            net.set_desc_cache_enabled(cached);
            let onion = OnionAddress::from_pubkey(b"equivalence svc");
            net.register_service(onion, true);
            net.arm_signature(onion, TrafficSignature::default());
            for i in 0..net.relays().len() {
                let r = net.relay_mut(RelayId(i));
                r.operator = Operator::Harvester;
                r.logging = true;
            }
            // Crosses a descriptor rotation, so the cache is exercised
            // through an invalidation, not just warm hits.
            net.advance_hours(30);
            let client = net.add_client(Ipv4::new(9, 8, 7, 6));
            let outcome = net.client_fetch(client, onion);
            let log_lens: Vec<usize> = (0..net.relays().len())
                .map(|i| net.request_log(RelayId(i)).len())
                .collect();
            (
                outcome,
                log_lens,
                net.guard_observations().len(),
                net.slot_hours(onion),
                net.cached_pair(onion),
            )
        };
        let fast = run(true);
        let reference = run(false);
        assert_eq!(fast, reference);
        assert_eq!(fast.0, FetchOutcome::Found);
        assert_eq!(fast.2, 1, "one observation through either path");
    }

    #[test]
    fn revote_does_not_double_count_slot_hours() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"coverage svc");
        net.register_service(onion, true);
        for i in 0..net.relays().len() {
            net.relay_mut(RelayId(i)).logging = true;
        }
        net.advance_hours(1);
        let after_hour = net.slot_hours(onion);
        assert_eq!(after_hour, 6, "all six responsible slots log");
        // Extra votes within the already-recorded hour add nothing.
        net.revote();
        net.revote();
        assert_eq!(net.slot_hours(onion), after_hour);
        net.advance_hours(1);
        assert_eq!(net.slot_hours(onion), after_hour + 6);
    }

    #[test]
    fn signature_index_tracks_rotation() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"tracked svc");
        net.register_service(onion, true);
        for i in 0..net.relays().len() {
            let r = net.relay_mut(RelayId(i));
            r.operator = Operator::Harvester;
            r.logging = true;
        }
        net.advance_hours(1);
        // Arming after the round must index immediately (no step between
        // arming and the first fetch).
        net.arm_signature(onion, TrafficSignature::default());
        let client = net.add_client(Ipv4::new(203, 0, 113, 9));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
        assert_eq!(net.guard_observations().len(), 1);
        // After the target's descriptor rotation the re-indexed entries
        // must still resolve the (new) served IDs.
        net.advance_hours(25);
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
        assert_eq!(net.guard_observations().len(), 2);
    }

    #[test]
    fn honest_ips_unique_at_scale() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        // Sample across block boundaries, including where the old
        // unchecked cast wrapped the first octet (i = 253·253·205).
        let boundary = 253 * 253 * 205;
        for i in (0..2_000)
            .chain((253 * 253 - 100)..(253 * 253 + 100))
            .chain((boundary - 100)..(boundary + 100))
        {
            assert!(seen.insert(honest_relay_ip(i)), "duplicate IP at {i}");
        }
    }

    #[test]
    fn heavy_tail_ratio_not_truncated() {
        // 10/3 truncated to 3 under integer division, capping the tail
        // at 9 instead of 10.
        assert_eq!(heavy_tail_bandwidth(3, 10, 1.0), 10);
        assert_eq!(heavy_tail_bandwidth(3, 10, 0.0), 3);
        assert_eq!(heavy_tail_bandwidth(20, 10_000, 1.0), 10_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth range")]
    fn bandwidth_range_rejects_inverted() {
        let _ = NetworkBuilder::new().bandwidth_range(100, 10);
    }

    #[test]
    #[should_panic(expected = "bandwidth range")]
    fn bandwidth_range_rejects_zero_min() {
        let _ = NetworkBuilder::new().bandwidth_range(0, 10);
    }

    #[test]
    fn connect_port_full_path() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"webserver");
        net.register_service(onion, true);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(10, 1, 1, 1));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
        let mut fx = WaveEffects::new(1);
        let replies = net.connect_ports(onion, &[80, 443], &AlwaysOpen, &mut fx);
        assert_eq!(replies, [PortReply::Open; 2]);
        net.apply_wave_effects(fx);
        assert_eq!(net.fault_counters(), FaultCounters::default());

        // No descriptor, nothing to connect to.
        let ghost = OnionAddress::from_pubkey(b"ghost");
        assert_eq!(net.client_fetch(client, ghost), FetchOutcome::NotFound);
    }

    #[test]
    fn signature_observation_requires_attacker_guard() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"watched service");
        net.register_service(onion, true);
        net.arm_signature(onion, TrafficSignature::default());

        // Turn every relay into an attacker relay: HSDirs inject, guards
        // detect — guaranteeing an observation on a successful fetch.
        for i in 0..net.relays().len() {
            let r = net.relay_mut(RelayId(i));
            r.operator = Operator::Harvester;
            r.logging = true;
        }
        net.advance_hours(1);

        let victim_ip = Ipv4::new(203, 0, 113, 7);
        let client = net.add_client(victim_ip);
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
        let obs = net.guard_observations();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].client_ip, victim_ip);
        assert_eq!(obs[0].onion, onion);
    }

    #[test]
    fn no_observation_with_honest_guards() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"watched service 2");
        net.register_service(onion, true);
        net.arm_signature(onion, TrafficSignature::default());
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(198, 51, 100, 4));
        let _ = net.client_fetch(client, onion);
        assert!(net.guard_observations().is_empty());
    }

    #[test]
    fn added_relay_joins_next_round() {
        let mut net = small_net();
        let mut rng = StdRng::seed_from_u64(77);
        let id = net.add_relay(
            "latecomer",
            Ipv4::new(203, 0, 113, 99),
            9001,
            SimIdentity::generate(&mut rng),
            9_999,
            Operator::Harvester,
        );
        assert!(net.consensus().entry(net.relay(id).fingerprint()).is_none());
        net.advance_hours(1);
        assert!(net.consensus().entry(net.relay(id).fingerprint()).is_some());
        // But no HSDir flag until 25 h of uptime.
        let e = net.consensus().entry(net.relay(id).fingerprint()).unwrap();
        assert!(!e.flags.contains(RelayFlags::HSDIR));
        net.advance_hours(25);
        let e = net.consensus().entry(net.relay(id).fingerprint()).unwrap();
        assert!(e.flags.contains(RelayFlags::HSDIR));
    }

    /// A run under an explicit zero-rate plan with a nonzero fault seed
    /// is indistinguishable from a run with no plan at all.
    #[test]
    fn zero_rate_plan_is_byte_identical() {
        let run = |plan: Option<FaultPlan>| {
            let mut b = NetworkBuilder::new()
                .relays(80)
                .seed(11)
                .start(SimTime::from_ymd(2013, 2, 1));
            if let Some(plan) = plan {
                b = b.faults(plan);
            }
            let mut net = b.build();
            let onion = OnionAddress::from_pubkey(b"identity service");
            net.register_service(onion, true);
            net.advance_hours(30);
            let client = net.add_client(Ipv4::new(93, 184, 216, 34));
            let outcomes: Vec<FetchOutcome> =
                (0..20).map(|_| net.client_fetch(client, onion)).collect();
            (outcomes, net.hot_counters(), net.slot_hours(onion))
        };
        let zero = FaultPlan {
            seed: 0xdead_beef,
            ..FaultPlan::none()
        };
        assert!(zero.is_inert());
        assert_eq!(run(None), run(Some(zero)));
    }

    #[test]
    fn crashed_relays_leave_consensus_and_restart_later() {
        let plan = FaultPlan {
            seed: 3,
            relay_crash_rate: 0.05,
            restart_after_hours: 2,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        net.advance_hours(12);
        let c = net.fault_counters();
        assert!(c.relay_crashes > 0, "{c:?}");
        assert!(
            c.relay_restarts > 0,
            "2 h downtime within 12 h must restart some relays: {c:?}"
        );
        // Down relays are not listed; a consensus still forms.
        let down = net.relays().iter().filter(|r| !r.running).count();
        assert!(net.consensus().len() <= net.relays().len() - down);
        assert!(net.consensus().hsdir_count() > 0);
        // Determinism: the same plan replays the same faults.
        let mut twin = NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(net.fault_plan().clone())
            .build();
        twin.advance_hours(12);
        assert_eq!(net.fault_counters(), twin.fault_counters());
    }

    #[test]
    fn total_drop_rate_times_out_and_retry_exhausts() {
        let plan = FaultPlan {
            seed: 9,
            hsdir_drop_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        let onion = OnionAddress::from_pubkey(b"unreachable service");
        net.register_service(onion, true);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(93, 184, 216, 34));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Timeout);

        let policy = RetryPolicy::standard();
        let res = net.client_fetch_with_retry(client, onion, &policy);
        assert_eq!(res.outcome, FetchOutcome::Timeout);
        assert_eq!(res.attempts, policy.max_attempts);
        // 2 s + 4 s of accounted (never slept) backoff.
        assert_eq!(res.backoff_secs, 6);
        assert!(net.fault_counters().fetch_drops >= 6 * 3);
    }

    #[test]
    fn partial_drop_rate_recovers_with_retry() {
        let plan = FaultPlan {
            seed: 5,
            hsdir_drop_rate: 0.6,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        let onion = OnionAddress::from_pubkey(b"flaky but present");
        net.register_service(onion, true);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(93, 184, 216, 34));
        let generous = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::standard()
        };
        // At 0.6 per-HSDir drop over 6 responsible HSDirs per attempt,
        // twelve attempts find the descriptor with near certainty.
        let res = net.client_fetch_with_retry(client, onion, &generous);
        assert_eq!(res.outcome, FetchOutcome::Found);
        assert!(res.attempts >= 1);
    }

    #[test]
    fn zero_fault_fetch_never_retries() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"steady service");
        net.register_service(onion, true);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(93, 184, 216, 34));
        let res = net.client_fetch_with_retry(client, onion, &RetryPolicy::standard());
        assert_eq!(res.outcome, FetchOutcome::Found);
        assert_eq!(res.attempts, 1);
        assert_eq!(res.backoff_secs, 0);
        assert_eq!(net.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn publish_drops_reduce_store_coverage_but_not_slot_hours() {
        let plan = FaultPlan {
            seed: 21,
            publish_drop_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        let onion = OnionAddress::from_pubkey(b"never uploads");
        net.register_service(onion, true);
        net.advance_hours(1);
        assert!(net.fault_counters().publish_drops > 0);
        let client = net.add_client(Ipv4::new(93, 184, 216, 34));
        assert_eq!(
            net.client_fetch(client, onion),
            FetchOutcome::NotFound,
            "every upload dropped, nothing to serve"
        );
    }

    #[test]
    fn flapping_service_unreachable_despite_descriptor() {
        let plan = FaultPlan {
            seed: 2,
            service_flap_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        let onion = OnionAddress::from_pubkey(b"flapping service");
        net.register_service(onion, true);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(93, 184, 216, 34));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
        let mut fx = WaveEffects::new(1);
        let replies = net.connect_ports(onion, &[80, 443], &AlwaysOpen, &mut fx);
        assert_eq!(replies, [PortReply::Timeout; 2], "every port times out");
        assert_eq!(net.fault_counters().service_flaps, 0, "counted on apply");
        net.apply_wave_effects(fx);
        assert_eq!(
            net.fault_counters().service_flaps,
            1,
            "one flap per connection"
        );
    }

    #[test]
    fn readonly_fetch_counts_effects_and_logs_on_apply() {
        let mut net = small_net();
        let onion = OnionAddress::from_pubkey(b"wave service");
        net.register_service(onion, true);
        net.advance_hours(1);
        for i in 0..net.relays().len() {
            net.relay_mut(RelayId(i)).logging = true;
        }
        let client = net.add_client(Ipv4::new(10, 0, 0, 1));
        net.prepare_wave();
        let hot0 = net.hot_counters();

        let mut rng = StdRng::seed_from_u64(1);
        let mut fx = WaveEffects::new(0x11);
        let mut plan = net.plan_fetches(onion, &mut fx);
        assert_eq!(
            net.client_fetch_readonly(client, &mut plan, &mut rng, &mut fx),
            FetchOutcome::Found
        );
        let phantom = OnionAddress::from_pubkey(b"wave phantom");
        let mut rng2 = StdRng::seed_from_u64(2);
        let mut fx2 = WaveEffects::new(0x22);
        let mut plan2 = net.plan_fetches(phantom, &mut fx2);
        assert_eq!(
            net.client_fetch_readonly(client, &mut plan2, &mut rng2, &mut fx2),
            FetchOutcome::NotFound
        );
        assert_eq!(
            net.hot_counters(),
            hot0,
            "read-only fetches defer all counting"
        );

        net.apply_wave_effects(fx);
        net.apply_wave_effects(fx2);
        let d = net.hot_counters().since(hot0);
        assert_eq!(d.desc_cache_hits, 1, "published pair answered by cache");
        assert_eq!(d.desc_cache_misses, 1, "phantom pair derived in the unit");
        assert_eq!(
            d.sha1_digests, 2,
            "only the phantom pays SHA-1 work, one per replica"
        );
        // The phantom alone probes both replicas' three slots; every
        // relay logs, so at least those six records land on apply.
        let logged: usize = (0..net.relays().len())
            .map(|i| net.request_log(RelayId(i)).len())
            .sum();
        assert!(logged >= 6, "logged {logged}");
    }

    /// Every logged request of every relay, in log order.
    fn all_logs(net: &Network) -> Vec<(usize, SimTime, DescriptorId, bool)> {
        (0..net.relays().len())
            .flat_map(|i| {
                net.request_log(RelayId(i))
                    .records()
                    .iter()
                    .map(move |r| (i, r.time, r.descriptor_id, r.found))
            })
            .collect()
    }

    #[test]
    fn wave_unit_keeps_its_derived_pair_and_writes_it_back() {
        let phantom = OnionAddress::from_pubkey(b"phantom fetched twice");
        // Two waves of one unit each, fetching the phantom twice.
        let run = |cached: bool| {
            let mut net = small_net();
            net.set_desc_cache_enabled(cached);
            net.advance_hours(1);
            for i in 0..net.relays().len() {
                net.relay_mut(RelayId(i)).logging = true;
            }
            let client = net.add_client(Ipv4::new(10, 0, 0, 3));
            let mut waves = Vec::new();
            for wave in 0..2u64 {
                net.prepare_wave();
                let before = net.hot_counters();
                let mut rng = StdRng::seed_from_u64(wave);
                let mut fx = WaveEffects::new(wave);
                let mut plan = net.plan_fetches(phantom, &mut fx);
                for _ in 0..2 {
                    let outcome = net.client_fetch_readonly(client, &mut plan, &mut rng, &mut fx);
                    assert_eq!(outcome, FetchOutcome::NotFound);
                }
                net.apply_wave_effects(fx);
                waves.push(net.hot_counters().since(before));
            }
            (waves, all_logs(&net), net.state_hash())
        };
        let (cached, cached_logs, cached_hash) = run(true);
        let (reference, reference_logs, reference_hash) = run(false);
        let counts = |d: &HotPathCounters| {
            (
                d.desc_cache_misses,
                d.desc_cache_hits,
                d.sha1_digests,
                d.fetches,
            )
        };
        // One derived pair answers the unit's second lookup, and the
        // write-back answers every lookup of the next wave.
        assert_eq!(counts(&cached[0]), (1, 1, 2, 4));
        assert_eq!(counts(&cached[1]), (0, 2, 0, 4));
        // The reference derives every lookup from scratch and keeps
        // nothing.
        assert_eq!(counts(&reference[0]), (0, 0, 8, 4));
        assert_eq!(counts(&reference[1]), (0, 0, 8, 4));
        // Both replicas' three HSDirs per fetch, two fetches, two waves.
        assert_eq!(cached_logs.len(), 24);
        assert_eq!(cached_logs, reference_logs);
        assert_eq!(
            cached_hash, reference_hash,
            "the phantom row is invisible to the state hash"
        );
    }

    #[test]
    fn state_hash_skips_a_phantom_row_interned_before_a_service() {
        let onion = OnionAddress::from_pubkey(b"registered after a phantom");
        let run = |phantom_first: bool| {
            let mut net = small_net();
            for i in 0..net.relays().len() {
                net.relay_mut(RelayId(i)).logging = true;
            }
            if phantom_first {
                net.cached_pair(OnionAddress::from_pubkey(b"phantom in row zero"));
            }
            net.register_service(onion, true);
            net.advance_hours(2);
            assert_eq!(net.slot_hours(onion), 12);
            net.state_hash()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn offline_service_cached_by_a_wave_hits_on_its_first_publish() {
        let mut net = steady_net();
        let onion = steady_onions(&net, 1, 3)[0];
        net.register_service(onion, false);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(10, 0, 0, 4));
        net.prepare_wave();
        let mut rng = StdRng::seed_from_u64(4);
        let mut fx = WaveEffects::new(4);
        let mut plan = net.plan_fetches(onion, &mut fx);
        assert_eq!(
            net.client_fetch_readonly(client, &mut plan, &mut rng, &mut fx),
            FetchOutcome::NotFound
        );
        net.apply_wave_effects(fx);

        net.set_service_online(onion, true);
        let before = net.hot_counters();
        net.advance_hours(1);
        let d = net.hot_counters().since(before);
        assert_eq!(
            (d.desc_cache_hits, d.desc_cache_misses, d.sha1_digests),
            (1, 0, 0),
            "the wave's pair answers the first publish"
        );
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
    }

    #[test]
    fn readonly_fetch_deterministic_under_faults() {
        let run = || {
            let plan = FaultPlan {
                seed: 9,
                hsdir_drop_rate: 0.5,
                overload_threshold: 3,
                ..FaultPlan::none()
            };
            let mut net = NetworkBuilder::new()
                .relays(80)
                .seed(11)
                .start(SimTime::from_ymd(2013, 2, 1))
                .faults(plan)
                .build();
            let onion = OnionAddress::from_pubkey(b"faulty wave svc");
            net.register_service(onion, true);
            net.advance_hours(1);
            let client = net.add_client(Ipv4::new(10, 0, 0, 2));
            net.prepare_wave();
            let mut rng = StdRng::seed_from_u64(77);
            let mut fx = WaveEffects::new(0xabc);
            let mut plan = net.plan_fetches(onion, &mut fx);
            let out = net.client_fetch_with_retry_readonly(
                client,
                &mut plan,
                &RetryPolicy::standard(),
                &mut rng,
                &mut fx,
            );
            (out, format!("{fx:?}"))
        };
        assert_eq!(run(), run(), "unit-keyed rolls replay identically");
    }

    #[test]
    fn overload_threshold_drops_excess_queries() {
        let plan = FaultPlan {
            seed: 4,
            overload_threshold: 2,
            ..FaultPlan::none()
        };
        let mut net = NetworkBuilder::new()
            .relays(80)
            .seed(11)
            .start(SimTime::from_ymd(2013, 2, 1))
            .faults(plan)
            .build();
        let onion = OnionAddress::from_pubkey(b"popular service");
        net.register_service(onion, true);
        net.advance_hours(1);
        let client = net.add_client(Ipv4::new(93, 184, 216, 34));
        // Hammer the same descriptor: responsible HSDirs hit their
        // 2-query round budget and start shedding load.
        for _ in 0..20 {
            let _ = net.client_fetch(client, onion);
        }
        assert!(net.fault_counters().overload_drops > 0);
        // A new consensus round resets the load counters.
        let before = net.fault_counters().overload_drops;
        net.advance_hours(1);
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
        assert_eq!(net.fault_counters().overload_drops, before);
    }
}
