//! The network orchestrator: relays, consensus rounds, descriptor
//! publication, client fetches and full connections.
//!
//! [`Network`] owns all protocol state and advances it in consensus
//! intervals. Measurement crates drive it from outside: the world
//! generator registers services and toggles their liveness, the
//! harvester adds its relay fleet and flips reachability bits, the
//! popularity pipeline replays client request streams, and the
//! deanonymisation attack reads the guard-observation feed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use onion_crypto::descriptor::{DescriptorId, Replica, TimePeriod, HSDIRS_PER_REPLICA, REPLICAS};
use onion_crypto::identity::SimIdentity;
use onion_crypto::onion::OnionAddress;

use crate::authority::Authority;
use crate::cells::TrafficSignature;
use crate::clock::{SimTime, DAY, HOUR};
use crate::consensus::Consensus;
use crate::fault::{FaultCounters, FaultPlan, FaultState, RetryPolicy};
use crate::intern::{ServiceId, ServiceTable};

use crate::guard::GuardSet;
use crate::relay::{Ipv4, Operator, Relay, RelayId};
use crate::service::{ConnectOutcome, PortReply, ServiceBackend};
use crate::store::{DescriptorStore, RequestLog, RequestRecord, StoredDescriptor};

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

/// Side effects accumulated by one read-only measurement work unit.
///
/// Measurement waves share `&Network` across worker threads; everything
/// a unit would have written through `&mut self` on the sequential path
/// — hot-path counters, fault counters, per-relay query load, request
/// logs, guard observations — lands here instead and is folded back in
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
    /// Queries dropped by the per-query drop rate.
    fetch_drops: u64,
    /// Queries dropped as overload against the wave-start snapshot.
    overload_drops: u64,
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
    /// SHA-1 finalisations performed for descriptor-ID computation
    /// (each `DescriptorId::compute` costs two).
    pub sha1_digests: u64,
    /// Descriptor-ID pair lookups answered from the per-period cache.
    pub desc_cache_hits: u64,
    /// Lookups that had to recompute (first sight or period rotation).
    pub desc_cache_misses: u64,
    /// Client descriptor fetches attempted (per descriptor ID).
    pub fetches: u64,
}

impl HotPathCounters {
    /// Component-wise `self - earlier`: the work done since a snapshot.
    pub fn since(self, earlier: HotPathCounters) -> HotPathCounters {
        HotPathCounters {
            sha1_digests: self.sha1_digests - earlier.sha1_digests,
            desc_cache_hits: self.desc_cache_hits - earlier.desc_cache_hits,
            desc_cache_misses: self.desc_cache_misses - earlier.desc_cache_misses,
            fetches: self.fetches - earlier.fetches,
        }
    }

    /// Folds the counters into a metric registry under their historical
    /// `bench_stages.json` names, in the historical order.
    pub fn record_into(self, reg: &mut obs::Registry) {
        reg.inc("sha1_digests", self.sha1_digests);
        reg.inc("desc_cache_hits", self.desc_cache_hits);
        reg.inc("desc_cache_misses", self.desc_cache_misses);
        reg.inc("fetches", self.fetches);
    }

    /// Total work items across all categories (used for trace span
    /// weights).
    pub fn total(self) -> u64 {
        self.sha1_digests + self.desc_cache_hits + self.desc_cache_misses + self.fetches
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
    /// Deterministic fault injection (inert by default).
    faults: FaultState,
    /// Optional per-round trace recorder (disabled by default; purely
    /// observational, never consulted by simulation logic).
    round_trace: Option<RoundRecorder>,
    /// Per-relay publish batches, reused round to round so the
    /// publish path stays allocation-free at steady state.
    publish_batches: Vec<Vec<StoredDescriptor>>,
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
        self.stores.push(DescriptorStore::new());
        self.logs.push(RequestLog::new());
        id
    }

    /// Registers a hidden service. `online` services publish descriptors
    /// at every consensus round.
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
    /// store maintenance. Rounds are too short to repay a thread fork
    /// (DESIGN.md, "Consensus rounds run inline").
    fn step(&mut self) {
        self.svc.flush();
        if !self.faults.is_inert() {
            // Relay-level faults apply before the vote so the consensus
            // reflects this round's crashes and restarts.
            self.faults.on_round(&mut self.relays, self.time);
        }
        self.consensus = self.authority.vote(&self.relays, self.time);
        self.publish_descriptors();
        // Store maintenance runs after the publish merge: expiry only
        // drops >24 h-old descriptors (never this round's uploads) and
        // publication never reads stores, so each store can expire and
        // apply its batch in one pass.
        for (i, store) in self.stores.iter_mut().enumerate() {
            store.expire(self.time);
            if let Some(batch) = self.publish_batches.get(i) {
                store.apply_batch(batch);
            }
        }
        self.refresh_signature_index();
        self.record_round();
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

    /// Publishes both descriptor replicas of every online service to the
    /// currently responsible HSDirs, and records slot-hour coverage (at
    /// most once per hour) for logging relays.
    ///
    /// Each online service is one read-only work unit (descriptor IDs,
    /// responsible slots, drop rolls — all pure hashes, no RNG), and
    /// the resulting [`PublishEffect`]s merge in canonical `ServiceId`
    /// order into the cache, the hot counters and the per-relay upload
    /// batches that store maintenance then applies.
    ///
    /// Descriptor IDs come from the per-period cache: only services
    /// whose staggered 24 h period rolled over since the previous round
    /// pay for fresh SHA-1 work.
    fn publish_descriptors(&mut self) {
        let time = self.time;
        let hour = self.time.hours();
        let record_coverage = self.coverage_recorded_hour != Some(hour);
        let faults_active = !self.faults.is_inert();
        let cache_enabled = self.desc_cache_enabled;
        let online: Vec<ServiceId> = self.svc.online_ids().collect();

        let effects: Vec<PublishEffect> = online
            .iter()
            .map(|&sid| {
                publish_unit(
                    &self.svc,
                    &self.consensus,
                    &self.relays,
                    &self.faults,
                    faults_active,
                    cache_enabled,
                    sid,
                    time,
                )
            })
            .collect();

        let Network {
            svc,
            hot,
            faults,
            publish_batches,
            relays,
            ..
        } = &mut *self;
        if publish_batches.len() < relays.len() {
            publish_batches.resize_with(relays.len(), Vec::new);
        }
        for batch in publish_batches.iter_mut() {
            batch.clear();
        }
        for (&sid, fx) in online.iter().zip(&effects) {
            if let Some(pair) = fx.cache {
                svc.set_cache(sid, pair);
            }
            hot.desc_cache_hits += u64::from(fx.hits);
            hot.desc_cache_misses += u64::from(fx.misses);
            hot.sha1_digests += u64::from(fx.sha1);
            faults.counters.publish_drops += u64::from(fx.drops);
            if record_coverage && fx.logging_slots > 0 {
                svc.add_slot_hours(sid, u64::from(fx.logging_slots));
            }
            let onion = svc.onion(sid);
            for &(relay, desc_id) in &fx.uploads[..usize::from(fx.n_uploads)] {
                publish_batches[relay.0].push(StoredDescriptor {
                    descriptor_id: desc_id,
                    onion,
                    published: time,
                });
            }
        }
        if record_coverage {
            self.coverage_recorded_hour = Some(hour);
        }
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
    /// per-period cache and recomputed only when the service's staggered
    /// 24 h period rotates.
    pub fn cached_pair(&mut self, onion: OnionAddress) -> [DescriptorId; REPLICAS as usize] {
        let sid = self.svc.intern(onion);
        pair_for(
            &mut self.svc,
            &mut self.hot,
            self.desc_cache_enabled,
            sid,
            self.time.unix(),
        )
    }

    /// Cumulative hot-path work counters.
    pub fn hot_counters(&self) -> HotPathCounters {
        self.hot
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
        for (i, rec) in self.svc.records().enumerate() {
            let sid = ServiceId(i as u32);
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
    /// uncached reference path: `pair_at` recomputation per lookup and a
    /// linear scan in `signature_for`. Exists so tests can check the
    /// cached fast path against first-principles recomputation.
    pub fn set_desc_cache_enabled(&mut self, enabled: bool) {
        self.desc_cache_enabled = enabled;
        self.svc.clear_runtime_caches();
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

    /// A client fetches a descriptor by ID (phantom requests — fetches
    /// for IDs that were never published — go through this entry point
    /// too, exactly like the 80 % of requests the paper observed).
    ///
    /// The fetch is routed through a circuit whose first hop is one of
    /// the client's guards; each responsible HSDir is tried in random
    /// order until one returns the descriptor. Logging HSDirs record the
    /// request; if the response carries an armed traffic signature and
    /// the guard is attacker-operated, a [`GuardObservation`] is emitted.
    pub fn client_fetch_desc_id(
        &mut self,
        client: ClientId,
        desc_id: DescriptorId,
    ) -> FetchOutcome {
        self.hot.fetches += 1;
        // Establish the entry guard.
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
        // Shuffling the filled prefix draws from the RNG exactly like
        // shuffling the old `Vec` of the same length did.
        order[..n].shuffle(&mut self.rng);

        let faults_active = !self.faults.is_inert();
        let mut outcome = FetchOutcome::NotFound;
        for &hsdir in &order[..n] {
            // An overloaded or lossy HSDir neither serves nor logs the
            // query; the client sees a timeout on that circuit and
            // moves to the next responsible directory.
            if faults_active && self.faults.drops_query(hsdir, desc_id) {
                outcome = FetchOutcome::Timeout;
                continue;
            }
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
            outcome = FetchOutcome::Found;
            // Signature injection: the attacker HSDir knows the target
            // services' current descriptor IDs and arms responses.
            if self.relays[hsdir.0].operator != Operator::Honest {
                if let Some((onion, sig)) = self.signature_for(desc_id) {
                    let cells = sig.encode_response(3);
                    // The guard inspects cells flowing toward the client.
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
            break;
        }
        outcome
    }

    /// A client fetches the descriptor of a service by onion address:
    /// picks a replica at random, falls back to the other.
    pub fn client_fetch(&mut self, client: ClientId, onion: OnionAddress) -> FetchOutcome {
        let mut ids = self.cached_pair(onion);
        if self.rng.random::<bool>() {
            ids.swap(0, 1);
        }
        let first = self.client_fetch_desc_id(client, ids[0]);
        match first {
            FetchOutcome::Found | FetchOutcome::NoCircuit | FetchOutcome::NoHsdirs => first,
            FetchOutcome::NotFound | FetchOutcome::Timeout => {
                let second = self.client_fetch_desc_id(client, ids[1]);
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

    /// [`Network::client_fetch`] with capped exponential backoff over
    /// the replica set: transient [`FetchOutcome::Timeout`] results are
    /// retried up to the policy's attempt budget. Backoff is accounted
    /// in the result, never slept — simulation time does not advance,
    /// and a zero-fault network (which never times out) performs
    /// exactly one attempt with identical RNG consumption.
    pub fn client_fetch_with_retry(
        &mut self,
        client: ClientId,
        onion: OnionAddress,
        policy: &RetryPolicy,
    ) -> FetchAttempts {
        let budget = policy.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut backoff_secs = 0u64;
        loop {
            attempts += 1;
            let outcome = self.client_fetch(client, onion);
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

    /// Read-only variant of [`Network::client_fetch_desc_id`] for
    /// measurement waves: circuit and HSDir-order randomness comes from
    /// the unit's own `rng`, and every side effect is recorded in `fx`
    /// instead of written through. The client's guard set must have
    /// been maintained by [`Network::prepare_wave`].
    pub fn client_fetch_desc_id_readonly(
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

    /// The wave counterpart of `FaultState::drops_query`: overload is
    /// decided against the wave-start load snapshot plus the unit's own
    /// local contribution, and the drop roll's serial operand derives
    /// from the unit key — both thread-count-invariant.
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

    /// Read-only variant of [`Network::client_fetch`]: the replica swap
    /// draws from the unit `rng`, and a descriptor-ID pair not answered
    /// by the cache is recomputed locally without populating it (the
    /// SHA-1 work and the miss are still counted in `fx`).
    pub fn client_fetch_readonly(
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
        let first = self.client_fetch_desc_id_readonly(client, ids[0], rng, fx);
        match first {
            FetchOutcome::Found | FetchOutcome::NoCircuit | FetchOutcome::NoHsdirs => first,
            FetchOutcome::NotFound | FetchOutcome::Timeout => {
                let second = self.client_fetch_desc_id_readonly(client, ids[1], rng, fx);
                match second {
                    FetchOutcome::Found => FetchOutcome::Found,
                    _ if first == FetchOutcome::Timeout => FetchOutcome::Timeout,
                    other => other,
                }
            }
        }
    }

    /// Read-only variant of [`Network::client_fetch_with_retry`].
    pub fn client_fetch_with_retry_readonly(
        &self,
        client: ClientId,
        onion: OnionAddress,
        policy: &RetryPolicy,
        rng: &mut StdRng,
        fx: &mut WaveEffects,
    ) -> FetchAttempts {
        let budget = policy.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut backoff_secs = 0u64;
        loop {
            attempts += 1;
            let outcome = self.client_fetch_readonly(client, onion, rng, fx);
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

    /// Read-only descriptor-ID pair lookup: cache hits are served and
    /// counted; misses recompute locally *without* inserting (dead and
    /// phantom services would otherwise mutate the cache mid-wave), so
    /// the miss accounting matches the sequential publish-warmed path.
    fn pair_readonly(
        &self,
        onion: OnionAddress,
        fx: &mut WaveEffects,
    ) -> [DescriptorId; REPLICAS as usize] {
        let perm = onion.permanent_id();
        let period = TimePeriod::at(self.time.unix(), perm);
        if self.desc_cache_enabled {
            if let Some((cached_period, ids)) =
                self.svc.get(onion).and_then(|sid| self.svc.cache(sid))
            {
                if cached_period == period {
                    fx.hot.desc_cache_hits += 1;
                    return ids;
                }
            }
            fx.hot.desc_cache_misses += 1;
        }
        fx.hot.sha1_digests += 2 * u64::from(REPLICAS);
        Replica::ALL.map(|r| DescriptorId::compute(perm, period, r))
    }

    /// Folds one wave unit's accumulated side effects back into the
    /// network. Call once per unit, in canonical input order, after the
    /// wave completes — the result is then identical to having run the
    /// units sequentially.
    pub fn apply_wave_effects(&mut self, fx: WaveEffects) {
        self.hot.sha1_digests += fx.hot.sha1_digests;
        self.hot.desc_cache_hits += fx.hot.desc_cache_hits;
        self.hot.desc_cache_misses += fx.hot.desc_cache_misses;
        self.hot.fetches += fx.hot.fetches;
        self.faults.counters.fetch_drops += fx.fetch_drops;
        self.faults.counters.overload_drops += fx.overload_drops;
        self.faults.add_load(&fx.load);
        for (relay, record) in fx.logs {
            self.logs[relay.0].record(record);
        }
        self.guard_observations.extend(fx.observations);
    }

    /// Full application connection: descriptor fetch, rendezvous, then
    /// the backend's port reply.
    pub fn connect_port(
        &mut self,
        client: ClientId,
        onion: OnionAddress,
        port: u16,
        backend: &dyn ServiceBackend,
    ) -> ConnectOutcome {
        match self.client_fetch(client, onion) {
            FetchOutcome::Found => {}
            _ => return ConnectOutcome::NoDescriptor,
        }
        // Transient unreachability: the descriptor resolved but the
        // service itself is flapping this hour (host churn, overloaded
        // introduction points). Indistinguishable from a dead backend
        // to the client, which is exactly the paper's scan ambiguity.
        if !self.faults.is_inert() && self.faults.service_flapping(onion, self.time) {
            return ConnectOutcome::ServiceUnreachable;
        }
        if !backend.is_online(onion, self.time) {
            return ConnectOutcome::ServiceUnreachable;
        }
        ConnectOutcome::Port(backend.connect(onion, port, self.time))
    }

    /// Convenience wrapper matching the paper's scan semantics: returns
    /// the port reply only (no descriptor → `Timeout`-equivalent
    /// `NoDescriptor` is surfaced via [`ConnectOutcome`]).
    pub fn scan_port(
        &mut self,
        client: ClientId,
        onion: OnionAddress,
        port: u16,
        backend: &dyn ServiceBackend,
    ) -> Option<PortReply> {
        match self.connect_port(client, onion, port, backend) {
            ConnectOutcome::Port(reply) => Some(reply),
            _ => None,
        }
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

/// Descriptor-ID pair lookup against the per-period cache column, free
/// of `&mut Network` so callers can run it under a split borrow. With
/// the cache disabled it recomputes every time (the test reference
/// path) while still counting the SHA-1 work.
fn pair_for(
    svc: &mut ServiceTable,
    hot: &mut HotPathCounters,
    cache_enabled: bool,
    sid: ServiceId,
    now_unix: u64,
) -> [DescriptorId; REPLICAS as usize] {
    let perm = svc.onion(sid).permanent_id();
    let period = TimePeriod::at(now_unix, perm);
    if cache_enabled {
        if let Some((cached_period, ids)) = svc.cache(sid) {
            if cached_period == period {
                hot.desc_cache_hits += 1;
                return ids;
            }
        }
        hot.desc_cache_misses += 1;
    }
    // Each DescriptorId::compute finalises two SHA-1s.
    hot.sha1_digests += 2 * u64::from(REPLICAS);
    let ids = Replica::ALL.map(|r| DescriptorId::compute(perm, period, r));
    if cache_enabled {
        svc.set_cache(sid, (period, ids));
    }
    ids
}

/// Upload slots one service can fill per round: both replicas times the
/// responsible HSDirs per replica.
const UPLOAD_SLOTS: usize = REPLICAS as usize * HSDIRS_PER_REPLICA;

/// Everything one service's publish work unit decided, recorded
/// allocation-free for the sequential `ServiceId`-order merge.
#[derive(Clone, Copy, Debug)]
struct PublishEffect {
    /// Fresh cache entry to install (`None` on a cache hit or with the
    /// cache disabled).
    cache: Option<(TimePeriod, [DescriptorId; REPLICAS as usize])>,
    /// Descriptor-ID cache hits (0 or 1).
    hits: u8,
    /// Descriptor-ID cache misses (0 or 1).
    misses: u8,
    /// SHA-1 finalisations performed.
    sha1: u8,
    /// Responsible slots held by logging relays this round.
    logging_slots: u8,
    /// Uploads dropped by fault injection.
    drops: u8,
    /// Successful uploads, in replica-then-ring order.
    uploads: [(RelayId, DescriptorId); UPLOAD_SLOTS],
    /// How many `uploads` entries are filled.
    n_uploads: u8,
}

/// The publish work unit for one online service: pure hash work
/// (descriptor IDs, ring responsibility, keyed drop rolls — no RNG, no
/// shared mutation).
#[allow(clippy::too_many_arguments)]
fn publish_unit(
    svc: &ServiceTable,
    consensus: &Consensus,
    relays: &[Relay],
    faults: &FaultState,
    faults_active: bool,
    cache_enabled: bool,
    sid: ServiceId,
    time: SimTime,
) -> PublishEffect {
    let onion = svc.onion(sid);
    let perm = onion.permanent_id();
    let period = TimePeriod::at(time.unix(), perm);
    let (ids, cache, hits, misses, sha1) = match svc.cache(sid) {
        Some((cached_period, ids)) if cache_enabled && cached_period == period => {
            (ids, None, 1, 0, 0)
        }
        _ => {
            let ids = Replica::ALL.map(|r| DescriptorId::compute(perm, period, r));
            let cache = cache_enabled.then_some((period, ids));
            // With the cache disabled only the SHA-1 work is counted,
            // exactly like the sequential `pair_for` reference path.
            (ids, cache, 0, u8::from(cache_enabled), 2 * REPLICAS)
        }
    };
    let mut fx = PublishEffect {
        cache,
        hits,
        misses,
        sha1,
        logging_slots: 0,
        drops: 0,
        uploads: [(RelayId(usize::MAX), ids[0]); UPLOAD_SLOTS],
        n_uploads: 0,
    };
    let mut responsible = [RelayId(usize::MAX); HSDIRS_PER_REPLICA];
    for desc_id in ids {
        let n = consensus.responsible_hsdirs_into(desc_id, &mut responsible);
        for &relay in &responsible[..n] {
            // Slot coverage is derived from public consensuses
            // (responsibility), so a dropped upload still counts the
            // slot — matching what the attacker's normalisation could
            // actually observe.
            if relays[relay.0].logging {
                fx.logging_slots += 1;
            }
            if faults_active && faults.publish_drop_roll(relay, desc_id, time) {
                fx.drops += 1;
                continue;
            }
            fx.uploads[usize::from(fx.n_uploads)] = (relay, desc_id);
            fx.n_uploads += 1;
        }
    }
    fx
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
            hot: HotPathCounters::default(),
            desc_cache_enabled: true,
            faults: FaultState::new(self.faults),
            round_trace: None,
            publish_batches: Vec::new(),
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
        fn connect(&self, _onion: OnionAddress, _port: u16, _now: SimTime) -> PortReply {
            PortReply::Open
        }
        fn is_online(&self, _onion: OnionAddress, _now: SimTime) -> bool {
            true
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
        assert_eq!(hot.sha1_digests, 4 * hot.desc_cache_misses, "{hot:?}");
        // And the descriptor is still fetchable after rotation.
        let client = net.add_client(Ipv4::new(9, 9, 9, 9));
        assert_eq!(net.client_fetch(client, onion), FetchOutcome::Found);
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
        assert_eq!(h1.sha1_digests, 40, "two SHA-1s x two replicas x ten");
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
        assert_eq!(h2.sha1_digests, 4 * rotated, "{h2:?}");
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
        let out = net.connect_port(client, onion, 80, &AlwaysOpen);
        assert_eq!(out, ConnectOutcome::Port(PortReply::Open));
        assert!(out.counts_as_open());

        let ghost = OnionAddress::from_pubkey(b"ghost");
        let out = net.connect_port(client, ghost, 80, &AlwaysOpen);
        assert_eq!(out, ConnectOutcome::NoDescriptor);
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
        assert_eq!(
            net.connect_port(client, onion, 80, &AlwaysOpen),
            ConnectOutcome::ServiceUnreachable
        );
        assert!(net.fault_counters().service_flaps > 0);
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
        assert_eq!(
            net.client_fetch_readonly(client, onion, &mut rng, &mut fx),
            FetchOutcome::Found
        );
        let phantom = OnionAddress::from_pubkey(b"wave phantom");
        let mut rng2 = StdRng::seed_from_u64(2);
        let mut fx2 = WaveEffects::new(0x22);
        assert_eq!(
            net.client_fetch_readonly(client, phantom, &mut rng2, &mut fx2),
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
        assert_eq!(d.desc_cache_misses, 1, "phantom pair computed locally");
        assert_eq!(d.sha1_digests, 4, "only the phantom pays SHA-1 work");
        // The phantom alone probes both replicas' three slots; every
        // relay logs, so at least those six records land on apply.
        let logged: usize = (0..net.relays().len())
            .map(|i| net.request_log(RelayId(i)).len())
            .sum();
        assert!(logged >= 6, "logged {logged}");
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
            let out = net.client_fetch_with_retry_readonly(
                client,
                onion,
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
