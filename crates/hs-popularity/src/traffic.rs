//! Client descriptor-request traffic.
//!
//! Drives the simulated client population: every hour each service
//! (live *or* dead) receives a Poisson-distributed number of descriptor
//! fetches according to its popularity weight. Fetches for dead
//! services target descriptor IDs that were never published — the 80 %
//! "phantom" request stream the paper observed and could not fully
//! explain.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use onion_crypto::onion::OnionAddress;
use tor_sim::network::{onion_unit_key, ClientId, Network, WaveEffects};
use wave::{mix2, WavePool, WaveStats};

use hs_world::{GeoDb, World};

/// Traffic configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    /// Size of the client pool issuing requests.
    pub clients: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the hourly measurement wave (1 = inline).
    pub threads: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            clients: 400,
            seed: 0x007a_ff1c,
            threads: 1,
        }
    }
}

/// Sampler health counters: how often [`poisson`] hit its numeric
/// guards. Both stay zero under any realistic λ; non-zero values flag a
/// mis-scaled popularity model rather than expected behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoissonStats {
    /// Knuth-loop iterations exceeded the λ-aware valve.
    pub valve_trips: u64,
    /// Normal approximation produced a negative variate, clamped to 0.
    pub clamp_trips: u64,
}

impl PoissonStats {
    fn absorb(&mut self, other: PoissonStats) {
        self.valve_trips += other.valve_trips;
        self.clamp_trips += other.clamp_trips;
    }
}

/// The request generator.
///
/// `Clone` snapshots the full driver state (client pool, rates, tick
/// position) so a pipeline stage can branch deterministic traffic off
/// a network snapshot.
///
/// Each [`tick_hour`](TrafficDriver::tick_hour) is a read-only
/// measurement wave: one work unit per `(service, rate)` pair, sharded
/// across [`TrafficConfig::threads`] workers. A unit that fetches
/// plans its onion's fetches once and reuses the plan for each of its
/// client requests (`Network::plan_fetches`). A unit's RNG stream is
/// keyed by `(seed, tick, onion)` — never by shard index — and its
/// network side effects are merged back in rate-table order, so the
/// traffic is byte-identical at any thread count.
#[derive(Clone, Debug)]
pub struct TrafficDriver {
    clients: Vec<ClientId>,
    /// (address, expected requests per hour).
    rates: Vec<(OnionAddress, f64)>,
    seed: u64,
    threads: usize,
    ticks: u64,
    poisson_stats: PoissonStats,
    wave_stats: Vec<WaveStats>,
    /// Total requests issued so far.
    pub issued: u64,
}

impl TrafficDriver {
    /// Builds the driver: registers `config.clients` clients at
    /// geo-weighted IPs and derives hourly rates from the world's
    /// popularity weights (which are per 2-hour window).
    pub fn new(net: &mut Network, world: &World, geo: &GeoDb, config: TrafficConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let clients = (0..config.clients.max(1))
            .map(|_| net.add_client(geo.sample_client_ip(&mut rng)))
            .collect();
        let rates = world
            .services()
            .iter()
            .filter(|s| s.popularity > 0.0)
            .map(|s| (s.onion, s.popularity / 2.0))
            .collect();
        TrafficDriver {
            clients,
            rates,
            seed: config.seed,
            threads: config.threads.max(1),
            ticks: 0,
            poisson_stats: PoissonStats::default(),
            wave_stats: Vec::new(),
            issued: 0,
        }
    }

    /// Issues one hour of traffic as a sharded measurement wave.
    pub fn tick_hour(&mut self, net: &mut Network) {
        net.prepare_wave();
        self.ticks += 1;
        let tick_seed = mix2(self.seed, self.ticks);
        let pool = WavePool::new(self.threads);
        let clients = &self.clients;
        let net_ref: &Network = net;
        let (units, stats) = pool.map(&self.rates, |_, &(onion, rate)| {
            let unit_key = mix2(tick_seed, onion_unit_key(onion));
            let mut rng = StdRng::seed_from_u64(unit_key);
            let mut fx = WaveEffects::new(unit_key);
            let (n, pstats) = poisson_traced(rate, &mut rng);
            if n > 0 {
                let mut plan = net_ref.plan_fetches(onion, &mut fx);
                for _ in 0..n {
                    let client = clients[rng.random_range(0..clients.len())];
                    let _ = net_ref.client_fetch_readonly(client, &mut plan, &mut rng, &mut fx);
                }
            }
            (n, pstats, fx)
        });
        self.wave_stats.push(stats);
        // Merge in canonical rate-table order.
        for (n, pstats, fx) in units {
            net.apply_wave_effects(fx);
            self.issued += n;
            self.poisson_stats.absorb(pstats);
        }
    }

    /// The client pool.
    pub fn clients(&self) -> &[ClientId] {
        &self.clients
    }

    /// Expected requests per hour across all services.
    pub fn expected_hourly(&self) -> f64 {
        self.rates.iter().map(|(_, r)| r).sum()
    }

    /// Accumulated sampler health counters.
    pub fn poisson_stats(&self) -> PoissonStats {
        self.poisson_stats
    }

    /// Drains the per-tick wave accounting collected so far.
    pub fn take_wave_stats(&mut self) -> Vec<WaveStats> {
        std::mem::take(&mut self.wave_stats)
    }
}

/// Samples a Poisson variate: Knuth's method for small λ, a rounded
/// normal approximation for large λ.
pub fn poisson(lambda: f64, rng: &mut impl Rng) -> u64 {
    poisson_traced(lambda, rng).0
}

/// [`poisson`], also reporting which numeric guards fired.
///
/// The Knuth loop's safety valve scales with λ (`max(10 000, 20λ)`), so
/// a λ just under the normal-approximation cutoff can never be silently
/// truncated the way the old fixed `k > 10 000` valve allowed; the
/// normal branch counts negative variates clamped to zero.
pub fn poisson_traced(lambda: f64, rng: &mut impl Rng) -> (u64, PoissonStats) {
    let mut stats = PoissonStats::default();
    if lambda <= 0.0 {
        return (0, stats);
    }
    let n = if lambda < 30.0 {
        let limit = (-lambda).exp();
        let valve = 10_000u64.max((20.0 * lambda).ceil() as u64);
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.random::<f64>();
            if p <= limit {
                break k;
            }
            k += 1;
            if k > valve {
                stats.valve_trips += 1;
                break k; // numeric safety valve
            }
        }
    } else {
        // Box–Muller normal approximation N(λ, λ).
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = lambda + lambda.sqrt() * z;
        if v < 0.0 {
            stats.clamp_trips += 1;
            0
        } else {
            v.round() as u64
        }
    };
    (n, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_world::WorldConfig;
    use tor_sim::clock::SimTime;
    use tor_sim::network::NetworkBuilder;

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        for lambda in [0.5f64, 4.0, 25.0, 200.0] {
            let n = 3_000;
            let total: u64 = (0..n).map(|_| poisson(lambda, &mut rng)).sum();
            let mean = total as f64 / f64::from(n);
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.2 + 0.1,
                "λ={lambda}, mean={mean}"
            );
        }
        assert_eq!(poisson(0.0, &mut rng), 0);
        assert_eq!(poisson(-3.0, &mut rng), 0);
    }

    #[test]
    fn driver_issues_traffic() {
        let world = World::generate(WorldConfig {
            seed: 4,
            scale: 0.01,
        });
        let mut net = NetworkBuilder::new()
            .relays(60)
            .seed(4)
            .start(SimTime::from_ymd(2013, 2, 1))
            .build();
        world.register_all(&mut net);
        net.advance_hours(1);
        let geo = GeoDb::new();
        let mut driver = TrafficDriver::new(
            &mut net,
            &world,
            &geo,
            TrafficConfig {
                clients: 30,
                seed: 9,
                threads: 1,
            },
        );
        assert!(driver.expected_hourly() > 0.0);
        driver.tick_hour(&mut net);
        driver.tick_hour(&mut net);
        assert!(driver.issued > 0, "requests issued");
        assert_eq!(driver.poisson_stats(), PoissonStats::default());
        assert_eq!(driver.take_wave_stats().len(), 2);
        assert!(driver.take_wave_stats().is_empty(), "drained");
    }

    #[test]
    fn tick_hour_is_thread_invariant() {
        // The same world ticked at 1 and 4 wave threads must issue the
        // same requests and leave the network byte-identical.
        let run = |threads: usize| {
            let world = World::generate(WorldConfig {
                seed: 4,
                scale: 0.01,
            });
            let mut net = NetworkBuilder::new()
                .relays(60)
                .seed(4)
                .start(SimTime::from_ymd(2013, 2, 1))
                .build();
            world.register_all(&mut net);
            net.advance_hours(1);
            let geo = GeoDb::new();
            let mut driver = TrafficDriver::new(
                &mut net,
                &world,
                &geo,
                TrafficConfig {
                    clients: 30,
                    seed: 9,
                    threads,
                },
            );
            driver.tick_hour(&mut net);
            driver.tick_hour(&mut net);
            (driver.issued, format!("{:?}", net.hot_counters()))
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn each_tick_fetches_the_descriptors_of_its_hour() {
        use onion_crypto::descriptor::DescriptorId;
        use std::collections::{HashMap, HashSet};
        use tor_sim::relay::RelayId;

        let world = World::generate(WorldConfig {
            seed: 4,
            scale: 0.01,
        });
        let mut net = NetworkBuilder::new()
            .relays(60)
            .seed(4)
            .start(SimTime::from_ymd(2013, 2, 1))
            .build();
        world.register_all(&mut net);
        for i in 0..net.relays().len() {
            net.relay_mut(RelayId(i)).logging = true;
        }
        net.advance_hours(1);
        let geo = GeoDb::new();
        let mut driver = TrafficDriver::new(
            &mut net,
            &world,
            &geo,
            TrafficConfig {
                clients: 30,
                seed: 9,
                threads: 2,
            },
        );
        // A day of ticks rotates every service's descriptor IDs once.
        let mut current = HashMap::new();
        for _ in 0..26 {
            let ids: HashSet<DescriptorId> = driver
                .rates
                .iter()
                .flat_map(|&(onion, _)| DescriptorId::pair_at(onion, net.time().unix()))
                .collect();
            current.insert(net.time(), ids);
            driver.tick_hour(&mut net);
            net.advance_hours(1);
        }
        let mut logged = 0;
        for i in 0..net.relays().len() {
            for r in net.request_log(RelayId(i)).records() {
                assert!(
                    current[&r.time].contains(&r.descriptor_id),
                    "a tick at {:?} fetched a descriptor ID of another hour",
                    r.time
                );
                logged += 1;
            }
        }
        assert!(logged > 1_000, "logged {logged}");
    }

    #[test]
    fn large_knuth_lambda_is_not_truncated() {
        // λ = 29.9 sits just under the normal-approximation cutoff; the
        // old fixed valve could not truncate it either, but the λ-aware
        // valve must leave the mean intact and never trip.
        let mut rng = StdRng::seed_from_u64(7);
        let mut stats = PoissonStats::default();
        let n = 2_000;
        let total: u64 = (0..n)
            .map(|_| {
                let (k, s) = poisson_traced(29.9, &mut rng);
                stats.absorb(s);
                k
            })
            .sum();
        let mean = total as f64 / f64::from(n);
        assert!((mean - 29.9).abs() < 0.5, "mean={mean}");
        assert_eq!(stats.valve_trips, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Sample mean and variance track λ and the numeric guards
            /// stay silent, on both sides of the λ = 30 branch cutoff.
            #[test]
            fn poisson_moments_match_lambda(
                lambda_tenths in 1u64..2_000,
                seed in any::<u64>(),
            ) {
                let lambda = lambda_tenths as f64 / 10.0;
                let mut rng = StdRng::seed_from_u64(seed);
                let n = 2_000u32;
                let mut stats = PoissonStats::default();
                let samples: Vec<u64> = (0..n)
                    .map(|_| {
                        let (k, s) = poisson_traced(lambda, &mut rng);
                        stats.absorb(s);
                        k
                    })
                    .collect();
                let mean =
                    samples.iter().sum::<u64>() as f64 / f64::from(n);
                let var = samples
                    .iter()
                    .map(|&k| (k as f64 - mean).powi(2))
                    .sum::<f64>()
                    / f64::from(n - 1);
                // Mean of n samples has sd sqrt(λ/n); allow 6 sigma
                // plus rounding slack from the normal approximation.
                let mean_tol = 6.0 * (lambda / f64::from(n)).sqrt() + 0.51;
                prop_assert!(
                    (mean - lambda).abs() < mean_tol,
                    "λ={} mean={} tol={}", lambda, mean, mean_tol
                );
                // Variance is λ; allow a generous multiplicative band.
                prop_assert!(
                    var > 0.6 * lambda - 0.3 && var < 1.5 * lambda + 0.5,
                    "λ={} var={}", lambda, var
                );
                prop_assert_eq!(stats, PoissonStats::default());
            }
        }
    }

    #[test]
    fn dead_services_also_requested() {
        // The phantom stream: dark services carry positive weights.
        let world = World::generate(WorldConfig {
            seed: 4,
            scale: 0.02,
        });
        let phantom_rate: f64 = world
            .services()
            .iter()
            .filter(|s| matches!(s.role, hs_world::Role::Dark))
            .map(|s| s.popularity)
            .sum();
        let real_rate: f64 = world
            .services()
            .iter()
            .filter(|s| s.publishes_descriptors())
            .map(|s| s.popularity)
            .sum();
        // Generated phantom share is ~30 %; the *observed* share at the
        // attacker's HSDirs is ~80 % because phantom fetches probe all
        // six responsible dirs (see `hs_world::world`).
        let share = phantom_rate / (phantom_rate + real_rate);
        assert!((0.15..0.55).contains(&share), "phantom share {share}");
    }
}
