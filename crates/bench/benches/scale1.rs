//! Scale-1.0 hot-path benchmarks: the paper-scale network (1,400
//! relays, ~40k hidden services) driving the three parts of a
//! consensus round — descriptor publication rounds, consensus voting,
//! and churn ticks under the adversarial fault plan.
//!
//! The deterministic counterpart (exact counters + wall budget) lives
//! in the `bench_scale1` binary and its committed baseline
//! `results/bench_scale1_baseline.json`; these benches are for
//! interactive profiling of the same paths.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hs_landscape::onion_crypto::OnionAddress;
use hs_landscape::tor_sim::clock::SimTime;
use hs_landscape::tor_sim::network::{Network, NetworkBuilder};
use hs_landscape::tor_sim::{Authority, FaultPlan};

const RELAYS: usize = 1_400;
const SERVICES: u32 = 39_824;

fn scale1_net(faults: Option<FaultPlan>) -> Network {
    let mut builder = NetworkBuilder::new()
        .relays(RELAYS)
        .seed(7)
        .start(SimTime::from_ymd(2013, 2, 1));
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut net = builder.build();
    for i in 0..SERVICES {
        net.register_service(OnionAddress::from_pubkey(&i.to_be_bytes()), true);
    }
    // Warm round: every service's descriptor-ID pair lands in the
    // per-period cache, the steady state the long stages run in.
    net.advance_hours(1);
    net
}

fn bench_publish_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale1");
    group.sample_size(10);
    let mut net = scale1_net(None);
    group.bench_function("publish_round", |b| {
        b.iter(|| net.advance_hours(1));
    });
    group.finish();
}

fn bench_consensus_vote(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale1");
    group.sample_size(20);
    let net = scale1_net(None);
    let authority = Authority::new();
    let t = net.time();
    group.bench_function("consensus_vote", |b| {
        b.iter(|| authority.vote(black_box(net.relays()), t));
    });
    group.finish();
}

fn bench_churn_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale1");
    group.sample_size(10);
    let mut net = scale1_net(Some(FaultPlan::adversarial(7)));
    group.bench_function("churn_tick", |b| {
        b.iter(|| net.advance_hours(1));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_publish_round,
    bench_consensus_vote,
    bench_churn_tick
);
criterion_main!(benches);
