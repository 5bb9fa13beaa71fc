//! Per-layer probes: timed calls into each crate's public functions on
//! the workload's own world and network.

use std::hint::black_box;
use std::time::Instant;

use hs_landscape::pipeline::StageId;
use hs_landscape::{report, RunOptions};
use hs_world::World;
use onion_crypto::{DescriptorId, Sha1};
use tor_sim::network::{ClientId, Network};
use wave::WavePool;

use crate::stats::{median, Metric};
use crate::study::Staged;
use crate::trace::Tracer;

/// Per-call cost of `f` in `unit_scale` units (1e9 for ns, 1e6 for
/// µs, 1e3 for ms), as the median over `batches` batches of `calls`
/// calls each.
fn per_call(batches: usize, calls: usize, unit_scale: f64, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..batches)
        .map(|b| {
            let start = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            start.elapsed().as_secs_f64() * unit_scale / calls as f64
        })
        .collect()
}

fn med(name: &str, samples: &[f64], unit: &str) -> Metric {
    Metric::new(
        name,
        median(samples).unwrap_or(f64::NAN),
        unit,
        samples.len(),
    )
}

/// Times the `onion-crypto`, `tor-sim`, `wave` and `hs-world` calls on
/// `world` and a clone of `net`, one span per probe under `parent`.
pub fn sim_layers(
    world: &World,
    net: &Network,
    threads: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Vec<Metric> {
    let onions: Vec<_> = world.services().iter().map(|s| s.onion).collect();
    let now = net.time().unix();
    let mut out = Vec::new();

    // One-block SHA-1 inputs shaped like a descriptor-ID preimage:
    // permanent ID followed by a 20-byte secret-ID part.
    let blocks: Vec<[u8; 30]> = onions
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let mut b = [0u8; 30];
            b[..10].copy_from_slice(o.permanent_id().as_bytes());
            b[10..18].copy_from_slice(&(i as u64).to_le_bytes());
            b
        })
        .collect();
    let s = tracer.time("Sha1::digest", "onion-crypto", parent, 0, || {
        per_call(9, 20_000, 1e9, |i| {
            black_box(Sha1::digest(black_box(&blocks[i % blocks.len()])));
        })
    });
    out.push(med("onion-crypto.sha1_ns", &s, "ns"));
    let s = tracer.time("DescriptorId::pair_at", "onion-crypto", parent, 0, || {
        per_call(9, 5_000, 1e9, |i| {
            black_box(DescriptorId::pair_at(
                onions[i % onions.len()],
                black_box(now),
            ));
        })
    });
    out.push(med("onion-crypto.desc_id_pair_ns", &s, "ns"));

    let s = tracer.time("Network::clone", "tor-sim", parent, 0, || {
        per_call(5, 1, 1e3, |_| {
            black_box(net.clone());
        })
    });
    out.push(med("tor-sim.clone_ms", &s, "ms"));
    let s = tracer.time("Network::state_hash", "tor-sim", parent, 0, || {
        per_call(5, 1, 1e3, |_| {
            black_box(net.state_hash());
        })
    });
    out.push(med("tor-sim.state_hash_ms", &s, "ms"));

    let mut sim = net.clone();
    let s = tracer.time("Network::advance_hours(1)", "tor-sim", parent, 0, || {
        per_call(5, 1, 1e3, |_| sim.advance_hours(1))
    });
    out.push(med("tor-sim.advance_hour_ms", &s, "ms"));
    let s = tracer.time("Network::revote", "tor-sim", parent, 0, || {
        per_call(5, 1, 1e3, |_| sim.revote())
    });
    out.push(med("tor-sim.revote_ms", &s, "ms"));
    if sim.client_count() == 0 {
        sim.add_client(tor_sim::Ipv4::new(10, 0, 0, 1));
    }
    let clients = sim.client_count();
    let s = tracer.time("Network::client_fetch", "tor-sim", parent, 0, || {
        per_call(9, 2_000, 1e9, |i| {
            black_box(sim.client_fetch(ClientId(i % clients), onions[i % onions.len()]));
        })
    });
    out.push(med("tor-sim.fetch_ns", &s, "ns"));

    let pool = WavePool::new(threads);
    let items = vec![0u64; threads];
    let s = tracer.time("WavePool::map", "wave", parent, 0, || {
        per_call(9, 50, 1e6, |_| {
            black_box(pool.map(&items, |i, x| i as u64 + x));
        })
    });
    out.push(med("wave.fork_join_us", &s, "us"));

    let cfg = world.config();
    let s = tracer.time("World::generate", "hs-world", parent, 0, || {
        per_call(3, 1, 1e3, |_| {
            black_box(World::generate(cfg));
        })
    });
    out.push(med("hs-world.generate_ms", &s, "ms"));
    out
}

/// Times the `core` calls over a staged study's warm cache: a
/// popularity query whose every stage is a cache hit, and the Table II
/// + Sec. V render of the cached artifact.
pub fn core_layers(
    staged: &Staged,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<Vec<Metric>, String> {
    let mut bad = None;
    let s = tracer.time(
        "Pipeline::run_controlled (cached)",
        "core",
        parent,
        0,
        || {
            per_call(9, 10, 1e6, |_| {
                let run = staged.pipeline.run_controlled(
                    &[StageId::Popularity],
                    staged.mode,
                    RunOptions::default(),
                    &staged.ctl,
                );
                let hits = run
                    .timings
                    .executed
                    .iter()
                    .filter(|t| t.counter("stage_cache_hit").is_some())
                    .count();
                if hits != run.timings.executed.len() {
                    bad = Some(format!(
                        "cached query ran {} stages",
                        run.timings.executed.len() - hits
                    ));
                }
            })
        },
    );
    if let Some(e) = bad {
        return Err(e);
    }
    let pop = staged.popularity.artifacts.popularity();
    let r = tracer.time(
        "report::render_table2+render_sec5",
        "core",
        parent,
        0,
        || {
            per_call(9, 50, 1e6, |_| {
                black_box(
                    report::render_table2(&pop.ranking, 30)
                        + &report::render_sec5(&pop.resolution, pop.requested_published_share),
                );
            })
        },
    );
    Ok(vec![
        med("core.cached_query_us", &s, "us"),
        med("core.render_us", &r, "us"),
    ])
}

/// Times `obs::prom::render` over `snapshot`, in µs.
pub fn prom_render(
    snapshot: &obs::WallSnapshot,
    namespace: &str,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Metric {
    let s = tracer.time("obs::prom::render", "obs", parent, 0, || {
        per_call(9, 20, 1e6, |_| {
            black_box(obs::prom::render(snapshot, namespace));
        })
    });
    med("obs.prom_render_us", &s, "us")
}

/// Times `hs_serve::parse_request` over `lines`, in ns per call.
pub fn parse_request(lines: &[&str], tracer: &mut Tracer, parent: Option<usize>) -> Metric {
    let s = tracer.time("hs_serve::parse_request", "serve", parent, 0, || {
        per_call(9, 20_000, 1e9, |i| {
            let _ = black_box(hs_serve::parse_request(black_box(lines[i % lines.len()])));
        })
    });
    med("serve.parse_ns", &s, "ns")
}
