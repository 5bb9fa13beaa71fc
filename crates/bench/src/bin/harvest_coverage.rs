//! E13 — Regenerates the Sec. II harvesting cost/coverage analysis:
//! 58 IPs with shadowing vs > 300 IPs naïvely, plus a measured sweep.

use hs_landscape::hs_harvest::coverage;
use hs_landscape::hs_world::calib;
use hs_landscape::StageId;

fn main() {
    // Reject a bad `HS_SCALE` before printing anything.
    let scale = hs_bench::bench_scale();
    println!("Sec. II — Harvest cost arithmetic");
    for hsdirs in [757u32, 1_400, 1_862] {
        println!(
            "  ring of {hsdirs} HSDirs: naive needs {} relays = {} IPs; shadowing (24/IP) needs {} IPs; attack time {} h",
            coverage::naive_relays_needed(hsdirs),
            coverage::naive_ips_needed(hsdirs),
            coverage::shadowing_ips_needed(hsdirs, 24),
            coverage::attack_hours(24, 2),
        );
    }
    println!(
        "  paper: {} IPs used; >{} needed naïvely",
        calib::HARVEST_IPS,
        calib::NAIVE_ATTACK_IPS
    );

    println!("\nRandom vs deliberate placement (expected coverage of the 6-slot responsible set):");
    for attacker in [50u32, 200, 600, 1_392] {
        println!(
            "  {attacker:>5} random relays among 1400 honest → {:.1}%",
            coverage::random_placement_coverage(1_400, attacker) * 100.0
        );
    }

    let run = hs_bench::run_bench_stages(&[StageId::Harvest]);
    let harvest = run.artifacts.harvest();
    let publishing = run
        .artifacts
        .world()
        .services()
        .iter()
        .filter(|s| s.publishes_descriptors())
        .count();
    println!(
        "\nMeasured sweep at scale {}: {} of {} publishing services collected ({:.1}%) in {} hours with {} relay instances",
        scale,
        harvest.onion_count(),
        publishing,
        harvest.coverage_of(publishing) * 100.0,
        harvest.hours,
        harvest.fleet_relays.len(),
    );
}
