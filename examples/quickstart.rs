//! Quickstart: run a scaled-down version of the whole study and print
//! the headline artifacts.
//!
//! ```sh
//! cargo run --release -p hs-landscape --example quickstart
//! ```

use hs_landscape::{report, Study, StudyConfig};

fn main() {
    // ~5 % of paper scale: finishes in seconds, preserves every shape.
    let config = StudyConfig::at_scale(0.05);

    println!("Running the study at scale {} …\n", config.scale);
    let results = Study::new(config).run();

    // A fault-free run completes every stage; each report section is
    // an Option only so that fault-injected runs can degrade instead
    // of aborting (see `landscape study --faults adversarial`).
    assert!(results.is_complete(), "{:?}", results.degraded_stages());
    let harvest = results.harvest.as_ref().unwrap();
    println!(
        "Harvested {} onion addresses with {} relay instances over {} hours.\n",
        harvest.onion_count(),
        harvest.fleet_relays.len(),
        harvest.hours
    );
    println!("{}", report::render_fig1(results.scan.as_ref().unwrap()));
    println!("{}", report::render_table1(results.crawl.as_ref().unwrap()));
    println!("{}", report::render_fig2(results.crawl.as_ref().unwrap()));
    println!(
        "{}",
        report::render_table2(results.ranking.as_ref().unwrap(), 15)
    );
    println!(
        "{}",
        report::render_sec5(
            results.resolution.as_ref().unwrap(),
            results.requested_published_share.unwrap()
        )
    );
}
