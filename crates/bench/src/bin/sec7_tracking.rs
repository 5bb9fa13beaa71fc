//! E12 — Regenerates the Sec. VII tracking-detection findings on the
//! three-year Silk Road consensus history.

use hs_landscape::hs_tracking::{
    scenario, ConsensusArchive, DetectorConfig, HistoryConfig, TrackingDetector,
};
use hs_landscape::report;
use hs_landscape::tor_sim::clock::SimTime;
use hs_landscape::TrackingReport;

fn main() {
    eprintln!("[hs-bench] generating 3-year consensus archive…");
    let mut archive = ConsensusArchive::generate(&HistoryConfig::default());
    scenario::inject_all(&mut archive, scenario::silkroad());
    let detector = TrackingDetector::new(DetectorConfig::default());
    let years = [
        ("year 1 (Feb–Dec 2011)", (2011, 2, 1), (2011, 12, 31)),
        ("year 2 (2012)", (2012, 1, 1), (2012, 12, 31)),
        ("year 3 (Jan–Oct 2013)", (2013, 1, 1), (2013, 10, 31)),
    ]
    .into_iter()
    .map(|(label, s, e)| {
        (
            label.to_owned(),
            detector.analyse(
                &archive,
                scenario::silkroad(),
                SimTime::from_ymd(s.0, s.1, s.2),
                SimTime::from_ymd(e.0, e.1, e.2),
            ),
        )
    })
    .collect();
    let tracking = TrackingReport { years };
    println!("{}", report::render_tracking(&tracking));
    println!("Paper reference: year 1 no clear tracking (one flag-timing oddity); year 2 the authors' own relays (ratio >100, repeated fingerprint changes); year 3 two campaigns — May 21–Jun 3 set at ratio >10k holding 1/6 slots, and the Aug 31 six-relay/3-IP full takeover");
}
