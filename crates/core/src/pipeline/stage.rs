//! The stage graph: identifiers, kinds, and dependency closure.
//!
//! The study pipeline is a fixed DAG of nine stages. **Sim stages**
//! advance a [`tor_sim::network::Network`]; each one snapshots the
//! network it produced, and downstream sim stages branch from their
//! input snapshot (which is what makes `DeanonWindow` and `PortScan`
//! independent siblings of the harvest). **Analysis stages** are pure
//! functions of earlier artifacts. [`StageId::levels`] cuts a plan into
//! dependency levels whose stages may run side by side.

use std::fmt;

/// What a stage is allowed to touch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// Advances a cloned network snapshot on its own sim clock.
    Sim,
    /// Pure computation over existing artifacts.
    Analysis,
}

/// One stage of the study pipeline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StageId {
    /// World generation, network build, attacker-guard prepositioning.
    Setup,
    /// The Sec. II trawling attack with live Sec. V traffic.
    Harvest,
    /// The Sec. VI dedicated deanonymisation window (48 h of signature
    /// logging against the Goldnet target).
    DeanonWindow,
    /// The Sec. III multi-day port scan.
    PortScan,
    /// Fig. 3: geographic mapping of the deanonymised clients.
    Geomap,
    /// Sec. III: the HTTPS certificate survey.
    Certs,
    /// Sec. IV: crawl funnel, languages, topics.
    Crawl,
    /// Sec. V: resolution, ranking, forensics, request share.
    Popularity,
    /// Sec. VII: consensus-archive tracking detection.
    Tracking,
}

impl StageId {
    /// Every stage, in canonical execution order. Sim stages come
    /// first; stages settle in exactly this order.
    pub const ALL: [StageId; 9] = [
        StageId::Setup,
        StageId::Harvest,
        StageId::DeanonWindow,
        StageId::PortScan,
        StageId::Geomap,
        StageId::Certs,
        StageId::Crawl,
        StageId::Popularity,
        StageId::Tracking,
    ];

    /// Stable lower-case name (used in timing output and JSON).
    pub fn name(self) -> &'static str {
        match self {
            StageId::Setup => "setup",
            StageId::Harvest => "harvest",
            StageId::DeanonWindow => "deanon_window",
            StageId::PortScan => "port_scan",
            StageId::Geomap => "geomap",
            StageId::Certs => "certs",
            StageId::Crawl => "crawl",
            StageId::Popularity => "popularity",
            StageId::Tracking => "tracking",
        }
    }

    /// Sim or analysis.
    pub fn kind(self) -> StageKind {
        match self {
            StageId::Setup | StageId::Harvest | StageId::DeanonWindow | StageId::PortScan => {
                StageKind::Sim
            }
            StageId::Geomap
            | StageId::Certs
            | StageId::Crawl
            | StageId::Popularity
            | StageId::Tracking => StageKind::Analysis,
        }
    }

    /// Direct dependencies (the artifacts this stage reads).
    pub fn deps(self) -> &'static [StageId] {
        match self {
            StageId::Setup => &[],
            StageId::Harvest => &[StageId::Setup],
            StageId::DeanonWindow => &[StageId::Harvest],
            StageId::PortScan => &[StageId::Harvest],
            StageId::Geomap => &[StageId::DeanonWindow],
            StageId::Certs => &[StageId::PortScan],
            StageId::Crawl => &[StageId::PortScan],
            StageId::Popularity => &[StageId::Harvest],
            // The archive spans 2011–2013 and is independent of the
            // simulated 2013 network.
            StageId::Tracking => &[],
        }
    }

    /// The dependency closure of `targets`, in canonical execution
    /// order: exactly the stages a selective run must execute.
    pub fn closure(targets: &[StageId]) -> Vec<StageId> {
        let mut needed = [false; StageId::ALL.len()];
        fn mark(stage: StageId, needed: &mut [bool; StageId::ALL.len()]) {
            let idx = StageId::ALL
                .iter()
                .position(|&s| s == stage)
                .expect("stage in ALL");
            if needed[idx] {
                return;
            }
            needed[idx] = true;
            for &dep in stage.deps() {
                mark(dep, needed);
            }
        }
        for &t in targets {
            mark(t, &mut needed);
        }
        StageId::ALL
            .iter()
            .zip(needed)
            .filter_map(|(&s, n)| n.then_some(s))
            .collect()
    }

    /// Cuts `plan` (a [`StageId::closure`], in canonical order) into
    /// dependency levels, greedily: a level ends just before the first
    /// stage that depends on one of its stages. No stage reads an
    /// artifact of its own level, so a level's stages may run side by
    /// side once the levels before it have settled.
    pub fn levels(plan: &[StageId]) -> Vec<&[StageId]> {
        let mut levels = Vec::new();
        let mut start = 0;
        for (i, stage) in plan.iter().enumerate() {
            if stage.deps().iter().any(|d| plan[start..i].contains(d)) {
                levels.push(&plan[start..i]);
                start = i;
            }
        }
        if start < plan.len() {
            levels.push(&plan[start..]);
        }
        levels
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_of_scan_skips_deanon_and_analyses() {
        let plan = StageId::closure(&[StageId::PortScan]);
        assert_eq!(
            plan,
            vec![StageId::Setup, StageId::Harvest, StageId::PortScan]
        );
    }

    #[test]
    fn closure_of_geomap_includes_window_but_not_scan() {
        let plan = StageId::closure(&[StageId::Geomap]);
        assert_eq!(
            plan,
            vec![
                StageId::Setup,
                StageId::Harvest,
                StageId::DeanonWindow,
                StageId::Geomap
            ]
        );
    }

    #[test]
    fn closure_of_tracking_is_tracking_alone() {
        assert_eq!(
            StageId::closure(&[StageId::Tracking]),
            vec![StageId::Tracking]
        );
    }

    #[test]
    fn closure_preserves_canonical_order_and_dedups() {
        let plan = StageId::closure(&[StageId::Crawl, StageId::Certs, StageId::Crawl]);
        assert_eq!(
            plan,
            vec![
                StageId::Setup,
                StageId::Harvest,
                StageId::PortScan,
                StageId::Certs,
                StageId::Crawl
            ]
        );
    }

    #[test]
    fn deps_only_point_backwards() {
        for (i, &s) in StageId::ALL.iter().enumerate() {
            for &d in s.deps() {
                let j = StageId::ALL.iter().position(|&x| x == d).unwrap();
                assert!(j < i, "{s} depends on later stage {d}");
            }
        }
    }

    #[test]
    fn levels_cut_before_the_first_dependent_stage() {
        use StageId::*;
        assert_eq!(
            StageId::levels(&StageId::closure(&StageId::ALL)),
            vec![
                &[Setup][..],
                &[Harvest],
                &[DeanonWindow, PortScan],
                &[Geomap, Certs, Crawl, Popularity, Tracking],
            ]
        );
        for (target, levels) in [
            (PortScan, vec![&[Setup][..], &[Harvest], &[PortScan]]),
            (
                Geomap,
                vec![&[Setup][..], &[Harvest], &[DeanonWindow], &[Geomap]],
            ),
            (Popularity, vec![&[Setup][..], &[Harvest], &[Popularity]]),
            (Tracking, vec![&[Tracking][..]]),
        ] {
            assert_eq!(
                StageId::levels(&StageId::closure(&[target])),
                levels,
                "{target}"
            );
        }
        assert!(StageId::levels(&[]).is_empty());
    }

    #[test]
    fn sim_prefix_precedes_analyses() {
        let first_analysis = StageId::ALL
            .iter()
            .position(|s| s.kind() == StageKind::Analysis)
            .unwrap();
        assert!(StageId::ALL[..first_analysis]
            .iter()
            .all(|s| s.kind() == StageKind::Sim));
        assert!(StageId::ALL[first_analysis..]
            .iter()
            .all(|s| s.kind() == StageKind::Analysis));
    }
}
