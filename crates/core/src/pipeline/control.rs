//! Cooperative run control: cancellation, deadline budgets, and the
//! cache/epoch handle a resident daemon threads through the engine.
//!
//! The engine never aborts a stage mid-body. Instead it consults the
//! query's [`RunControl`] at every *stage-attempt boundary* — before a
//! stage's first attempt (for a forked level, before the level, with
//! the sim-hour budget re-checked as each stage settles) and before
//! each retry — and halts the remainder of the plan when the budget is
//! gone. A halted run is a well-formed [`PipelineRun`]: the
//! stages that completed keep their artifacts, the rest are listed in
//! `timings.halted`, and `PipelineRun::halt` names the reason. That is
//! what lets `landscaped` turn a cancelled or deadline-expired query
//! into a typed `PARTIAL` reply instead of a torn world.
//!
//! [`PipelineRun`]: super::engine::PipelineRun
//! [`PipelineRun::halt`]: super::engine::PipelineRun

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::cache::StageCache;

/// A shared cancellation flag, cloneable across threads.
///
/// The daemon hands one token to each admitted query; `CANCEL <id>`
/// flips it, and the engine observes the flip at the next
/// stage-attempt boundary. Cancellation is cooperative: a stage that
/// is already executing finishes (or degrades) normally, and only the
/// *remaining* plan is abandoned — which is what keeps a cancelled
/// query's world-state side effects at exactly zero.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a controlled run stopped before completing its plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Halt {
    /// The query's [`CancelToken`] was flipped.
    Cancelled,
    /// The wall-clock deadline passed.
    WallDeadline,
    /// The simulated-hours budget was exhausted.
    SimBudget,
}

impl Halt {
    /// Stable lowercase name used in timings JSON and protocol
    /// replies.
    pub fn name(self) -> &'static str {
        match self {
            Halt::Cancelled => "cancelled",
            Halt::WallDeadline => "wall_deadline",
            Halt::SimBudget => "sim_budget",
        }
    }
}

impl fmt::Display for Halt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-query budgets and shared-state handles for a controlled run.
///
/// The default control is unbounded and cacheless — `Pipeline::run_with`
/// uses it, so batch runs behave exactly as before.
#[derive(Clone, Default)]
pub struct RunControl {
    /// Cooperative cancellation flag, checked at attempt boundaries.
    pub cancel: CancelToken,
    /// Absolute wall-clock deadline; `None` means unbounded.
    pub wall_deadline: Option<Instant>,
    /// Budget of simulated hours the run may *advance* (cached and
    /// analysis stages advance zero); `None` means unbounded.
    pub sim_budget_hours: Option<u64>,
    /// Content-addressed stage cache; `None` disables caching.
    pub cache: Option<Arc<dyn StageCache>>,
    /// Salt folded into the Setup cache key. The daemon changes it on
    /// every `TICK`, which atomically invalidates the whole downstream
    /// key chain for the old epoch.
    pub epoch_salt: u64,
}

impl RunControl {
    /// Returns the reason to halt, if any budget is exhausted.
    /// `sim_hours_used` is the simulated time the run has advanced so
    /// far. Checks are ordered: explicit cancellation wins over
    /// deadlines so a `CANCEL` always reports as `cancelled`.
    pub fn check(&self, sim_hours_used: u64) -> Option<Halt> {
        if self.cancel.is_cancelled() {
            return Some(Halt::Cancelled);
        }
        if let Some(deadline) = self.wall_deadline {
            if Instant::now() >= deadline {
                return Some(Halt::WallDeadline);
            }
        }
        if self.sim_budget_spent(sim_hours_used) {
            return Some(Halt::SimBudget);
        }
        None
    }

    /// Whether `sim_hours_used` exhausts the sim-hours budget — the
    /// one deterministic part of [`RunControl::check`].
    pub fn sim_budget_spent(&self, sim_hours_used: u64) -> bool {
        self.sim_budget_hours
            .is_some_and(|budget| sim_hours_used >= budget)
    }
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("cancel", &self.cancel)
            .field("wall_deadline", &self.wall_deadline)
            .field("sim_budget_hours", &self.sim_budget_hours)
            .field("cache", &self.cache.as_ref().map(|_| "StageCache"))
            .field("epoch_salt", &self.epoch_salt)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn default_control_never_halts() {
        let ctl = RunControl::default();
        assert_eq!(ctl.check(0), None);
        assert_eq!(ctl.check(u64::MAX), None);
    }

    #[test]
    fn cancellation_wins_over_deadlines() {
        let ctl = RunControl {
            wall_deadline: Some(Instant::now()),
            sim_budget_hours: Some(0),
            ..RunControl::default()
        };
        assert_eq!(ctl.check(0), Some(Halt::WallDeadline));
        ctl.cancel.cancel();
        assert_eq!(ctl.check(0), Some(Halt::Cancelled));
    }

    #[test]
    fn sim_budget_boundary_is_inclusive() {
        let ctl = RunControl {
            sim_budget_hours: Some(10),
            ..RunControl::default()
        };
        assert_eq!(ctl.check(9), None);
        assert_eq!(ctl.check(10), Some(Halt::SimBudget));
    }

    #[test]
    fn halt_names_are_stable() {
        assert_eq!(Halt::Cancelled.name(), "cancelled");
        assert_eq!(Halt::WallDeadline.name(), "wall_deadline");
        assert_eq!(Halt::SimBudget.name(), "sim_budget");
        assert_eq!(Halt::SimBudget.to_string(), "sim_budget");
    }
}
