//! Leveled human-readable progress stream on stderr.
//!
//! Long study runs (minutes at paper scale) were previously silent
//! until the final report. The [`Logger`] gives the pipeline a live
//! event stream — stage starts/finishes, retries, faults, degradations
//! — without touching stdout, which stays reserved for the report (the
//! experiment scripts grep it).
//!
//! Levels: [`LogLevel::Off`] (silent), [`LogLevel::Progress`] (one
//! line per stage transition), [`LogLevel::Debug`] (adds per-event
//! detail: retries, fault summaries, trace statistics). The logger is
//! `Copy` and carried by value into stages that run side by side; each
//! line is a single `eprintln!`, which the standard library locks per
//! call, so concurrent stages interleave only at line granularity.

use std::fmt::Arguments;

/// Verbosity of the stderr event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// No output at all (library default, and `--quiet`).
    #[default]
    Off,
    /// Stage-level lifecycle lines.
    Progress,
    /// Everything: retries, fault deltas, per-stage metric summaries.
    Debug,
}

impl LogLevel {
    /// Parses a CLI level name.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "progress" => Some(LogLevel::Progress),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

/// A leveled stderr logger. Copyable; safe to pass into stages that
/// run side by side.
#[derive(Clone, Copy, Debug, Default)]
pub struct Logger {
    level: LogLevel,
}

impl Logger {
    /// A silent logger.
    pub fn off() -> Self {
        Logger {
            level: LogLevel::Off,
        }
    }

    /// A logger at the given level.
    pub fn new(level: LogLevel) -> Self {
        Logger { level }
    }

    /// The configured level.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// True when `level` lines would be emitted.
    pub fn enabled(&self, level: LogLevel) -> bool {
        level != LogLevel::Off && self.level >= level
    }

    /// Emits a progress-level line.
    pub fn progress(&self, args: Arguments<'_>) {
        if self.enabled(LogLevel::Progress) {
            eprintln!("[landscape] {args}");
        }
    }

    /// Emits a debug-level line.
    pub fn debug(&self, args: Arguments<'_>) {
        if self.enabled(LogLevel::Debug) {
            eprintln!("[landscape]   {args}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Off < LogLevel::Progress);
        assert!(LogLevel::Progress < LogLevel::Debug);
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("progress"), Some(LogLevel::Progress));
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("verbose"), None);
    }

    #[test]
    fn gating() {
        let quiet = Logger::off();
        assert!(!quiet.enabled(LogLevel::Progress));
        let progress = Logger::new(LogLevel::Progress);
        assert!(progress.enabled(LogLevel::Progress));
        assert!(!progress.enabled(LogLevel::Debug));
        let debug = Logger::new(LogLevel::Debug);
        assert!(debug.enabled(LogLevel::Progress));
        assert!(debug.enabled(LogLevel::Debug));
        // Off-level lines are never "enabled", even on a debug logger.
        assert!(!debug.enabled(LogLevel::Off));
    }
}
