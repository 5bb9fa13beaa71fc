//! A test-only injection point in the daemon.
//!
//! Concurrency tests must not guess how long a tick or a query takes.
//! An [`Injector`] installed in [`DaemonConfig::inject`] lets a test
//! stop a daemon thread at one of two places ([`InjectAt`]) and hold it
//! there while the test probes the daemon, or make it panic there:
//!
//! * [`InjectAt::TickBuild`] — inside an epoch advance, after the
//!   resident payload is read and before the next network is built:
//!   the section that holds the tick mutex but not the epoch mutex.
//! * [`InjectAt::RunStart`] — in `RUN_UNTIL`, after `RUNNING id=<n>`
//!   has been flushed to the client and before the pipeline runs.
//!
//! [`Injector::park`] or [`Injector::panic`] arms a place once: the
//! next daemon thread to reach it consumes the arming. A parked thread
//! waits on a barrier the test opens with [`Injector::release`]; the
//! test waits for it to arrive with [`Injector::wait_parked`]. A
//! parked thread gives up after a minute, so a test that fails before
//! releasing cannot wedge its daemon's drain.
//!
//! [`DaemonConfig::inject`]: crate::DaemonConfig::inject

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long either side of a barrier waits before giving up.
const PARK_LIMIT: Duration = Duration::from_secs(60);

/// A place in the daemon where an [`Injector`] can act.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectAt {
    /// An epoch advance, between reading the resident payload and
    /// building the next network.
    TickBuild,
    /// A `RUN_UNTIL`, between flushing `RUNNING id=<n>` and running.
    RunStart,
}

/// What an armed place does to the next thread that reaches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    Park,
    Panic,
}

#[derive(Clone, Copy, Debug, Default)]
struct Place {
    armed: Option<Action>,
    parked: bool,
    released: bool,
}

/// Barriers a test arms at [`InjectAt`] places; see the module docs.
#[derive(Debug, Default)]
pub struct Injector {
    places: Mutex<[Place; 2]>,
    changed: Condvar,
}

impl Injector {
    fn lock(&self) -> MutexGuard<'_, [Place; 2]> {
        self.places.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `done` holds for `at`'s place or `PARK_LIMIT`
    /// passes, and returns the guard.
    fn wait<'a>(
        &self,
        guard: MutexGuard<'a, [Place; 2]>,
        at: InjectAt,
        done: impl Fn(&Place) -> bool,
    ) -> MutexGuard<'a, [Place; 2]> {
        self.changed
            .wait_timeout_while(guard, PARK_LIMIT, |places| !done(&places[at as usize]))
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    fn arm(&self, at: InjectAt, action: Action) {
        self.lock()[at as usize].armed = Some(action);
    }

    /// Arms `at` to park the next thread that reaches it.
    pub fn park(&self, at: InjectAt) {
        self.arm(at, Action::Park);
    }

    /// Arms `at` to panic in the next thread that reaches it.
    pub fn panic(&self, at: InjectAt) {
        self.arm(at, Action::Panic);
    }

    /// Blocks until a thread is parked at `at`.
    ///
    /// # Panics
    ///
    /// Panics if none arrives within a minute.
    pub fn wait_parked(&self, at: InjectAt) {
        let places = self.wait(self.lock(), at, |p| p.parked);
        assert!(
            places[at as usize].parked,
            "no daemon thread reached {at:?} within {PARK_LIMIT:?}"
        );
    }

    /// Whether a thread is parked at `at` right now.
    pub fn parked(&self, at: InjectAt) -> bool {
        self.lock()[at as usize].parked
    }

    /// Opens the barrier of the thread parked at `at`, or of the next
    /// one to park there.
    pub fn release(&self, at: InjectAt) {
        self.lock()[at as usize].released = true;
        self.changed.notify_all();
    }

    /// The daemon's side: consumes `at`'s arming, if any, and acts on it.
    pub(crate) fn reach(&self, at: InjectAt) {
        let mut places = self.lock();
        match places[at as usize].armed.take() {
            None => {}
            Some(Action::Panic) => {
                drop(places);
                panic!("injected panic at {at:?}");
            }
            Some(Action::Park) => {
                places[at as usize].parked = true;
                self.changed.notify_all();
                let mut places = self.wait(places, at, |p| p.released);
                let place = &mut places[at as usize];
                place.parked = false;
                place.released = false;
            }
        }
    }
}
