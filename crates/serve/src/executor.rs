//! Bounded worker-pool executor for daemon connections.
//!
//! The daemon used to spawn one detached thread per accepted
//! connection: unbounded thread growth under a connection flood, no
//! backpressure signal, and nothing to join on shutdown. This module
//! replaces that with a fixed pool:
//!
//! * **fixed workers** — `workers` threads created up front, so the
//!   daemon's thread count is bounded by configuration, not by load;
//! * **bounded queue** — at most `queue_cap` jobs may wait beyond the
//!   busy workers; [`Executor::submit`] refuses (and drops) the job
//!   once both the pool and the queue are full, so the accept loop can
//!   answer a typed `BUSY` instead of stacking latent work;
//! * **panic isolation** — each job runs under `catch_unwind`, so a
//!   panicking connection kills only that connection (the same
//!   isolation the old thread-per-connection model gave for free) and
//!   is counted in the `pool.panics` family;
//! * **graceful drain** — [`Executor::drain`] closes the queue,
//!   lets workers finish every already-accepted job, and joins them.
//!
//! The pool knows nothing about sockets or the protocol: jobs are
//! plain `FnOnce()` closures. Its telemetry families are registered
//! in the [`WallRegistry`] handed to [`Executor::new`], so they always
//! appear in the daemon's `METRICS PROM` exposition.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use obs::{WallCounter, WallHistogram, WallRegistry};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Handles for the pool's wall-clock telemetry families.
#[derive(Debug)]
struct PoolMetrics {
    /// Jobs accepted into the pool (served or still queued).
    submitted: WallCounter,
    /// Jobs whose closure returned (including panicked ones).
    completed: WallCounter,
    /// Jobs refused because workers and queue were both full.
    rejected: WallCounter,
    /// Jobs whose closure panicked (isolated, worker survived).
    panics: WallCounter,
    /// Wall microseconds a job waited between submit and dequeue.
    queue_wait_us: WallHistogram,
    /// Busy-worker count observed as each job starts.
    depth: WallHistogram,
}

impl PoolMetrics {
    /// Handles registered in `reg`, so every family shows up in the
    /// registry's snapshot (and therefore in the Prometheus render).
    fn registered(reg: &WallRegistry) -> Self {
        PoolMetrics {
            submitted: reg.counter("pool.submitted", &[]),
            completed: reg.counter("pool.completed", &[]),
            rejected: reg.counter("pool.rejected", &[]),
            panics: reg.counter("pool.panics", &[]),
            queue_wait_us: reg.histogram("pool.queue_wait_us", &[]),
            depth: reg.histogram("pool.depth", &[]),
        }
    }
}

/// Queue state behind the pool mutex.
struct PoolState {
    queue: VecDeque<(Job, Instant)>,
    busy: usize,
    open: bool,
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("queued", &self.queue.len())
            .field("busy", &self.busy)
            .field("open", &self.open)
            .finish()
    }
}

#[derive(Debug)]
struct PoolInner {
    state: Mutex<PoolState>,
    work: Condvar,
    metrics: PoolMetrics,
    workers: usize,
    queue_cap: usize,
}

/// Poison-tolerant lock: a panic while holding the pool mutex (jobs
/// run *outside* it, so only a bug in this module could poison it)
/// must not wedge the accept loop.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The fixed worker pool. See the module docs for semantics.
#[derive(Debug)]
pub struct Executor {
    inner: Arc<PoolInner>,
    joins: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Executor {
    /// A pool of `workers` threads (minimum 1) admitting at most
    /// `queue_cap` waiting jobs beyond the busy workers, with its
    /// telemetry families registered in `registry`.
    pub fn new(workers: usize, queue_cap: usize, registry: &WallRegistry) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                busy: 0,
                open: true,
            }),
            work: Condvar::new(),
            metrics: PoolMetrics::registered(registry),
            workers,
            queue_cap,
        });
        let joins = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_default();
        Executor {
            inner,
            joins: Mutex::new(joins),
        }
    }

    /// Offers a job. Returns `false` — dropping the job and counting
    /// a rejection — when the pool is closed, or when every worker is
    /// busy and the queue already holds `queue_cap` jobs.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        let mut st = locked(&self.inner.state);
        let full = st.busy >= self.inner.workers && st.queue.len() >= self.inner.queue_cap;
        if !st.open || full {
            drop(st);
            self.inner.metrics.rejected.inc();
            return false;
        }
        st.queue.push_back((Box::new(job), Instant::now()));
        drop(st);
        self.inner.metrics.submitted.inc();
        self.inner.work.notify_one();
        true
    }

    /// Workers currently running a job.
    pub fn busy(&self) -> usize {
        locked(&self.inner.state).busy
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        locked(&self.inner.state).queue.len()
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Configured queue bound.
    pub fn queue_cap(&self) -> usize {
        self.inner.queue_cap
    }

    /// Closes the queue, lets workers finish every already-accepted
    /// job, and joins them. Idempotent; later `submit`s are refused.
    pub fn drain(&self) {
        locked(&self.inner.state).open = false;
        self.inner.work.notify_all();
        let joins: Vec<_> = locked(&self.joins).drain(..).collect();
        for join in joins {
            let _ = join.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let (job, enqueued_at, depth) = {
            let mut st = locked(&inner.state);
            loop {
                if let Some((job, at)) = st.queue.pop_front() {
                    st.busy += 1;
                    break (job, at, st.busy);
                }
                if !st.open {
                    return;
                }
                st = match inner.work.wait(st) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        inner.metrics.queue_wait_us.observe_since(enqueued_at);
        inner.metrics.depth.observe(depth as u64);
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            inner.metrics.panics.inc();
        }
        locked(&inner.state).busy -= 1;
        inner.metrics.completed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs_on_fixed_workers() {
        let pool = Executor::new(2, 8, &WallRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            assert!(pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        assert_eq!(pool.inner.metrics.submitted.value(), 10);
        assert_eq!(pool.inner.metrics.completed.value(), 10);
        assert_eq!(pool.inner.metrics.rejected.value(), 0);
    }

    #[test]
    fn rejects_when_workers_and_queue_are_full() {
        let pool = Executor::new(1, 0, &WallRegistry::new());
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        assert!(pool.submit(move || {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
        }));
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("blocker starts");
        // Worker busy, queue bound 0: the next offer must be refused.
        assert!(!pool.submit(|| {}));
        assert_eq!(pool.inner.metrics.rejected.value(), 1);
        drop(release_tx);
        pool.drain();
    }

    #[test]
    fn a_panicking_job_is_isolated_and_counted() {
        let pool = Executor::new(1, 8, &WallRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        assert!(pool.submit(|| panic!("injected executor test panic")));
        let after = Arc::clone(&ran);
        assert!(pool.submit(move || {
            after.fetch_add(1, Ordering::SeqCst);
        }));
        pool.drain();
        // The single worker survived the panic and served the next job.
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.inner.metrics.panics.value(), 1);
        assert_eq!(pool.inner.metrics.completed.value(), 2);
    }

    #[test]
    fn drain_finishes_queued_jobs_before_exit() {
        let pool = Executor::new(1, 16, &WallRegistry::new());
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            assert!(pool.submit(move || {
                thread::sleep(Duration::from_millis(2));
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        // The closed pool refuses further work.
        assert!(!pool.submit(|| {}));
    }

    #[test]
    fn depth_and_queue_wait_are_recorded() {
        let pool = Executor::new(2, 8, &WallRegistry::new());
        for _ in 0..4 {
            assert!(pool.submit(|| thread::sleep(Duration::from_millis(1))));
        }
        pool.drain();
        assert_eq!(pool.inner.metrics.depth.snapshot().count(), 4);
        assert_eq!(pool.inner.metrics.queue_wait_us.snapshot().count(), 4);
    }
}
