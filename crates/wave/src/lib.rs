//! Deterministic sharded measurement waves.
//!
//! The measurement-heavy simulation stages split each simulated day
//! into a sequential *mutate* phase (consensus rounds, fault
//! application) and a read-only *measurement wave* over that day's work
//! units. This crate provides the wave half: a [`WavePool`] that shards
//! a slice of work units into balanced contiguous ranges, runs the
//! first shard on the caller's thread and each other shard on a scoped
//! worker thread, and concatenates the per-shard results back **in
//! input order**. The pipeline engine forks independent stages through
//! the same [`WavePool::map`].
//!
//! Determinism contract: the worker closure receives the *global* item
//! index, never the shard index, so nothing a unit computes can depend
//! on how the work was sharded. Per-unit randomness must be derived
//! from stable unit keys (onion identifiers, simulated hours) — helpers
//! [`mix`] and [`mix2`] fold such keys into seed material. Under that
//! discipline, `map` output is byte-identical at any thread count,
//! including the inline `threads == 1` path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

use std::time::Instant;

/// Splits `len` items into at most `shards` balanced contiguous ranges:
/// every shard gets `len / shards` items and the first `len % shards`
/// shards get one extra, so shard sizes differ by at most one and no
/// shard is empty.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Wall-clock accounting for one shard of a wave.
#[derive(Clone, Copy, Debug)]
pub struct ShardStat {
    /// Shard index within the wave.
    pub shard: usize,
    /// Work units the shard processed.
    pub items: usize,
    /// When the shard started executing.
    pub start: Instant,
    /// When the shard finished.
    pub end: Instant,
}

/// Accounting for one wave: how it was sharded and how long each shard
/// ran. Purely observability — nothing here may feed back into results.
#[derive(Clone, Debug)]
pub struct WaveStats {
    /// Thread budget the wave ran under (as configured, not clamped).
    pub threads: usize,
    /// Per-shard timings, in shard order.
    pub shards: Vec<ShardStat>,
}

impl WaveStats {
    /// Total items processed across all shards.
    pub fn items(&self) -> usize {
        self.shards.iter().map(|s| s.items).sum()
    }
}

/// A fixed-width pool that runs measurement waves. Each parallel wave
/// spawns its workers in a scope it joins before returning, so the
/// pool itself is just the configured width.
#[derive(Clone, Copy, Debug)]
pub struct WavePool {
    threads: usize,
}

impl WavePool {
    /// A pool that runs waves on up to `threads` workers. Zero behaves
    /// as one.
    pub fn new(threads: usize) -> Self {
        WavePool {
            threads: threads.max(1),
        }
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, sharded across the pool, returning the
    /// results in input order plus the wave's shard accounting. `f`
    /// receives the global item index; it must derive any randomness
    /// from stable per-unit keys so output is shard-free.
    ///
    /// Waves of at most one item — or a pool of width one — run inline
    /// on the caller's thread as one shard. A wider wave runs its first
    /// shard on the caller and spawns one scoped thread per other
    /// shard, so a two-wide wave spawns one thread; a worker's panic
    /// resumes on the caller.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, WaveStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let shard = |shard: usize, range: std::ops::Range<usize>| {
            let start = Instant::now();
            let out: Vec<R> = items[range.clone()]
                .iter()
                .enumerate()
                .map(|(off, t)| f(range.start + off, t))
                .collect();
            let stat = ShardStat {
                shard,
                items: range.len(),
                start,
                end: Instant::now(),
            };
            (out, stat)
        };
        let ranges = shard_ranges(items.len(), self.threads);
        let parts: Vec<(Vec<R>, ShardStat)> = if ranges.len() <= 1 {
            vec![shard(0, 0..items.len())]
        } else {
            let shard = &shard;
            let mut parts = Vec::with_capacity(ranges.len());
            std::thread::scope(|scope| {
                let mut tasks = ranges.into_iter().enumerate();
                let head = tasks.next();
                let handles: Vec<_> = tasks
                    .map(|(i, range)| scope.spawn(move || shard(i, range)))
                    .collect();
                parts.extend(head.map(|(i, range)| shard(i, range)));
                parts.extend(handles.into_iter().map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                }));
            });
            parts
        };
        let (outs, shards): (Vec<Vec<R>>, Vec<ShardStat>) = parts.into_iter().unzip();
        let stats = WaveStats {
            threads: self.threads,
            shards,
        };
        (concat(outs), stats)
    }
}

/// Concatenates per-shard outputs in shard order; a single shard's
/// output (every inline wave) is returned as is.
fn concat<R>(mut parts: Vec<Vec<R>>) -> Vec<R> {
    if parts.len() == 1 {
        return parts.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// SplitMix64 finalizer: avalanches structured key material into
/// uniform seed bits.
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Folds two keys into one seed: `mix(mix(a) ^ b)`. Order-sensitive by
/// design — `mix2(a, b) != mix2(b, a)` in general.
pub fn mix2(a: u64, b: u64) -> u64 {
    mix(mix(a) ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_balanced_and_contiguous() {
        for len in 0..40usize {
            for shards in 1..10usize {
                let ranges = shard_ranges(len, shards);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len);
                if len > 0 {
                    assert_eq!(ranges[0].start, 0);
                    assert_eq!(ranges[ranges.len() - 1].end, len);
                    for w in ranges.windows(2) {
                        assert_eq!(w[0].end, w[1].start, "contiguous");
                    }
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let min = sizes.iter().min().copied().unwrap_or(0);
                    let max = sizes.iter().max().copied().unwrap_or(0);
                    assert!(max - min <= 1, "balanced: {sizes:?}");
                    assert!(min >= 1, "no empty shard: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn map_matches_sequential_at_any_width() {
        let items: Vec<u64> = (0..101).collect();
        let (seq, seq_stats) = WavePool::new(1).map(&items, |i, v| mix2(i as u64, *v));
        assert_eq!(seq_stats.shards.len(), 1);
        assert_eq!(seq_stats.items(), items.len());
        for threads in [2, 3, 8, 64] {
            let (par, stats) = WavePool::new(threads).map(&items, |i, v| mix2(i as u64, *v));
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(stats.items(), items.len());
            assert!(stats.shards.len() <= threads);
        }
    }

    #[test]
    fn empty_and_single_item_waves_run_inline() {
        let none: Vec<u32> = Vec::new();
        let (out, stats) = WavePool::new(8).map(&none, |_, v| *v);
        assert!(out.is_empty());
        assert_eq!(stats.shards.len(), 1);
        let one = [42u32];
        let (out, stats) = WavePool::new(8).map(&one, |i, v| (i, *v));
        assert_eq!(out, vec![(0, 42)]);
        assert_eq!(stats.shards[0].items, 1);
    }

    #[test]
    fn mix_helpers_are_stable() {
        assert_eq!(mix(0x5ca7), mix(0x5ca7));
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }

    /// Runs `wave`, which must panic, and returns the panic message.
    fn panic_message_of(wave: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(wave))
            .expect_err("the worker's panic must reach the caller");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|msg| (*msg).to_owned())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn worker_panics_reach_the_caller_at_any_width() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 2, 8] {
            let pool = WavePool::new(threads);
            let msg = panic_message_of(|| {
                pool.map(&items, |i, _| {
                    assert!(i != 37, "map worker failed at item {i}");
                });
            });
            assert!(
                msg.contains("map worker failed at item 37"),
                "{threads}: {msg}"
            );
        }
    }

    #[test]
    fn first_task_of_a_parallel_fork_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [2, 4] {
            let items: Vec<usize> = (0..threads).collect();
            let (ran_on, stats) =
                WavePool::new(threads).map(&items, |_, _| std::thread::current().id());
            assert_eq!(stats.shards.len(), threads);
            assert_eq!(ran_on[0], caller, "{threads}: first shard left the caller");
            for (i, id) in ran_on.iter().enumerate().skip(1) {
                assert_ne!(*id, caller, "{threads}: shard {i} ran on the caller");
            }
        }
        // A worker panicking while the caller runs the first shard
        // still reaches the caller.
        let items: Vec<u64> = (0..2).collect();
        let msg = panic_message_of(|| {
            WavePool::new(2).map(&items, |i, _| {
                assert!(i != 0, "caller shard failed at item {i}");
            });
        });
        assert!(msg.contains("caller shard failed at item 0"), "{msg}");
    }
}
