//! Deterministic sharded measurement waves.
//!
//! The measurement-heavy simulation stages split each simulated day
//! into a sequential *mutate* phase (consensus rounds, fault
//! application) and a read-only *measurement wave* over that day's work
//! units. This crate provides the wave half: a [`WavePool`] that shards
//! a slice of work units into balanced contiguous ranges, runs each
//! shard on a scoped worker thread, and concatenates the per-shard
//! results back **in input order**.
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

/// Splits `len` items into at most `shards` contiguous ranges whose cut
/// points are snapped forward to *key boundaries*: `boundary(i)` must
/// report whether item `i` starts a new key group (with `boundary(0)`
/// conventionally true). No range ever splits a group, so per-group
/// work stays shard-local and the concatenated output is byte-identical
/// at any shard count. Ranges start balanced and only grow toward the
/// next boundary, so skew is bounded by the largest group.
pub fn keyed_ranges(
    len: usize,
    shards: usize,
    boundary: impl Fn(usize) -> bool,
) -> Vec<std::ops::Range<usize>> {
    let mut cuts: Vec<usize> = shard_ranges(len, shards)
        .into_iter()
        .map(|r| r.start)
        .collect();
    for cut in cuts.iter_mut().skip(1) {
        while *cut < len && !boundary(*cut) {
            *cut += 1;
        }
    }
    cuts.dedup();
    let mut out = Vec::with_capacity(cuts.len());
    for (i, &start) in cuts.iter().enumerate() {
        let end = cuts.get(i + 1).copied().unwrap_or(len);
        if start < end {
            out.push(start..end);
        }
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
    /// from stable per-unit keys so output is shard-free. Waves of at
    /// most one item — or a pool of width one — run inline on the
    /// caller's thread.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, WaveStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let shards = shard_ranges(items.len(), self.threads);
        let (parts, stats) = self.fork_join(shards, |range| {
            let out: Vec<R> = items[range.clone()]
                .iter()
                .enumerate()
                .map(|(off, t)| f(range.start + off, t))
                .collect();
            (out, range.len())
        });
        (concat(parts), stats)
    }

    /// Runs `f` once per pre-cut range, each range a task of its own
    /// (on its own worker when the pool is wider than one), returning
    /// the per-range results in range order. Pair with [`keyed_ranges`]
    /// so no range splits a key group: each result then depends only
    /// on that range's items, and the concatenation is identical at
    /// any thread count. `f` receives the range's global start index
    /// and its subslice.
    pub fn map_slices<T, R, F>(
        &self,
        items: &[T],
        ranges: &[std::ops::Range<usize>],
        f: F,
    ) -> (Vec<R>, WaveStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        self.fork_join(ranges.to_vec(), |range| {
            (f(range.start, &items[range.clone()]), range.len())
        })
    }

    /// Maps `f` over *mutable* items, sharded into balanced contiguous
    /// chunks carved with `split_at_mut` — each worker owns a disjoint
    /// chunk, so no locking and no unsafe. `f` receives the global item
    /// index; per-item results come back in input order. Used by the
    /// mutate-phase waves (store expiry/flush, per-relay fault
    /// application) where every unit mutates only its own element.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> (Vec<R>, WaveStats)
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let ranges = shard_ranges(items.len(), self.threads);
        // Carve the slice into per-shard disjoint chunks up front.
        let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
        let mut rest = items;
        for range in &ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            chunks.push((range.start, chunk));
            rest = tail;
        }
        let (parts, stats) = self.fork_join(chunks, |(offset, chunk)| {
            let out: Vec<R> = chunk
                .iter_mut()
                .enumerate()
                .map(|(off, t)| f(offset + off, t))
                .collect();
            (out, chunk.len())
        });
        (concat(parts), stats)
    }

    /// The one fork/join behind every wave: runs `work` on each task —
    /// one scoped thread per task, or every task in order on the
    /// caller's thread when the pool is one wide or there is at most
    /// one task — and returns the outputs in task order. `work` also
    /// reports how many items its task covered. An inline wave is one
    /// shard; a worker's panic resumes on the caller.
    fn fork_join<P, R>(
        &self,
        tasks: Vec<P>,
        work: impl Fn(P) -> (R, usize) + Sync,
    ) -> (Vec<R>, WaveStats)
    where
        P: Send,
        R: Send,
    {
        if self.threads == 1 || tasks.len() <= 1 {
            let start = Instant::now();
            let mut items = 0;
            let out: Vec<R> = tasks
                .into_iter()
                .map(|task| {
                    let (out, n) = work(task);
                    items += n;
                    out
                })
                .collect();
            let shard = ShardStat {
                shard: 0,
                items,
                start,
                end: Instant::now(),
            };
            let stats = WaveStats {
                threads: self.threads,
                shards: vec![shard],
            };
            return (out, stats);
        }
        let work = &work;
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .map(|task| {
                    scope.spawn(move || {
                        let start = Instant::now();
                        let (out, items) = work(task);
                        (out, items, start, Instant::now())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(parts.len());
        let mut shards = Vec::with_capacity(parts.len());
        for (shard, (part, items, start, end)) in parts.into_iter().enumerate() {
            shards.push(ShardStat {
                shard,
                items,
                start,
                end,
            });
            out.push(part);
        }
        (
            out,
            WaveStats {
                threads: self.threads,
                shards,
            },
        )
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

    #[test]
    fn keyed_ranges_never_split_groups() {
        // Keys: 30 items in uneven groups of 1..=4.
        let keys: Vec<u32> = (0..30u32).map(|i| i / 3).collect();
        for shards in 1..12usize {
            let ranges = keyed_ranges(keys.len(), shards, |i| i == 0 || keys[i] != keys[i - 1]);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, keys.len());
            assert_eq!(ranges[0].start, 0);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            for r in &ranges {
                assert!(
                    r.start == 0 || keys[r.start] != keys[r.start - 1],
                    "range {r:?} splits key group {}",
                    keys[r.start]
                );
            }
        }
        assert!(keyed_ranges(0, 4, |_| true).is_empty());
        // One giant group collapses to a single range at any width.
        let one = keyed_ranges(17, 8, |i| i == 0);
        assert_eq!(one, vec![0..17]);
    }

    #[test]
    fn map_slices_concat_matches_sequential_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let keys: Vec<u64> = items.iter().map(|v| v / 5).collect();
        let per_group = |start: usize, part: &[u64]| -> Vec<u64> {
            part.iter()
                .enumerate()
                .map(|(off, v)| mix2((start + off) as u64, *v))
                .collect()
        };
        let seq_ranges = keyed_ranges(items.len(), 1, |i| i == 0 || keys[i] != keys[i - 1]);
        let (seq, _) = WavePool::new(1).map_slices(&items, &seq_ranges, per_group);
        let seq: Vec<u64> = seq.into_iter().flatten().collect();
        for threads in [2, 3, 8] {
            let ranges = keyed_ranges(items.len(), threads, |i| i == 0 || keys[i] != keys[i - 1]);
            let (par, stats) = WavePool::new(threads).map_slices(&items, &ranges, per_group);
            let par: Vec<u64> = par.into_iter().flatten().collect();
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(stats.items(), items.len());
        }
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
        let ranges = shard_ranges(items.len(), 8);
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
            let msg = panic_message_of(|| {
                pool.map_slices(&items, &ranges, |start, _| {
                    assert!(start == 0, "map_slices worker failed at {start}");
                });
            });
            assert!(
                msg.contains("map_slices worker failed at 5"),
                "{threads}: {msg}"
            );
            let mut owned = items.clone();
            let msg = panic_message_of(|| {
                pool.map_mut(&mut owned, |i, _| {
                    assert!(i != 3, "map_mut worker failed at item {i}");
                });
            });
            assert!(
                msg.contains("map_mut worker failed at item 3"),
                "{threads}: {msg}"
            );
        }
    }

    #[test]
    fn map_mut_matches_sequential_at_any_width() {
        let seed: Vec<u64> = (0..83).collect();
        let mut seq = seed.clone();
        let (seq_out, _) = WavePool::new(1).map_mut(&mut seq, |i, v| {
            *v = mix2(i as u64, *v);
            *v & 1
        });
        for threads in [2, 3, 8, 64] {
            let mut par = seed.clone();
            let (par_out, stats) = WavePool::new(threads).map_mut(&mut par, |i, v| {
                *v = mix2(i as u64, *v);
                *v & 1
            });
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(par_out, seq_out, "threads={threads}");
            assert_eq!(stats.items(), seed.len());
            assert!(stats.shards.len() <= threads);
        }
        let mut empty: Vec<u64> = Vec::new();
        let (out, stats) = WavePool::new(8).map_mut(&mut empty, |_, v| *v);
        assert!(out.is_empty());
        assert_eq!(stats.shards.len(), 1);
    }
}
