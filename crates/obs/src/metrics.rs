//! Metric registry: named counters, gauges and log2-bucketed
//! histograms with deterministic quantile summaries.
//!
//! A [`Registry`] is the per-stage replacement for the ad-hoc
//! `Vec<(&'static str, u64)>` counter lists the pipeline used to build
//! by hand. It is insertion-ordered (so JSON layouts are stable),
//! allocation-light, and contains nothing wall-clock dependent: every
//! value in a registry is a pure function of the seed and the plan.
//!
//! Histograms use power-of-two buckets: bucket `0` holds exactly the
//! value `0`, and bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, i.e. its
//! inclusive upper bound is `2^i - 1`. Quantiles are reported as the
//! upper bound of the bucket containing the requested rank — an
//! all-integer definition that is deterministic across platforms and
//! honest about bucket resolution.

/// Number of log2 buckets: one for zero plus one per bit of a `u64`.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Records are O(1); summaries (`count`, `sum`, `min`, `max`,
/// [`Histogram::quantile`]) are exact or bucket-resolution as
/// documented. The empty histogram reports zeros throughout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index holding `v`: `0` for zero, else
    /// `64 - v.leading_zeros()` (so bucket `i` covers `[2^(i-1), 2^i)`).
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// The inclusive upper bound of bucket `i`: `0` for bucket zero,
    /// else `2^i - 1` (saturating at `u64::MAX` for the top bucket).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples in O(1).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = &mut self.counts[Self::bucket_index(v)];
        *bucket = bucket.saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples (saturating).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` in `[0, 1]`, reported as the inclusive upper
    /// bound of the bucket containing the sample of rank
    /// `max(1, ceil(q · count))`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                // Never report beyond the observed maximum: a p99 of
                // "up to 127" when the largest sample was 70 reads as
                // an instrument error.
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The non-empty buckets, as `(inclusive upper bound, count)`
    /// pairs in ascending bucket order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
            .collect()
    }

    /// One JSON object (no trailing newline) summarising this
    /// histogram: count, sum, min/max, p50/p90/p99 and the sparse
    /// bucket list. `metric` and `owner` name the histogram and the
    /// stage that recorded it; the field names deliberately avoid the
    /// `"stage"` key so committed baseline greps on per-stage counter
    /// lines never match histogram lines.
    pub fn to_json(&self, metric: &str, owner: &str) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(|(upper, count)| format!("[{upper}, {count}]"))
            .collect();
        format!(
            "{{\"metric\": \"{}\", \"owner\": \"{}\", \"count\": {}, \"sum\": {}, \
             \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
             \"buckets\": [{}]}}",
            crate::json::escape_json(metric),
            crate::json::escape_json(owner),
            self.count(),
            self.sum(),
            self.min(),
            self.max(),
            self.p50(),
            self.p90(),
            self.p99(),
            buckets.join(", ")
        )
    }
}

/// An insertion-ordered registry of named counters, gauges and
/// histograms. One registry per pipeline stage attempt; the engine
/// folds registries into `StageTiming`s.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    hists: Vec<(&'static str, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `by` to the named counter, creating it (in insertion
    /// order) on first use.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += by,
            None => self.counters.push((name, by)),
        }
    }

    /// Sets the named gauge to `v` (last write wins).
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, g)) => *g = v,
            None => self.gauges.push((name, v)),
        }
    }

    /// The named histogram, created empty on first use.
    pub fn hist(&mut self, name: &'static str) -> &mut Histogram {
        if !self.hists.iter().any(|(n, _)| *n == name) {
            self.hists.push((name, Histogram::new()));
        }
        // The entry was just ensured above.
        #[allow(clippy::unwrap_used)]
        &mut self.hists.iter_mut().find(|(n, _)| *n == name).unwrap().1
    }

    /// Records one sample into the named histogram.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.hist(name).record(v);
    }

    /// Folds a pre-built histogram into the named slot.
    pub fn merge_hist(&mut self, name: &'static str, h: &Histogram) {
        self.hist(name).merge(h);
    }

    /// Value of the named counter, if ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The counters in insertion order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// The gauges in insertion order.
    pub fn gauges(&self) -> &[(&'static str, f64)] {
        &self.gauges
    }

    /// The histograms in insertion order.
    pub fn hists(&self) -> &[(&'static str, Histogram)] {
        &self.hists
    }

    /// Decomposes the registry into `(counters, gauges, histograms)`,
    /// each in insertion order.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        Vec<(&'static str, u64)>,
        Vec<(&'static str, f64)>,
        Vec<(&'static str, Histogram)>,
    ) {
        (self.counters, self.gauges, self.hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_match_hand_computed_values() {
        // bucket 0 = {0}; bucket i (i >= 1) = [2^(i-1), 2^i).
        let cases: [(u64, usize, u64); 10] = [
            (0, 0, 0),
            (1, 1, 1),
            (2, 2, 3),
            (3, 2, 3),
            (4, 3, 7),
            (7, 3, 7),
            (8, 4, 15),
            (1023, 10, 1023),
            (1024, 11, 2047),
            (u64::MAX, 64, u64::MAX),
        ];
        for (v, idx, upper) in cases {
            assert_eq!(Histogram::bucket_index(v), idx, "index of {v}");
            assert_eq!(Histogram::bucket_upper(idx), upper, "upper of {v}");
        }
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        // Ten samples: 0, 1, 2, 2, 3, 4, 5, 8, 9, 70.
        for v in [0, 1, 2, 2, 3, 4, 5, 8, 9, 70] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 104);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 70);
        // Rank ceil(0.5*10)=5 lands in bucket [2,4) (cum: 1,2,4,5) -> 3.
        assert_eq!(h.p50(), 3);
        // Rank 9 lands in bucket [8,16) (cum through [4,8) is 7, +2 = 9) -> 15.
        assert_eq!(h.p90(), 15);
        // Rank 10 lands in bucket [64,128) but is clamped to max -> 70.
        assert_eq!(h.p99(), 70);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (3, 3), (7, 2), (15, 2), (127, 1)]
        );
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_and_record_n_agree() {
        let mut a = Histogram::new();
        a.record_n(5, 3);
        let mut b = Histogram::new();
        for _ in 0..3 {
            b.record(5);
        }
        assert_eq!(a, b);
        let mut c = Histogram::new();
        c.merge(&a);
        c.merge(&b);
        assert_eq!(c.count(), 6);
        assert_eq!(c.sum(), 30);
    }

    #[test]
    fn record_saturates_sum_and_count() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        h.record_n(7, u64::MAX);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 1);
        assert_eq!(h.p99(), 7);
    }

    #[test]
    fn merge_saturates_sum_and_count() {
        let mut a = Histogram::new();
        a.record_n(u64::MAX, u64::MAX);
        let mut b = Histogram::new();
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.sum(), u64::MAX);
        b.merge(&a);
        assert_eq!(b.count(), u64::MAX);
        assert_eq!(b.sum(), u64::MAX);
        assert_eq!(b.nonzero_buckets(), vec![(3, 2), (u64::MAX, u64::MAX)]);
    }

    #[test]
    fn registry_preserves_insertion_order() {
        let mut r = Registry::new();
        r.inc("zeta", 1);
        r.inc("alpha", 2);
        r.inc("zeta", 1);
        r.gauge("ratio", 0.5);
        r.record("depth", 4);
        assert_eq!(r.counters(), &[("zeta", 2), ("alpha", 2)]);
        assert_eq!(r.counter("zeta"), Some(2));
        assert_eq!(r.counter("missing"), None);
        assert_eq!(r.gauges(), &[("ratio", 0.5)]);
        assert_eq!(r.hists()[0].0, "depth");
        assert_eq!(r.hists()[0].1.count(), 1);
    }

    #[test]
    fn histogram_json_shape() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(8);
        let json = h.to_json("scan.fetch_attempts", "port_scan");
        assert!(json.starts_with("{\"metric\": \"scan.fetch_attempts\""));
        assert!(json.contains("\"owner\": \"port_scan\""));
        assert!(json.contains("\"buckets\": [[3, 1], [15, 1]]"));
        assert!(!json.contains("\"stage\""));
    }
}
