//! Sample statistics, metric records and failure accounting.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = rank_of(v.len(), p)?;
    Some(v[rank - 1])
}

/// The nearest rank (1-based) of percentile `p` among `n` samples,
/// with `p` taken to a tenth of a percent so that no float rounding
/// moves the rank.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let tenths = (p * 10.0).round() as usize;
    Some((tenths * n).div_ceil(1000).clamp(1, n))
}

/// Samples strictly beyond percentile `p`'s nearest rank.
pub fn beyond(n: usize, p: f64) -> usize {
    rank_of(n, p).map_or(0, |rank| n - rank)
}

/// The highest percentile on the tail ladder that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A sample's tail: the percentile chosen by [`tail_percentile`], its
/// value and the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest supported tail of `samples`.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let pct = tail_percentile(samples.len())?;
    Some(Tail {
        pct,
        value: percentile(samples, pct)?,
        samples: samples.len(),
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, checked by [`valid_metric_name`].
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as written in `BENCHMARK.json`.
    pub unit: String,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

impl Metric {
    /// A metric; panics on an invalid name, which is a bug in the
    /// benchmark rather than a measurement failure.
    pub fn new(name: impl Into<String>, value: f64, unit: &str, samples: usize) -> Self {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        Metric {
            name,
            value,
            unit: unit.to_owned(),
            samples,
        }
    }

    /// The median of `samples`, or an error naming the empty metric.
    pub fn median_of(name: &str, samples: &[f64], unit: &str) -> Result<Self, String> {
        let value = median(samples).ok_or_else(|| format!("{name}: no samples"))?;
        Ok(Metric::new(name, value, unit, samples.len()))
    }

    /// A count: exact, one sample.
    pub fn count(name: &str, value: u64) -> Self {
        Metric::new(name, value as f64, "count", 1)
    }
}

/// Operations attempted and failed, with the first few failure reasons
/// kept for the log.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error reply, degraded stage, mismatch).
    pub failed: u64,
    /// The first failure messages.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.fail(reason);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for reason in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99.9 needs 10 of n beyond rank ceil(0.999 n): n = 10_000.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        // p99 needs n >= 1000; p90 needs n >= 100; p50 needs n >= 20.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 99, 100, 999, 1_000, 5_000, 10_000, 50_000] {
            let p = tail_percentile(n).expect("supported");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reports_value_and_sample_count() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let t = tail(&v).expect("1000 samples support p99");
        assert_eq!(
            t,
            Tail {
                pct: 99.0,
                value: 990.0,
                samples: 1_000
            }
        );
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn metric_names_follow_the_benchmark_grammar() {
        for ok in [
            "setup_s",
            "core.stage.port_scan_ms",
            "onion-crypto.sha1_ns",
            "serve.query_wall_us.p99",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "slash/name",
            "quote\"",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("boom".into()));
        let mut u = Tally::default();
        u.record(Err("bang".into()));
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.reasons, vec!["boom".to_owned(), "bang".to_owned()]);
    }
}
