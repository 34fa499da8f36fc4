//! Order statistics for timings: medians, nearest-rank percentiles and
//! the tail rule (the highest percentile of a fixed ladder that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it).
//!
//! A failed operation is recorded as an infinitely slow sample, so it
//! counts both as a failure and against every percentile it reaches.

/// Percentiles the tail rule may report, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile of ascending `sorted` by the nearest-rank rule
/// (the smallest sample with at least `p` % of the samples at or below
/// it), with its rank counted from 1.
fn nearest_rank(sorted: &[f64], p: f64) -> (usize, f64) {
    let n = sorted.len();
    // The epsilon keeps float noise in `p · n / 100` from bumping an
    // exact rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (rank, sorted[rank - 1])
}

/// A reported tail: which percentile, its value, and how many samples
/// lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 = the slowest sample).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly after its rank.
    pub beyond: usize,
}

/// A latency log: one entry per operation, failures as `+inf`.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    samples: Vec<f64>,
}

impl Latencies {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed operation of `ms` milliseconds.
    pub fn ok(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    /// Records a failed operation: infinitely slow.
    pub fn failed(&mut self) {
        self.samples.push(f64::INFINITY);
    }

    /// Operations recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Failed operations.
    pub fn failures(&self) -> usize {
        self.samples.iter().filter(|s| s.is_infinite()).count()
    }

    fn sorted(&self) -> Vec<f64> {
        assert!(!self.samples.is_empty(), "no latencies recorded");
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median by nearest rank (a sample, never an interpolation, so
    /// a majority of failures makes it infinite).
    pub fn p50(&self) -> f64 {
        nearest_rank(&self.sorted(), 50.0).1
    }

    /// The tail: the highest [`TAIL_LADDER`] percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, or the slowest sample when
    /// the log is too short for any.
    pub fn tail(&self) -> Tail {
        let sorted = self.sorted();
        let n = sorted.len();
        for &p in TAIL_LADDER.iter().rev() {
            let (rank, value) = nearest_rank(&sorted, p);
            if n - rank >= TAIL_MIN_BEYOND {
                return Tail {
                    percentile: p,
                    value,
                    beyond: n - rank,
                };
            }
        }
        Tail {
            percentile: 100.0,
            value: sorted[n - 1],
            beyond: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(values: impl IntoIterator<Item = f64>) -> Latencies {
        let mut l = Latencies::new();
        for v in values {
            l.ok(v);
        }
        l
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1..=1000: p99 has rank 990 and 10 beyond; p99.9 has only 1.
        let l = log((1..=1000).map(f64::from));
        assert_eq!(
            l.tail(),
            Tail {
                percentile: 99.0,
                value: 990.0,
                beyond: 10
            }
        );
        // 10 000 samples: p99.9 (rank 9990) keeps exactly 10 beyond.
        let l = log((1..=10_000).map(f64::from));
        assert_eq!(l.tail().percentile, 99.9);
        assert_eq!(l.tail().value, 9990.0);
        // 999 samples: p99 has rank 990 and only 9 beyond, so p90 it is.
        let l = log((1..=999).map(f64::from));
        assert_eq!(l.tail().percentile, 90.0);
        assert_eq!(l.tail().beyond, 999 - 900);
    }

    #[test]
    fn short_logs_report_the_slowest_sample() {
        let l = log([4.0, 9.0, 5.0]);
        assert_eq!(
            l.tail(),
            Tail {
                percentile: 100.0,
                value: 9.0,
                beyond: 0
            }
        );
        assert_eq!(l.p50(), 5.0);
    }

    #[test]
    fn failures_count_and_are_infinitely_slow() {
        let mut l = log((1..=989).map(f64::from));
        for _ in 0..11 {
            l.failed();
        }
        assert_eq!(l.len(), 1000);
        assert_eq!(l.failures(), 11);
        // Rank 990 is now a failure: the tail is infinite, not 990 ms.
        let t = l.tail();
        assert_eq!(t.percentile, 99.0);
        assert!(t.value.is_infinite());
        // A majority of failures drags the median to infinity too.
        let mut l = log([1.0, 2.0]);
        for _ in 0..3 {
            l.failed();
        }
        assert!(l.p50().is_infinite());
    }
}
