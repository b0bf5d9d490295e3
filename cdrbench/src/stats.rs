//! Order statistics over raw samples, and the failure tally.
//!
//! Every latency the benchmark reports is a percentile of the raw
//! per-operation samples it recorded, never a bucketed histogram: a
//! histogram's overflow bucket or interpolated bounds cannot resolve a
//! 10 % change.

/// Percentile `q` (0–100) of `samples` by linear interpolation between
/// the two nearest order statistics. `None` when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples` (`percentile(samples, 50)`).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the steadiness
/// figure each end-to-end metric's bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Attempted and failed operations of one workload. A failure is a
/// non-2xx response, a transport error, or an answer that differs from
/// the oracle; each operation counts at most once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks one already-recorded operation as failed (an answer found
    /// wrong when checked after the fact).
    pub fn fail_recorded(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations divided by attempted ones (0 when nothing ran).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5.5));
        assert!((percentile(&samples, 90.0).unwrap() - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(10.0));
        // Order of the raw samples does not matter.
        let shuffled = [7.0, 1.0, 10.0, 3.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0];
        assert_eq!(median(&shuffled), Some(5.5));
        assert_eq!(median(&[42.0]), Some(42.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_see_the_tail_a_histogram_bucket_hides() {
        // 95 fast samples and 5 slow ones: p90 stays fast, the max is
        // the real slow sample rather than a bucket bound.
        let mut samples = vec![0.05; 95];
        samples.extend([12.0, 13.0, 14.0, 15.0, 16.0]);
        assert_eq!(percentile(&samples, 90.0), Some(0.05));
        assert_eq!(percentile(&samples, 100.0), Some(16.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn error_ratio_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_ratio(), 0.0);
        for ok in [true, true, false, true] {
            tally.record(ok);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(tally.error_ratio(), 0.25);
        tally.fail_recorded();
        assert_eq!(tally.error_ratio(), 0.5);
        let mut total = Tally::default();
        total.merge(tally);
        total.merge(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(total.error_ratio(), 2.0 / 8.0);
        // A late failure never pushes the ratio past 1.
        let mut one = Tally::default();
        one.record(false);
        one.fail_recorded();
        assert_eq!(one.error_ratio(), 1.0);
    }
}
