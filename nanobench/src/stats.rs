//! The benchmark's own arithmetic: medians, geometric means, the tail
//! percentile rule and the `ok_frac` tally.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(xs);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values; `NaN` when `xs` is empty
/// or holds a value that is not strictly positive (a geometric mean of
/// a zero or negative time or count is a bug upstream, not a number).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A job's tail: the highest nearest-rank percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it, never below the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile the rank stands for, `100 · rank / n`.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
    /// Whether the rank lies above the median rank. With fewer than
    /// [`TAIL_MIN_SAMPLES`] samples the tail falls back to the median.
    pub resolved: bool,
}

/// The fewest samples whose rank `n − TAIL_BEYOND` lies above the
/// upper median rank `⌊n/2⌋ + 1`.
pub const TAIL_MIN_SAMPLES: usize = 2 * TAIL_BEYOND + 3;

impl Tail {
    /// `p60 of 25 samples, 10 beyond`, plus a warning when unresolved.
    pub fn describe(&self) -> String {
        let base = format!(
            "p{:.0} of {} samples, {} beyond",
            self.percentile, self.samples, self.beyond
        );
        if self.resolved {
            base
        } else {
            format!("{base}; tail unresolved below {TAIL_MIN_SAMPLES} samples")
        }
    }
}

/// The tail percentile rule. With the samples sorted ascending and
/// ranked from 1, the rank `n − TAIL_BEYOND` leaves exactly
/// [`TAIL_BEYOND`] samples beyond it; the rank is clamped from below to
/// the upper median rank `⌊n/2⌋ + 1`, so a tail never reads lower than
/// the [`median`]. `None` when `xs` is empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let sorted = sorted(xs);
    let n = sorted.len();
    let median_rank = n / 2 + 1;
    let rank = n.saturating_sub(TAIL_BEYOND).max(median_rank);
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
        resolved: rank > median_rank,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Counts job attempts and misses for `ok_frac`. A job is a miss when it
/// fails, is refused, returns another verdict than expected, or fails any
/// check; each attempt counts once however many checks it fails.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that missed.
    pub failed: u64,
}

impl Tally {
    /// Records one attempt.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Jobs that returned their expected verdict and passed every check,
    /// over jobs attempted; 0 when nothing was attempted.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Every attempt passed (and at least one was made).
    pub fn all_ok(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_empty_zero_and_negative() {
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, -2.0]).is_nan());
        assert!(geomean(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn geomean_is_scale_equivariant() {
        let xs = [3.0, 5.0, 11.0];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        assert!((geomean(&scaled) - 2.0 * geomean(&xs)).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=100: rank 90 → p90, value 90, ten beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        assert!(t.resolved);
        assert_eq!(t.describe(), "p90 of 100 samples, 10 beyond");
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=40).map(f64::from).collect();
        xs.reverse();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (30.0, 75.0, 10));
    }

    #[test]
    fn tail_smallest_resolved_count() {
        // 22 samples: rank 12 is the upper median rank itself.
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        assert!(!tail(&xs).unwrap().resolved);
        // 23 samples: rank 13 > 23/2 + 1 = 12, the first rank above it.
        let xs: Vec<f64> = (1..=TAIL_MIN_SAMPLES).map(|i| i as f64).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond), (13.0, 10));
        assert!(t.resolved);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        let t = tail(&[5.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (4.0, 75.0, 1));
        assert!(!t.resolved);
        assert!(t.describe().contains("tail unresolved"));
        let one = tail(&[7.0]).unwrap();
        assert_eq!((one.value, one.percentile, one.beyond), (7.0, 100.0, 0));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_never_reads_below_the_median() {
        for n in 1..=60usize {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = tail(&xs).unwrap();
            assert!(t.value >= median(&xs), "n={n}");
            assert_eq!(t.resolved, n >= TAIL_MIN_SAMPLES, "n={n}");
            assert!(!t.resolved || t.beyond == TAIL_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tally_counts_failures_and_refusals_as_misses() {
        let mut t = Tally::default();
        assert_eq!(t.ok_frac(), 0.0);
        assert!(!t.all_ok());
        t.record(true);
        t.record(true);
        t.record(false); // a refused job
        t.record(false); // a wrong verdict
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.ok_frac(), 0.5);
        assert!(!t.all_ok());
        let mut clean = Tally::default();
        clean.record(true);
        assert_eq!(clean.ok_frac(), 1.0);
        assert!(clean.all_ok());
    }
}
