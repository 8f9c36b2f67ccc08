//! Order statistics for the reported timings.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A summary of one sample set: its median and one tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// The median.
    pub p50: f64,
    /// The nearest-rank value at [`Self::tail_percentile`].
    pub tail: f64,
    /// The percentile `tail` reports.
    pub tail_percentile: f64,
    /// Samples above the tail's rank.
    pub beyond: usize,
}

impl Summary {
    /// Summarizes `samples` with its tail at `tail_percentile`, or `None` if
    /// there are no samples.
    pub fn of(samples: &[f64], tail_percentile: f64) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let rank = ((tail_percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(Self {
            samples: n,
            p50: median_sorted(&v),
            tail: v[rank - 1],
            tail_percentile,
            beyond: n - rank,
        })
    }

    /// How the tail was obtained, for the report.
    pub fn describe_tail(&self) -> String {
        let short = if self.beyond < TAIL_BEYOND {
            format!(", fewer than {TAIL_BEYOND} beyond")
        } else {
            String::new()
        };
        format!(
            "p{} of {} samples, {} beyond{short}",
            self.tail_percentile, self.samples, self.beyond
        )
    }
}

/// The median of `samples`, or `None` if there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples, 50.0).map(|s| s.p50)
}

/// The geometric mean of positive `samples`, or `None` if there are none.
/// It averages ratios without letting the largest ones dominate.
pub fn geometric_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|v| v.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v, 90.0).unwrap();
        assert_eq!((s.p50, s.tail, s.beyond), (50.5, 90.0, 10));
        let s = Summary::of(&v[..45], 75.0).unwrap();
        assert_eq!((s.tail, s.beyond), (34.0, 11));
        assert!(s.describe_tail().ends_with("11 beyond"));
    }

    #[test]
    fn short_sets_say_so() {
        let s = Summary::of(&[3.0, 1.0, 2.0], 75.0).unwrap();
        assert_eq!((s.p50, s.tail, s.beyond), (2.0, 3.0, 0));
        assert!(s.describe_tail().contains("fewer than"));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        let g = geometric_mean(&[0.5, 2.0, 8.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12, "{g}");
        let one = geometric_mean(&[3.0]).unwrap();
        assert!((one - 3.0).abs() < 1e-12, "{one}");
        assert_eq!(geometric_mean(&[]), None);
    }
}
