//! Exact percentiles over raw per-call samples.

/// One percentile of a sample set: the selected sample, how many
/// samples the set held, and how many lie strictly beyond the selected
/// one. A percentile is trustworthy only with at least
/// [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

impl Pct {
    pub fn enough(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `q`-quantile (`q` in `(0, 1]`) of `sorted`
/// (ascending): the smallest sample with at least `q` of the set at or
/// below it. An empty set gives a zero value with zero samples.
pub fn pct(sorted: &[u64], q: f64) -> Pct {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
    let n = sorted.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: sorted[rank - 1] as f64,
        samples: n,
        beyond: n - rank,
    }
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&s, 0.5).value, 50.0);
        assert_eq!(pct(&s, 0.99).value, 99.0);
        assert_eq!(pct(&s, 1.0).value, 100.0);
        let odd = [3, 5, 9];
        assert_eq!(pct(&odd, 0.5).value, 5.0);
        assert_eq!(pct(&[7], 0.99).value, 7.0);
        assert_eq!(pct(&[], 0.5).samples, 0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th, with 10 beyond it.
        let s: Vec<u64> = (0..1000).collect();
        let p = pct(&s, 0.99);
        assert_eq!((p.value, p.samples, p.beyond), (989.0, 1000, 10));
        assert!(p.enough());
        // 999 samples leave only 9 beyond the 99th percentile.
        let p = pct(&s[..999], 0.99);
        assert_eq!(p.beyond, 9);
        assert!(!p.enough());
        assert!(pct(&s, 0.5).enough());
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
