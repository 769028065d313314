//! Order statistics over latency samples.

/// Samples needed beyond a tail percentile before it is reported as
/// resolved.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of ascending `sorted`, by
/// linear interpolation between closest ranks; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

impl Tail {
    /// Does at least [`MIN_TAIL_SAMPLES`] samples back the tail?
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_TAIL_SAMPLES
    }
}

/// Samples of `n` ranked above the `pct`-th percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((n as f64 * pct / 100.0).ceil() as usize).min(n)
}

/// The `pct`-th percentile of ascending `sorted`, with its sample count.
pub fn tail(sorted: &[f64], pct: f64) -> Tail {
    Tail {
        pct,
        value: percentile(sorted, pct),
        beyond: beyond(sorted.len(), pct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.5);
        assert!((percentile(&v, 90.0) - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 25.0), 1.75);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_flags_thin_tails() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail(&v, 99.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.resolved());
        let thin = tail(&v[..999], 99.0);
        assert_eq!(thin.beyond, 9);
        assert!(!thin.resolved(), "9 samples beyond p99 must be flagged");
        assert!(!tail(&v[..100], 95.0).resolved());
        assert!(tail(&v[..100], 90.0).resolved());
    }
}
