//! Order statistics and bound comparison for the harness.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The smallest value; 0 when empty. On a shared host interference only
/// adds time, so the fastest of a few repetitions is the steadiest estimate.
pub fn fastest(values: &[f64]) -> f64 {
    percentile(values, 0.0)
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    v[idx]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it among `count` samples — the tail a run of that length may
/// report. `None` below twenty samples (not even the median qualifies).
pub fn reportable_tail(count: usize) -> Option<f64> {
    // Integer per-mille arithmetic: 100 · (1 − 0.9) is not 10 in f64.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|permille| count * (1000 - permille) / 1000 >= 10)
        .map(|permille| permille as f64 / 1000.0)
}

/// By what share of `reference` the `candidate` is worse (negative when it
/// is better), in the metric's own direction.
pub fn worsening(reference: f64, candidate: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (candidate - reference) / reference.abs(),
        Better::Higher => (reference - candidate) / reference.abs(),
    }
}

/// Whether `candidate` is no worse than `reference` by more than the
/// relative `bound`.
pub fn within_bound(reference: f64, candidate: f64, better: Better, bound: f64) -> bool {
    worsening(reference, candidate, better) <= bound
}

/// Whether two runs of the same code agree: neither is worse than the other
/// by more than `bound`.
pub fn agree(a: f64, b: f64, better: Better, bound: f64) -> bool {
    within_bound(a, b, better, bound) && within_bound(b, a, better, bound)
}

/// Absolute cap for a lower-is-better metric; NaN fails.
pub fn under_cap(value: f64, cap: f64) -> bool {
    value <= cap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // order of the input does not matter
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(fastest(&[9.0, 1.0, 5.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_tail(8), None);
        assert_eq!(reportable_tail(19), None);
        assert_eq!(reportable_tail(20), Some(0.5));
        assert_eq!(reportable_tail(99), Some(0.5));
        assert_eq!(reportable_tail(100), Some(0.9));
        assert_eq!(reportable_tail(1000), Some(0.99));
        assert_eq!(reportable_tail(10_000), Some(0.999));
    }

    #[test]
    fn bounds_are_relative_and_directional() {
        // lower is better: +10 % is a 0.10 worsening, -10 % an improvement
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!(within_bound(100.0, 110.0, Better::Lower, 0.10));
        assert!(!within_bound(100.0, 111.0, Better::Lower, 0.10));
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.10));
        // higher is better: the same numbers flip
        assert!(within_bound(100.0, 90.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 200.0, Better::Higher, 0.10));
        // agreement is symmetric
        assert!(agree(100.0, 109.0, Better::Lower, 0.10));
        assert!(!agree(100.0, 112.0, Better::Lower, 0.10));
        assert!(!agree(112.0, 100.0, Better::Lower, 0.10));
    }

    #[test]
    fn caps_are_absolute() {
        assert!(under_cap(5.9e-3, 6e-3));
        assert!(!under_cap(6.1e-3, 6e-3));
        assert!(!under_cap(f64::NAN, 6e-3));
    }
}
