//! Order statistics for op samples and for sets of runs.

/// `values` sorted ascending. Panics on NaN: a NaN duration is a harness
/// bug, not a measurement.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    sorted
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, linearly
/// interpolated between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Percentiles a tail may be reported at, in per mille, highest first.
const TAIL_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile that still has at least ten of `samples` beyond
/// it — the highest tail the sample supports. `None` below 40 samples.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_PER_MILLE
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the benchmark driver judges spreads with.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |k: usize| {
        // Rank k·(n+1)/4, 1-based, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        // Negative below four values, where Python extrapolates too.
        let delta = ((k * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 91.0);
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 4.5));
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
    }
}
