//! Sample statistics: nearest-rank percentiles and the choice of the
//! highest percentile a sample set can support.

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// sample such that at least `q · n` samples are ≤ it. `None` for an empty
/// set. The input need not be sorted.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Nearest-rank median (the lower middle for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The tail percentiles a report may quote, lowest first.
pub const TAIL_PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the "percentile" is one or two outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// The highest percentile of [`TAIL_PERCENTILES`] that has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it out of `n`, or `None` when even
/// the median has fewer (`n < 20`). A report lists every percentile up to
/// and including this one.
#[must_use]
pub fn highest_reported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|q| (1.0 - q) * n as f64 >= MIN_SAMPLES_BEYOND - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), Some(3.0));
        assert_eq!(percentile(&s, 0.2), Some(1.0));
        assert_eq!(percentile(&s, 0.21), Some(2.0));
        assert_eq!(percentile(&s, 0.9), Some(5.0));
        assert_eq!(percentile(&s, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_an_even_count_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn p90_of_a_hundred_is_the_ninetieth_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
    }

    #[test]
    fn the_highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_reported_percentile(0), None);
        assert_eq!(highest_reported_percentile(19), None);
        assert_eq!(highest_reported_percentile(20), Some(0.5));
        assert_eq!(highest_reported_percentile(99), Some(0.5));
        assert_eq!(highest_reported_percentile(100), Some(0.9));
        assert_eq!(highest_reported_percentile(999), Some(0.9));
        assert_eq!(highest_reported_percentile(1000), Some(0.99));
        assert_eq!(highest_reported_percentile(10_000), Some(0.999));
    }
}
