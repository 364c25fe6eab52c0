//! Order statistics used for every reported timing.
//!
//! Timings are reported as medians and one tail percentile over the full
//! sample set of a run — never as a minimum over repetitions, which hides
//! exactly the scheduler and allocator noise a user of the system sees.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Fewest samples for which [`p90_with_ten_beyond`] has a value.
pub const MIN_TAIL_SAMPLES: usize = 100;

/// Nearest-rank 90th percentile, reported only when at least
/// [`TAIL_SAMPLES_BEYOND`] samples lie beyond it — a tail value that one or
/// two outliers decide is not a measurement.  With nearest rank
/// (`rank = ceil(0.9 n)`) that holds from [`MIN_TAIL_SAMPLES`] samples up.
pub fn p90_with_ten_beyond(values: &[f64]) -> Option<f64> {
    let n = values.len();
    let rank = (n * 9).div_ceil(10);
    if rank == 0 || n - rank < TAIL_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Geometric mean of strictly positive values; `None` if the slice is empty
/// or holds a value that is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let up_to = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: rank 90, only 9 beyond.
        assert_eq!(p90_with_ten_beyond(&up_to(99)), None);
        // 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(p90_with_ten_beyond(&up_to(MIN_TAIL_SAMPLES)), Some(90.0));
        // 101 samples: rank 91, 10 beyond.
        assert_eq!(p90_with_ten_beyond(&up_to(101)), Some(91.0));
        assert_eq!(p90_with_ten_beyond(&[]), None);
        // Order of the input does not matter.
        let mut reversed = up_to(200);
        reversed.reverse();
        assert_eq!(p90_with_ten_beyond(&reversed), Some(180.0));
    }

    #[test]
    fn geomean_weighs_every_key_equally() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
        let g = geomean(&[1.0, 100.0]).expect("positive values");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        // Doubling one key moves the mean by 2^(1/n), whichever key it is.
        let a = geomean(&[2.0, 100.0]).expect("positive values");
        let b = geomean(&[1.0, 200.0]).expect("positive values");
        assert!((a - b).abs() < 1e-9);
    }
}
