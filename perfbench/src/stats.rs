//! A tail percentile that refuses to report a tail it has not sampled.
//! Medians and geometric means come from `pronghorn_metrics`.

/// Minimum number of samples that must lie strictly beyond a reported tail
/// percentile. A p99 over fewer than `100 * TAIL_BEYOND` samples is an
/// extrapolation, not a measurement.
pub const TAIL_BEYOND: usize = 10;

/// The `p`-th percentile (`p` in `(0, 100)`) by the nearest-rank rule,
/// reported only when at least [`TAIL_BEYOND`] samples lie strictly above
/// the rank — so p99 needs at least 1000 samples.
///
/// Nearest rank: the smallest sample with at least `p`% of the samples at
/// or below it, i.e. sorted index `ceil(p/100 * n) - 1`.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Smallest sample count for which [`tail_percentile`] reports `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            rank > 0 && n - rank >= TAIL_BEYOND
        })
        .expect("every p in (0, 100) has a finite minimum")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly 10 beyond — reported.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
        // 999 samples: rank 990, only 9 beyond — refused.
        assert_eq!(tail_percentile(&thousand[..999], 99.0), None);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn tail_percentile_is_order_independent() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = tail_percentile(&v, 99.0);
        v.reverse();
        assert_eq!(a, tail_percentile(&v, 99.0));
        assert_eq!(a, Some(1979.0));
    }

    #[test]
    fn tail_percentile_rejects_bad_input() {
        let v: Vec<f64> = (0..5000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.0), None);
        assert_eq!(tail_percentile(&v, 100.0), None);
        let mut nan = v.clone();
        nan[3] = f64::NAN;
        assert_eq!(tail_percentile(&nan, 99.0), None);
    }
}
