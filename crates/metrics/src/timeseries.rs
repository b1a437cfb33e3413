//! Latency time-series utilities: bucketing.
//!
//! Warm-up curves (Figure 1) are noisy per-request series spanning
//! thousands of points; rendering wants bucketed medians (robust to deopt
//! spikes). This is the series-side complement of the distribution-side
//! tools in [`crate::quantile`].

/// Downsamples a series into `buckets` equal-width buckets, taking the
/// median of each — the robust smoother behind the ASCII warm-up plots.
///
/// Returns fewer buckets when the series is shorter than `buckets`.
pub fn bucket_medians(series: &[f64], buckets: usize) -> Vec<f64> {
    if series.is_empty() || buckets == 0 {
        return Vec::new();
    }
    let width = series.len().div_ceil(buckets);
    series
        .chunks(width.max(1))
        .map(|chunk| {
            let mut v: Vec<f64> = chunk.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite series"));
            if v.len() % 2 == 1 {
                v[v.len() / 2]
            } else {
                (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_medians_downsample() {
        let series: Vec<f64> = (0..100).map(f64::from).collect();
        let medians = bucket_medians(&series, 10);
        assert_eq!(medians.len(), 10);
        // First bucket covers 0..=9: median 4.5.
        assert_eq!(medians[0], 4.5);
        assert_eq!(medians[9], 94.5);
    }

    #[test]
    fn bucket_medians_handle_edge_cases() {
        assert!(bucket_medians(&[], 5).is_empty());
        assert!(bucket_medians(&[1.0], 0).is_empty());
        // Fewer samples than buckets: one bucket per sample.
        assert_eq!(bucket_medians(&[3.0, 1.0], 10), vec![3.0, 1.0]);
    }

    #[test]
    fn bucket_medians_resist_spikes() {
        let mut series = vec![10.0; 50];
        series[25] = 1e9;
        let medians = bucket_medians(&series, 5);
        assert!(medians.iter().all(|&m| m == 10.0));
    }
}
