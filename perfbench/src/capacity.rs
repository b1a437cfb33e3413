//! Capacity search for the `cluster-restore` workload.
//!
//! Each benchmark gets a fixed ladder of arrival rates derived from static
//! workload constants — never from a measured latency — so the ladder is
//! the same for every seed and every build. One absolute ladder cannot fit
//! both a 12 ms and a 3 s function, so the rungs are multiples of the
//! benchmark's *nominal* rate: cluster worker slots divided by the
//! benchmark's interpreted base-size service time.
//!
//! A rung passes when the run's p99 stays under the benchmark's fixed
//! latency limit (a multiple of the same service time) and the backlog is
//! not growing. Every rung runs on every pass, so the host work a pass
//! times never depends on simulated results; capacity is the highest rung
//! below the first failing one.

use pronghorn_metrics::Quantiles;

/// Rung multipliers of the nominal rate, ascending. The first rung is the
/// reference load the cluster latency metrics are read at. A benchmark that
/// passes the top rung has at least the nominal rate as capacity.
pub const LADDER: [f64; 3] = [0.25, 0.5, 1.0];

/// p99 latency limit, as a multiple of the static service time.
pub const LIMIT_FACTOR: f64 = 20.0;

/// A backlog is growing when the median latency of the last quarter of
/// arrivals exceeds this multiple of the second quarter's median.
pub const BACKLOG_GROWTH: f64 = 2.0;

/// The static per-benchmark constants the ladder is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// Interpreted base-size service time (execution + IO), seconds.
    pub service_s: f64,
    /// Worker slots across the cluster.
    pub slots: u32,
}

impl Ladder {
    /// Arrival rate at which the slots would be busy all the time if every
    /// request took exactly the static service time, requests/second.
    pub fn nominal_rps(&self) -> f64 {
        f64::from(self.slots) / self.service_s
    }

    /// The rung rates, requests/second, ascending.
    pub fn rungs(&self) -> Vec<f64> {
        LADDER.iter().map(|m| m * self.nominal_rps()).collect()
    }

    /// The benchmark's fixed p99 limit, ms.
    pub fn limit_ms(&self) -> f64 {
        LIMIT_FACTOR * self.service_s * 1e3
    }
}

/// Whether `latencies` (arrival order) show a growing backlog: the last
/// quarter's median above [`BACKLOG_GROWTH`] times the second quarter's.
/// The first quarter is skipped so warm-up never counts as a trend.
pub fn backlog_growing(latencies: &[f64]) -> bool {
    let q = latencies.len() / 4;
    if q == 0 {
        return false;
    }
    let median = |v: &[f64]| Quantiles::new(v.to_vec()).map(|q| q.median());
    match (
        median(&latencies[q..2 * q]),
        median(&latencies[latencies.len() - q..]),
    ) {
        (Some(s), Some(l)) => l > BACKLOG_GROWTH * s,
        _ => true,
    }
}

/// Whether one rung passes: a measured p99 under the limit and no growing
/// backlog. An unmeasurable p99 (`None`) fails.
pub fn rung_passes(p99_ms: Option<f64>, limit_ms: f64, latencies: &[f64]) -> bool {
    p99_ms.is_some_and(|p| p <= limit_ms) && !backlog_growing(latencies)
}

/// Capacity from every rung's pass/fail, lowest rung first: the highest
/// rung below the first failure. `None` when the lowest rung already fails
/// (the ladder does not reach down to this benchmark's capacity, which the
/// caller treats as a failed check). A rung that passes above a failure
/// does not count: a backlog that has built up once is not capacity.
pub fn capacity(passed: &[bool]) -> Option<usize> {
    passed
        .iter()
        .position(|p| !p)
        .unwrap_or(passed.len())
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic monotone service: p99 rises with load, explodes (and
    /// the backlog grows) past `capacity` rps.
    fn synthetic(rate: f64, capacity: f64) -> (Option<f64>, Vec<f64>) {
        let n = 1000;
        let rho = rate / capacity;
        let lat: Vec<f64> = (0..n)
            .map(|i| {
                let base = 10.0 / (1.0 - rho.min(0.95));
                if rho >= 1.0 {
                    base + i as f64 * (rho - 0.9)
                } else {
                    base
                }
            })
            .collect();
        (crate::stats::tail_percentile(&lat, 99.0), lat)
    }

    #[test]
    fn ladder_is_static_and_ascending() {
        let l = Ladder {
            service_s: 0.05,
            slots: 8,
        };
        assert!((l.nominal_rps() - 160.0).abs() < 1e-9);
        let rungs = l.rungs();
        assert_eq!(rungs.len(), LADDER.len());
        assert!(rungs.windows(2).all(|w| w[0] < w[1]));
        assert!((l.limit_ms() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_is_highest_passing_rung_on_monotone_curve() {
        let rates = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        for (cap, expect) in [
            (3.0, Some(1)),
            (10.0, Some(3)),
            (100.0, Some(6)),
            (0.5, None),
        ] {
            let passed: Vec<bool> = rates
                .iter()
                .map(|&rate| {
                    let (p99, lat) = synthetic(rate, cap);
                    rung_passes(p99, 200.0, &lat)
                })
                .collect();
            assert_eq!(capacity(&passed), expect, "capacity {cap}");
        }
    }

    #[test]
    fn capacity_stops_at_the_first_failure() {
        assert_eq!(capacity(&[true, true, false, true, true]), Some(1));
        assert_eq!(capacity(&[false, true]), None);
        assert_eq!(capacity(&[]), None);
    }

    #[test]
    fn growing_backlog_fails_even_under_the_limit() {
        // Latency creeps up linearly: p99 stays under a generous limit,
        // but the last quarter is far above the second.
        let lat: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 * 0.1).collect();
        assert!(backlog_growing(&lat));
        let p99 = crate::stats::tail_percentile(&lat, 99.0);
        assert!(p99.unwrap() < 1000.0);
        assert!(!rung_passes(p99, 1000.0, &lat));
    }

    #[test]
    fn steady_latency_has_no_backlog() {
        let lat: Vec<f64> = (0..1000).map(|i| 5.0 + f64::from(i % 7)).collect();
        assert!(!backlog_growing(&lat));
        // Warm-up in the first quarter never counts.
        let mut warm = lat.clone();
        for v in warm.iter_mut().take(250) {
            *v *= 50.0;
        }
        assert!(!backlog_growing(&warm));
        let p99 = crate::stats::tail_percentile(&lat, 99.0);
        assert!(rung_passes(p99, 100.0, &lat));
        assert!(!rung_passes(p99, 5.0, &lat), "p99 over the limit fails");
        assert!(!rung_passes(None, 100.0, &lat), "unmeasured p99 fails");
    }
}
