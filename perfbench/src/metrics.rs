//! End-to-end metrics, the correctness gate, and per-layer sim counts.

use crate::stats::{min_samples_for, tail_percentile};
use crate::workload::{Cell, CellKind, Outcome, Setup};
use pronghorn_metrics::{geometric_mean, Quantiles};
use pronghorn_platform::{
    ClusterRunResult, ProductionStats, RestoreStrategy, RunConfig, RunResult,
};

/// Whether a number is what the simulated platform would take, what the
/// simulator takes on this host, or a correctness count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Deterministic for a seed.
    Sim,
    /// Host wall-clock or memory.
    Host,
    /// Correctness bookkeeping.
    Check,
}

impl Kind {
    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Sim => "sim",
            Kind::Host => "host",
            Kind::Check => "check",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value (`0` for a layer the workload does not exercise).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// sim / host / check.
    pub kind: Kind,
}

/// Builds a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.to_string(),
        // An empty float sum is -0.0; report it as 0.
        value: value + 0.0,
        unit,
        kind,
    }
}

/// The workload-level simulated figures. `None` marks a figure the
/// workload's runner cannot produce.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimFigures {
    /// Geo-mean over metric cells of the median client latency, ms.
    pub p50_ms: f64,
    /// Geo-mean over metric cells of the p99 client latency, ms.
    pub p99_ms: f64,
    /// Geo-mean over restoring metric cells of the median restore, ms.
    pub restore_p50_ms: Option<f64>,
    /// Restore bytes over metric cells, GB.
    pub restore_gb: Option<f64>,
    /// Nominal checkpoint bytes uploaded over metric cells, GB.
    pub upload_gb: Option<f64>,
    /// Provisioning paid on the critical path per invocation.
    pub demand_frac: f64,
    /// Geo-mean over benchmarks of the capacity rung, rps.
    pub capacity_rps: Option<f64>,
    /// Pre-warm keep-alive cost, GB·s.
    pub keepalive_gb_s: Option<f64>,
    /// Whether production p50/p99 came from the log-bucketed histogram
    /// (1 % relative resolution).
    pub from_histogram: bool,
}

impl SimFigures {
    /// The end-to-end figures that are reported but not gated, as
    /// `(name, value, unit)`: `None` where the runner cannot produce one.
    pub fn ungated(&self) -> [(&'static str, Option<f64>, &'static str); 5] {
        [
            ("sim_restore_p50_ms", self.restore_p50_ms, "ms"),
            ("sim_restore_gb", self.restore_gb, "GB"),
            ("sim_upload_gb", self.upload_gb, "GB"),
            ("sim_capacity_rps", self.capacity_rps, "rps"),
            ("sim_keepalive_gb_s", self.keepalive_gb_s, "GB.s"),
        ]
    }
}

fn ms(us: f64) -> f64 {
    us / 1e3
}

fn demand(cold: u64, restores: u64, pre: u64) -> u64 {
    (cold + restores).saturating_sub(pre)
}

/// Computes the workload's simulated figures from a pass's outcomes.
pub fn sim_figures(setup: &Setup, outcomes: &[Outcome]) -> Result<SimFigures, String> {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut restore_p50 = Vec::new();
    let (mut restore_bytes, mut upload_bytes) = (0u64, 0u64);
    let (mut has_runs, mut has_prod) = (false, false);
    let (mut demand_n, mut inv) = (0u64, 0u64);
    let mut capacity = Vec::new();
    let mut keepalive: Option<f64> = None;
    for (cell, outcome) in setup.cells.iter().zip(outcomes) {
        if let (CellKind::Ladder { ladder, .. }, Outcome::Ladder { capacity: cap, .. }) =
            (&cell.kind, outcome)
        {
            let c = cap.ok_or_else(|| format!("{}: reference rung failed", cell.label))?;
            capacity.push(ladder.rungs()[c]);
        }
        if !cell.metric {
            continue;
        }
        match outcome {
            Outcome::Production(s) => {
                has_prod = true;
                p50.push(ms(s.p50_latency_us));
                if (s.invocations as usize) < min_samples_for(99.0) {
                    return Err(format!("{}: p99 undersampled", cell.label));
                }
                p99.push(ms(s.p99_latency_us));
                demand_n += demand(
                    s.cold_starts,
                    s.restores,
                    s.provisioning.pre_restores_issued,
                );
                inv += s.invocations;
                if let CellKind::Production { cfg, .. } = &cell.kind {
                    if cfg.provision.enabled() {
                        *keepalive.get_or_insert(0.0) += s.provisioning.keepalive_byte_s / 1e9;
                    }
                }
            }
            _ => {
                let r = outcome
                    .reference()
                    .expect("closed and ladder cells have one");
                has_runs = true;
                let lat = Quantiles::new(r.latencies_us.clone())
                    .ok_or_else(|| format!("{}: no valid latencies", cell.label))?;
                p50.push(ms(lat.median()));
                p99.push(ms(tail_percentile(&r.latencies_us, 99.0)
                    .ok_or_else(|| format!("{}: p99 undersampled", cell.label))?));
                if !r.restore_infos.is_empty() {
                    restore_p50.push(ms(r.median_restore_us()));
                }
                restore_bytes += r.restore_bytes();
                upload_bytes += r.overheads.nominal_bytes_uploaded;
                demand_n += demand(
                    r.cold_starts() as u64,
                    r.restores() as u64,
                    r.provisioning.pre_restores_issued,
                );
                inv += r.latencies_us.len() as u64;
            }
        }
    }
    let gm = |v: &[f64], what: &str| geometric_mean(v).ok_or_else(|| format!("no valid {what}"));
    Ok(SimFigures {
        p50_ms: gm(&p50, "p50")?,
        p99_ms: gm(&p99, "p99")?,
        restore_p50_ms: if has_runs {
            geometric_mean(&restore_p50)
        } else {
            None
        },
        restore_gb: has_runs.then_some(restore_bytes as f64 / 1e9),
        upload_gb: has_runs.then_some(upload_bytes as f64 / 1e9),
        demand_frac: demand_n as f64 / inv.max(1) as f64,
        capacity_rps: if capacity.is_empty() {
            None
        } else {
            Some(gm(&capacity, "capacity")?)
        },
        keepalive_gb_s: keepalive,
        from_histogram: has_prod,
    })
}

fn check_latencies(label: &str, lat: &[f64], expected: u64, failures: &mut Vec<String>) {
    if lat.len() as u64 != expected {
        failures.push(format!(
            "{label}: {} latencies for {expected} invocations",
            lat.len()
        ));
    }
    if let Some(bad) = lat.iter().find(|v| !(v.is_finite() && **v > 0.0)) {
        failures.push(format!("{label}: latency {bad} is not finite and > 0"));
    }
}

fn check_pre_restores(label: &str, p: &pronghorn_platform::ProvisionStats, f: &mut Vec<String>) {
    if p.pre_restores_issued != p.pre_restores_used + p.pre_restores_wasted {
        f.push(format!(
            "{label}: pre-restores issued {} != used {} + wasted {}",
            p.pre_restores_issued, p.pre_restores_used, p.pre_restores_wasted
        ));
    }
}

fn check_run(label: &str, r: &RunResult, expected: u64, f: &mut Vec<String>) {
    check_latencies(label, &r.latencies_us, expected, f);
    check_pre_restores(label, &r.provisioning, f);
}

fn check_production(label: &str, cell: &Cell, s: &ProductionStats, f: &mut Vec<String>) {
    let arrivals = cell
        .arrivals()
        .expect("production cells have a stream")
        .count() as u64;
    if s.invocations != arrivals {
        f.push(format!(
            "{label}: served {} of {arrivals} arrivals",
            s.invocations
        ));
    }
    for (what, v) in [
        ("mean", s.mean_latency_us),
        ("p50", s.p50_latency_us),
        ("p99", s.p99_latency_us),
        ("max", s.max_latency_us),
    ] {
        if !(v.is_finite() && v > 0.0) {
            f.push(format!("{label}: {what} latency {v} is not finite and > 0"));
        }
    }
    if s.p50_latency_us > s.p99_latency_us {
        f.push(format!("{label}: p50 above p99"));
    }
    check_pre_restores(label, &s.provisioning, f);
}

/// Bytes the restore ledger misses: `nominal_downloaded + remote_bytes -
/// restore_bytes` of one cluster run (0 when byte conservation holds).
pub fn ledger_gap_bytes(c: &ClusterRunResult) -> i128 {
    i128::from(c.result.overheads.nominal_bytes_downloaded) + i128::from(c.locality.remote_bytes)
        - i128::from(c.result.restore_bytes())
}

/// Cluster checks: every request served, and — for eager restores, where
/// the restore path ships whole snapshots — byte conservation: every
/// restored byte is a store download or a cross-node transfer. Under lazy
/// and record-prefetch restores the two ledgers disagree at this
/// revision; the gap is reported (`cluster.ledger_gap_gb`), not checked.
fn check_cluster(label: &str, cfg: &RunConfig, c: &ClusterRunResult, f: &mut Vec<String>) {
    let expected = u64::from(cfg.invocations);
    check_run(label, &c.result, expected, f);
    if c.served() != expected {
        f.push(format!("{label}: served {} requests", c.served()));
    }
    if cfg.restore == RestoreStrategy::Eager && ledger_gap_bytes(c) != 0 {
        f.push(format!(
            "{label}: restore bytes {} != downloaded {} + remote {}",
            c.result.restore_bytes(),
            c.result.overheads.nominal_bytes_downloaded,
            c.locality.remote_bytes
        ));
    }
}

/// The correctness gate over one cell: latency count equals invocations
/// requested and every latency is finite and > 0; byte conservation on
/// eager cluster runs; pre-restore conservation everywhere. Returns the
/// failures (empty when the cell passes).
pub fn check_cell(cell: &Cell, outcome: &Outcome) -> Vec<String> {
    let mut f = Vec::new();
    let label = cell.label.as_str();
    match (&cell.kind, outcome) {
        (CellKind::Closed { cfg }, Outcome::Closed(r)) => {
            check_run(label, r, u64::from(cfg.invocations), &mut f)
        }
        (CellKind::Cluster { cfg }, Outcome::Cluster(c)) => check_cluster(label, cfg, c, &mut f),
        (CellKind::Ladder { cfg, .. }, Outcome::Ladder { rungs, capacity }) => {
            if capacity.is_none() {
                f.push(format!(
                    "{label}: the reference rung fails the capacity rule"
                ));
            }
            for rung in rungs {
                let rl = format!("{label}/rung{}", rung.index);
                check_cluster(&rl, cfg, &rung.result, &mut f);
            }
        }
        (CellKind::Production { .. }, Outcome::Production(s)) => {
            check_production(label, cell, s, &mut f)
        }
        _ => f.push(format!("{label}: outcome does not match the cell")),
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_checks_catch_count_and_value_errors() {
        let mut f = Vec::new();
        check_latencies("c", &[1.0, 2.0], 2, &mut f);
        assert!(f.is_empty());
        check_latencies("c", &[1.0], 2, &mut f);
        assert_eq!(f.len(), 1);
        check_latencies("c", &[1.0, 0.0], 2, &mut f);
        check_latencies("c", &[1.0, f64::NAN], 2, &mut f);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn pre_restore_conservation() {
        let mut p = pronghorn_platform::ProvisionStats::default();
        let mut f = Vec::new();
        check_pre_restores("c", &p, &mut f);
        p.pre_restores_issued = 3;
        p.pre_restores_used = 2;
        check_pre_restores("c", &p, &mut f);
        assert_eq!(f.len(), 1);
        p.pre_restores_wasted = 1;
        check_pre_restores("c", &p, &mut f);
        assert_eq!(f.len(), 1);
    }
}
