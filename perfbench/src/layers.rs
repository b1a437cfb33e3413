//! Per-layer metrics of the traced run: exact sim counts read from the
//! runners' result structs, `workloads.generate` timed inside the run, and
//! every other layer's host cost from a replay (see [`crate::replay`]).

use crate::metrics::{ledger_gap_bytes, metric, Kind, Metric, SimFigures};
use crate::replay::{self, Timing};
use crate::spans::Tracer;
use crate::timed::GenerateLog;
use crate::workload::{CellKind, Outcome, Pass, Setup, WorkloadName, PAPER_RATES};
use pronghorn_core::PolicyKind;
use pronghorn_jit::RequestWork;
use pronghorn_metrics::{geo_mean_of_improvements, median_improvement_pct, Quantiles};
use pronghorn_platform::{ProductionStats, RunResult};
use pronghorn_sim::SimTime;
use pronghorn_workloads::Workload;

/// The paper's geo-mean median gains of request-centric over
/// checkpoint-after-1st at eviction rates 1, 4 and 20, percent.
pub const PAPER_RC_GAIN_PCT: [f64; 3] = [37.2, 22.5, 13.5];

/// What the traced pass recorded.
pub struct Traced {
    /// The traced pass.
    pub pass: Pass,
    /// Per-cell generate logs, indexed like the cells.
    pub logs: Vec<GenerateLog>,
    /// Per-cell runner span ids.
    pub cell_spans: Vec<usize>,
}

/// Host replays, run for the layers the workload exercised.
#[derive(Default)]
struct Replays {
    jit: Timing,
    encode: Timing,
    restore: Timing,
    diff: Timing,
    put: Timing,
    get: Timing,
    tier: Timing,
    kernel: Timing,
    kernel_peak: usize,
    arrivals: Timing,
    route: Timing,
    plan: Timing,
}

fn sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> u64 {
    items.iter().map(f).sum()
}

fn sumf<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum()
}

/// Median of `values`; 0 for a layer the workload does not exercise.
fn median_or_zero(values: Vec<f64>) -> f64 {
    Quantiles::new(values).map_or(0.0, |q| q.median())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run's replays, under a `replay.<layer>` parent span each.
/// Returns the timings and every replay's check failure.
fn run_replays(
    setup: &Setup,
    traced: &Traced,
    tracer: &Tracer,
    checkpoints: u64,
) -> (Replays, usize, Vec<String>) {
    let mut r = Replays::default();
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    let mut record = |res: Result<(), String>| {
        attempted += 1;
        if let Err(e) = res {
            failures.push(e);
        }
    };
    // Requests per benchmark: the first cell of each benchmark that
    // generated any.
    let mut captured: Vec<(usize, Vec<RequestWork>)> = Vec::new();
    for (cell, log) in setup.cells.iter().zip(&traced.logs) {
        if !log.captured.is_empty() && !captured.iter().any(|(b, _)| *b == cell.bench) {
            captured.push((cell.bench, log.captured.clone()));
        }
    }
    let first = &setup.cells[0];

    let span = tracer.open(None, "replay.jit", None);
    let warmed = match replay::jit(&setup.benches, &setup.profiles, &captured) {
        Ok((t, w)) => {
            r.jit = t;
            record(Ok(()));
            w
        }
        Err(e) => {
            record(Err(e));
            Vec::new()
        }
    };
    tracer.close(span);

    if checkpoints > 0 && !warmed.is_empty() {
        let span = tracer.open(None, "replay.checkpoint", None);
        let ck = replay::checkpoint(&warmed);
        tracer.close(span);
        match ck {
            Ok(ck) => {
                record(Ok(()));
                r.encode = ck.encode;
                r.restore = ck.restore;
                r.diff = ck.diff;
                let span = tracer.open(None, "replay.store", None);
                record(replay::store(&ck.snapshots).map(|(p, g)| {
                    r.put = p;
                    r.get = g;
                }));
                let storage = first.cfg().storage;
                if storage.enabled() {
                    record(replay::tier(storage, &ck.snapshots).map(|t| r.tier = t));
                }
                tracer.close(span);
            }
            Err(e) => record(Err(e)),
        }
    }

    // The workload's arrival schedule: a production cell's stream, or the
    // closed loop's fixed gap (which self-schedules one arrival at a time).
    let span = tracer.open(None, "replay.traces", None);
    let (schedule, lookahead): (Vec<SimTime>, usize) = match &first.kind {
        CellKind::Production { .. } => {
            match replay::arrivals(first.arrivals().expect("production cell")) {
                Ok((t, a)) => {
                    r.arrivals = t;
                    record(Ok(()));
                    (a, 1 << 16)
                }
                Err(e) => {
                    record(Err(e));
                    (Vec::new(), 1)
                }
            }
        }
        CellKind::Closed { cfg } | CellKind::Cluster { cfg } | CellKind::Ladder { cfg, .. } => {
            let gap = match &first.kind {
                CellKind::Ladder { ladder, .. } => crate::workload::gap_for(ladder.rungs()[0]),
                _ => cfg.request_gap,
            };
            let a = (1..=u64::from(cfg.invocations))
                .map(|i| SimTime::ZERO + gap * i)
                .collect();
            (a, 1)
        }
    };
    tracer.close(span);

    if !schedule.is_empty() {
        let span = tracer.open(None, "replay.sim", None);
        record(
            replay::kernel(first.kernel(), &schedule, lookahead).map(|(t, peak)| {
                r.kernel = t;
                r.kernel_peak = peak;
            }),
        );
        tracer.close(span);
    }

    if let CellKind::Ladder { cfg, .. } = &first.kind {
        let span = tracer.open(None, "replay.cluster", None);
        let names: Vec<&str> = setup
            .cells
            .iter()
            .map(|c| setup.benches[c.bench].name())
            .collect();
        record(replay::route(cfg.cluster.nodes, &names).map(|t| r.route = t));
        tracer.close(span);
    }

    if let CellKind::Production { cfg, .. } = &first.kind {
        if cfg.provision.enabled() && !schedule.is_empty() {
            let span = tracer.open(None, "replay.forecast", None);
            let image = replay::image_bytes(&warmed);
            record(replay::plan(cfg.provision, &schedule, image).map(|(t, _)| r.plan = t));
            tracer.close(span);
        }
    }
    (r, attempted, failures)
}

/// Geo-mean median gain of request-centric over after-1st per paper rate,
/// percent (0 when no benchmark improved).
fn rc_gains(setup: &Setup, outcomes: &[Outcome]) -> [f64; 3] {
    let median_of = |bench: usize, policy: PolicyKind, rate: u32| {
        setup
            .cells
            .iter()
            .zip(outcomes)
            .find_map(|(c, o)| match (&c.kind, o) {
                (CellKind::Closed { cfg }, Outcome::Closed(r))
                    if c.bench == bench && cfg.policy == policy && cfg.eviction_rate == rate =>
                {
                    Some(r.median_us())
                }
                _ => None,
            })
    };
    let mut benches: Vec<usize> = setup.cells.iter().map(|c| c.bench).collect();
    benches.dedup();
    PAPER_RATES.map(|rate| {
        let gains: Vec<f64> = benches
            .iter()
            .filter_map(|&b| {
                let base = median_of(b, PolicyKind::AfterFirst, rate)?;
                let rc = median_of(b, PolicyKind::RequestCentric, rate)?;
                median_improvement_pct(base, rc)
            })
            .collect();
        geo_mean_of_improvements(&gains).unwrap_or(0.0)
    })
}

/// Everything the traced run reports, plus the replay checks' attempted
/// and failed counts.
pub fn layer_metrics(
    setup: &Setup,
    traced: &Traced,
    tracer: &Tracer,
    untraced_inv_per_s: f64,
    sim: &SimFigures,
) -> (Vec<Metric>, usize, Vec<String>) {
    let outcomes = &traced.pass.outcomes;
    let runs: Vec<&RunResult> = outcomes.iter().flat_map(Outcome::run_results).collect();
    let prods: Vec<&ProductionStats> = outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Production(s) => Some(s),
            _ => None,
        })
        .collect();
    let clusters: Vec<_> = outcomes.iter().flat_map(Outcome::cluster_runs).collect();
    let invocations = traced.pass.invocations();

    let checkpoints = sum(&runs, |r| r.checkpoint_ms.len() as u64) + sum(&prods, |s| s.checkpoints);
    let (rp, replay_attempted, replay_failures) = run_replays(setup, traced, tracer, checkpoints);

    let mut m = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, kind: Kind| {
        m.push(metric(name, value, unit, kind));
    };

    // platform + workloads: the in-run spans.
    let run_host_s: f64 = traced.pass.cell_host_s.iter().sum();
    let gen_ns: u64 = traced.logs.iter().map(|l| l.ns).sum();
    let gen_calls: u64 = traced.logs.iter().map(|l| l.calls).sum();
    let self_ns: u64 = traced
        .cell_spans
        .iter()
        .zip(&traced.logs)
        .map(|(&span, log)| {
            // Calls past the span cap are covered by the generate time the
            // kept spans do not account for.
            let kept: u64 = log.spans.iter().map(|(s, e, _)| e - s).sum();
            tracer
                .self_time_ns(span)
                .saturating_sub(log.ns.saturating_sub(kept))
        })
        .sum();
    let self_host_s = self_ns as f64 / 1e9;
    let gen_host_s = gen_ns as f64 / 1e9;
    push("platform.run_host_s", run_host_s, "s", Kind::Host);
    push("platform.self_host_s", self_host_s, "s", Kind::Host);
    push(
        "platform.provision_offpath_ms",
        (sumf(&runs, |r| r.provision_us) + sumf(&prods, |s| s.provision_us_total)) / 1e3,
        "ms",
        Kind::Sim,
    );
    push(
        "workloads.generate_calls",
        gen_calls as f64,
        "count",
        Kind::Sim,
    );
    push("workloads.generate_host_s", gen_host_s, "s", Kind::Host);
    push(
        "workloads.generate_us_per_call",
        ratio(gen_ns as f64 / 1e3, gen_calls as f64),
        "us",
        Kind::Host,
    );
    push(
        "workloads.generate_share",
        ratio(gen_host_s, run_host_s),
        "ratio",
        Kind::Host,
    );

    // jit
    push(
        "jit.execute_ns_per_call",
        rp.jit.ns_per_call(),
        "ns",
        Kind::Host,
    );
    let conv: Vec<f64> = setup
        .cells
        .iter()
        .zip(outcomes)
        .filter(|(c, _)| c.metric)
        .filter_map(|(_, o)| o.reference()?.convergence_request().map(|c| c as f64))
        .collect();
    push(
        "jit.convergence_request",
        median_or_zero(conv),
        "request",
        Kind::Sim,
    );

    // checkpoint
    let codec = |f: fn(&pronghorn_checkpoint::CodecStats) -> u64| sum(&runs, |r| f(&r.codec));
    let all_ckpt_ms: Vec<f64> = runs.iter().flat_map(|r| r.checkpoint_ms.clone()).collect();
    let snapshot_mb =
        sumf(&runs, |r| r.snapshot_mb.iter().sum()) + sumf(&prods, |s| s.snapshot_mb_total);
    push("checkpoint.count", checkpoints as f64, "count", Kind::Sim);
    push(
        "checkpoint.downtime_ms_p50",
        median_or_zero(all_ckpt_ms),
        "ms",
        Kind::Sim,
    );
    push(
        "checkpoint.snapshot_mb_mean",
        ratio(snapshot_mb, checkpoints as f64),
        "MB",
        Kind::Sim,
    );
    push(
        "checkpoint.encodes",
        codec(|c| c.encodes) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "checkpoint.encode_skips",
        codec(|c| c.encode_skips) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "checkpoint.delta_encodes",
        codec(|c| c.delta_encodes) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "checkpoint.delta_dirty_ratio",
        ratio(
            codec(|c| c.delta_pages_written) as f64,
            codec(|c| c.delta_pages_total) as f64,
        ),
        "ratio",
        Kind::Sim,
    );
    push(
        "checkpoint.delta_bytes_written",
        codec(|c| c.delta_bytes_written) as f64,
        "B",
        Kind::Sim,
    );
    push(
        "checkpoint.encode_mb_per_s",
        rp.encode.mb_per_s(),
        "MB/s",
        Kind::Host,
    );
    push(
        "checkpoint.restore_mb_per_s",
        rp.restore.mb_per_s(),
        "MB/s",
        Kind::Host,
    );
    push(
        "checkpoint.diff_mb_per_s",
        rp.diff.mb_per_s(),
        "MB/s",
        Kind::Host,
    );

    // restore
    let infos: Vec<_> = runs.iter().flat_map(|r| r.restore_infos.iter()).collect();
    let restores = infos.len() as u64 + sum(&prods, |s| s.restores);
    let restore_ms_total = infos
        .iter()
        .map(|i| i.total_restore_us() / 1e3)
        .sum::<f64>()
        + sumf(&prods, |s| s.restore_ms_total);
    let total_restore_ms: Vec<f64> = infos.iter().map(|i| i.total_restore_us() / 1e3).collect();
    let fault_ms: Vec<f64> = infos.iter().map(|i| i.fault_us / 1e3).collect();
    push("restore.count", restores as f64, "count", Kind::Sim);
    push(
        "restore.restore_ms_p50",
        median_or_zero(total_restore_ms),
        "ms",
        Kind::Sim,
    );
    push(
        "restore.restore_ms_mean",
        ratio(restore_ms_total, restores as f64),
        "ms",
        Kind::Sim,
    );
    push(
        "restore.fault_ms_p50",
        median_or_zero(fault_ms),
        "ms",
        Kind::Sim,
    );
    push(
        "restore.faults",
        (infos.iter().map(|i| u64::from(i.faults)).sum::<u64>() + sum(&prods, |s| s.restore_faults))
            as f64,
        "count",
        Kind::Sim,
    );
    push(
        "restore.prefetched_pages",
        infos
            .iter()
            .map(|i| u64::from(i.prefetched_pages))
            .sum::<u64>() as f64,
        "count",
        Kind::Sim,
    );
    push(
        "restore.decompress_ms_total",
        infos.iter().map(|i| i.decompress_us / 1e3).sum(),
        "ms",
        Kind::Sim,
    );

    // store: object store, tier, chain
    let st = |f: fn(&pronghorn_store::StoreStats) -> u64| sum(&runs, |r| f(&r.store_stats));
    let storage: Vec<pronghorn_store::StorageStats> = runs
        .iter()
        .map(|r| r.storage)
        .chain(prods.iter().map(|s| s.storage))
        .collect();
    let tier = |f: fn(&pronghorn_store::StorageStats) -> u64| sum(&storage, f);
    let tierf = |f: fn(&pronghorn_store::StorageStats) -> f64| sumf(&storage, f);
    let chain = |f: fn(&pronghorn_store::ChainStats) -> u64| sum(&runs, |r| f(&r.chain));
    let (puts, gets) = (st(|s| s.puts), st(|s| s.gets));
    push("store.puts", puts as f64, "count", Kind::Sim);
    push("store.gets", gets as f64, "count", Kind::Sim);
    push(
        "store.uploaded_gb",
        st(|s| s.bytes_uploaded) as f64 / 1e9,
        "GB",
        Kind::Sim,
    );
    push(
        "store.downloaded_gb",
        st(|s| s.bytes_downloaded) as f64 / 1e9,
        "GB",
        Kind::Sim,
    );
    push(
        "store.dedup_ratio",
        ratio(
            st(|s| s.bytes_deduped) as f64,
            (st(|s| s.bytes_uploaded) + st(|s| s.bytes_deduped)) as f64,
        ),
        "ratio",
        Kind::Sim,
    );
    push(
        "store.peak_stored_gb",
        runs.iter()
            .map(|r| r.store_stats.peak_bytes_stored)
            .max()
            .unwrap_or(0) as f64
            / 1e9,
        "GB",
        Kind::Sim,
    );
    let (hits, misses) = (tier(|s| s.cache_hits), tier(|s| s.cache_misses));
    push(
        "store.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
        Kind::Sim,
    );
    push(
        "store.cache_evictions",
        tier(|s| s.cache_evictions) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "store.cache_rejects",
        tier(|s| s.cache_rejects) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "store.wire_down_gb",
        tier(|s| s.wire_bytes_downloaded) as f64 / 1e9,
        "GB",
        Kind::Sim,
    );
    push(
        "store.wire_up_gb",
        tier(|s| s.wire_bytes_uploaded) as f64 / 1e9,
        "GB",
        Kind::Sim,
    );
    push(
        "store.compress_ms",
        tierf(|s| s.compress_us) / 1e3,
        "ms",
        Kind::Sim,
    );
    push(
        "store.decompress_ms",
        tierf(|s| s.decompress_us) / 1e3,
        "ms",
        Kind::Sim,
    );
    push(
        "store.composed_prefetches",
        tier(|s| s.composed_prefetches) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "store.chain_deltas",
        chain(|c| c.deltas) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "store.chain_consolidations",
        chain(|c| c.consolidations) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "store.composed_restores",
        chain(|c| c.composed_restores) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "store.chain_max_depth",
        runs.iter().map(|r| r.chain.max_depth).max().unwrap_or(0) as f64,
        "links",
        Kind::Sim,
    );
    push("store.put_ns", rp.put.ns_per_call(), "ns", Kind::Host);
    push("store.get_ns", rp.get.ns_per_call(), "ns", Kind::Host);
    push(
        "store.tier_read_ns",
        rp.tier.ns_per_call(),
        "ns",
        Kind::Host,
    );

    // core (and kv, whose cost the overhead totals price)
    let ov = |f: fn(&pronghorn_core::OverheadTotals) -> f64| sumf(&runs, |r| f(&r.overheads));
    push(
        "core.startup_overhead_ms",
        ratio(ov(|o| o.startup_us), ov(|o| o.startups as f64)) / 1e3,
        "ms",
        Kind::Sim,
    );
    push(
        "core.request_overhead_us",
        ratio(ov(|o| o.request_us), ov(|o| o.requests as f64)),
        "us",
        Kind::Sim,
    );
    push(
        "core.checkpoint_overhead_ms",
        ratio(ov(|o| o.checkpoint_us), ov(|o| o.checkpoints as f64)) / 1e3,
        "ms",
        Kind::Sim,
    );
    push(
        "core.pool_peak_gb",
        runs.iter()
            .map(|r| r.overheads.peak_pool_nominal_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1e9,
        "GB",
        Kind::Sim,
    );
    let gains = if setup.workload == WorkloadName::PaperGrid {
        rc_gains(setup, outcomes)
    } else {
        [0.0; 3]
    };
    for (i, rate) in PAPER_RATES.iter().enumerate() {
        push(
            &format!("core.rc_gain_pct.r{rate}"),
            gains[i],
            "%",
            Kind::Sim,
        );
    }
    for (i, rate) in PAPER_RATES.iter().enumerate() {
        let err = if setup.workload == WorkloadName::PaperGrid {
            (gains[i] - PAPER_RC_GAIN_PCT[i]).abs()
        } else {
            0.0
        };
        push(
            &format!("core.rc_gain_err_pts.r{rate}"),
            err,
            "pts",
            Kind::Sim,
        );
    }

    // sim + traces
    push("sim.events_per_s", rp.kernel.per_s(), "1/s", Kind::Host);
    let peak = prods
        .iter()
        .map(|s| s.peak_pending_events)
        .max()
        .unwrap_or(rp.kernel_peak);
    push("sim.peak_pending_events", peak as f64, "count", Kind::Sim);
    push(
        "traces.arrivals_per_s",
        rp.arrivals.per_s(),
        "1/s",
        Kind::Host,
    );

    // cluster
    let local = sum(&clusters, |c| c.locality.local_hits);
    let remote = sum(&clusters, |c| c.locality.remote_misses);
    let served = sum(&clusters, |c| c.served());
    push(
        "cluster.locality_hit_rate",
        ratio(local as f64, (local + remote) as f64),
        "ratio",
        Kind::Sim,
    );
    push(
        "cluster.remote_gb",
        sum(&clusters, |c| c.locality.remote_bytes) as f64 / 1e9,
        "GB",
        Kind::Sim,
    );
    push(
        "cluster.remote_ms_total",
        sumf(&clusters, |c| c.locality.remote_us) / 1e3,
        "ms",
        Kind::Sim,
    );
    push(
        "cluster.spillovers",
        sum(&clusters, |c| c.spillovers()) as f64,
        "count",
        Kind::Sim,
    );
    push(
        "cluster.queue_delay_ms_mean",
        ratio(sumf(&clusters, |c| c.total_queue_delay_us()), served as f64) / 1e3,
        "ms",
        Kind::Sim,
    );
    let imbalance: Vec<f64> = clusters
        .iter()
        .map(|c| {
            let max = c.nodes.iter().map(|n| n.served).max().unwrap_or(0) as f64;
            ratio(max, c.served() as f64 / c.nodes.len().max(1) as f64)
        })
        .collect();
    push(
        "cluster.node_load_imbalance",
        ratio(imbalance.iter().sum(), imbalance.len() as f64),
        "ratio",
        Kind::Sim,
    );
    push(
        "cluster.ledger_gap_gb",
        clusters
            .iter()
            .map(|c| ledger_gap_bytes(c) as f64)
            .sum::<f64>()
            / 1e9,
        "GB",
        Kind::Sim,
    );
    push("cluster.route_ns", rp.route.ns_per_call(), "ns", Kind::Host);

    // forecast
    let provisioning: Vec<_> = runs
        .iter()
        .map(|r| r.provisioning)
        .chain(prods.iter().map(|s| s.provisioning))
        .collect();
    let issued = sum(&provisioning, |p| p.pre_restores_issued);
    push(
        "forecast.pre_restores_issued",
        issued as f64,
        "count",
        Kind::Sim,
    );
    push(
        "forecast.pre_restore_hit_rate",
        ratio(
            sum(&provisioning, |p| p.pre_restores_used) as f64,
            issued as f64,
        ),
        "ratio",
        Kind::Sim,
    );
    push(
        "forecast.keepalive_gb_s",
        sumf(&provisioning, |p| p.keepalive_byte_s) / 1e9,
        "GB.s",
        Kind::Sim,
    );
    push("forecast.plan_ns", rp.plan.ns_per_call(), "ns", Kind::Host);

    // Replay estimates beside the in-run self time. A replay is not an
    // in-run measurement: replay-ns-per-call × in-run call count only
    // says what the layer would cost if the run called it like the replay.
    let est = |t: &Timing, calls: u64| t.ns_per_call() * calls as f64 / 1e9;
    let prod_inv = sum(&prods, |s| s.invocations);
    let provisioned_inv: u64 = setup
        .cells
        .iter()
        .zip(outcomes)
        .filter(|(c, _)| match &c.kind {
            CellKind::Production { cfg, .. } => cfg.provision.enabled(),
            _ => false,
        })
        .map(|(_, o)| o.invocations())
        .sum();
    let estimates = [
        ("jit.replay_est_s", est(&rp.jit, invocations)),
        (
            "checkpoint.replay_est_s",
            est(
                &rp.encode,
                codec(|c| c.encodes) + sum(&prods, |s| s.checkpoints),
            ) + est(&rp.restore, restores)
                + est(&rp.diff, codec(|c| c.delta_encodes)),
        ),
        (
            "store.replay_est_s",
            est(&rp.put, puts) + est(&rp.get, gets) + est(&rp.tier, hits + misses),
        ),
        ("sim.replay_est_s", est(&rp.kernel, invocations)),
        ("traces.replay_est_s", est(&rp.arrivals, prod_inv)),
        (
            "cluster.replay_est_s",
            est(&rp.route, clusters.len() as u64),
        ),
        ("forecast.replay_est_s", est(&rp.plan, provisioned_inv)),
    ];
    let mut accounted = 0.0;
    for (name, v) in estimates {
        accounted += v;
        push(name, v, "s", Kind::Host);
    }
    push(
        "platform.unaccounted_s",
        self_host_s - accounted,
        "s",
        Kind::Host,
    );

    // Tracing overhead: the traced pass against the untraced one.
    let traced_rate = traced.pass.inv_per_s();
    push(
        "trace.host_inv_per_s_traced",
        traced_rate,
        "inv/s",
        Kind::Host,
    );
    push(
        "trace.host_inv_per_s_untraced",
        untraced_inv_per_s,
        "inv/s",
        Kind::Host,
    );
    push(
        "trace.overhead_pct",
        (1.0 - ratio(traced_rate, untraced_inv_per_s)) * 100.0,
        "%",
        Kind::Host,
    );

    // Workload-level figures that are not gated (0 = the runner cannot
    // produce it).
    for (name, value, unit) in sim.ungated() {
        push(
            &format!("e2e.{name}"),
            value.unwrap_or(0.0),
            unit,
            Kind::Sim,
        );
    }

    (m, replay_attempted, replay_failures)
}
