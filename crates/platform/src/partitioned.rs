//! Input-aware orchestration — §6's future-work direction, implemented.
//!
//! "For serverless applications with multiple traffic patterns
//! (workloads), different orchestrators can be specialized towards
//! specific patterns. By doing so, instances can specialize for certain
//! workloads, and thereby achieve a closer 'fit' to the data rather than
//! forcing a single snapshot to handle all workloads a function is subject
//! to."
//!
//! [`run_partitioned`] classifies each request by its input-size factor
//! into one of `classes` buckets (log-spaced around the base size) and
//! routes it to a per-class deployment: its own Orchestrator, weight
//! vector, snapshot pool, and workers. Two specialization effects emerge:
//!
//! 1. each class's weight vector sees a far narrower latency distribution,
//!    so the EWMA estimates converge faster and snapshot selection is
//!    sharper;
//! 2. each class's workers see inputs close to their class centre, so
//!    speculative code tuned to that centre deoptimizes less — the request
//!    novelty is re-based to the class centre, exactly the "divergent code
//!    paths and execution profiles" argument of §6.

use crate::config::RunConfig;
use crate::result::{ProvisionKind, RunResult};
use crate::stale::IoStaleModel;
use crate::worker::Worker;
use pronghorn_checkpoint::{CheckpointScratch, CodecStats, SimCriuEngine, SnapshotMeta};
use pronghorn_core::{baselines::make_policy, Orchestrator};
use pronghorn_jit::Runtime;
use pronghorn_kv::KvStore;
use pronghorn_restore::{RestoreInfo, RestoreStrategy};
use pronghorn_sim::{Kernel, RngFactory, SimTime};
use pronghorn_store::{saturating_accumulate, ObjectStore};
use pronghorn_workloads::{InputVariance, Workload};

/// One input class's deployment.
struct ClassDeployment {
    orch: Orchestrator,
    store: ObjectStore,
    worker: Option<Worker>,
    /// Encode cache for this class's worker; invalidated on every swap.
    scratch: CheckpointScratch,
    /// Geometric centre of the class's size-factor range.
    centre: f64,
    worker_seq: u64,
}

/// Classifies `factor` into one of `classes` log-spaced buckets over
/// `[0.08, 12.0]` (the variance model's clamp range).
pub fn classify_factor(factor: f64, classes: usize) -> usize {
    debug_assert!(classes >= 1);
    let (lo, hi) = (0.08f64.ln(), 12.0f64.ln());
    let t = ((factor.max(1e-9).ln() - lo) / (hi - lo)).clamp(0.0, 1.0);
    ((t * classes as f64) as usize).min(classes - 1)
}

/// Geometric centre of class `k` of `classes`.
pub fn class_centre(k: usize, classes: usize) -> f64 {
    let (lo, hi) = (0.08f64.ln(), 12.0f64.ln());
    let width = (hi - lo) / classes as f64;
    (lo + width * (k as f64 + 0.5)).exp()
}

/// Runs the closed-loop protocol with per-input-class deployments.
///
/// With `classes == 1` this degrades to (a slightly re-seeded version of)
/// the ordinary shared deployment, which makes A/B comparisons easy.
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run_partitioned, RunConfig};
/// use pronghorn_workloads::{by_name, InputVariance};
///
/// let workload = by_name("PageRank").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 7)
///     .with_invocations(40)
///     .with_variance(InputVariance::bimodal());
/// let result = run_partitioned(&workload, &cfg, 2);
/// assert_eq!(result.latencies_us.len(), 40);
/// ```
pub fn run_partitioned(workload: &dyn Workload, cfg: &RunConfig, classes: usize) -> RunResult {
    let classes = classes.max(1);
    let factory = RngFactory::new(cfg.seed);
    let engine = SimCriuEngine::new();
    let mut policy_rng = factory.stream("policy");
    let mut engine_rng = factory.stream("engine");
    let stale = IoStaleModel::default();
    let policy_config = cfg.resolve_policy_config(workload.kind());

    let mut deployments: Vec<ClassDeployment> = (0..classes)
        .map(|k| {
            let store = ObjectStore::new();
            ClassDeployment {
                orch: Orchestrator::new(
                    make_policy(cfg.policy, policy_config),
                    KvStore::new(),
                    store.clone(),
                    format!("{}-class{k}", workload.name()),
                ),
                store,
                worker: None,
                scratch: CheckpointScratch::new(),
                centre: class_centre(k, classes),
                worker_seq: 0,
            }
        })
        .collect();

    let mut latencies = Vec::with_capacity(cfg.invocations as usize);
    let mut provisions = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut snapshot_mb = Vec::new();
    let mut snapshot_requests = Vec::new();
    let mut provision_us = 0.0;
    let mut restore_infos = Vec::new();

    // Closed-loop arrival pump: request `i` fires at `(i + 1) * request_gap`,
    // exactly the instants of the old `now += gap` for-loop, but driven
    // through the configured kernel so both implementations are exercised.
    let total = u64::from(cfg.invocations);
    let mut kernel: Kernel<u64> = Kernel::new(cfg.kernel);
    if total > 0 {
        kernel.schedule(SimTime::ZERO + cfg.request_gap, 0);
    }
    while let Some((now, i)) = kernel.pop() {
        let mut request = workload.request(cfg.seed, i, cfg.variance);
        let class = classify_factor(request.size_factor, classes);
        let deployment = &mut deployments[class];

        // Specialization effect 2: speculation inside a class is tuned to
        // the class centre, so novelty is measured against it.
        let rebased_novelty = InputVariance::novelty_of(request.size_factor / deployment.centre);
        request = request.novelty(rebased_novelty);

        if deployment.worker.is_none() {
            deployment.scratch.invalidate();
            let plan = deployment.orch.begin_worker(&mut policy_rng);
            let mut cost = plan.startup_overhead.as_micros() as f64;
            let wrng = factory.stream_indexed(&format!("worker-c{class}"), deployment.worker_seq);
            let (runtime, resume, restore) = match plan.snapshot {
                Some(snapshot) => match engine.restore::<Runtime, _>(&mut engine_rng, &snapshot) {
                    Ok((rt, c)) => {
                        cost += c.as_micros() as f64;
                        restore_ms.push(c.as_millis_f64());
                        let info = RestoreInfo::eager(c.as_micros() as f64, snapshot.nominal_size);
                        (rt, plan.resume_request, Some(info))
                    }
                    Err(_) => {
                        let mut boot = factory
                            .stream_indexed(&format!("boot-c{class}"), deployment.worker_seq);
                        let (rt, c) = Runtime::cold_start(
                            workload.runtime_profile(),
                            workload.method_profiles(),
                            &mut boot,
                        );
                        cost += c.as_micros() as f64;
                        (rt, 0, None)
                    }
                },
                None => {
                    let mut boot =
                        factory.stream_indexed(&format!("boot-c{class}"), deployment.worker_seq);
                    let (rt, c) = Runtime::cold_start(
                        workload.runtime_profile(),
                        workload.method_profiles(),
                        &mut boot,
                    );
                    cost += c.as_micros() as f64;
                    (rt, 0, None)
                }
            };
            provision_us += cost;
            provisions.push(if restore.is_some() {
                ProvisionKind::Restored(resume)
            } else {
                ProvisionKind::Cold
            });
            // The partitioned path restores eagerly regardless of
            // `cfg.restore`, so the info is final at provision time.
            if let Some(info) = restore {
                restore_infos.push(info);
            }
            deployment.worker = Some(Worker::new(
                runtime,
                wrng,
                resume,
                plan.checkpoint_at,
                restore,
                now,
            ));
            deployment.worker_seq += 1;
        }

        let worker = deployment.worker.as_mut().expect("just provisioned");
        let request_number = worker.next_request_number();
        let breakdown = worker.runtime.execute(&request, &mut worker.rng);
        let mut latency = breakdown.total_us();
        if worker.freshly_restored(stale.horizon) {
            latency += request.io_us
                * workload.io_stale_sensitivity()
                * stale.penalty_frac(worker.resume_request, policy_config.w, worker.served);
        }
        latencies.push(latency);
        deployment
            .orch
            .complete_request(request_number.min(u64::from(u32::MAX)) as u32, latency);
        worker.served += 1;
        worker.last_active = now;

        if worker.checkpoint_due() {
            worker.checkpoint_at = None;
            let meta = SnapshotMeta {
                function: format!("{}-class{class}", workload.name()),
                request_number: worker.runtime.requests_executed() as u32,
                runtime: workload.kind().label().to_string(),
            };
            let (snapshot, downtime) = engine.checkpoint_with(
                &mut deployment.scratch,
                &mut engine_rng,
                &worker.runtime,
                meta,
            );
            checkpoint_ms.push(downtime.as_millis_f64());
            snapshot_mb.push(snapshot.nominal_size_mb());
            snapshot_requests.push(snapshot.meta.request_number);
            deployment
                .orch
                .record_snapshot(&snapshot, downtime, &mut policy_rng);
        }
        if deployment.worker.as_ref().expect("live").served >= cfg.eviction_rate {
            deployment.worker = None;
        }
        if i + 1 < total {
            kernel.schedule(now + cfg.request_gap, i + 1);
        }
    }

    // Merge per-class store stats for reporting.
    let mut store_stats = deployments[0].store.stats();
    for d in &deployments[1..] {
        let s = d.store.stats();
        store_stats.bytes_stored += s.bytes_stored;
        store_stats.peak_bytes_stored += s.peak_bytes_stored;
        store_stats.bytes_uploaded += s.bytes_uploaded;
        store_stats.bytes_downloaded += s.bytes_downloaded;
        store_stats.bytes_deduped += s.bytes_deduped;
        store_stats.objects += s.objects;
        store_stats.puts += s.puts;
        store_stats.gets += s.gets;
        store_stats.deletes += s.deletes;
    }
    let mut overheads = *deployments[0].orch.overheads();
    for d in &deployments[1..] {
        let o = d.orch.overheads();
        overheads.startup_us += o.startup_us;
        overheads.startups += o.startups;
        overheads.request_us += o.request_us;
        overheads.requests += o.requests;
        overheads.checkpoint_us += o.checkpoint_us;
        overheads.checkpoints += o.checkpoints;
        saturating_accumulate(
            "nominal_bytes_uploaded",
            &mut overheads.nominal_bytes_uploaded,
            o.nominal_bytes_uploaded,
        );
        saturating_accumulate(
            "nominal_bytes_downloaded",
            &mut overheads.nominal_bytes_downloaded,
            o.nominal_bytes_downloaded,
        );
        overheads.peak_pool_nominal_bytes += o.peak_pool_nominal_bytes;
    }

    RunResult {
        workload: workload.name().to_string(),
        policy: cfg.policy,
        eviction_rate: cfg.eviction_rate,
        latencies_us: latencies,
        overheads,
        store_stats,
        provisions,
        checkpoint_ms,
        restore_ms,
        snapshot_mb,
        snapshot_requests,
        provision_us,
        codec: {
            let mut codec = CodecStats::default();
            for d in &deployments {
                codec.merge(d.scratch.stats());
            }
            codec
        },
        restore_strategy: RestoreStrategy::Eager,
        restore_infos,
        // Partitioned deployments checkpoint full snapshots only.
        chain: pronghorn_store::ChainStats::default(),
        // Partitioned deployments are purely reactive.
        provisioning: pronghorn_forecast::ProvisionStats::default(),
        storage: {
            let mut storage = pronghorn_store::StorageStats::default();
            for d in &deployments {
                storage.merge(&d.orch.storage_stats());
            }
            storage
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_core::PolicyKind;
    use pronghorn_workloads::by_name;

    #[test]
    fn classification_is_total_and_ordered() {
        for classes in 1..6 {
            for &f in &[0.01, 0.08, 0.2, 1.0, 3.0, 12.0, 100.0] {
                let k = classify_factor(f, classes);
                assert!(k < classes, "f={f} classes={classes} -> {k}");
            }
            // Monotone: larger factors never land in smaller classes.
            let ks: Vec<usize> = [0.1, 0.5, 1.0, 2.0, 8.0]
                .iter()
                .map(|&f| classify_factor(f, classes))
                .collect();
            assert!(ks.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn class_centres_are_inside_their_buckets() {
        for classes in 1..5 {
            for k in 0..classes {
                let centre = class_centre(k, classes);
                assert_eq!(classify_factor(centre, classes), k);
            }
        }
    }

    #[test]
    fn partitioned_run_serves_every_request() {
        let bench = by_name("DFS").unwrap();
        let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 31)
            .with_invocations(160)
            .with_variance(InputVariance::bimodal());
        let r = run_partitioned(&bench, &cfg, 2);
        assert_eq!(r.latencies_us.len(), 160);
        assert!(r.checkpoint_ms.len() > 2);
    }

    #[test]
    fn specialization_beats_the_shared_deployment_on_bimodal_input() {
        // §6's claim: per-pattern orchestrators fit bimodal traffic better
        // than one shared deployment.
        let bench = by_name("PageRank").unwrap();
        let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 5150)
            .with_invocations(400)
            .with_variance(InputVariance::bimodal());
        let shared = crate::runner::run_closed_loop(&bench, &cfg);
        let split = run_partitioned(&bench, &cfg, 2);
        assert!(
            split.median_us() < shared.median_us() * 1.02,
            "partitioned {} vs shared {}",
            split.median_us(),
            shared.median_us()
        );
    }

    #[test]
    fn one_class_matches_request_count_of_shared() {
        let bench = by_name("Hash").unwrap();
        let cfg = RunConfig::paper(PolicyKind::AfterFirst, 4, 9).with_invocations(60);
        let r = run_partitioned(&bench, &cfg, 1);
        assert_eq!(r.latencies_us.len(), 60);
    }
}
