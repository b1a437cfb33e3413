//! Multi-worker fleet simulation — §5.3's amortization argument.
//!
//! "Checkpointing overheads can be further mitigated when serverless
//! applications are run in a distributed context ... Only a nonempty
//! subset of containers running a given application need to be exploring
//! in order to realize performance benefits — the remaining containers can
//! simply restore from the best snapshots found so far. Exploration
//! overheads can therefore be amortized over many containers, with the
//! degree of amortization chosen by the cloud provider."
//!
//! [`run_fleet`] drives `fleet_size` concurrent workers of one function
//! against a shared Orchestrator (one Database, one Object Store — exactly
//! the sharing topology of Figure 2), using the deterministic event kernel
//! selected by `cfg.kernel`:
//! requests arrive in an open loop and are dispatched to the least-loaded
//! worker; each worker follows the policy independently, but only the
//! configured number of *explorer* workers take checkpoints — the
//! amortization knob.

use crate::config::RunConfig;
use crate::result::{ProvisionKind, RunResult};
use crate::stale::IoStaleModel;
use crate::worker::Worker;
use pronghorn_checkpoint::{CheckpointScratch, CodecStats, SimCriuEngine, SnapshotMeta};
use pronghorn_core::{baselines::make_policy, Orchestrator};
use pronghorn_jit::Runtime;
use pronghorn_kv::KvStore;
use pronghorn_restore::{RestoreInfo, RestoreStrategy};
use pronghorn_sim::{Kernel, RngFactory, SimDuration, SimTime};
use pronghorn_store::ObjectStore;
use pronghorn_workloads::Workload;

/// Fleet-specific configuration on top of [`RunConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Concurrent workers serving the function.
    pub fleet_size: usize,
    /// How many of them explore (take checkpoints); the rest only restore
    /// from the best snapshots found so far. `0` disables checkpointing
    /// entirely.
    pub explorers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            fleet_size: 4,
            explorers: 1,
        }
    }
}

/// Discrete events of the fleet simulation.
enum Event {
    /// A request arrives at the gateway.
    Arrival(u64),
}

/// Runs an open-loop fleet: `cfg.invocations` arrivals spaced by
/// `cfg.request_gap / fleet_size` (so per-worker load matches the
/// closed-loop runs), dispatched across `fleet.fleet_size` workers sharing
/// one orchestrator. The fleet path restores eagerly regardless of
/// `cfg.restore` — lazy strategies are a closed-loop/trace concern; here
/// the restore statistics are still reported so fleet runs feed the same
/// summaries.
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run_fleet, FleetConfig, RunConfig};
/// use pronghorn_workloads::by_name;
///
/// let workload = by_name("DFS").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 7).with_invocations(40);
/// let fleet = FleetConfig { fleet_size: 4, explorers: 1 };
/// let result = run_fleet(&workload, &cfg, &fleet);
/// assert_eq!(result.latencies_us.len(), 40);
/// ```
pub fn run_fleet(workload: &dyn Workload, cfg: &RunConfig, fleet: &FleetConfig) -> RunResult {
    assert!(fleet.fleet_size >= 1, "fleet needs at least one worker");
    let factory = RngFactory::new(cfg.seed);
    let kv = KvStore::new();
    let store = ObjectStore::new();
    let policy_config = cfg.resolve_policy_config(workload.kind());
    let policy = make_policy(cfg.policy, policy_config);
    let mut orch = Orchestrator::new(policy, kv, store.clone(), workload.name());
    let engine = SimCriuEngine::new();
    let mut policy_rng = factory.stream("policy");
    let mut engine_rng = factory.stream("engine");
    let stale = IoStaleModel::default();

    let mut queue: Kernel<Event> = Kernel::new(cfg.kernel);
    let gap =
        SimDuration::from_micros((cfg.request_gap.as_micros() / fleet.fleet_size as u64).max(1));
    let mut at = SimTime::ZERO;
    for i in 0..u64::from(cfg.invocations) {
        at += gap;
        queue.schedule(at, Event::Arrival(i));
    }

    // Worker slots: None = needs provisioning. `served_since_start` drives
    // per-slot eviction at the configured rate.
    let mut slots: Vec<Option<Worker>> = (0..fleet.fleet_size).map(|_| None).collect();
    // One encode cache per slot: caches are only valid per process
    // instance, and slots swap instances independently.
    let mut scratches: Vec<CheckpointScratch> = (0..fleet.fleet_size)
        .map(|_| CheckpointScratch::new())
        .collect();
    let mut worker_seq = 0u64;

    let mut latencies = Vec::with_capacity(cfg.invocations as usize);
    let mut provisions = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut snapshot_mb = Vec::new();
    let mut snapshot_requests = Vec::new();
    let mut provision_us = 0.0;
    let mut restore_infos = Vec::new();

    while let Some((now, Event::Arrival(index))) = queue.pop() {
        // Round-robin dispatch over slots.
        let slot = (index % fleet.fleet_size as u64) as usize;
        // Idle-eviction also applies per slot.
        if let Some(w) = &slots[slot] {
            if now.saturating_since(w.last_active) > cfg.idle_timeout {
                slots[slot] = None;
            }
        }
        if slots[slot].is_none() {
            // New process instance in this slot: its cached encode (if any)
            // must not be reused.
            scratches[slot].invalidate();
            let plan = orch.begin_worker(&mut policy_rng);
            let mut cost = plan.startup_overhead.as_micros() as f64;
            let wrng = factory.stream_indexed("worker", worker_seq);
            let (runtime, resume, restore) = match plan.snapshot {
                Some(snapshot) => match engine.restore::<Runtime, _>(&mut engine_rng, &snapshot) {
                    Ok((rt, c)) => {
                        cost += c.as_micros() as f64;
                        restore_ms.push(c.as_millis_f64());
                        let info = RestoreInfo::eager(c.as_micros() as f64, snapshot.nominal_size);
                        (rt, plan.resume_request, Some(info))
                    }
                    Err(_) => {
                        let mut boot = factory.stream_indexed("boot", worker_seq);
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
                    let mut boot = factory.stream_indexed("boot", worker_seq);
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
            // Eager restores accrue no per-request fault stats, so the
            // info is final at provision time.
            if let Some(info) = restore {
                restore_infos.push(info);
            }
            // Non-explorer slots never checkpoint: the amortization knob.
            let checkpoint_at = if slot < fleet.explorers {
                plan.checkpoint_at
            } else {
                None
            };
            slots[slot] = Some(Worker::new(
                runtime,
                wrng,
                resume,
                checkpoint_at,
                restore,
                now,
            ));
            worker_seq += 1;
        }

        let worker = slots[slot].as_mut().expect("just provisioned");
        let request = workload.request(cfg.seed, index, cfg.variance);
        let request_number = worker.next_request_number();
        let breakdown = worker.runtime.execute(&request, &mut worker.rng);
        let mut latency = breakdown.total_us();
        if worker.freshly_restored(stale.horizon) {
            latency += request.io_us
                * workload.io_stale_sensitivity()
                * stale.penalty_frac(worker.resume_request, policy_config.w, worker.served);
        }
        latencies.push(latency);
        orch.complete_request(request_number.min(u64::from(u32::MAX)) as u32, latency);
        worker.served += 1;
        worker.last_active = now;

        if worker.checkpoint_due() {
            worker.checkpoint_at = None;
            let meta = SnapshotMeta {
                function: workload.name().to_string(),
                request_number: worker.runtime.requests_executed() as u32,
                runtime: workload.kind().label().to_string(),
            };
            let (snapshot, downtime) = engine.checkpoint_with(
                &mut scratches[slot],
                &mut engine_rng,
                &worker.runtime,
                meta,
            );
            checkpoint_ms.push(downtime.as_millis_f64());
            snapshot_mb.push(snapshot.nominal_size_mb());
            snapshot_requests.push(snapshot.meta.request_number);
            orch.record_snapshot(&snapshot, downtime, &mut policy_rng);
        }
        if slots[slot].as_ref().expect("live").served >= cfg.eviction_rate {
            slots[slot] = None;
        }
    }

    RunResult {
        workload: workload.name().to_string(),
        policy: cfg.policy,
        eviction_rate: cfg.eviction_rate,
        latencies_us: latencies,
        overheads: *orch.overheads(),
        store_stats: store.stats(),
        provisions,
        checkpoint_ms,
        restore_ms,
        snapshot_mb,
        snapshot_requests,
        provision_us,
        codec: {
            let mut codec = CodecStats::default();
            for s in &scratches {
                codec.merge(s.stats());
            }
            codec
        },
        restore_strategy: RestoreStrategy::Eager,
        restore_infos,
        // The fleet runner checkpoints full snapshots only; its
        // orchestrator reports all-zero chain stats.
        chain: orch.chain_stats(),
        // The fleet runner is purely reactive (no predictive
        // provisioning path).
        provisioning: pronghorn_forecast::ProvisionStats::default(),
        storage: orch.storage_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_core::PolicyKind;
    use pronghorn_workloads::{by_name, InputVariance};

    fn cfg(policy: PolicyKind) -> RunConfig {
        RunConfig::paper(policy, 4, 99)
            .with_invocations(240)
            .with_variance(InputVariance::none())
    }

    #[test]
    fn fleet_serves_every_arrival() {
        let bench = by_name("DFS").unwrap();
        let fleet = FleetConfig {
            fleet_size: 4,
            explorers: 1,
        };
        let r = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        assert_eq!(r.latencies_us.len(), 240);
        assert!(r.checkpoint_ms.len() > 1);
    }

    #[test]
    fn single_worker_fleet_matches_closed_loop_shape() {
        let bench = by_name("DFS").unwrap();
        let fleet = FleetConfig {
            fleet_size: 1,
            explorers: 1,
        };
        let r = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        // Same protocol as the closed loop: one provision per lifetime.
        assert_eq!(r.provisions.len(), 240 / 4);
    }

    #[test]
    fn explorers_knob_bounds_checkpointers() {
        let bench = by_name("DFS").unwrap();
        let none = run_fleet(
            &bench,
            &cfg(PolicyKind::RequestCentric),
            &FleetConfig {
                fleet_size: 4,
                explorers: 0,
            },
        );
        assert!(none.checkpoint_ms.is_empty());
        // With zero explorers there are never snapshots: every provision is
        // a cold start.
        assert_eq!(none.cold_starts(), none.provisions.len());

        let all = run_fleet(
            &bench,
            &cfg(PolicyKind::RequestCentric),
            &FleetConfig {
                fleet_size: 4,
                explorers: 4,
            },
        );
        let one = run_fleet(
            &bench,
            &cfg(PolicyKind::RequestCentric),
            &FleetConfig {
                fleet_size: 4,
                explorers: 1,
            },
        );
        assert!(all.checkpoint_ms.len() > one.checkpoint_ms.len());
    }

    #[test]
    fn non_explorers_still_benefit_from_shared_snapshots() {
        // §5.3's amortization: one explorer is enough for the whole fleet
        // to hot-start.
        let bench = by_name("DFS").unwrap();
        let fleet = FleetConfig {
            fleet_size: 4,
            explorers: 1,
        };
        let shared = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        assert!(
            shared.restores() > shared.provisions.len() / 2,
            "{} restores of {} provisions",
            shared.restores(),
            shared.provisions.len()
        );
        // And it beats a no-checkpoint fleet.
        let cold = run_fleet(&bench, &cfg(PolicyKind::Cold), &fleet);
        assert!(shared.median_us() < cold.median_us());
    }

    #[test]
    fn fleet_runs_are_reproducible() {
        let bench = by_name("Hash").unwrap();
        let fleet = FleetConfig::default();
        let a = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        let b = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        assert_eq!(a.latencies_us, b.latencies_us);
    }
}
