//! The runners read requests from a workload's request tape without any
//! change to their results, leave no idle tape behind, and keep streaming
//! production replays off the tape.

#![forbid(unsafe_code)]

use pronghorn_core::PolicyKind;
use pronghorn_jit::{MethodProfile, RequestWork, RuntimeKind, RuntimeProfile};
use pronghorn_platform::{
    run_closed_loop, run_cluster, run_fleet, run_partitioned, run_production, ClusterSpec,
    FleetConfig, ProvisionKind, RunConfig, RunResult,
};
use pronghorn_sim::RngFactory;
use pronghorn_traces::TraceSpec;
use pronghorn_workloads::{by_name, InputVariance, SpecWorkload, Workload};
use rand::RngCore;

/// A wrapper overriding only `generate`, so its `request` is the trait
/// default: the untaped draw every run made before the tape.
struct Untaped<'a>(&'a SpecWorkload);

impl Workload for Untaped<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn kind(&self) -> RuntimeKind {
        self.0.kind()
    }
    fn runtime_profile(&self) -> RuntimeProfile {
        self.0.runtime_profile()
    }
    fn method_profiles(&self) -> Vec<MethodProfile> {
        self.0.method_profiles()
    }
    fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork {
        self.0.generate(rng, variance)
    }
    fn io_bound(&self) -> bool {
        self.0.io_bound()
    }
    fn io_stale_sensitivity(&self) -> f64 {
        self.0.io_stale_sensitivity()
    }
}

/// The simulated fields of a run, f64s as bits.
fn digest(r: &RunResult) -> (Vec<u64>, Vec<ProvisionKind>) {
    let mut bits: Vec<u64> = r
        .latencies_us
        .iter()
        .chain(&r.checkpoint_ms)
        .chain(&r.restore_ms)
        .chain(&r.snapshot_mb)
        .map(|v| v.to_bits())
        .collect();
    bits.push(r.provision_us.to_bits());
    (bits, r.provisions.clone())
}

fn cfg(policy: PolicyKind, seed: u64) -> RunConfig {
    RunConfig::paper(policy, 4, seed).with_invocations(150)
}

#[test]
fn every_runner_gives_the_same_result_from_the_tape() {
    let bench = by_name("DFS").expect("bundled benchmark");
    let plain = Untaped(&bench);
    // Arms of one seed run concurrently on the shared workload, as the
    // sweeps run them, so they fill one tape between them.
    let policies = [
        PolicyKind::Cold,
        PolicyKind::AfterFirst,
        PolicyKind::RequestCentric,
    ];
    std::thread::scope(|scope| {
        for policy in policies {
            let (bench, plain) = (&bench, &plain);
            scope.spawn(move || {
                let c = cfg(policy, 7);
                assert_eq!(
                    digest(&run_closed_loop(bench, &c)),
                    digest(&run_closed_loop(plain, &c)),
                    "closed loop {policy:?}"
                );
            });
        }
    });
    let c = cfg(PolicyKind::RequestCentric, 7);
    let fleet = FleetConfig {
        fleet_size: 3,
        explorers: 1,
    };
    assert_eq!(
        digest(&run_fleet(&bench, &c, &fleet)),
        digest(&run_fleet(&plain, &c, &fleet))
    );
    let bimodal = c.with_variance(InputVariance::bimodal());
    assert_eq!(
        digest(&run_partitioned(&bench, &bimodal, 2)),
        digest(&run_partitioned(&plain, &bimodal, 2))
    );
    let cluster = c.with_cluster(ClusterSpec::new(2));
    assert_eq!(
        digest(&run_cluster(&bench, &cluster).result),
        digest(&run_cluster(&plain, &cluster).result)
    );
}

#[test]
fn closed_loops_leave_no_idle_tape() {
    let bench = by_name("Hash").expect("bundled benchmark");
    for seed in 1..=3 {
        run_closed_loop(&bench, &cfg(PolicyKind::RequestCentric, seed));
        // Only this thread's last run's tape is alive; no tape idles.
        assert_eq!(bench.live_tapes(), 1, "seed {seed}");
    }
    std::thread::spawn(|| {
        let bench = by_name("DFS").expect("bundled benchmark");
        run_closed_loop(&bench, &cfg(PolicyKind::Cold, 5));
        assert_eq!(bench.live_tapes(), 1);
    })
    .join()
    .expect("run completes");
}

#[test]
fn production_replays_hold_no_tape() {
    let bench = by_name("Hash").expect("bundled benchmark");
    let c = RunConfig::paper(PolicyKind::RequestCentric, 4, 42);
    let arrivals = TraceSpec::production(0.002, 0.9).stream(RngFactory::new(c.seed).stream("p"));
    let stats = run_production(&bench, &c, arrivals);
    assert!(stats.invocations > 0);
    assert_eq!(bench.live_tapes(), 0);
}
