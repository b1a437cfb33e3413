//! The four benchmark workloads: what each runs, how a pass executes, and
//! the digest that pins a cell's simulated results.

use crate::capacity::{self, Ladder};
use crate::stats::tail_percentile;
use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_jit::MethodProfile;
use pronghorn_platform::{
    run_closed_loop, run_cluster, run_production, ClusterRunResult, ClusterSpec, ForecasterKind,
    KernelKind, ProductionStats, ProvisionPolicy, RestoreStrategy, RoutingPolicy, RunConfig,
    RunResult, StoragePolicy,
};
use pronghorn_sim::hash::{mix64, Fnv1a};
use pronghorn_sim::{RngFactory, SimDuration};
use pronghorn_traces::{ArrivalStream, ProductionTraceSpec, TraceSpec};
use pronghorn_workloads::{evaluation_benchmarks, SpecWorkload, Workload};
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Invocations per closed-loop and cluster cell: enough for 10 samples
/// beyond the p99.
pub const CELL_INVOCATIONS: u32 = 1000;

/// The paper's three policies, in figure order.
pub const PAPER_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Cold,
    PolicyKind::AfterFirst,
    PolicyKind::RequestCentric,
];

/// The paper's eviction rates.
pub const PAPER_RATES: [u32; 3] = [1, 4, 20];

/// Cluster shape of `cluster-restore`.
pub const CLUSTER_NODES: u32 = 4;
/// Worker slots per node in `cluster-restore`.
pub const CLUSTER_CAPACITY: u32 = 2;

/// The benchmarks `cluster-restore` runs: a graph kernel (the only one
/// that holds the nominal rate), a web page, a tiny hash, an IO-bound
/// upload that queues early and a seconds-long compression. All 13 would
/// make a pass too long to time more than twice in a run.
pub const CLUSTER_BENCHES: [&str; 5] = ["BFS", "DynamicHTML", "Hash", "Uploader", "Compression"];

/// `production-hot` replays this many independent streams...
pub const HOT_STREAMS: usize = 80;
/// ...of this many simulated hours each. Many short streams rather than
/// one long one give the host timing short cells to take a per-cell best
/// over.
pub const HOT_HOURS: f64 = 0.125;
/// Mean arrival rate of `production-sparse`, requests/second.
pub const SPARSE_RATE_PER_SEC: f64 = 1.0 / 90.0;
/// `production-sparse` replays this many independent streams per
/// benchmark...
pub const SPARSE_STREAMS: usize = 3;
/// ...of this many simulated hours each (about 1440 arrivals, above the
/// 1000 a p99 needs).
pub const SPARSE_HOURS: f64 = 36.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// §5.1's closed loop: 13 benchmarks × 3 policies × 3 eviction rates.
    PaperGrid,
    /// `run_cluster` over a per-benchmark arrival-rate ladder.
    ClusterRestore,
    /// Millions of mostly-warm Uploader requests on the hot trace.
    ProductionHot,
    /// Sparse bursty traffic with EWMA predictive pre-restore.
    ProductionSparse,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::PaperGrid,
        WorkloadName::ClusterRestore,
        WorkloadName::ProductionHot,
        WorkloadName::ProductionSparse,
    ];

    /// The CLI name.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadName::PaperGrid => "paper-grid",
            WorkloadName::ClusterRestore => "cluster-restore",
            WorkloadName::ProductionHot => "production-hot",
            WorkloadName::ProductionSparse => "production-sparse",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.label() == s)
    }
}

/// How much of each workload to run. `Tiny` keeps every cell's shape (and
/// the 1000-invocation floor under every p99) but runs two benchmarks and
/// shorter streams; the smoke tests use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as defined.
    Full,
    /// A few-second version for tests (the command line has no way to
    /// ask for it).
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What one cell runs.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// One `run_closed_loop`.
    Closed {
        /// Run configuration.
        cfg: RunConfig,
    },
    /// `run_cluster` at every rung of the benchmark's rate ladder.
    Ladder {
        /// Configuration shared by every rung; the request gap is set per
        /// rung.
        cfg: RunConfig,
        /// The static ladder.
        ladder: Ladder,
    },
    /// One `run_cluster` at a fixed request gap.
    Cluster {
        /// Run configuration.
        cfg: RunConfig,
    },
    /// One `run_production` over a seeded arrival stream.
    Production {
        /// Run configuration.
        cfg: RunConfig,
        /// The arrival process.
        spec: ProductionTraceSpec,
        /// Seed of the arrival stream.
        stream_seed: u64,
    },
}

/// One unit of work of a pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Setup::benches`].
    pub bench: usize,
    /// Human label, e.g. `BFS/request-centric/r4`.
    pub label: String,
    /// Whether the cell feeds the workload's end-to-end latency metrics.
    pub metric: bool,
    /// What to run.
    pub kind: CellKind,
}

impl Cell {
    /// The cell's run configuration.
    pub fn cfg(&self) -> &RunConfig {
        match &self.kind {
            CellKind::Closed { cfg } | CellKind::Cluster { cfg } => cfg,
            CellKind::Ladder { cfg, .. } | CellKind::Production { cfg, .. } => cfg,
        }
    }

    /// The kernel the cell runs on.
    pub fn kernel(&self) -> KernelKind {
        self.cfg().kernel
    }

    /// The same cell on another kernel.
    pub fn with_kernel(&self, kernel: KernelKind) -> Cell {
        let mut c = self.clone();
        match &mut c.kind {
            CellKind::Closed { cfg } | CellKind::Cluster { cfg } => cfg.kernel = kernel,
            CellKind::Ladder { cfg, .. } | CellKind::Production { cfg, .. } => cfg.kernel = kernel,
        }
        c
    }

    /// The seeded arrival stream of a production cell.
    pub fn arrivals(&self) -> Option<ArrivalStream<SmallRng>> {
        match &self.kind {
            CellKind::Production {
                spec, stream_seed, ..
            } => Some(spec.stream(RngFactory::new(*stream_seed).stream("arrivals"))),
            _ => None,
        }
    }
}

/// One rung of a ladder cell.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Index into [`capacity::LADDER`].
    pub index: usize,
    /// Arrival rate, requests/second.
    pub rps: f64,
    /// The cluster run.
    pub result: ClusterRunResult,
    /// p99 of the client latencies, ms (`None` if undersampled).
    pub p99_ms: Option<f64>,
    /// Whether the rung passed the capacity rule.
    pub passed: bool,
    /// Host seconds the rung's `run_cluster` call took.
    pub host_s: f64,
}

/// A cell's result.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A closed-loop run.
    Closed(RunResult),
    /// Every rung of a ladder cell (reference rung first) and the highest
    /// rung below the first failure, `None` when even the reference rung
    /// failed.
    Ladder {
        /// Rungs in ladder order.
        rungs: Vec<Rung>,
        /// Index into [`capacity::LADDER`] of the capacity rung.
        capacity: Option<usize>,
    },
    /// A single cluster run.
    Cluster(ClusterRunResult),
    /// A production replay.
    Production(ProductionStats),
}

impl Outcome {
    /// Invocations the cell simulated (every rung counts).
    pub fn invocations(&self) -> u64 {
        match self {
            Outcome::Closed(r) => r.latencies_us.len() as u64,
            Outcome::Ladder { rungs, .. } => rungs
                .iter()
                .map(|r| r.result.result.latencies_us.len() as u64)
                .sum(),
            Outcome::Cluster(c) => c.result.latencies_us.len() as u64,
            Outcome::Production(s) => s.invocations,
        }
    }

    /// The run results a layer can read: the closed-loop result, or every
    /// rung's result.
    pub fn run_results(&self) -> Vec<&RunResult> {
        match self {
            Outcome::Closed(r) => vec![r],
            Outcome::Ladder { rungs, .. } => rungs.iter().map(|r| &r.result.result).collect(),
            Outcome::Cluster(c) => vec![&c.result],
            Outcome::Production(_) => Vec::new(),
        }
    }

    /// Every cluster run of the cell.
    pub fn cluster_runs(&self) -> Vec<&ClusterRunResult> {
        match self {
            Outcome::Ladder { rungs, .. } => rungs.iter().map(|r| &r.result).collect(),
            Outcome::Cluster(c) => vec![c],
            _ => Vec::new(),
        }
    }

    /// The run the end-to-end latency metrics read: the closed-loop result
    /// or the ladder's reference rung.
    pub fn reference(&self) -> Option<&RunResult> {
        match self {
            Outcome::Closed(r) => Some(r),
            Outcome::Ladder { rungs, .. } => rungs.first().map(|r| &r.result.result),
            Outcome::Cluster(c) => Some(&c.result),
            Outcome::Production(_) => None,
        }
    }
}

/// Everything built before the first timed cell: the benchmark registry,
/// method profiles, and the workload's cells with their trace specs.
pub struct Setup {
    /// The workload this setup is for.
    pub workload: WorkloadName,
    /// The evaluation benchmarks.
    pub benches: Vec<SpecWorkload>,
    /// Each benchmark's method table (what a worker boots with).
    pub profiles: Vec<Vec<MethodProfile>>,
    /// The cells of one pass, in a fixed order.
    pub cells: Vec<Cell>,
    /// A small cell re-run under both kernels by the correctness gate.
    pub kernel_check: Cell,
    /// A small eager cluster cell the gate runs for the byte-conservation
    /// law (`cluster-restore` only).
    pub conservation_check: Option<Cell>,
}

/// Derives a cell seed from the workload seed and labels (FNV-1a, then a
/// 64-bit finalizer), so every cell has its own independent streams.
pub fn cell_seed(seed: u64, labels: &[&str]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(seed);
    for label in labels {
        h.write(label.as_bytes());
        h.write(b"/");
    }
    mix64(h.finish())
}

/// Interpreted base-size service time of a benchmark, seconds: the static
/// constants the cluster ladder and latency limit are built from.
pub fn static_service_s(w: &SpecWorkload) -> f64 {
    (w.spec().interp_exec_us + w.spec().io_base_us) / 1e6
}

/// Indices of the named benchmarks; every benchmark when `names` is empty.
fn selected(benches: &[SpecWorkload], names: &[&str]) -> Vec<usize> {
    if names.is_empty() {
        return (0..benches.len()).collect();
    }
    names
        .iter()
        .map(|n| {
            benches
                .iter()
                .position(|b| b.name() == *n)
                .expect("benchmark names are static")
        })
        .collect()
}

fn cluster_cfg(seed: u64) -> RunConfig {
    RunConfig::paper(PolicyKind::RequestCentric, 1, seed)
        .with_invocations(CELL_INVOCATIONS)
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_delta(DeltaPolicy::Enabled { max_depth: 16 })
        .with_storage(
            StoragePolicy::disabled()
                .with_cache()
                .with_compression()
                .with_composed_prefetch(),
        )
        .with_kernel(KernelKind::TimerWheel)
        .with_cluster(
            ClusterSpec::new(CLUSTER_NODES)
                .with_capacity(CLUSTER_CAPACITY)
                .with_routing(RoutingPolicy::LoadAware),
        )
}

fn hot_cfg(seed: u64) -> RunConfig {
    RunConfig::paper(PolicyKind::RequestCentric, 4, seed)
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_kernel(KernelKind::TimerWheel)
        .with_idle_timeout(SimDuration::from_secs(30))
}

fn sparse_cfg(seed: u64) -> RunConfig {
    RunConfig::paper(PolicyKind::RequestCentric, 20, seed)
        .with_restore(RestoreStrategy::RecordPrefetch)
        .with_kernel(KernelKind::TimerWheel)
        .with_idle_timeout(SimDuration::from_secs(30))
        .with_provision(ProvisionPolicy::predictive(ForecasterKind::Ewma))
}

fn sparse_spec(hours: f64) -> ProductionTraceSpec {
    let base = TraceSpec::production(hours, 0.9);
    base.with_rate_scale(SPARSE_RATE_PER_SEC / base.rate_per_sec())
        .with_burst(0.25, SimDuration::from_secs(600))
}

impl Setup {
    /// Builds the benchmark registry and the cells of `workload`.
    pub fn build(workload: WorkloadName, seed: u64, scale: Scale) -> Setup {
        let benches = evaluation_benchmarks();
        let profiles = benches.iter().map(|b| b.method_profiles()).collect();
        let name = workload.label();
        let mut cells = Vec::new();
        let kernel_check;
        let mut conservation_check = None;
        match workload {
            WorkloadName::PaperGrid => {
                let names: &[&str] = match scale {
                    Scale::Full => &[],
                    Scale::Tiny => &["DynamicHTML", "MatrixMult"],
                };
                for b in selected(&benches, names) {
                    let bname = benches[b].name();
                    for rate in PAPER_RATES {
                        // Policies share one seed per (benchmark, rate):
                        // the paper's paired comparison.
                        let s = cell_seed(seed, &[name, bname, &rate.to_string()]);
                        for policy in PAPER_POLICIES {
                            cells.push(Cell {
                                bench: b,
                                label: format!("{bname}/{}/r{rate}", policy.label()),
                                metric: policy == PolicyKind::RequestCentric,
                                kind: CellKind::Closed {
                                    cfg: RunConfig::paper(policy, rate, s)
                                        .with_invocations(CELL_INVOCATIONS),
                                },
                            });
                        }
                    }
                }
                let b = selected(&benches, &["DynamicHTML"])[0];
                kernel_check = Cell {
                    bench: b,
                    label: "DynamicHTML/request-centric/r4/200".into(),
                    metric: false,
                    kind: CellKind::Closed {
                        cfg: RunConfig::paper(
                            PolicyKind::RequestCentric,
                            4,
                            cell_seed(seed, &[name, "kernel-check"]),
                        )
                        .with_invocations(200),
                    },
                };
            }
            WorkloadName::ClusterRestore => {
                let names: &[&str] = match scale {
                    Scale::Full => &CLUSTER_BENCHES,
                    Scale::Tiny => &["Hash"],
                };
                let slots = CLUSTER_NODES * CLUSTER_CAPACITY;
                for b in selected(&benches, names) {
                    let bname = benches[b].name();
                    cells.push(Cell {
                        bench: b,
                        label: format!("{bname}/ladder"),
                        metric: true,
                        kind: CellKind::Ladder {
                            cfg: cluster_cfg(cell_seed(seed, &[name, bname])),
                            ladder: Ladder {
                                service_s: static_service_s(&benches[b]),
                                slots,
                            },
                        },
                    });
                }
                let b = selected(&benches, &["Hash"])[0];
                let ladder = Ladder {
                    service_s: static_service_s(&benches[b]),
                    slots,
                };
                let small = |tag: &str| {
                    let mut cfg = cluster_cfg(cell_seed(seed, &[name, tag])).with_invocations(200);
                    cfg.request_gap = gap_for(ladder.nominal_rps());
                    cfg
                };
                // The workload's own configuration at nominal load.
                kernel_check = Cell {
                    bench: b,
                    label: "Hash/cluster/nominal/200".into(),
                    metric: false,
                    kind: CellKind::Cluster {
                        cfg: small("kernel-check"),
                    },
                };
                // Eager restores ship whole snapshots, which is where the
                // platform's byte-conservation law is checked (see
                // `metrics::check_cell`).
                conservation_check = Some(Cell {
                    bench: b,
                    label: "Hash/cluster-eager/nominal/200".into(),
                    metric: false,
                    kind: CellKind::Cluster {
                        cfg: small("conservation-check").with_restore(RestoreStrategy::Eager),
                    },
                });
            }
            WorkloadName::ProductionHot => {
                let b = selected(&benches, &["Uploader"])[0];
                let (streams, hours) = match scale {
                    Scale::Full => (HOT_STREAMS, HOT_HOURS),
                    Scale::Tiny => (2, 0.125),
                };
                for k in 0..streams {
                    let stream = format!("stream{k}");
                    cells.push(Cell {
                        bench: b,
                        label: format!("Uploader/hot/{stream}/{hours}h"),
                        metric: true,
                        kind: CellKind::Production {
                            cfg: hot_cfg(cell_seed(seed, &[name, "Uploader", &stream])),
                            spec: TraceSpec::production(hours, 0.9),
                            stream_seed: cell_seed(seed, &[name, "Uploader", &stream, "arrivals"]),
                        },
                    });
                }
                kernel_check = Cell {
                    bench: b,
                    label: "Uploader/hot/0.05h".into(),
                    metric: false,
                    kind: CellKind::Production {
                        cfg: hot_cfg(cell_seed(seed, &[name, "kernel-check"])),
                        spec: TraceSpec::production(0.05, 0.9),
                        stream_seed: cell_seed(seed, &[name, "kernel-check", "arrivals"]),
                    },
                };
            }
            WorkloadName::ProductionSparse => {
                let names: &[&str] = match scale {
                    Scale::Full => &[],
                    Scale::Tiny => &["DynamicHTML", "Uploader"],
                };
                let streams = match scale {
                    Scale::Full => SPARSE_STREAMS,
                    Scale::Tiny => 1,
                };
                for b in selected(&benches, names) {
                    let bname = benches[b].name();
                    for k in 0..streams {
                        let stream = format!("stream{k}");
                        cells.push(Cell {
                            bench: b,
                            label: format!("{bname}/sparse/{stream}/{SPARSE_HOURS}h"),
                            metric: true,
                            kind: CellKind::Production {
                                cfg: sparse_cfg(cell_seed(seed, &[name, bname, &stream])),
                                spec: sparse_spec(SPARSE_HOURS),
                                stream_seed: cell_seed(seed, &[name, bname, &stream, "arrivals"]),
                            },
                        });
                    }
                }
                let b = selected(&benches, &["DynamicHTML"])[0];
                kernel_check = Cell {
                    bench: b,
                    label: "DynamicHTML/sparse/6h".into(),
                    metric: false,
                    kind: CellKind::Production {
                        cfg: sparse_cfg(cell_seed(seed, &[name, "kernel-check"])),
                        spec: sparse_spec(6.0),
                        stream_seed: cell_seed(seed, &[name, "kernel-check", "arrivals"]),
                    },
                };
            }
        }
        Setup {
            workload,
            benches,
            profiles,
            cells,
            kernel_check,
            conservation_check,
        }
    }
}

/// Closed-loop request gap for an arrival rate.
pub fn gap_for(rps: f64) -> SimDuration {
    SimDuration::from_micros_f64(1e6 / rps)
}

/// Runs one cell against `workload` (the benchmark itself, or a timing
/// wrapper around it).
pub fn run_cell(cell: &Cell, workload: &dyn Workload) -> Outcome {
    match &cell.kind {
        CellKind::Closed { cfg } => Outcome::Closed(run_closed_loop(workload, cfg)),
        CellKind::Cluster { cfg } => Outcome::Cluster(run_cluster(workload, cfg)),
        CellKind::Ladder { cfg, ladder } => {
            let rates = ladder.rungs();
            let limit = ladder.limit_ms();
            let rungs: Vec<Rung> = rates
                .iter()
                .enumerate()
                .map(|(index, &rps)| {
                    let mut c = *cfg;
                    c.request_gap = gap_for(rps);
                    let started = Instant::now();
                    let result = run_cluster(workload, &c);
                    let host_s = started.elapsed().as_secs_f64();
                    let lat = &result.result.latencies_us;
                    let p99_ms = tail_percentile(lat, 99.0).map(|v| v / 1e3);
                    let lat_ms: Vec<f64> = lat.iter().map(|v| v / 1e3).collect();
                    Rung {
                        index,
                        rps,
                        passed: capacity::rung_passes(p99_ms, limit, &lat_ms),
                        result,
                        p99_ms,
                        host_s,
                    }
                })
                .collect();
            let passed: Vec<bool> = rungs.iter().map(|r| r.passed).collect();
            let capacity = capacity::capacity(&passed);
            Outcome::Ladder { rungs, capacity }
        }
        CellKind::Production { cfg, .. } => {
            let arrivals = cell.arrivals().expect("production cells have a stream");
            Outcome::Production(run_production(workload, cfg, arrivals))
        }
    }
}

/// One executed pass: every cell's outcome (in cell order), host seconds
/// per cell, and the pass wall time.
pub struct Pass {
    /// Outcomes, indexed like [`Setup::cells`].
    pub outcomes: Vec<Outcome>,
    /// Host (wall) seconds each cell's runner call took.
    pub cell_host_s: Vec<f64>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
}

impl Pass {
    /// Simulated invocations across the pass.
    pub fn invocations(&self) -> u64 {
        self.outcomes.iter().map(Outcome::invocations).sum()
    }

    /// Invocations per host second of runner calls (summed over threads).
    pub fn inv_per_s(&self) -> f64 {
        self.invocations() as f64 / self.cell_host_s.iter().sum::<f64>()
    }

    /// What the pass leaves behind once its outcomes are dropped, so a run
    /// holds one pass of results however many passes it times.
    pub fn summary(&self) -> PassSummary {
        let units = self
            .outcomes
            .iter()
            .zip(&self.cell_host_s)
            .map(|(outcome, &host_s)| match outcome {
                Outcome::Ladder { rungs, .. } => rungs.iter().map(|r| r.host_s).collect(),
                _ => vec![host_s],
            })
            .collect();
        PassSummary {
            digests: self.outcomes.iter().map(digest).collect(),
            units,
            wall_s: self.wall_s,
        }
    }
}

/// A pass's cell digests and host timings.
pub struct PassSummary {
    /// Per-cell [`digest`].
    pub digests: Vec<u64>,
    /// Per-cell host seconds in the finest timed units: one per rung of a
    /// ladder cell, else the whole cell.
    pub units: Vec<Vec<f64>>,
    /// Wall seconds of the pass.
    pub wall_s: f64,
}

/// Host seconds of the passes' common work, taking every timed unit at its
/// fastest over the passes: on a shared machine contention only ever slows
/// a unit down. Every pass runs the same cells, and every rung of each
/// ladder cell.
pub fn best_host_s(passes: &[PassSummary]) -> f64 {
    let cells = passes.first().map_or(0, |p| p.units.len());
    (0..cells)
        .map(|i| {
            let mut best = passes[0].units[i].clone();
            for p in &passes[1..] {
                for (b, t) in best.iter_mut().zip(&p.units[i]) {
                    *b = b.min(*t);
                }
            }
            best.iter().sum::<f64>()
        })
        .sum()
}

/// Runs every cell on up to `threads` threads; `run` executes one cell
/// (against the benchmark itself, or a tracing wrapper around it).
pub fn run_pass<F>(setup: &Setup, threads: usize, run: F) -> Pass
where
    F: Fn(usize, &Cell) -> Outcome + Sync,
{
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(Outcome, f64)>>> =
        Mutex::new((0..setup.cells.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, setup.cells.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = setup.cells.get(i) else {
                    break;
                };
                let t0 = Instant::now();
                let outcome = run(i, cell);
                let host_s = t0.elapsed().as_secs_f64();
                slots.lock().expect("no poisoned lock")[i] = Some((outcome, host_s));
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (outcomes, cell_host_s) = slots
        .into_inner()
        .expect("no poisoned lock")
        .into_iter()
        .map(|s| s.expect("every cell ran"))
        .unzip();
    Pass {
        outcomes,
        cell_host_s,
        wall_s,
    }
}

/// Order-sensitive digest of a cell's simulated results. Host-timing
/// fields (the codec's nanosecond counters) are left out, so two runs of
/// the same cell digest equal exactly when their simulated results are
/// byte-identical.
pub fn digest(outcome: &Outcome) -> u64 {
    let mut h = Fnv1a::new();
    match outcome {
        Outcome::Closed(r) => digest_run(&mut h, r),
        Outcome::Ladder { rungs, capacity } => {
            h.write_u64(capacity.map_or(u64::MAX, |c| c as u64));
            for rung in rungs {
                h.write_u64(rung.index as u64);
                digest_cluster(&mut h, &rung.result);
            }
        }
        Outcome::Cluster(c) => digest_cluster(&mut h, c),
        Outcome::Production(s) => {
            for v in [
                s.invocations,
                s.mean_latency_us.to_bits(),
                s.p50_latency_us.to_bits(),
                s.p99_latency_us.to_bits(),
                s.max_latency_us.to_bits(),
                s.cold_starts,
                s.restores,
                s.checkpoints,
                s.checkpoint_ms_total.to_bits(),
                s.restore_ms_total.to_bits(),
                s.snapshot_mb_total.to_bits(),
                s.restore_faults,
                s.provision_us_total.to_bits(),
                s.end_time.as_micros(),
                s.peak_pending_events as u64,
            ] {
                h.write_u64(v);
            }
            digest_provision(&mut h, &s.provisioning);
            h.write(format!("{:?}", s.storage).as_bytes());
        }
    }
    h.finish()
}

fn digest_cluster(h: &mut Fnv1a, c: &ClusterRunResult) {
    digest_run(h, &c.result);
    for n in &c.nodes {
        for v in [
            u64::from(n.node),
            n.served,
            n.spillovers,
            n.cold_starts,
            n.restores,
            n.local_hits,
            n.remote_misses,
            n.queue_delay_us.to_bits(),
            u64::from(n.peak_workers),
        ] {
            h.write_u64(v);
        }
    }
    let l = &c.locality;
    for v in [
        l.local_hits,
        l.remote_misses,
        l.remote_bytes,
        l.remote_us.to_bits(),
        l.remote_age_us.to_bits(),
        l.replicated_bytes,
    ] {
        h.write_u64(v);
    }
}

fn digest_provision(h: &mut Fnv1a, p: &pronghorn_platform::ProvisionStats) {
    for v in [
        p.pre_restores_issued,
        p.pre_restores_used,
        p.pre_restores_wasted,
        p.keepalive_byte_s.to_bits(),
    ] {
        h.write_u64(v);
    }
}

fn digest_run(h: &mut Fnv1a, r: &RunResult) {
    h.write(r.workload.as_bytes());
    h.write_u64(u64::from(r.eviction_rate));
    for v in r
        .latencies_us
        .iter()
        .chain(&r.checkpoint_ms)
        .chain(&r.restore_ms)
        .chain(&r.snapshot_mb)
    {
        h.write_u64(v.to_bits());
    }
    for p in &r.provisions {
        h.write(format!("{p:?}").as_bytes());
    }
    for s in &r.snapshot_requests {
        h.write_u64(u64::from(*s));
    }
    h.write_u64(r.provision_us.to_bits());
    for i in &r.restore_infos {
        for v in [
            u64::from(i.faults),
            u64::from(i.prefetched_pages),
            i.restore_us.to_bits(),
            i.fault_us.to_bits(),
            i.decompress_us.to_bits(),
            i.bytes_transferred,
        ] {
            h.write_u64(v);
        }
    }
    h.write(format!("{:?}", r.overheads).as_bytes());
    h.write(format!("{:?}", r.store_stats).as_bytes());
    h.write(format!("{:?}", r.chain).as_bytes());
    h.write(format!("{:?}", r.storage).as_bytes());
    digest_provision(h, &r.provisioning);
}
