//! `BENCH_kernel.json` — timer-wheel vs binary-heap simulation-kernel
//! benchmark at production-trace scale.
//!
//! Three measurements land in the file:
//!
//! 1. **Pure-kernel replay** — a million-plus-arrival production stream
//!    (`TraceSpec::production`) pushed through each kernel with
//!    completions and timeouts scheduled on the fly, so the future-event
//!    list stays deep the whole run. Reported as events/sec, peak pending
//!    events, wall-clock, and a checksum over the exact pop order —
//!    asserted equal across kernels, so the speedup is measured on
//!    provably identical work.
//! 2. **End-to-end production replay** — [`run_production`] under both
//!    kernels; the resulting [`ProductionStats`] must match exactly.
//! 3. **Paired-seed grid identity** — a small closed-loop grid run under
//!    both kernels; every cell's latencies, provisions and checkpoint
//!    stream must be byte-identical.
//!
//! Simulated results stay bit-identical for a fixed seed; only the
//! wall-clock numbers are host-dependent.

use crate::bench_report::{BenchReport, JsonObj};
use crate::grid::{run_grid_with_kernel, PAPER_POLICIES};
use crate::render::write_results_file;
use crate::ExperimentContext;
use pronghorn_platform::{run_production, KernelKind, ProductionStats, RunConfig};
use pronghorn_sim::hash::mix64;
use pronghorn_sim::{Kernel, RngFactory, SimDuration, SimTime};
use pronghorn_traces::TraceSpec;
use pronghorn_workloads::by_name;
use std::fmt::Write as _;
// Wall-clock reads are fine here: `experiments` is a clock-exempt crate
// (the harness measures host elapsed time; nothing simulation-visible
// reads it), so no suppression is needed.
use std::time::Instant;

/// Benchmarks of the paired-seed identity grid.
pub const GRID_BENCHES: [&str; 2] = ["DFS", "Hash"];

/// One kernel's pure-replay measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayArm {
    /// Kernel under test.
    pub kernel: KernelKind,
    /// Total events popped (arrivals + completions + timeouts).
    pub events: u64,
    /// Host wall-clock for the replay, seconds.
    pub wall_s: f64,
    /// Throughput, events per second.
    pub events_per_sec: f64,
    /// Deepest the future-event list ever got.
    pub peak_pending: usize,
    /// Order-sensitive fold over the `(at, payload)` pop sequence.
    pub checksum: u64,
}

/// One kernel's end-to-end production measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionArm {
    /// Kernel under test.
    pub kernel: KernelKind,
    /// Host wall-clock for the replay, seconds.
    pub wall_s: f64,
    /// The simulated results (identical across kernels).
    pub stats: ProductionStats,
}

/// The full kernel-bench report.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Arrivals in the pure-replay stream.
    pub arrivals: usize,
    /// Pure-replay arms, binary heap first.
    pub replay: Vec<ReplayArm>,
    /// End-to-end arms, binary heap first.
    pub production: Vec<ProductionArm>,
    /// Whether both production arms produced identical stats.
    pub production_identical: bool,
    /// Cells in the identity grid.
    pub grid_cells: usize,
    /// Whether every grid cell matched across kernels.
    pub grid_identical: bool,
}

impl KernelBenchReport {
    /// Pure-replay throughput ratio, timer wheel over binary heap.
    pub fn speedup(&self) -> f64 {
        let heap = self.arm(KernelKind::BinaryHeap).map(|a| a.events_per_sec);
        let wheel = self.arm(KernelKind::TimerWheel).map(|a| a.events_per_sec);
        match (heap, wheel) {
            (Some(h), Some(w)) if h > 0.0 => w / h,
            _ => 0.0,
        }
    }

    /// The replay arm for `kernel`.
    pub fn arm(&self, kernel: KernelKind) -> Option<&ReplayArm> {
        self.replay.iter().find(|a| a.kernel == kernel)
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Simulation-kernel benchmark");
        let _ = writeln!(out, "  pure replay: {} arrivals", self.arrivals);
        for arm in &self.replay {
            let _ = writeln!(
                out,
                "    {:<12} {:>12.0} events/s  ({} events, peak pending {}, {:.2}s, checksum {:#018x})",
                arm.kernel,
                arm.events_per_sec,
                arm.events,
                arm.peak_pending,
                arm.wall_s,
                arm.checksum,
            );
        }
        let _ = writeln!(
            out,
            "    speedup: {:.2}x (timer-wheel / binary-heap)",
            self.speedup()
        );
        let _ = writeln!(out, "  end-to-end production replay:");
        for arm in &self.production {
            let _ = writeln!(
                out,
                "    {:<12} {:>8} invocations in {:.2}s  (p50 {:.0}µs, p99 {:.0}µs, peak pending {})",
                arm.kernel,
                arm.stats.invocations,
                arm.wall_s,
                arm.stats.p50_latency_us,
                arm.stats.p99_latency_us,
                arm.stats.peak_pending_events,
            );
        }
        let _ = writeln!(
            out,
            "    stats identical across kernels: {}",
            self.production_identical
        );
        let _ = writeln!(
            out,
            "  paired-seed grid: {} cells, byte-identical: {}",
            self.grid_cells, self.grid_identical
        );
        out
    }

    /// Renders the report as a JSON document in the shared
    /// [`BenchReport`] schema: the pure-replay arms are the `arms`
    /// array; the end-to-end production comparison and the paired-seed
    /// grid identity land as trailing sections.
    pub fn render_json(&self) -> String {
        let mut report = BenchReport::new("kernel")
            .config("arrivals", self.arrivals.to_string())
            .config("grid_benches", format!("{GRID_BENCHES:?}"));
        for arm in &self.replay {
            report.arm(
                JsonObj::new()
                    .str("kernel", &arm.kernel.to_string())
                    .uint("events", arm.events)
                    .float("wall_s", arm.wall_s, 4)
                    .float("events_per_sec", arm.events_per_sec, 0)
                    .uint("peak_pending", arm.peak_pending as u64)
                    .str("checksum", &format!("{:#018x}", arm.checksum)),
            );
        }
        report.section("replay_speedup", format!("{:.3}", self.speedup()));
        let production: Vec<String> = self
            .production
            .iter()
            .map(|arm| {
                JsonObj::new()
                    .str("kernel", &arm.kernel.to_string())
                    .float("wall_s", arm.wall_s, 4)
                    .uint("invocations", arm.stats.invocations)
                    .float("mean_latency_us", arm.stats.mean_latency_us, 1)
                    .float("p50_latency_us", arm.stats.p50_latency_us, 1)
                    .float("p99_latency_us", arm.stats.p99_latency_us, 1)
                    .uint("cold_starts", arm.stats.cold_starts)
                    .uint("restores", arm.stats.restores)
                    .uint("checkpoints", arm.stats.checkpoints)
                    .uint("peak_pending", arm.stats.peak_pending_events as u64)
                    .render()
            })
            .collect();
        report.section(
            "production",
            JsonObj::new()
                .raw(
                    "arms",
                    format!("[\n    {}\n  ]", production.join(",\n    ")),
                )
                .bool("stats_identical", self.production_identical)
                .render(),
        );
        report.section(
            "grid",
            JsonObj::new()
                .uint("cells", self.grid_cells as u64)
                .bool("byte_identical", self.grid_identical)
                .render(),
        );
        report.render()
    }

    /// Writes `results/BENCH_kernel.json`, returning the path written.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        write_results_file("BENCH_kernel.json", &self.render_json())
    }
}

/// Replay event payload: the low 62 bits carry the arrival index, the top
/// two bits the event kind.
const KIND_SHIFT: u32 = 62;
const ARRIVAL: u64 = 0;
const COMPLETION: u64 = 1;
const TIMEOUT: u64 = 2;

/// Pure-kernel replay of `arrivals` on one kernel: every arrival spawns a
/// completion a service time later (deterministic per-index `mix64` draw),
/// every 1024th spawns a 30-minute keep-alive timeout, and every 8192nd a
/// far-future timeout past the wheel horizon (exercising the spill path).
fn replay(kind: KernelKind, arrivals: &[SimTime]) -> ReplayArm {
    let mut kernel: Kernel<u64> = Kernel::new(kind);
    for (i, &at) in arrivals.iter().enumerate() {
        kernel.schedule(at, (ARRIVAL << KIND_SHIFT) | i as u64);
    }
    let mut events = 0u64;
    let mut peak = kernel.len();
    // One multiply per event keeps the shared harness cost negligible next
    // to the kernel work under measurement, while staying order-sensitive:
    // swapping any two pops changes the fold.
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    // Host-clock throughput measurement of the kernel itself (clock-exempt
    // crate); the simulated pop order is checksummed and cross-checked.
    let started = Instant::now();
    while let Some((at, payload)) = kernel.pop() {
        events += 1;
        checksum = (checksum.rotate_left(5) ^ at.as_micros()).wrapping_mul(0x0000_0100_0000_01b3)
            ^ payload;
        let index = payload & ((1 << KIND_SHIFT) - 1);
        if payload >> KIND_SHIFT == ARRIVAL {
            let service_us = mix64(index) % 50_000 + 100;
            kernel.schedule(
                at + SimDuration::from_micros(service_us),
                (COMPLETION << KIND_SHIFT) | index,
            );
            if index.is_multiple_of(1024) {
                kernel.schedule(
                    at + SimDuration::from_secs(1_800),
                    (TIMEOUT << KIND_SHIFT) | index,
                );
            }
            if index.is_multiple_of(8192) {
                // Past the 2^36 µs wheel horizon: lands in the spill list.
                kernel.schedule(
                    at + SimDuration::from_secs(20 * 3_600),
                    (TIMEOUT << KIND_SHIFT) | index,
                );
            }
        }
        peak = peak.max(kernel.len());
    }
    let wall_s = started.elapsed().as_secs_f64().max(1e-9);
    ReplayArm {
        kernel: kind,
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        peak_pending: peak,
        checksum: mix64(checksum),
    }
}

/// Runs the kernel benchmark. Scale follows the context: the paper-scale
/// context replays 15 minutes of p99 traffic from eight cells of ~250 hot
/// functions sharing one kernel (the fleet topology) — a ten-million-plus
/// arrival stream; `--quick` shrinks every phase.
pub fn run(ctx: &ExperimentContext) -> KernelBenchReport {
    let quick = ctx.invocations < 500;

    // Phase 1: pure-kernel replay on a shared arrival stream. Several
    // cells' streams share the kernel, as in the fleet runner: pending
    // depth scales with cells while the horizon stays 15 minutes.
    let (pure_hours, cells) = if quick { (0.002, 1) } else { (0.25, 8) };
    let spec = TraceSpec::production(pure_hours, 0.99);
    let factory = RngFactory::new(ctx.seed);
    let arrivals: Vec<SimTime> = (0..cells)
        .flat_map(|cell| spec.stream(factory.stream_indexed("kernel-bench", cell)))
        .collect();
    let replay_arms: Vec<ReplayArm> = KernelKind::ALL
        .iter()
        .map(|&k| replay(k, &arrivals))
        .collect();
    for arm in &replay_arms[1..] {
        assert_eq!(
            arm.checksum, replay_arms[0].checksum,
            "kernels diverged: {} pops differ from {}",
            arm.kernel, replay_arms[0].kernel,
        );
        assert_eq!(arm.events, replay_arms[0].events);
    }

    // Phase 2: end-to-end production replay.
    let workload = by_name("Hash").expect("static name");
    let e2e_spec = TraceSpec::production(if quick { 0.001 } else { 0.02 }, 0.9);
    let production: Vec<ProductionArm> = KernelKind::ALL
        .iter()
        .map(|&k| {
            let cfg = RunConfig::paper(
                pronghorn_core::PolicyKind::RequestCentric,
                4,
                ctx.cell_seed(&["kernel-bench", "production"]),
            )
            .with_kernel(k);
            let stream = e2e_spec.stream(RngFactory::new(cfg.seed).stream("production"));
            // Host-clock end-to-end throughput (clock-exempt crate); the
            // simulated stats are asserted identical across kernels.
            let started = Instant::now();
            let stats = run_production(&workload, &cfg, stream);
            ProductionArm {
                kernel: k,
                wall_s: started.elapsed().as_secs_f64(),
                stats,
            }
        })
        .collect();
    let production_identical = production
        .iter()
        .all(|arm| arm.stats == production[0].stats);

    // Phase 3: paired-seed grid identity.
    let grid_ctx = ExperimentContext {
        invocations: ctx.invocations.min(120),
        ..*ctx
    };
    let rates = [1, 4];
    let heap_grid = run_grid_with_kernel(
        &grid_ctx,
        &GRID_BENCHES,
        &PAPER_POLICIES,
        &rates,
        KernelKind::BinaryHeap,
    );
    let wheel_grid = run_grid_with_kernel(
        &grid_ctx,
        &GRID_BENCHES,
        &PAPER_POLICIES,
        &rates,
        KernelKind::TimerWheel,
    );
    // Both grids list their cells in the same task order.
    let grid_identical = heap_grid.cells.iter().zip(&wheel_grid.cells).all(|(a, b)| {
        a.result.latencies_us == b.result.latencies_us
            && a.result.provisions == b.result.provisions
            && a.result.checkpoint_ms == b.result.checkpoint_ms
            && a.result.snapshot_requests == b.result.snapshot_requests
    });

    KernelBenchReport {
        arrivals: arrivals.len(),
        replay: replay_arms,
        production,
        production_identical,
        grid_cells: heap_grid.cells.len(),
        grid_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_checksums_agree_and_wheel_processes_every_event() {
        let spec = TraceSpec::production(0.001, 0.9);
        let arrivals: Vec<SimTime> = spec
            .stream(RngFactory::new(7).stream("kernel-bench"))
            .collect();
        assert!(!arrivals.is_empty());
        let heap = replay(KernelKind::BinaryHeap, &arrivals);
        let wheel = replay(KernelKind::TimerWheel, &arrivals);
        assert_eq!(heap.checksum, wheel.checksum);
        assert_eq!(heap.events, wheel.events);
        // Arrivals + one completion each + sparse timeouts.
        assert!(heap.events >= 2 * arrivals.len() as u64);
        assert_eq!(heap.peak_pending, wheel.peak_pending);
    }

    #[test]
    fn quick_report_is_identical_and_valid_json() {
        let ctx = ExperimentContext {
            invocations: 40,
            ..ExperimentContext::quick()
        };
        let report = run(&ctx);
        assert!(report.production_identical);
        assert!(report.grid_identical);
        assert_eq!(report.replay.len(), 2);
        assert!(report.speedup() > 0.0);
        let json = report.render_json();
        assert!(json.contains("\"kernel\": \"timer-wheel\""));
        assert!(json.contains("\"stats_identical\": true"));
        assert!(json.contains("\"byte_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
