//! The evaluation grid: benchmarks × eviction rates × policies, run on
//! the shared [`Sweep`] harness.
//!
//! Cells that differ only in policy share a seed, so the workload-input
//! stream is identical across policies (paired comparison — the same trick
//! the paper gets by replaying the same benchmark inputs against each
//! strategy).

use crate::sweep::{Cell, Sweep};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{
    run_closed_loop, run_cluster, ClusterSpec, KernelKind, RunConfig, RunResult,
};

/// The paper's 13 benchmarks: Figure 4's nine Python rows, then Figure
/// 5's four Java rows, in figure order.
pub const PAPER_BENCHMARKS: [&str; 13] = [
    "BFS",
    "DFS",
    "DynamicHTML",
    "MST",
    "PageRank",
    "Compression",
    "Uploader",
    "Thumbnailer",
    "Video",
    "MatrixMult",
    "Hash",
    "HTMLRendering",
    "WordCount",
];

/// The three policies of §5.1, in the paper's order.
pub const PAPER_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Cold,
    PolicyKind::AfterFirst,
    PolicyKind::RequestCentric,
];

/// The three eviction rates of §5.1.
pub const PAPER_RATES: [u32; 3] = [1, 4, 20];

/// A completed grid: the sweep's points are eviction rates, its arms
/// policies.
pub type Grid = Sweep<PolicyKind, RunResult>;

/// One grid cell's identity and measurements.
pub type GridCell = Cell<PolicyKind, RunResult>;

impl Grid {
    /// Median latency of a cell, µs (NaN when absent).
    pub fn median(&self, workload: &str, policy: PolicyKind, rate: u32) -> f64 {
        self.cell(workload, rate, policy)
            .map(|c| c.result.median_us())
            .unwrap_or(f64::NAN)
    }

    /// Median improvement of the request-centric policy over the
    /// state-of-the-art baseline, percent (positive = faster).
    pub fn improvement_pct(&self, workload: &str, rate: u32) -> Option<f64> {
        let base = self.median(workload, PolicyKind::AfterFirst, rate);
        let rc = self.median(workload, PolicyKind::RequestCentric, rate);
        pronghorn_metrics::median_improvement_pct(base, rc)
    }
}

/// Runs the full grid for `benchmarks` across `policies` and `rates`.
///
/// # Panics
///
/// Panics if a benchmark name is unknown — experiment tables are static
/// and must fail loudly.
pub fn run_grid(
    ctx: &ExperimentContext,
    benchmarks: &[&str],
    policies: &[PolicyKind],
    rates: &[u32],
) -> Grid {
    run_grid_with_kernel(ctx, benchmarks, policies, rates, KernelKind::BinaryHeap)
}

/// The [`RunConfig`] of one grid cell. The seed is shared across the
/// policies of one (benchmark, rate).
fn grid_config(ctx: &ExperimentContext, bench: &str, rate: u32, policy: PolicyKind) -> RunConfig {
    let seed = ctx.cell_seed(&[bench, &rate.to_string()]);
    RunConfig::paper(policy, rate, seed).with_invocations(ctx.invocations)
}

/// [`run_grid`] with an explicit simulation kernel. Results are
/// byte-identical under either kernel (pinned by `tests/full_invariance.rs`
/// and the `kernel-bench` command); the knob exists so the equivalence is
/// checked at grid scale, not assumed.
pub fn run_grid_with_kernel(
    ctx: &ExperimentContext,
    benchmarks: &[&str],
    policies: &[PolicyKind],
    rates: &[u32],
    kernel: KernelKind,
) -> Grid {
    Sweep::run(
        ctx,
        benchmarks,
        rates,
        policies,
        |workload, bench, rate, policy| {
            let cfg = grid_config(ctx, bench, rate, policy).with_kernel(kernel);
            run_closed_loop(workload, &cfg)
        },
    )
}

/// [`run_grid_with_kernel`], but every cell runs through the cluster
/// runner with the default single-node [`ClusterSpec`]. A 1-node cluster
/// is pinned byte-identical to [`run_closed_loop`] (the golden tests in
/// `tests/full_invariance.rs` hold both paths to the same committed CSV),
/// so this exists to check that equivalence at grid scale, not to be a
/// faster path.
pub fn run_grid_cluster(
    ctx: &ExperimentContext,
    benchmarks: &[&str],
    policies: &[PolicyKind],
    rates: &[u32],
    kernel: KernelKind,
) -> Grid {
    Sweep::run(
        ctx,
        benchmarks,
        rates,
        policies,
        |workload, bench, rate, policy| {
            let cfg = grid_config(ctx, bench, rate, policy)
                .with_kernel(kernel)
                .with_cluster(ClusterSpec::single_node());
            run_cluster(workload, &cfg).result
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_all_cells_in_parallel() {
        let ctx = ExperimentContext {
            invocations: 60,
            ..ExperimentContext::quick()
        };
        let grid = run_grid(
            &ctx,
            &["DFS", "Hash"],
            &[PolicyKind::Cold, PolicyKind::AfterFirst],
            &[1, 4],
        );
        assert_eq!(grid.cells.len(), 8);
        assert_eq!(grid.benchmarks, ["DFS", "Hash"]);
        let m = grid.median("DFS", PolicyKind::Cold, 1);
        assert!(m.is_finite() && m > 0.0);
        assert!(grid.cell("DFS", 1, PolicyKind::RequestCentric).is_none());
    }

    #[test]
    fn paired_seeds_align_inputs_across_policies() {
        let ctx = ExperimentContext {
            invocations: 40,
            ..ExperimentContext::quick()
        };
        let grid = run_grid(&ctx, &["DFS"], &PAPER_POLICIES, &[20]);
        // With eviction rate 20 and a cold policy vs after-1st, the
        // *input* stream is identical; latencies differ only through
        // runtime state. Sanity: same length, different values.
        let cold = &grid.cell("DFS", 20, PolicyKind::Cold).unwrap().result;
        let af = &grid.cell("DFS", 20, PolicyKind::AfterFirst).unwrap().result;
        assert_eq!(cold.latencies_us.len(), af.latencies_us.len());
        assert_ne!(cold.latencies_us, af.latencies_us);
    }
}
