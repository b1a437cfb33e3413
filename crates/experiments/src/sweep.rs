//! The one paired-seed sweep harness behind the policy grid and every
//! ablation: benchmarks × points × arms, run in parallel.
//!
//! A sweep's *point* axis is its second numeric axis — the eviction rate
//! for the policy grid and most ablations, the node count for the cluster
//! ablation. Cells that differ only in arm get the same seed from the
//! caller's run function, so every comparison is paired (§5.1: each
//! strategy replays the same benchmark inputs).
//!
//! Cells come back in task order — benchmark-major, then point, then arm,
//! each in the order the caller listed them — whatever the thread count,
//! so every CSV rendered by walking [`Sweep::cells`] is deterministic.

use crate::ExperimentContext;
use pronghorn_workloads::{all_benchmarks, SpecWorkload, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One benchmark × point × arm measurement.
#[derive(Debug, Clone)]
pub struct Cell<A, R> {
    /// Benchmark name.
    pub workload: String,
    /// Point on the sweep's numeric axis (eviction rate or node count).
    pub point: u32,
    /// Arm the cell ran under.
    pub arm: A,
    /// The run's measurements.
    pub result: R,
}

/// A completed sweep: the lists it ran over plus one cell per
/// combination, in task order.
#[derive(Debug, Clone)]
pub struct Sweep<A, R> {
    /// Benchmarks, in the order given.
    pub benchmarks: Vec<String>,
    /// Points, in the order given.
    pub points: Vec<u32>,
    /// Arms, in the order given.
    pub arms: Vec<A>,
    /// All cells, benchmark-major then point then arm.
    pub cells: Vec<Cell<A, R>>,
    /// Real wall-clock time the sweep took, seconds.
    pub wall_clock_s: f64,
}

impl<A: Copy + PartialEq + Send + Sync, R: Send> Sweep<A, R> {
    /// Runs `run(workload, benchmark, point, arm)` for every combination on
    /// up to [`ExperimentContext::effective_threads`] threads.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark name is unknown — experiment tables are
    /// static and must fail loudly.
    pub fn run<F>(
        ctx: &ExperimentContext,
        benchmarks: &[&str],
        points: &[u32],
        arms: &[A],
        run: F,
    ) -> Self
    where
        F: Fn(&SpecWorkload, &str, u32, A) -> R + Sync,
    {
        // One workload per benchmark, shared by all of its tasks so that
        // arms replaying a seed share its request tape.
        let registry = all_benchmarks();
        let workloads: Vec<&SpecWorkload> = benchmarks
            .iter()
            .map(|name| {
                registry
                    .iter()
                    .find(|w| w.name() == *name)
                    .unwrap_or_else(|| panic!("unknown benchmark {name}"))
            })
            .collect();
        let mut tasks = Vec::with_capacity(benchmarks.len() * points.len() * arms.len());
        for &workload in &workloads {
            for &point in points {
                for &arm in arms {
                    tasks.push((workload, point, arm));
                }
            }
        }
        let started = std::time::Instant::now();
        let results = par_map(
            ctx.effective_threads(),
            &tasks,
            |&(workload, point, arm)| run(workload, workload.name(), point, arm),
        );
        let wall_clock_s = started.elapsed().as_secs_f64();
        Sweep {
            benchmarks: benchmarks.iter().map(|b| b.to_string()).collect(),
            points: points.to_vec(),
            arms: arms.to_vec(),
            cells: tasks
                .into_iter()
                .zip(results)
                .map(|((workload, point, arm), result)| Cell {
                    workload: workload.name().to_string(),
                    point,
                    arm,
                    result,
                })
                .collect(),
            wall_clock_s,
        }
    }
}

impl<A: Copy + PartialEq, R> Sweep<A, R> {
    /// Finds a cell by its position in the lists the sweep ran over. The
    /// fields are public, so a hand-built sweep whose cells do not follow
    /// its lists yields `None` rather than the wrong cell.
    pub fn cell(&self, workload: &str, point: u32, arm: A) -> Option<&Cell<A, R>> {
        let b = self.benchmarks.iter().position(|w| w == workload)?;
        let p = self.points.iter().position(|&x| x == point)?;
        let a = self.arms.iter().position(|&x| x == arm)?;
        self.cells
            .get((b * self.points.len() + p) * self.arms.len() + a)
            .filter(|c| c.workload == workload && c.point == point && c.arm == arm)
    }

    /// Every cell of one arm, in task order.
    pub fn arm_cells(&self, arm: A) -> impl Iterator<Item = &Cell<A, R>> {
        self.cells.iter().filter(move |c| c.arm == arm)
    }
}

/// Maps `f` over `tasks` on `threads` scoped threads that pull the next
/// task index from a shared counter; results come back in task order.
fn par_map<T: Sync, R: Send>(threads: usize, tasks: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else {
                            break out;
                        };
                        out.push((i, f(task)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_returns_results_in_task_order() {
        let tasks: Vec<u64> = (0..200).collect();
        for threads in [1, 3, 16] {
            let out = par_map(threads, &tasks, |&t| {
                if t % 5 == 0 {
                    std::thread::yield_now();
                }
                t * 2
            });
            let expected: Vec<u64> = tasks.iter().map(|t| t * 2).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn cells_are_laid_out_and_found_by_list_position() {
        let ctx = ExperimentContext {
            threads: 3,
            ..ExperimentContext::quick()
        };
        let sweep = Sweep::run(
            &ctx,
            &["Hash", "DFS"],
            &[4, 1],
            &['a', 'b'],
            |_, b, p, a| format!("{b}/{p}/{a}"),
        );
        let order: Vec<&str> = sweep.cells.iter().map(|c| c.result.as_str()).collect();
        assert_eq!(
            order,
            [
                "Hash/4/a", "Hash/4/b", "Hash/1/a", "Hash/1/b", "DFS/4/a", "DFS/4/b", "DFS/1/a",
                "DFS/1/b"
            ]
        );
        for c in &sweep.cells {
            let found = sweep.cell(&c.workload, c.point, c.arm).unwrap();
            assert_eq!(found.result, c.result);
        }
        assert!(sweep.cell("DFS", 20, 'a').is_none());
        assert_eq!(sweep.arm_cells('b').count(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let ctx = ExperimentContext::quick();
        let _ = Sweep::run(&ctx, &["NoSuch"], &[1], &[()], |_, _, _, _| ());
    }
}
