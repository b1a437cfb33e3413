//! Workspace-local, offline subset of the `criterion` API.
//!
//! Benchmarks really measure wall-clock time: each `bench_function`
//! calibrates an iteration count, takes several timed samples, and
//! reports the best per-iteration time (plus MB/s when a
//! [`Throughput`] was declared on the group).
//!
//! When the `PRONGHORN_BENCH_JSON` environment variable names a file,
//! every result is appended to it as one JSON object per line, so a
//! script can collect a bench run as machine-readable output.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Re-export of the standard optimization barrier.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Declared work per iteration, used to derive throughput rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// How `iter_batched` amortizes setup (accepted for API compatibility;
/// setup is always excluded from timing here).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    target_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            target_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            target_time: self.target_time,
            throughput: None,
            _criterion: self,
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let sample_size = self.sample_size;
        let target_time = self.target_time;
        run_benchmark("", id, sample_size, target_time, None, f);
        self
    }
}

/// A named group sharing throughput and sample-count settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    target_time: Duration,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the measurement time budget per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.target_time = t;
        self
    }

    /// Declares the work performed by one iteration.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        run_benchmark(
            &self.name,
            &id.into(),
            self.sample_size,
            self.target_time,
            self.throughput,
            f,
        );
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}
}

/// Passed to benchmark closures; records what to measure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    group: &str,
    id: &str,
    sample_size: usize,
    target_time: Duration,
    throughput: Option<Throughput>,
    mut f: F,
) {
    // Calibration: one iteration to estimate per-iter cost.
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let warmup_ns = bencher.elapsed.as_nanos().max(1);
    let budget_ns = target_time.as_nanos() / sample_size.max(1) as u128;
    let iters = (budget_ns / warmup_ns).clamp(1, 1_000_000) as u64;

    // Timed samples; report the minimum (least-noise) per-iter time.
    let mut best_ns = f64::INFINITY;
    for _ in 0..sample_size {
        bencher.iters = iters;
        f(&mut bencher);
        let per_iter = bencher.elapsed.as_nanos() as f64 / iters as f64;
        if per_iter < best_ns {
            best_ns = per_iter;
        }
    }

    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let mut line = format!("bench: {label:<48} {}/iter", format_ns(best_ns));
    let mut rate = None;
    if let Some(t) = throughput {
        let (amount, unit) = match t {
            Throughput::Bytes(n) => (n as f64, "MB/s"),
            Throughput::Elements(n) => (n as f64, "Melem/s"),
        };
        let per_sec = amount / (best_ns / 1e9) / 1e6;
        rate = Some((amount, per_sec));
        let _ = write!(line, "  ({per_sec:.1} {unit})");
    }
    println!("{line}");

    if let Ok(path) = std::env::var("PRONGHORN_BENCH_JSON") {
        if !path.is_empty() {
            let mut json = format!(
                "{{\"group\":{:?},\"bench\":{:?},\"ns_per_iter\":{:.1}",
                group, id, best_ns
            );
            if let Some((amount, per_sec)) = rate {
                let _ = write!(
                    json,
                    ",\"work_per_iter\":{amount},\"rate_m_per_s\":{per_sec:.2}"
                );
            }
            json.push('}');
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = writeln!(file, "{json}");
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Bundles benchmark functions into one runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_reports_plausible_time() {
        let mut c = Criterion {
            sample_size: 3,
            target_time: Duration::from_millis(5),
        };
        let mut group = c.benchmark_group("compat");
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }
}
