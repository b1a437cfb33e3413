//! `perfbench` — the repository benchmark: simulated hot-start latency and
//! simulator throughput on four workloads, with a traced per-layer run.
//!
//! ```text
//! perfbench --workload <paper-grid|cluster-restore|production-hot|production-sparse>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every number is labelled `sim` (what the modelled platform would take;
//! deterministic for a seed) or `host` (what the simulator takes on the
//! machine running it). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `README.md` in this directory for the glossary.

mod capacity;
mod host;
mod layers;
mod metrics;
mod replay;
mod spans;
mod stats;
mod timed;
mod workload;

use metrics::{check_cell, ledger_gap_bytes, metric, sim_figures, Kind, Metric, SimFigures};
use pronghorn_metrics::Quantiles;
use pronghorn_platform::KernelKind;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use timed::{GenerateLog, Timed};
use workload::{
    digest, run_cell, run_pass, CellKind, Outcome, Pass, PassSummary, Scale, Setup, WorkloadName,
};

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;

/// A second seed, held out from all tuning of this benchmark, for
/// confirming later claims: a gain measured on [`DEFAULT_SEED`] should
/// hold on this one too.
const HELD_OUT_SEED: u64 = 7_331;

/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;

/// Times the setup is built before the first pass and again after each
/// pass; `setup_s` is the median of all builds.
const SETUP_REPEATS: usize = 5;

/// Passes an untraced run times at least, even when the second one runs
/// past `--seconds`: every timed unit then has a best of two.
const MIN_PASSES: usize = 2;

/// Upper bound on passes in one run.
const MAX_PASSES: usize = 50;

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// How much of the workload to run; only the tests set `Tiny`.
    scale: Scale,
    /// Where the traced run writes its spans (`None`: not written).
    spans_dir: Option<PathBuf>,
}

fn usage() -> String {
    "usage: perfbench --workload <paper-grid|cluster-restore|production-hot|production-sparse> \
     [--seed N] [--seconds S] [--trace 0|1]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: WorkloadName::PaperGrid,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        spans_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadName::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The correctness gate's tally: cells attempted and the failures found.
#[derive(Default)]
struct Gate {
    attempted: usize,
    failures: Vec<String>,
}

impl Gate {
    fn cell(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failures.push(failures.join("; "));
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// Checks every cell of the first pass, that every later pass digests
/// identically, that the kernel-check cell digests identically under both
/// kernels, and the conservation-check cell if the workload has one.
fn gate_passes(setup: &Setup, first: &Pass, passes: &[PassSummary], gate: &mut Gate) {
    for (i, (cell, outcome)) in setup.cells.iter().zip(&first.outcomes).enumerate() {
        let mut f = check_cell(cell, outcome);
        for (p, pass) in passes.iter().enumerate().skip(1) {
            if pass.digests[i] != passes[0].digests[i] {
                f.push(format!("{}: pass {p} differs from pass 0", cell.label));
            }
        }
        gate.cell(f);
    }
    let check = &setup.kernel_check;
    let other = match check.kernel() {
        KernelKind::BinaryHeap => KernelKind::TimerWheel,
        KernelKind::TimerWheel => KernelKind::BinaryHeap,
    };
    let bench = &setup.benches[check.bench];
    let a = run_cell(check, bench);
    let b = run_cell(&check.with_kernel(other), bench);
    let mut f = check_cell(check, &a);
    if digest(&a) != digest(&b) {
        f.push(format!("{}: digest differs under {other}", check.label));
    }
    gate.cell(f);
    if let Some(cell) = &setup.conservation_check {
        gate.cell(check_cell(
            cell,
            &run_cell(cell, &setup.benches[cell.bench]),
        ));
    }
}

/// Runs the traced pass (a [`Timed`] wrapper per cell, one `platform.run`
/// span per cell with its `workloads.generate` children), checks it
/// reproduces the untraced results, and derives the per-layer metrics.
fn traced_run(
    setup: &Setup,
    untraced: &Pass,
    sim: &SimFigures,
    tracer: &Tracer,
    gate: &mut Gate,
) -> Vec<Metric> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let logs: Mutex<Vec<Option<(GenerateLog, usize)>>> =
        Mutex::new((0..setup.cells.len()).map(|_| None).collect());
    let pass = run_pass(setup, threads, |i, cell| {
        let wrapper = Timed::new(&setup.benches[cell.bench], tracer.epoch());
        let start = tracer.now_ns();
        let outcome = run_cell(cell, &wrapper);
        let end = tracer.now_ns();
        let span = tracer.record(None, "platform.run", start, end, Some(i as u64));
        let log = wrapper.into_log();
        tracer.extend_children(span, "workloads.generate", &log.spans);
        logs.lock().expect("no poisoned lock")[i] = Some((log, span));
        outcome
    });
    let differs: Vec<String> = setup
        .cells
        .iter()
        .zip(pass.outcomes.iter().zip(&untraced.outcomes))
        .filter(|(_, (a, b))| digest(a) != digest(b))
        .map(|(cell, _)| format!("{}: traced run differs from the untraced one", cell.label))
        .collect();
    gate.cell(differs);
    let (logs, cell_spans) = logs
        .into_inner()
        .expect("no poisoned lock")
        .into_iter()
        .map(|l| l.expect("every cell ran"))
        .unzip();
    let traced = layers::Traced {
        pass,
        logs,
        cell_spans,
    };
    let (metrics, attempted, failures) =
        layers::layer_metrics(setup, &traced, tracer, untraced.inv_per_s(), sim);
    gate.attempted += attempted;
    gate.failures.extend(failures);
    metrics
}

/// Everything one invocation measured.
struct Report {
    setup: Setup,
    /// The first pass, with its outcomes.
    first: Pass,
    /// Every pass's digests and timings, the first included.
    passes: Vec<PassSummary>,
    end_to_end: Vec<Metric>,
    /// The ungated end-to-end figures this workload produces, and the names
    /// of the ones its runner cannot.
    extra: Vec<Metric>,
    omitted: Vec<&'static str>,
    from_histogram: bool,
    layer: Vec<Metric>,
    gate: Gate,
    spans_written: Option<(usize, PathBuf)>,
}

fn run(args: &Args) -> Report {
    // Setup: the benchmark registry, method profiles and the cells with
    // their trace specs. It is built again after every pass, so the
    // builds sample the whole run rather than one instant of a shared
    // machine; `setup_s` is their median.
    let mut setup_times = Vec::new();
    let mut build = || {
        let t = Instant::now();
        let built = Setup::build(args.workload, args.seed, args.scale);
        setup_times.push(t.elapsed().as_secs_f64());
        built
    };
    let setup = build();
    for _ in 1..SETUP_REPEATS {
        build();
    }

    // Untraced passes until the time is up (at least `MIN_PASSES`; one
    // when tracing, whose run measures the layers instead).
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only the first pass keeps its outcomes; later ones leave digests and
    // timings. Peak memory is read after the first pass, so it does not
    // depend on how many passes the host had time for.
    let measured = Instant::now();
    let mut first: Option<Pass> = None;
    let mut peak_rss_mb = None;
    let mut passes: Vec<PassSummary> = Vec::new();
    loop {
        let pass = run_pass(&setup, threads, |_, cell| {
            run_cell(cell, &setup.benches[cell.bench])
        });
        let last = pass.wall_s;
        passes.push(pass.summary());
        if first.is_none() {
            first = Some(pass);
            peak_rss_mb = host::peak_rss_mb();
        }
        for _ in 0..SETUP_REPEATS {
            build();
        }
        let elapsed = measured.elapsed().as_secs_f64();
        let time_up = passes.len() >= MIN_PASSES && elapsed + last > args.seconds;
        if args.trace || passes.len() >= MAX_PASSES || time_up {
            break;
        }
    }
    let first = first.expect("at least one pass");
    let setup_s = Quantiles::new(setup_times).expect("setup timed").median();
    let host_inv_per_s = first.invocations() as f64 / workload::best_host_s(&passes);

    let mut gate = Gate::default();
    gate_passes(&setup, &first, &passes, &mut gate);
    let sim = sim_figures(&setup, &first.outcomes).unwrap_or_else(|e| {
        gate.failures.push(e);
        SimFigures::default()
    });
    if peak_rss_mb.is_none() {
        gate.failures.push("peak RSS unavailable".into());
    }
    let end_to_end = vec![
        metric("host_inv_per_s", host_inv_per_s, "inv/s", Kind::Host),
        metric("setup_s", setup_s, "s", Kind::Host),
        metric(
            "host_peak_rss_mb",
            peak_rss_mb.unwrap_or(0.0),
            "MB",
            Kind::Host,
        ),
        metric("sim_p50_ms", sim.p50_ms, "ms", Kind::Sim),
        metric("sim_p99_ms", sim.p99_ms, "ms", Kind::Sim),
        metric("sim_demand_frac", sim.demand_frac, "ratio", Kind::Sim),
    ];
    for m in &end_to_end {
        if !(m.value.is_finite() && m.value > 0.0) {
            gate.failures
                .push(format!("{} = {} is not a positive number", m.name, m.value));
        }
    }
    let mut extra = Vec::new();
    let mut omitted = Vec::new();
    for (name, value, unit) in sim.ungated() {
        match value {
            Some(v) => extra.push(metric(name, v, unit, Kind::Sim)),
            None => omitted.push(name),
        }
    }

    let mut layer = Vec::new();
    let mut spans_written = None;
    if args.trace {
        let tracer = Tracer::new();
        layer = traced_run(&setup, &first, &sim, &tracer, &mut gate);
        layer.push(metric(
            "e2e.failed_frac",
            gate.failed_frac(),
            "ratio",
            Kind::Check,
        ));
        if let Some(dir) = &args.spans_dir {
            let spans = tracer.spans();
            let path = dir.join(format!(
                "spans-{}-seed{}.json",
                args.workload.label(),
                args.seed
            ));
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, spans::to_json(&spans)))
            {
                Ok(()) => spans_written = Some((spans.len(), path)),
                Err(e) => gate.failures.push(format!("writing spans: {e}")),
            }
        }
    }
    Report {
        setup,
        first,
        passes,
        end_to_end,
        extra,
        omitted,
        from_histogram: sim.from_histogram,
        layer,
        gate,
        spans_written,
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<34} {:>18.6} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.kind.label()
        );
    }
}

/// Sample counts, the cluster ladders and the ledger gap: what the
/// aggregate numbers rest on.
fn print_details(r: &Report) {
    let pass = &r.first;
    let metric_cells = r.setup.cells.iter().filter(|c| c.metric).count();
    println!(
        "  samples: {} invocations in {} cells per pass ({} feed the latency metrics), \
         {} pass(es) of {:?} s wall on {} thread(s)",
        pass.invocations(),
        r.setup.cells.len(),
        metric_cells,
        r.passes.len(),
        r.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut gap = 0i128;
    for (cell, outcome) in r.setup.cells.iter().zip(&pass.outcomes) {
        if let (CellKind::Ladder { ladder, .. }, Outcome::Ladder { rungs, capacity }) =
            (&cell.kind, outcome)
        {
            let shown: Vec<String> = rungs
                .iter()
                .map(|g| {
                    gap += ledger_gap_bytes(&g.result);
                    format!(
                        "{:.1}rps:{}(p99 {:.0}ms, {:.2}s host)",
                        g.rps,
                        if g.passed { "pass" } else { "fail" },
                        g.p99_ms.unwrap_or(f64::NAN),
                        g.host_s
                    )
                })
                .collect();
            println!(
                "  {:<22} capacity {:>8} rps  limit {:>6.0} ms  rungs {}",
                cell.label,
                capacity.map_or("-".to_string(), |c| format!("{:.1}", ladder.rungs()[c])),
                ladder.limit_ms(),
                shown.join(" ")
            );
        }
    }
    if gap != 0 {
        println!(
            "  known defect: under record-prefetch restores the cluster byte ledgers \
             disagree by {:.3} GB (downloaded + remote - restore bytes)",
            gap as f64 / 1e9
        );
    }
    if !r.omitted.is_empty() {
        println!(
            "  omitted (this runner cannot produce them): {}",
            r.omitted.join(", ")
        );
    }
    if r.from_histogram {
        println!(
            "  note: production p50/p99 come from ProductionStats' log-bucketed \
             histogram (1% relative resolution)"
        );
    }
}

fn json_line(correct: bool, gate: &Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failures.len(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let r = run(&args);
    println!(
        "perfbench {} seed {} (held-out seed {HELD_OUT_SEED}), trace {}",
        args.workload.label(),
        args.seed,
        u8::from(args.trace)
    );
    print_metrics("end-to-end", &r.end_to_end);
    print_metrics(
        "end-to-end, not gated (not produced by every runner)",
        &r.extra,
    );
    print_details(&r);
    println!(
        "  failed_frac {} ({} of {} checked cells)",
        r.gate.failed_frac(),
        r.gate.failures.len(),
        r.gate.attempted
    );
    if args.trace {
        print_metrics(
            "per-layer (traced run; host figures other than workloads.* and platform.* \
             are replays, *.replay_est_s = replay ns/call x in-run calls)",
            &r.layer,
        );
        if let Some((n, path)) = &r.spans_written {
            println!("spans: {n} written to {}", path.display());
        }
    }
    for f in &r.gate.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = r.gate.failures.is_empty();
    let reported = if args.trace { &r.layer } else { &r.end_to_end };
    println!("{}", json_line(correct, &r.gate, reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-scale run of every workload, traced, through the whole
    /// correctness gate.
    #[test]
    fn every_workload_passes_the_gate_at_tiny_scale() {
        for workload in WorkloadName::ALL {
            let args = Args {
                workload,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace: true,
                scale: Scale::Tiny,
                spans_dir: None,
            };
            let r = run(&args);
            assert!(
                r.gate.failures.is_empty(),
                "{workload:?}: {:?}",
                r.gate.failures
            );
            assert!(r.gate.attempted > r.setup.cells.len());
            for m in &r.end_to_end {
                assert!(m.value.is_finite() && m.value > 0.0, "{workload:?}: {m:?}");
            }
            let names: Vec<&str> = r.layer.iter().map(|m| m.name.as_str()).collect();
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "metric names are unique");
            let share = r
                .layer
                .iter()
                .find(|m| m.name == "workloads.generate_share")
                .expect("reported");
            assert!(
                share.value > 0.0 && share.value < 1.0,
                "{workload:?}: {share:?}"
            );
            let line = json_line(true, &r.gate, &r.layer);
            assert!(line.starts_with("{\"correct\": true"));
        }
    }

    #[test]
    fn same_seed_same_sim_figures() {
        let build = || {
            let setup = Setup::build(WorkloadName::ProductionSparse, 9, Scale::Tiny);
            let pass = run_pass(&setup, 2, |_, c| run_cell(c, &setup.benches[c.bench]));
            sim_figures(&setup, &pass.outcomes).expect("tiny sparse run is well-sampled")
        };
        assert_eq!(build(), build());
    }
}
