//! The [`Workload`] trait and its spec-driven implementation.
//!
//! Every benchmark is described declaratively by a [`WorkloadSpec`]: the
//! runtime it targets, calibration targets (first-request lazy init,
//! interpreted execution time, fully-optimized speedup, IO time), its
//! method table, and a *kernel* — a closure running the real algorithm and
//! returning raw work units. At construction the spec runs the kernel once
//! at the base input size and derives `µs-per-unit`, so the calibration
//! targets hold exactly regardless of kernel internals.

use crate::input::InputVariance;
use crate::tape::{Draw, Tapes};
use pronghorn_checkpoint::cost::gaussian;
use pronghorn_jit::{MethodProfile, MethodWork, RequestWork, RuntimeKind, RuntimeProfile};
use pronghorn_sim::RngFactory;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The seeded stream request `index` of a run with master seed `seed`
/// draws its input from. Every policy and arm replaying that seed reads
/// the same stream — the paper's paired comparison (§5.1).
pub fn input_stream(seed: u64, index: u64) -> SmallRng {
    RngFactory::new(seed).stream_indexed("input", index)
}

/// A serverless benchmark: everything the platform needs to run it.
pub trait Workload: Send + Sync {
    /// Benchmark name as the paper spells it, e.g. `"DynamicHTML"`.
    fn name(&self) -> &str;

    /// The runtime family the benchmark targets (Table 3's Java/Python
    /// split).
    fn kind(&self) -> RuntimeKind;

    /// Runtime profile, including this benchmark's lazy-init cost.
    fn runtime_profile(&self) -> RuntimeProfile;

    /// Static method table handed to the runtime at worker start.
    fn method_profiles(&self) -> Vec<MethodProfile>;

    /// Draws one randomized request.
    fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork;

    /// Request `index` of the paired-seed input sequence of a run with
    /// master seed `seed`: what [`Workload::generate`] draws from
    /// [`input_stream`]`(seed, index)`, and only a function of
    /// `(seed, index, variance)`.
    ///
    /// The default calls `generate`, so a wrapper that only overrides
    /// `generate` (like perfbench's timing wrapper `Timed`) still sees
    /// every draw; it also bypasses any cache the wrapped workload keeps
    /// behind its own `request`. [`SpecWorkload`] overrides this to replay
    /// a shared request tape, bit-identical to the default.
    fn request(&self, seed: u64, index: u64, variance: InputVariance) -> RequestWork {
        self.generate(&mut input_stream(seed, index), variance)
    }

    /// Whether the benchmark is IO-bound (§5.2's compute/IO split).
    fn io_bound(&self) -> bool;

    /// Multiplier on the restored-process IO-staleness penalty (see the
    /// platform's `IoStaleModel`); 1.0 for typical workloads.
    fn io_stale_sensitivity(&self) -> f64 {
        1.0
    }
}

/// One method row of a [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct MethodSpec {
    /// Method name.
    pub name: &'static str,
    /// Calls per request at the base input size.
    pub base_calls: f64,
    /// Fraction of the request's compute units this method executes.
    pub share: f64,
}

/// A benchmark kernel: `(rng, size_factor) -> raw work units`.
pub type KernelFn = Box<dyn Fn(&mut dyn RngCore, f64) -> f64 + Send + Sync>;

/// Declarative description of one benchmark.
pub struct WorkloadSpec {
    /// Benchmark name (paper spelling).
    pub name: &'static str,
    /// Target runtime family.
    pub kind: RuntimeKind,
    /// Mean lazy-initialization cost charged to a cold runtime's first
    /// request, µs (workload-specific: heavy frameworks load more classes).
    pub lazy_init_us: f64,
    /// Target interpreted execution time at the base input size, µs.
    pub interp_exec_us: f64,
    /// Target speedup of fully optimized over interpreted execution
    /// (e.g. Figure 1: 1.5 for DynamicHTML on PyPy, ~4.1 on the JVM).
    pub full_speedup: f64,
    /// Mean IO time at the base input size, µs (0 for compute-bound).
    pub io_base_us: f64,
    /// Relative jitter on IO time.
    pub io_rel_jitter: f64,
    /// How sensitive the benchmark's IO path is to restored-process state
    /// staleness (1.0 = typical; Uploader-style workloads whose entire job
    /// is long-lived network sessions are higher). Consumed by the
    /// platform's staleness model.
    pub io_stale_sensitivity: f64,
    /// Method table (shares should sum to ~1).
    pub methods: Vec<MethodSpec>,
    /// The real kernel: `(rng, size_factor) -> raw work units`.
    pub kernel: KernelFn,
}

/// A benchmark built from a spec, with derived calibration and a request
/// tape shared by every run that replays one of its paired seeds.
pub struct SpecWorkload {
    spec: WorkloadSpec,
    us_per_unit: f64,
    tapes: Tapes,
}

impl SpecWorkload {
    /// Builds the workload, running the kernel once at the base size to
    /// calibrate `µs-per-unit`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel returns non-positive units at the base size or
    /// the method shares are degenerate — both are table bugs that should
    /// fail loudly at registry construction, not mid-experiment.
    pub fn new(spec: WorkloadSpec) -> SpecWorkload {
        assert!(!spec.methods.is_empty(), "{}: no methods", spec.name);
        let share_sum: f64 = spec.methods.iter().map(|m| m.share).sum();
        assert!(
            (0.5..=1.5).contains(&share_sum),
            "{}: method shares sum to {share_sum}",
            spec.name
        );
        // Calibration run: median of a few draws at factor 1.0 for kernels
        // with internal randomness.
        let mut rng = SmallRng::seed_from_u64(0x5eed_ca1b);
        let mut samples: Vec<f64> = (0..5).map(|_| (spec.kernel)(&mut rng, 1.0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("kernel units are finite"));
        let base_units = samples[2];
        assert!(
            base_units > 0.0,
            "{}: kernel produced no work at base size",
            spec.name
        );
        // interpreted compute = raw_units * share_sum * us_per_unit, so:
        let us_per_unit = spec.interp_exec_us / (base_units * share_sum);
        SpecWorkload {
            us_per_unit,
            spec,
            tapes: Tapes::default(),
        }
    }

    /// The spec this workload was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Derived interpreted cost per work unit, µs.
    pub fn us_per_unit(&self) -> f64 {
        self.us_per_unit
    }

    /// Request tapes alive right now. Each is held by a thread whose latest
    /// request on this workload used it; a tape no thread holds is freed.
    pub fn live_tapes(&self) -> usize {
        self.tapes.live()
    }

    /// The random part of one request, in the stream's draw order: size
    /// factor, kernel work, IO jitter.
    fn draw(&self, rng: &mut dyn RngCore, variance: InputVariance) -> Draw {
        let factor = variance.sample_factor(rng);
        let raw_units = (self.spec.kernel)(rng, factor).max(0.0);
        let io_us = if self.spec.io_base_us > 0.0 {
            let jitter = 1.0 + gaussian(&mut *rng) * self.spec.io_rel_jitter;
            (self.spec.io_base_us * factor * jitter.max(0.2)).max(0.0)
        } else {
            0.0
        };
        Draw {
            factor,
            raw_units,
            io_us,
        }
    }

    /// Builds the request a [`Draw`] describes; pure, so a taped draw
    /// rebuilds exactly the request `generate` returns.
    fn assemble(&self, draw: Draw) -> RequestWork {
        let Draw {
            factor,
            raw_units,
            io_us,
        } = draw;
        let entries: Vec<MethodWork> = self
            .spec
            .methods
            .iter()
            .enumerate()
            .map(|(i, m)| MethodWork {
                method: i,
                units: raw_units * m.share,
                calls: (m.base_calls * factor).max(0.0),
            })
            .collect();
        RequestWork::new(entries)
            .us_per_unit(self.us_per_unit)
            .io_us(io_us)
            .size_factor(factor)
            .novelty(InputVariance::novelty_of(factor))
    }
}

impl Workload for SpecWorkload {
    fn name(&self) -> &str {
        self.spec.name
    }

    fn kind(&self) -> RuntimeKind {
        self.spec.kind
    }

    fn runtime_profile(&self) -> RuntimeProfile {
        let mut profile = RuntimeProfile::for_kind(self.spec.kind);
        profile.lazy_init_us = self.spec.lazy_init_us;
        profile
    }

    fn method_profiles(&self) -> Vec<MethodProfile> {
        // Uniform per-method speedups make the converged overall speedup
        // equal the spec's `full_speedup` target exactly; tier 1 lands a
        // bit past halfway there in log space.
        let t2 = self.spec.full_speedup.max(1.0);
        let t1 = t2.powf(0.55);
        self.spec
            .methods
            .iter()
            .map(|m| {
                MethodProfile::new(m.name)
                    .calls_per_request(m.base_calls)
                    .tier_speedups(t1, t2)
                    .speculation(0.5)
            })
            .collect()
    }

    fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork {
        self.assemble(self.draw(rng, variance))
    }

    fn request(&self, seed: u64, index: u64, variance: InputVariance) -> RequestWork {
        let draw = self.tapes.get(seed, index, variance, &|i| {
            self.draw(&mut input_stream(seed, i), variance)
        });
        self.assemble(draw)
    }

    fn io_bound(&self) -> bool {
        self.spec.io_base_us > self.spec.interp_exec_us
    }

    fn io_stale_sensitivity(&self) -> f64 {
        self.spec.io_stale_sensitivity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "Toy",
            kind: RuntimeKind::PyPy,
            lazy_init_us: 1_000.0,
            interp_exec_us: 10_000.0,
            full_speedup: 2.0,
            io_base_us: 0.0,
            io_rel_jitter: 0.0,
            io_stale_sensitivity: 1.0,
            methods: vec![
                MethodSpec {
                    name: "driver",
                    base_calls: 1.0,
                    share: 0.3,
                },
                MethodSpec {
                    name: "inner",
                    base_calls: 20.0,
                    share: 0.7,
                },
            ],
            kernel: Box::new(|_rng, factor| 500.0 * factor),
        }
    }

    #[test]
    fn calibration_hits_interp_target() {
        let w = SpecWorkload::new(toy_spec());
        let mut rng = SmallRng::seed_from_u64(1);
        let req = w.generate(&mut rng, InputVariance::none());
        let interp = req.interpreted_compute_us();
        assert!(
            (interp - 10_000.0).abs() < 1.0,
            "interp compute {interp} != 10000"
        );
    }

    #[test]
    fn runtime_profile_carries_lazy_init() {
        let w = SpecWorkload::new(toy_spec());
        assert_eq!(w.runtime_profile().lazy_init_us, 1_000.0);
        assert_eq!(w.runtime_profile().kind, RuntimeKind::PyPy);
    }

    #[test]
    fn method_profiles_hit_full_speedup() {
        let w = SpecWorkload::new(toy_spec());
        for m in w.method_profiles() {
            assert_eq!(m.tier2_speedup, 2.0);
            assert!(m.tier1_speedup > 1.0 && m.tier1_speedup < 2.0);
        }
    }

    #[test]
    fn variance_scales_units_and_calls_together() {
        let w = SpecWorkload::new(toy_spec());
        let mut rng = SmallRng::seed_from_u64(2);
        let reqs: Vec<RequestWork> = (0..200)
            .map(|_| w.generate(&mut rng, InputVariance::paper()))
            .collect();
        let units: Vec<f64> = reqs.iter().map(|r| r.entries[1].units).collect();
        let min = units.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = units.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 5.0, "variance too small: {min}..{max}");
        for r in &reqs {
            // calls scale linearly with the same factor as units.
            let ratio = r.entries[1].calls / 20.0;
            let unit_ratio = r.entries[1].units / 350.0;
            assert!((ratio - unit_ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn novelty_tracks_size_deviation() {
        let w = SpecWorkload::new(toy_spec());
        let mut rng = SmallRng::seed_from_u64(3);
        let req = w.generate(&mut rng, InputVariance::none());
        assert_eq!(req.novelty, 0.0);
    }

    #[test]
    fn io_workload_reports_io_bound() {
        let mut spec = toy_spec();
        spec.io_base_us = 500_000.0;
        spec.io_rel_jitter = 0.1;
        let w = SpecWorkload::new(spec);
        assert!(w.io_bound());
        let mut rng = SmallRng::seed_from_u64(4);
        let req = w.generate(&mut rng, InputVariance::none());
        assert!(req.io_us > 100_000.0);
    }

    #[test]
    #[should_panic(expected = "no methods")]
    fn empty_method_table_panics() {
        let mut spec = toy_spec();
        spec.methods.clear();
        let _ = SpecWorkload::new(spec);
    }

    #[test]
    #[should_panic(expected = "shares sum")]
    fn bad_shares_panic() {
        let mut spec = toy_spec();
        spec.methods[0].share = 5.0;
        let _ = SpecWorkload::new(spec);
    }
}
