//! The delegating [`Workload`] the traced pass hands to the runners: it
//! forwards every call to the benchmark and times `generate`, keeping one
//! span per call (up to a cap) and the first requests for the replays.

use pronghorn_jit::{MethodProfile, RequestWork, RuntimeKind, RuntimeProfile};
use pronghorn_workloads::{InputVariance, SpecWorkload, Workload};
use rand::RngCore;
use std::sync::Mutex;
use std::time::Instant;

/// `workloads.generate` spans kept per cell; calls past the cap are still
/// counted and timed, only not kept as individual spans (a 10-hour hot
/// trace makes millions of calls).
pub const SPAN_CAP: usize = 20_000;

/// Requests kept per cell for the host replays.
pub const CAPTURE: usize = 256;

/// Per-cell generate accounting.
#[derive(Debug, Default)]
pub struct GenerateLog {
    /// Calls made.
    pub calls: u64,
    /// Host ns inside `generate`, all calls.
    pub ns: u64,
    /// `(start_ns, end_ns, request index)` of the first [`SPAN_CAP`] calls;
    /// times are relative to the tracer epoch passed to [`Timed::new`].
    pub spans: Vec<(u64, u64, u64)>,
    /// The first [`CAPTURE`] generated requests, in serve order.
    pub captured: Vec<RequestWork>,
}

/// Times `generate` on the way through to the benchmark.
pub struct Timed<'a> {
    inner: &'a SpecWorkload,
    epoch: Instant,
    log: Mutex<GenerateLog>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`; span times are ns since `epoch`.
    pub fn new(inner: &'a SpecWorkload, epoch: Instant) -> Self {
        Timed {
            inner,
            epoch,
            log: Mutex::new(GenerateLog::default()),
        }
    }

    /// The accumulated log.
    pub fn into_log(self) -> GenerateLog {
        self.log.into_inner().expect("no poisoned lock")
    }
}

impl Workload for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> RuntimeKind {
        self.inner.kind()
    }

    fn runtime_profile(&self) -> RuntimeProfile {
        self.inner.runtime_profile()
    }

    fn method_profiles(&self) -> Vec<MethodProfile> {
        self.inner.method_profiles()
    }

    fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork {
        let start = Instant::now();
        let work = self.inner.generate(rng, variance);
        let end = Instant::now();
        let mut log = self.log.lock().expect("no poisoned lock");
        // Every runner calls `generate` exactly once per served request,
        // so the call ordinal is the request's serve index.
        let index = log.calls;
        log.calls += 1;
        log.ns += (end - start).as_nanos() as u64;
        if log.spans.len() < SPAN_CAP {
            let s = (start - self.epoch).as_nanos() as u64;
            let e = (end - self.epoch).as_nanos() as u64;
            log.spans.push((s, e, index));
        }
        if log.captured.len() < CAPTURE {
            log.captured.push(work.clone());
        }
        work
    }

    fn io_bound(&self) -> bool {
        self.inner.io_bound()
    }

    fn io_stale_sensitivity(&self) -> f64 {
        self.inner.io_stale_sensitivity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forwards_and_counts() {
        let bench = pronghorn_workloads::by_name("Hash").expect("Hash exists");
        let epoch = Instant::now();
        let timed = Timed::new(&bench, epoch);
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        for _ in 0..5 {
            let got = timed.generate(&mut a, InputVariance::paper());
            let want = bench.generate(&mut b, InputVariance::paper());
            assert_eq!(got, want, "the wrapper must not change a request");
        }
        assert_eq!(timed.name(), "Hash");
        let log = timed.into_log();
        assert_eq!(log.calls, 5);
        assert_eq!(log.captured.len(), 5);
        assert_eq!(
            log.spans.iter().map(|s| s.2).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(log.spans.iter().all(|&(s, e, _)| e >= s));
        assert!(log.ns > 0);
    }
}
