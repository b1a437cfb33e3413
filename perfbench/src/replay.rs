//! Host replays of single layers on inputs the workload produced.
//!
//! The traced run times `workloads.generate` inside the real run; every
//! other layer's host cost is estimated by replaying that layer's public
//! calls on the workload's own inputs: the requests it generated, runtimes
//! warmed on them, and its arrival schedule. A replay is not an in-run
//! measurement and is never reported as one.
//!
//! No replay may time a no-op: every call's result is consumed and
//! checked (an encode must round-trip through restore and `from_bytes`, a
//! diff must `apply` back to its child, a `get` must return what was
//! `put`), and throughput is computed from the bytes actually touched.

use bytes::Bytes;
use pronghorn_checkpoint::delta::{apply, diff_payload};
use pronghorn_checkpoint::{
    Checkpointable, SimCriuEngine, Snapshot, SnapshotDelta, SnapshotMeta, PAYLOAD_DIFF_PAGE_SIZE,
};
use pronghorn_cluster::HashRing;
use pronghorn_forecast::{ProvisionPolicy, Provisioner};
use pronghorn_jit::{MethodProfile, RequestWork, Runtime};
use pronghorn_sim::{Kernel, KernelKind, SimTime};
use pronghorn_store::{ObjectStore, StoragePolicy, StorageTier, TransferModel};
use pronghorn_workloads::{SpecWorkload, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Minimum executes the JIT replay times, across benchmarks.
const JIT_CALLS: usize = 40_000;
/// Rounds each checkpoint/store replay repeats its inputs.
const ROUNDS: usize = 20;
/// Arrivals the kernel, trace and forecast replays use at most.
const MAX_ARRIVALS: usize = 400_000;

/// A timed host replay of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Calls timed.
    pub calls: u64,
    /// Host ns the calls took.
    pub ns: u64,
    /// Bytes the calls actually read or wrote (0 where bytes do not apply).
    pub bytes: u64,
}

impl Timing {
    /// Host ns per call.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    /// Throughput over the bytes touched, MB/s (10^6 bytes).
    pub fn mb_per_s(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / (self.ns as f64 / 1e9)
        }
    }

    /// Calls per host second.
    pub fn per_s(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.calls as f64 / (self.ns as f64 / 1e9)
        }
    }
}

fn timed<T>(t: &mut Timing, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    t.ns += start.elapsed().as_nanos() as u64;
    t.calls += 1;
    out
}

/// Runtimes warmed on a benchmark's captured requests, at increasing
/// request counts (the states a checkpoint would capture).
pub struct Warmed {
    /// Benchmark name.
    pub name: String,
    /// Runtime snapshots in lineage order.
    pub states: Vec<Runtime>,
}

/// JIT replay: cold-starts each benchmark's runtime and executes its
/// captured requests round-robin. Returns the timing and, per benchmark,
/// runtime states along the way for the checkpoint replay.
pub fn jit(
    benches: &[SpecWorkload],
    profiles: &[Vec<MethodProfile>],
    captured: &[(usize, Vec<RequestWork>)],
) -> Result<(Timing, Vec<Warmed>), String> {
    let mut t = Timing::default();
    let mut warmed = Vec::new();
    let with_requests: Vec<_> = captured.iter().filter(|(_, r)| !r.is_empty()).collect();
    if with_requests.is_empty() {
        return Ok((t, warmed));
    }
    let per_bench = JIT_CALLS.div_ceil(with_requests.len());
    for (b, requests) in with_requests {
        let w = &benches[*b];
        let mut rng = SmallRng::seed_from_u64(0x6a17 ^ *b as u64);
        let (mut rt, _) = Runtime::cold_start(w.runtime_profile(), profiles[*b].clone(), &mut rng);
        let mut states = Vec::new();
        let keep_at = [1, 10, 100, per_bench / 2, per_bench];
        let mut total_us = 0.0;
        for i in 0..per_bench {
            let work = &requests[i % requests.len()];
            let out = timed(&mut t, || rt.execute(work, &mut rng));
            let us = out.total_us();
            if !(us.is_finite() && us > 0.0) {
                return Err(format!("jit: {} request {i} took {us} µs", w.name()));
            }
            total_us += us;
            if keep_at.contains(&(i + 1)) {
                states.push(rt.clone());
            }
        }
        black_box(total_us);
        warmed.push(Warmed {
            name: w.name().to_string(),
            states,
        });
    }
    Ok((t, warmed))
}

/// Checkpoint replays: `(encode, restore, diff)`.
pub struct CheckpointTimings {
    /// `SimCriuEngine::checkpoint` over warmed runtimes.
    pub encode: Timing,
    /// `SimCriuEngine::restore` of those snapshots.
    pub restore: Timing,
    /// `diff_payload` between consecutive states of one lineage.
    pub diff: Timing,
    /// One snapshot per warmed state (inputs for the store replay).
    pub snapshots: Vec<Snapshot>,
}

/// Encodes, restores and diffs the warmed runtimes. Every encode is
/// checked to round-trip through `to_bytes`/`from_bytes` and restore to an
/// equal runtime; every diff must `apply` back to its child.
pub fn checkpoint(warmed: &[Warmed]) -> Result<CheckpointTimings, String> {
    let engine = SimCriuEngine::new();
    let mut rng = SmallRng::seed_from_u64(0xc4e7);
    let mut encode = Timing::default();
    let mut restore = Timing::default();
    let mut diff = Timing::default();
    let mut snapshots = Vec::new();
    for w in warmed {
        let mut lineage: Vec<Snapshot> = Vec::new();
        for (k, rt) in w.states.iter().enumerate() {
            let meta = SnapshotMeta {
                function: w.name.clone(),
                request_number: k as u32,
                runtime: format!("{:?}", rt.kind()),
            };
            let mut snap = None;
            for _ in 0..ROUNDS {
                let (s, _) = timed(&mut encode, || {
                    engine.checkpoint(&mut rng, rt, meta.clone())
                });
                encode.bytes += s.payload.len() as u64;
                snap = Some(s);
            }
            let snap = snap.expect("ROUNDS > 0");
            let wire = Snapshot::from_bytes(&snap.to_bytes())
                .map_err(|e| format!("checkpoint: {} from_bytes: {e}", w.name))?;
            if wire != snap {
                return Err(format!(
                    "checkpoint: {} transport round-trip differs",
                    w.name
                ));
            }
            for _ in 0..ROUNDS {
                let back: Runtime = timed(&mut restore, || engine.restore(&mut rng, &wire))
                    .map_err(|e| format!("checkpoint: {} restore: {e}", w.name))?
                    .0;
                restore.bytes += wire.payload.len() as u64;
                if &back != rt {
                    return Err(format!("checkpoint: {} restored runtime differs", w.name));
                }
            }
            lineage.push(snap);
        }
        for pair in lineage.windows(2) {
            let (parent, child) = (&pair[0], &pair[1]);
            let mut pages = Vec::new();
            for _ in 0..ROUNDS {
                pages = timed(&mut diff, || {
                    diff_payload(&parent.payload, &child.payload, PAYLOAD_DIFF_PAGE_SIZE)
                });
                diff.bytes += (parent.payload.len() + child.payload.len()) as u64;
            }
            let delta = SnapshotDelta {
                parent: parent.id,
                parent_payload_hash: parent.payload_hash(),
                page_size: PAYLOAD_DIFF_PAGE_SIZE,
                total_len: child.payload.len() as u64,
                pages,
                dirty_nominal_bytes: 0,
            };
            let composed = apply(&parent.payload, &delta)
                .map_err(|e| format!("checkpoint: {} apply: {e}", w.name))?;
            if composed != child.payload {
                return Err(format!("checkpoint: {} diff does not apply back", w.name));
            }
        }
        snapshots.extend(lineage);
    }
    // A runtime's modeled image is what the engine prices; a zero would
    // mean the replay never saw a real process.
    if snapshots
        .iter()
        .any(|s| s.nominal_size == 0 || s.payload.is_empty())
    {
        return Err("checkpoint: empty snapshot".into());
    }
    Ok(CheckpointTimings {
        encode,
        restore,
        diff,
        snapshots,
    })
}

/// Object-store replay: `put` then `get` of every snapshot's transport
/// bytes, into a fresh store per round (so no round is served by dedup).
pub fn store(snapshots: &[Snapshot]) -> Result<(Timing, Timing), String> {
    let mut put = Timing::default();
    let mut get = Timing::default();
    let blobs: Vec<Bytes> = snapshots.iter().map(Snapshot::to_bytes).collect();
    for _ in 0..ROUNDS {
        let store = ObjectStore::new();
        for (i, blob) in blobs.iter().enumerate() {
            let key = format!("snap-{i}");
            timed(&mut put, || store.put("perfbench", &key, blob.clone()))
                .map_err(|e| format!("store: put: {e}"))?;
            put.bytes += blob.len() as u64;
        }
        for (i, blob) in blobs.iter().enumerate() {
            let key = format!("snap-{i}");
            let back = timed(&mut get, || store.get("perfbench", &key))
                .map_err(|e| format!("store: get: {e}"))?;
            get.bytes += back.len() as u64;
            if &back != blob {
                return Err(format!("store: get {key} returned other bytes"));
            }
        }
    }
    Ok((put, get))
}

/// Storage-tier replay: reads every snapshot (by id and nominal size)
/// through the configured tier, admitting misses, several rounds so the
/// cache serves hits. Checks the tier's own hit/miss ledger against the
/// reads made.
pub fn tier(policy: StoragePolicy, snapshots: &[Snapshot]) -> Result<Timing, String> {
    let mut t = Timing::default();
    let mut tier = StorageTier::new(policy, TransferModel::default());
    let mut billed = 0u64;
    for _ in 0..ROUNDS {
        for s in snapshots {
            let (id, nominal, seed) = (s.id.0, s.nominal_size, s.payload_hash());
            let price = timed(&mut t, || {
                let price = tier.read(id, nominal, seed);
                if !price.hit {
                    tier.admit(id, nominal, 1.0, &[]);
                }
                price
            });
            t.bytes += nominal;
            billed += price.billed_bytes;
            if price.billed_bytes == 0 {
                return Err(format!("tier: read of {nominal} B billed nothing"));
            }
        }
    }
    let stats = tier.stats();
    if stats.cache_hits + stats.cache_misses != t.calls {
        return Err(format!(
            "tier: {} hits + {} misses != {} reads",
            stats.cache_hits, stats.cache_misses, t.calls
        ));
    }
    black_box(billed);
    Ok(t)
}

/// Kernel replay: schedules the workload's arrivals into the configured
/// kernel with the runner's lookahead (1 for self-scheduling closed loops,
/// a window for streams) and pops them all. Returns the timing (one call
/// = one schedule + one pop) and the peak pending events.
pub fn kernel(
    kind: KernelKind,
    arrivals: &[SimTime],
    lookahead: usize,
) -> Result<(Timing, usize), String> {
    let mut t = Timing::default();
    let mut k: Kernel<u64> = Kernel::new(kind);
    let mut next = 0usize;
    let mut popped = 0usize;
    let mut last = SimTime::ZERO;
    let mut peak = 0usize;
    let start = Instant::now();
    loop {
        while k.len() < lookahead.max(1) && next < arrivals.len() {
            k.schedule(arrivals[next], next as u64);
            next += 1;
        }
        peak = peak.max(k.len());
        let Some((at, i)) = k.pop() else { break };
        if at < last || arrivals[i as usize] != at {
            return Err(format!("kernel: event {i} popped out of order"));
        }
        last = at;
        popped += 1;
    }
    t.ns = start.elapsed().as_nanos() as u64;
    t.calls = popped as u64;
    if popped != arrivals.len() {
        return Err(format!(
            "kernel: popped {popped} of {} events",
            arrivals.len()
        ));
    }
    Ok((t, peak))
}

/// Arrival-stream replay: iterates a stream (at most [`MAX_ARRIVALS`]),
/// checking arrivals are non-decreasing. Returns the timing and the
/// arrivals (the kernel and forecast replays' input).
pub fn arrivals(stream: impl Iterator<Item = SimTime>) -> Result<(Timing, Vec<SimTime>), String> {
    let mut out = Vec::with_capacity(MAX_ARRIVALS.min(1 << 16));
    let start = Instant::now();
    for at in stream.take(MAX_ARRIVALS) {
        out.push(at);
    }
    let t = Timing {
        calls: out.len() as u64,
        ns: start.elapsed().as_nanos() as u64,
        bytes: 0,
    };
    if out.windows(2).any(|w| w[1] < w[0]) {
        return Err("traces: arrivals go back in time".into());
    }
    if out.is_empty() {
        return Err("traces: empty stream".into());
    }
    Ok((t, out))
}

/// Gateway replay: routes each benchmark name through a ring of `nodes`,
/// checking the route is the ring owner.
pub fn route(nodes: u32, names: &[&str]) -> Result<Timing, String> {
    let ring = HashRing::new(nodes);
    let owners: Vec<u32> = names
        .iter()
        .map(|n| ring.successors(HashRing::key_of(n))[0])
        .collect();
    let mut t = Timing::default();
    for _ in 0..2_000 {
        for (name, owner) in names.iter().zip(&owners) {
            let node = timed(&mut t, || ring.route(black_box(name)));
            if node != *owner || node >= nodes {
                return Err(format!("cluster: {name} routed to {node}, owner {owner}"));
            }
        }
    }
    Ok(t)
}

/// Forecast replay: feeds the arrivals to a fresh provisioner and plans a
/// pre-restore after each, checking plans are strictly in the future.
pub fn plan(
    policy: ProvisionPolicy,
    arrivals: &[SimTime],
    image_bytes: u64,
) -> Result<(Timing, u64), String> {
    let mut p = Provisioner::new(policy).ok_or("forecast: provisioning is disabled")?;
    let mut t = Timing::default();
    let mut plans = 0u64;
    for &now in arrivals {
        let planned = timed(&mut t, || {
            p.observe(now);
            p.plan(now, image_bytes)
        });
        if let Some(plan) = planned {
            if plan.at <= now {
                return Err("forecast: plan is not in the future".into());
            }
            plans += 1;
        }
    }
    Ok((t, plans))
}

/// The modeled image size of a warmed runtime (the forecast replay's
/// keep-alive cost input).
pub fn image_bytes(warmed: &[Warmed]) -> u64 {
    warmed
        .iter()
        .filter_map(|w| w.states.last())
        .map(Checkpointable::image_size_bytes)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_sim::SimDuration;
    use pronghorn_workloads::InputVariance;

    fn captured(bench: &SpecWorkload, n: usize) -> Vec<RequestWork> {
        let mut rng = SmallRng::seed_from_u64(1);
        (0..n)
            .map(|_| bench.generate(&mut rng, InputVariance::paper()))
            .collect()
    }

    #[test]
    fn replays_touch_real_bytes_and_verify() {
        let benches = vec![pronghorn_workloads::by_name("Hash").unwrap()];
        let cap = vec![(0usize, captured(&benches[0], 16))];
        let profiles = vec![benches[0].method_profiles()];
        let (jt, warmed) = jit(&benches, &profiles, &cap).unwrap();
        assert!(jt.calls >= JIT_CALLS as u64 && jt.ns > 0);
        assert_eq!(warmed[0].states.len(), 5);
        let ck = checkpoint(&warmed).unwrap();
        // Bytes counted are payload bytes actually encoded and decoded.
        let payload: u64 = ck.snapshots.iter().map(|s| s.payload.len() as u64).sum();
        assert_eq!(ck.encode.bytes, payload * ROUNDS as u64);
        assert_eq!(ck.restore.bytes, payload * ROUNDS as u64);
        assert!(ck.diff.bytes > 0 && ck.diff.calls > 0);
        let (put, get) = store(&ck.snapshots).unwrap();
        assert_eq!(put.calls, get.calls);
        assert_eq!(put.bytes, get.bytes);
        let tt = tier(StoragePolicy::disabled().with_cache(), &ck.snapshots).unwrap();
        assert_eq!(tt.calls, (ROUNDS * ck.snapshots.len()) as u64);
    }

    #[test]
    fn kernel_replay_pops_everything_in_order_on_both_kernels() {
        let arrivals: Vec<SimTime> = (0..5_000u64)
            .map(|i| SimTime::ZERO + SimDuration::from_micros(i * 7))
            .collect();
        for kind in [KernelKind::BinaryHeap, KernelKind::TimerWheel] {
            let (t, peak) = kernel(kind, &arrivals, 64).unwrap();
            assert_eq!(t.calls, 5_000);
            assert_eq!(peak, 64);
            let (_, peak) = kernel(kind, &arrivals, 1).unwrap();
            assert_eq!(peak, 1);
        }
    }

    #[test]
    fn route_and_plan_replays_check_their_results() {
        let t = route(4, &["BFS", "Hash"]).unwrap();
        assert_eq!(t.calls, 4_000);
        let arrivals: Vec<SimTime> = (0..600u64)
            .map(|s| SimTime::ZERO + SimDuration::from_secs(s * 10))
            .collect();
        let policy = ProvisionPolicy::predictive(pronghorn_forecast::ForecasterKind::Ewma);
        let (t, plans) = plan(policy, &arrivals, 1 << 20).unwrap();
        assert_eq!(t.calls, 600);
        assert!(plans > 0, "steady 10 s traffic fits the horizon");
        assert!(plan(ProvisionPolicy::Disabled, &arrivals, 0).is_err());
    }
}
