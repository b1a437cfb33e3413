//! The request tape replays exactly what `generate` draws, under any
//! thread interleaving, and survives a kernel that panics mid-draw.

#![forbid(unsafe_code)]

use pronghorn_jit::{RequestWork, RuntimeKind};
use pronghorn_sim::RngFactory;
use pronghorn_workloads::{
    evaluation_benchmarks, InputVariance, MethodSpec, SpecWorkload, Workload, WorkloadSpec,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

const SEED: u64 = 0x7a9e;
const INDICES: u64 = 300;

/// Every field of a request as bits, so f64s compare exactly.
fn bits(r: &RequestWork) -> Vec<u64> {
    let mut out = vec![
        r.us_per_unit.to_bits(),
        r.io_us.to_bits(),
        r.novelty.to_bits(),
        r.size_factor.to_bits(),
        r.entries.len() as u64,
    ];
    for e in &r.entries {
        out.extend([e.method as u64, e.units.to_bits(), e.calls.to_bits()]);
    }
    out
}

/// What a run drew before the tape: `generate` on the indexed input stream.
fn reference(w: &SpecWorkload, seed: u64, index: u64, v: InputVariance) -> Vec<u64> {
    let mut rng = RngFactory::new(seed).stream_indexed("input", index);
    bits(&w.generate(&mut rng, v))
}

fn variances() -> [InputVariance; 4] {
    [
        InputVariance::none(),
        InputVariance::low(),
        InputVariance::paper(),
        InputVariance::bimodal(),
    ]
}

#[test]
fn taped_requests_equal_generated_ones() {
    for w in evaluation_benchmarks() {
        for v in variances() {
            let want: Vec<Vec<u64>> = (0..INDICES).map(|i| reference(&w, SEED, i, v)).collect();
            // The first pass draws into the tape, the second replays it.
            for pass in 0..2 {
                for (i, want) in (0..INDICES).zip(&want) {
                    let got = bits(&w.request(SEED, i, v));
                    assert_eq!(&got, want, "{} {v:?} index {i} pass {pass}", w.name());
                }
            }
        }
    }
}

#[test]
fn concurrent_shuffled_requests_equal_generated_ones() {
    for w in evaluation_benchmarks() {
        let v = InputVariance::paper();
        let want: Vec<Vec<u64>> = (0..INDICES).map(|i| reference(&w, SEED, i, v)).collect();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (w, want) = (&w, &want);
                scope.spawn(move || {
                    let mut order: Vec<u64> = (0..INDICES).collect();
                    let mut rng = SmallRng::seed_from_u64(t);
                    for k in (1..order.len()).rev() {
                        order.swap(k, rng.gen_range(0..=k));
                    }
                    for i in order {
                        let got = bits(&w.request(SEED, i, v));
                        assert_eq!(got, want[i as usize], "{} index {i}", w.name());
                    }
                });
            }
        });
    }
}

#[test]
fn lockstep_threads_split_a_tape_and_agree() {
    let w = pronghorn_workloads::by_name("MST").expect("bundled benchmark");
    let v = InputVariance::paper();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for i in 0..INDICES {
                    assert_eq!(bits(&w.request(SEED, i, v)), reference(&w, SEED, i, v));
                }
            });
        }
    });
}

/// A toy benchmark whose kernel panics on threads named `panicker`, once
/// `entered` and `go` have been passed (each a two-party barrier shared
/// with the test).
fn panicking_workload(entered: Arc<Barrier>, go: Arc<Barrier>) -> SpecWorkload {
    SpecWorkload::new(WorkloadSpec {
        name: "Panicky",
        kind: RuntimeKind::PyPy,
        lazy_init_us: 1_000.0,
        interp_exec_us: 10_000.0,
        full_speedup: 2.0,
        io_base_us: 500.0,
        io_rel_jitter: 0.1,
        io_stale_sensitivity: 1.0,
        methods: vec![MethodSpec {
            name: "main",
            base_calls: 1.0,
            share: 1.0,
        }],
        kernel: Box::new(move |rng, factor| {
            if std::thread::current().name() == Some("panicker") {
                entered.wait();
                go.wait();
                panic!("kernel failure");
            }
            100.0 * factor + f64::from(rng.next_u32() % 7)
        }),
    })
}

#[test]
fn a_panicking_draw_frees_its_slot_for_a_waiting_thread() {
    const INDEX: u64 = 5;
    let entered = Arc::new(Barrier::new(2));
    let go = Arc::new(Barrier::new(2));
    let w = Arc::new(panicking_workload(Arc::clone(&entered), Arc::clone(&go)));
    let v = InputVariance::paper();
    // Fill the tape up to the failing index so the panicking thread is the
    // one that claims it.
    for i in 0..INDEX {
        w.request(SEED, i, v);
    }
    let panicker = {
        let w = Arc::clone(&w);
        std::thread::Builder::new()
            .name("panicker".into())
            .spawn(move || w.request(SEED, INDEX, v))
            .expect("spawn")
    };
    // The panicker has claimed INDEX and sits inside the kernel.
    entered.wait();
    let (tx, rx) = mpsc::channel();
    let waiter = {
        let w = Arc::clone(&w);
        std::thread::spawn(move || {
            let got = bits(&w.request(SEED, INDEX, v));
            tx.send(got).expect("test is listening");
        })
    };
    // Let the waiter find INDEX claimed (it fills ahead, then waits).
    std::thread::sleep(Duration::from_millis(100));
    go.wait();
    assert!(panicker.join().is_err(), "the kernel panic propagates");
    let got = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the waiting thread must not hang on the abandoned slot");
    waiter
        .join()
        .expect("the waiting thread draws the slot itself");
    assert_eq!(got, reference(&w, SEED, INDEX, v));
    // Everything the waiter filled ahead is a whole draw too.
    for i in 0..INDEX + 70 {
        assert_eq!(bits(&w.request(SEED, i, v)), reference(&w, SEED, i, v));
    }
}

#[test]
fn a_tape_lives_while_a_thread_holds_it() {
    let w = pronghorn_workloads::by_name("Hash").expect("bundled benchmark");
    let v = InputVariance::low();
    assert_eq!(w.live_tapes(), 0);
    for seed in 1..=3 {
        for i in 0..10 {
            w.request(seed, i, v);
        }
        // Moving to another seed frees the tape of the one before.
        assert_eq!(w.live_tapes(), 1, "seed {seed}");
    }
    // A different variance is a different tape.
    w.request(3, 0, InputVariance::paper());
    assert_eq!(w.live_tapes(), 1);
    // Other threads' tapes are freed as the threads exit (their
    // thread-locals are torn down just after a scope joins them).
    std::thread::scope(|scope| {
        for seed in 10..14 {
            let w = &w;
            scope.spawn(move || {
                for i in 0..10 {
                    w.request(seed, i, v);
                }
            });
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while w.live_tapes() != 1 {
        assert!(Instant::now() < deadline, "{} live tapes", w.live_tapes());
        std::thread::sleep(Duration::from_millis(1));
    }
}
