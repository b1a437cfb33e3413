//! The request tape: each paired-seed request drawn once per workload and
//! replayed to every run that asks for it again.
//!
//! Request `i` of a run depends only on `(seed, variance, i)` (it is drawn
//! from [`crate::spec::input_stream`]), and the paper's sweeps replay every
//! seed under several policies or arms. A tape keyed by `(seed, variance)`
//! keeps the random part of each request — a [`Draw`] of three numbers —
//! the first time any run draws it, so the real kernels run once per
//! request rather than once per arm. A tape only ever holds what the
//! kernels returned, so replaying it cannot change a run's output.
//!
//! - **Fill-ahead.** A run whose next index another thread is drawing
//!   draws a later unclaimed index of the same tape instead of waiting, so
//!   two arms running at once split the generation between them.
//! - **Memory.** A tape grows by a chunk of [`GROW`] slots when a run
//!   passes its end, never by doubling. A thread *holds* the tape its
//!   latest request on the workload used, until it requests another key
//!   or exits; a tape no thread holds is freed at once. Arms that share a
//!   seed run as consecutive tasks of a sweep, so once every thread has
//!   moved past a seed no later task asks for it again, and a workload
//!   keeps no idle tape: at most one tape per thread.
//! - **Panics.** A thread whose kernel panics mid-draw hands its claimed
//!   slot back as it unwinds; a thread waiting on that slot then draws it
//!   itself. Slots change state only under the tape's lock, so no reader
//!   sees half a draw.

use crate::input::InputVariance;
use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};

/// The random part of one request: the size factor, the kernel's raw work
/// units and the IO time. Everything else in a request is a pure function
/// of these and the workload's spec.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draw {
    pub(crate) factor: f64,
    pub(crate) raw_units: f64,
    pub(crate) io_us: f64,
}

/// How far past the index it needs a run may draw ahead while another
/// thread draws that index; also how far past a tape's end a request may
/// land and still be taped (a farther one is drawn directly, so a stray
/// index cannot allocate a huge tape).
const FILL_AHEAD: usize = 64;

/// Slots a tape grows by when a run passes its end.
const GROW: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Slot {
    Empty,
    /// A thread is drawing this index.
    Claimed,
    Drawn(Draw),
}

/// A tape's slots, allocated [`GROW`] at a time: a growing tape never
/// copies or doubles its slots.
#[derive(Default)]
struct Slots {
    // Boxed so that growing the chunk list moves pointers, not slots.
    #[allow(clippy::vec_box)]
    chunks: Vec<Box<[Slot; GROW]>>,
}

impl Slots {
    fn len(&self) -> usize {
        self.chunks.len() * GROW
    }

    /// Slot `i`; slots past the end are empty.
    fn get(&self, i: usize) -> Slot {
        self.chunks
            .get(i / GROW)
            .map_or(Slot::Empty, |c| c[i % GROW])
    }

    fn set(&mut self, i: usize, slot: Slot) {
        while self.chunks.len() <= i / GROW {
            self.chunks.push(Box::new([Slot::Empty; GROW]));
        }
        self.chunks[i / GROW][i % GROW] = slot;
    }
}

/// The draws of one `(seed, variance)` input sequence.
struct Tape {
    seed: u64,
    variance: InputVariance,
    slots: Mutex<Slots>,
    /// Signalled whenever a claimed slot is drawn or handed back.
    settled: Condvar,
}

/// Two variances key the same tape only if they are bit-identical.
fn variance_bits(v: InputVariance) -> (u64, Option<u64>) {
    (v.sigma.to_bits(), v.bimodal_spread.map(f64::to_bits))
}

impl Tape {
    fn new(seed: u64, variance: InputVariance) -> Self {
        Tape {
            seed,
            variance,
            slots: Mutex::new(Slots::default()),
            settled: Condvar::new(),
        }
    }

    fn keyed(&self, seed: u64, variance: InputVariance) -> bool {
        self.seed == seed && variance_bits(self.variance) == variance_bits(variance)
    }

    /// Slot state only changes in single assignments under the lock, so a
    /// lock poisoned by a panicking holder still guards consistent slots.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The draw of `index`, drawing it with `draw` unless a run already
    /// has.
    fn get(&self, index: usize, draw: &dyn Fn(u64) -> Draw) -> Draw {
        let mut slots = self.lock();
        if index >= slots.len() + FILL_AHEAD {
            drop(slots);
            return draw(index as u64);
        }
        loop {
            match slots.get(index) {
                Slot::Drawn(d) => return d,
                Slot::Empty => {
                    slots.set(index, Slot::Claimed);
                    drop(slots);
                    return self.fill(index, draw);
                }
                Slot::Claimed => {
                    // Another thread is drawing `index`: draw a later
                    // unclaimed one for whichever run reaches it first.
                    let ahead = (index + 1..=index + FILL_AHEAD)
                        .find(|&j| matches!(slots.get(j), Slot::Empty));
                    match ahead {
                        Some(j) => {
                            slots.set(j, Slot::Claimed);
                            drop(slots);
                            self.fill(j, draw);
                            slots = self.lock();
                        }
                        None => {
                            slots = self
                                .settled
                                .wait(slots)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                }
            }
        }
    }

    /// Draws the slot this thread has claimed and publishes it.
    fn fill(&self, index: usize, draw: &dyn Fn(u64) -> Draw) -> Draw {
        let mut claim = Claim {
            tape: self,
            index,
            draw: None,
        };
        let d = draw(index as u64);
        claim.draw = Some(d);
        d
    }
}

/// A claimed slot. Dropping it publishes the draw, or — when the draw
/// panicked — hands the slot back empty; either way waiters wake.
struct Claim<'t> {
    tape: &'t Tape,
    index: usize,
    draw: Option<Draw>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let slot = self.draw.map_or(Slot::Empty, Slot::Drawn);
        self.tape.lock().set(self.index, slot);
        self.tape.settled.notify_all();
    }
}

/// A workload's tapes, held weakly: a tape lives exactly as long as some
/// thread holds it through [`HELD`].
#[derive(Default)]
struct Shelf {
    tapes: Mutex<Vec<Weak<Tape>>>,
}

impl Shelf {
    /// The shelf is one list, updated in single steps.
    fn lock(&self) -> MutexGuard<'_, Vec<Weak<Tape>>> {
        self.tapes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The live tape for `(seed, variance)`, or a new one.
    fn checkout(&self, seed: u64, variance: InputVariance) -> Arc<Tape> {
        let mut tapes = self.lock();
        tapes.retain(|t| t.strong_count() > 0);
        if let Some(tape) = tapes
            .iter()
            .filter_map(Weak::upgrade)
            .find(|t| t.keyed(seed, variance))
        {
            return tape;
        }
        let tape = Arc::new(Tape::new(seed, variance));
        tapes.push(Arc::downgrade(&tape));
        tape
    }
}

/// One thread's hold on the tape its latest request on a workload used.
struct Hold {
    shelf: Weak<Shelf>,
    tape: Arc<Tape>,
}

thread_local! {
    /// This thread's holds, one per workload it has requested from. A
    /// thread's exit drops them.
    static HELD: RefCell<Vec<Hold>> = const { RefCell::new(Vec::new()) };
}

/// A workload's request tapes (see the module docs).
#[derive(Default)]
pub(crate) struct Tapes {
    shelf: Arc<Shelf>,
}

impl Tapes {
    /// Draw `index` of the `(seed, variance)` sequence: from the tape when
    /// a run has drawn it, else via `draw`, which must be the pure function
    /// of the index that the tape stands in for.
    pub(crate) fn get(
        &self,
        seed: u64,
        index: u64,
        variance: InputVariance,
        draw: &dyn Fn(u64) -> Draw,
    ) -> Draw {
        let (Ok(index), Ok(tape)) = (
            usize::try_from(index),
            HELD.try_with(|h| self.hold(h, seed, variance)),
        ) else {
            // The thread is exiting, or the index does not fit a slot.
            return draw(index);
        };
        tape.get(index, draw)
    }

    /// The tape this thread holds for `(seed, variance)`. A hold on this
    /// workload's tape for another key is dropped first, which frees that
    /// tape if no other thread holds it.
    fn hold(&self, held: &RefCell<Vec<Hold>>, seed: u64, variance: InputVariance) -> Arc<Tape> {
        let mut held = held.borrow_mut();
        // Let go of tapes of dropped workloads.
        held.retain(|h| h.shelf.strong_count() > 0);
        let mine = held
            .iter()
            .position(|h| h.shelf.as_ptr() == Arc::as_ptr(&self.shelf));
        if let Some(i) = mine {
            if held[i].tape.keyed(seed, variance) {
                return Arc::clone(&held[i].tape);
            }
            held.swap_remove(i);
        }
        let tape = self.shelf.checkout(seed, variance);
        held.push(Hold {
            shelf: Arc::downgrade(&self.shelf),
            tape: Arc::clone(&tape),
        });
        tape
    }

    /// Tapes alive: each is held by at least one thread.
    pub(crate) fn live(&self) -> usize {
        self.shelf
            .lock()
            .iter()
            .filter(|t| t.strong_count() > 0)
            .count()
    }
}
