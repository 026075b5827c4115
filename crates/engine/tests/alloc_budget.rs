//! Allocation budget of the round loop: once a run is set up, a round
//! allocates nothing, on the batched kernel and on the scalar driver,
//! and the inline `Message` forms never touch the heap. Unobserved
//! configurations are free to build and clone.
//!
//! A counting global allocator tallies allocations per thread, so
//! tests running in parallel in this binary cannot disturb each
//! other's counts.

use bcc_algorithms::HashVoteDecider;
use bcc_comm::driver::DriverOpts;
use bcc_engine::{BatchRun, Lane, MAX_LANES};
use bcc_graphs::generators;
use bcc_model::{Instance, Message, SimConfig, Symbol};
use bcc_trace::Observer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A `const` thread-local `Cell` has no destructor and never
    // allocates, so reading it from inside the allocator cannot
    // recurse; `try_with` only fails during thread teardown, when the
    // allocation simply goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the count
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // got them from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // got them from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations this thread
/// made meanwhile.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// 64 KT-0 lanes of the 7-vertex two-cycle input, distinct wirings.
fn lanes_instances() -> Vec<Instance> {
    (0..MAX_LANES as u64)
        .map(|seed| Instance::new_kt0(generators::two_cycles(3, 4), seed).expect("valid"))
        .collect()
}

#[test]
fn batched_rounds_allocate_nothing() {
    let instances = lanes_instances();
    let lanes: Vec<Lane<'_>> = instances.iter().map(|i| (i, 5)).collect();
    let run = |t: usize| {
        let cfg = SimConfig::bcc1(t).transcripts(false);
        let outcomes = BatchRun::new(cfg).run(&lanes, &HashVoteDecider::new(t));
        assert!(outcomes.iter().all(|o| o.stats().rounds == t));
    };
    // Warm-up: process-wide lazy state is built once, outside the
    // measured runs.
    run(2);
    let ((), two) = allocations(|| run(2));
    let ((), three) = allocations(|| run(3));
    assert!(two > 0, "the counting allocator saw nothing");
    assert_eq!(
        three,
        two,
        "a third round allocated {} times over 64 lanes",
        three as i64 - two as i64
    );
}

#[test]
fn scalar_rounds_allocate_nothing() {
    let instance = Instance::new_kt0(generators::two_cycles(3, 4), 9).expect("valid");
    let run = |t: usize| {
        let cfg = SimConfig::bcc1(t).transcripts(false);
        let outcome = cfg.run(&instance, &HashVoteDecider::new(t), 5);
        assert_eq!(outcome.stats().rounds, t);
    };
    run(2);
    let ((), two) = allocations(|| run(2));
    let ((), three) = allocations(|| run(3));
    assert_eq!(three, two, "a scalar round allocated");
}

#[test]
fn inline_messages_allocate_nothing() {
    let (messages, count) = allocations(|| {
        let single = Message::single(Symbol::One);
        let bits = Message::from_bits(u64::MAX - 5, 64);
        let copy = bits.clone();
        let padded = single.clone().normalized(64);
        [single, bits, copy, padded]
    });
    assert_eq!(count, 0);
    assert_eq!(messages[1], messages[2]);
    assert_eq!(messages[3].len(), 64);
    assert_eq!(messages[3].bits_used(), 1);
}

#[test]
fn unobserved_configs_allocate_nothing() {
    let (configs, count) = allocations(|| {
        let observer = Observer::off();
        let sim = SimConfig::bcc1(3);
        let opts = DriverOpts::new(8);
        let clones = (observer.clone(), sim.clone(), opts.clone());
        (observer, sim, opts, clones)
    });
    assert_eq!(
        count, 0,
        "an off observer or an unobserved config allocated"
    );
    assert_eq!(configs.1.max_rounds(), 3);
    assert_eq!(configs.2.max_messages(), 8);
}
