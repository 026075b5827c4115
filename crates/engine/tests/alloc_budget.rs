//! Allocation budget of the round loop and of a run's set-up: once a
//! run is set up, a round allocates nothing, on the batched kernel and
//! on the scalar driver, and the inline `Message` forms never touch the
//! heap. Set-up is pinned per run: a warm instance hands out initial
//! knowledge without allocating, a warm batch and a warm scalar run
//! with lent buffers allocate an exact count, and a sweep's later
//! chunks or runs reuse the first one's outbox and board, and a later
//! chunk its lanes' programs too.
//! Unobserved configurations are free to build and clone.
//!
//! A counting global allocator tallies allocations per thread, so
//! tests running in parallel in this binary cannot disturb each
//! other's counts.

use bcc_algorithms::{HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast, Problem, Truncated};
use bcc_comm::driver::DriverOpts;
use bcc_comm::reduction::Gadget;
use bcc_core::hard::{distributional_error, WeightedInstance};
use bcc_engine::{simulate_two_party_batched, BatchRun, Lane, MAX_LANES};
use bcc_graphs::generators;
use bcc_model::{Algorithm, Decision, Instance, Message, RoundBuffers, SimConfig, Symbol};
use bcc_partitions::SetPartition;
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

/// Allocations of a warm `HashVoteDecider` batch with recording off,
/// per lane: the program vector and the 7 boxed programs (8), and the
/// outcome's decision, label and spanning-edge vectors (3). A lane's
/// inboxes are views of the board and allocate nothing.
const BATCH_PER_LANE: u64 = 11;
/// The same batch's allocations per batch: the transport, the lane
/// vector, the outbox, the board and the outcome vector.
const BATCH_FIXED: u64 = 5;

#[test]
fn initial_knowledge_on_a_warm_instance_allocates_nothing() {
    for instance in [
        Instance::new_kt0(generators::two_cycles(3, 4), 9).expect("valid"),
        Instance::new_kt1(generators::two_cycles(3, 4)).expect("valid"),
    ] {
        assert_eq!(instance.num_vertices(), 7);
        let _ = instance.initial_knowledge(0, 1, 0);
        let (knowledge, count) =
            allocations(|| std::array::from_fn::<_, 7, _>(|v| instance.initial_knowledge(v, 1, 5)));
        assert_eq!(count, 0, "{:?} knowledge allocated", instance.mode());
        assert!(knowledge.iter().all(|k| k.coin_seed == 5 && k.n == 7));
    }
}

#[test]
fn warm_batch_allocates_a_pinned_count_per_lane() {
    let instances = lanes_instances();
    let batch = BatchRun::new(SimConfig::bcc1(2).transcripts(false));
    for l in [1, MAX_LANES] {
        let lanes: Vec<Lane<'_>> = instances[..l].iter().map(|i| (i, 5)).collect();
        // Warm-up: the instances derive their start tables here.
        batch.run(&lanes, &HashVoteDecider::new(2));
        let (outcomes, count) = allocations(|| batch.run(&lanes, &HashVoteDecider::new(2)));
        assert!(outcomes.iter().all(|o| o.stats().rounds == 2));
        assert_eq!(
            count,
            BATCH_FIXED + l as u64 * BATCH_PER_LANE,
            "a warm {l}-lane batch"
        );
    }
}

#[test]
fn second_chunk_reuses_the_first_chunks_buffers() {
    let instances = lanes_instances();
    let lanes: Vec<Lane<'_>> = instances.iter().chain(&instances).map(|i| (i, 5)).collect();
    let batch = BatchRun::new(SimConfig::bcc1(2).transcripts(false));
    let algorithm = HashVoteDecider::new(2);
    batch.run(&lanes[..MAX_LANES], &algorithm);
    let (_, one) = allocations(|| batch.run(&lanes[..MAX_LANES], &algorithm));
    let (outcomes, two) = allocations(|| batch.run(&lanes, &algorithm));
    assert_eq!(outcomes.len(), 2 * MAX_LANES);
    // The second chunk refills the first one's outbox and board and
    // respawns its lanes' runs, resetting their programs: it costs a
    // pooled sweep chunk and each lane's three outcome vectors.
    assert_eq!(two - one, SWEEP_CHUNK + MAX_LANES as u64 * 3);
}

/// Allocations of a warm scalar `HashVoteDecider` run with recording
/// off and borrowed round buffers: the transport box, the program
/// vector and the 7 boxed programs, and the outcome's decision, label
/// and spanning-edge vectors.
const SCALAR_LENT: u64 = 12;

#[test]
fn lent_scalar_run_allocates_a_pinned_count() {
    let instance = Instance::new_kt0(generators::two_cycles(3, 4), 9).expect("valid");
    let cfg = SimConfig::bcc1(2).transcripts(false);
    let algorithm = HashVoteDecider::new(2);
    let mut buffers = RoundBuffers::default();
    cfg.run_with(&instance, &algorithm, 5, &mut buffers);
    let (outcome, lent) = allocations(|| cfg.run_with(&instance, &algorithm, 5, &mut buffers));
    assert_eq!(outcome.stats().rounds, 2);
    assert_eq!(lent, SCALAR_LENT);
    // A run with fresh buffers also allocates the outbox and the
    // board.
    let (_, fresh) = allocations(|| cfg.run(&instance, &algorithm, 5));
    assert_eq!(fresh - lent, 2);
}

#[test]
fn scalar_sweep_lends_its_buffers_to_every_run() {
    let dist: Vec<WeightedInstance> = lanes_instances()
        .into_iter()
        .take(3)
        .map(|instance| WeightedInstance {
            instance,
            is_one_cycle: false,
            weight: 1.0 / 3.0,
        })
        .collect();
    let algorithm = HashVoteDecider::new(2);
    distributional_error(&dist, &algorithm, 2, 5);
    let (_, two) = allocations(|| distributional_error(&dist[..2], &algorithm, 2, 5));
    let (_, three) = allocations(|| distributional_error(&dist, &algorithm, 2, 5));
    // The third run refills the buffers the first run allocated.
    assert_eq!(three - two, SCALAR_LENT);
}

/// Allocations of a warm chunk of a pooled
/// `BatchRun::distributional_error` sweep, whatever its lane count:
/// the transport. Its lanes are respawned from the sweep's pool and
/// read the shared board, so a lane allocates nothing: its programs'
/// resets borrow their knowledge and reuse their buffers.
const SWEEP_CHUNK: u64 = 1;

#[test]
fn pooled_sweep_chunk_allocates_a_pinned_count() {
    let dist: Vec<WeightedInstance> = lanes_instances()
        .into_iter()
        .map(|instance| WeightedInstance {
            instance,
            is_one_cycle: false,
            weight: 1.0 / 64.0,
        })
        .collect();
    // Two full chunks, and a full chunk followed by a 1-lane one.
    let two: Vec<WeightedInstance> = dist.iter().chain(&dist).cloned().collect();
    let one_more: Vec<WeightedInstance> = dist.iter().chain(&dist[..1]).cloned().collect();
    let batch = BatchRun::new(SimConfig::bcc1(2).transcripts(false));
    // The cheapest roster program, and the heaviest: the KT-0 upgrade
    // of E2's roster, whose ID prologue outlasts the two rounds.
    let hash_vote = HashVoteDecider::new(2);
    let upgrade = Truncated::new(
        Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
        2,
    );
    let algorithms: [&dyn Algorithm; 2] = [&hash_vote, &upgrade];
    for algorithm in algorithms {
        // Warm-up: every instance derives its start table and plan
        // here.
        for sweep in [&dist, &two, &one_more] {
            batch.distributional_error(sweep, algorithm, 5);
        }
        let (_, first) = allocations(|| batch.distributional_error(&dist, algorithm, 5));
        let (_, full) = allocations(|| batch.distributional_error(&two, algorithm, 5));
        let (_, single) = allocations(|| batch.distributional_error(&one_more, algorithm, 5));
        let name = algorithm.name();
        assert_eq!(full - first, SWEEP_CHUNK, "a warm 64-lane {name} chunk");
        assert_eq!(single - first, SWEEP_CHUNK, "a warm 1-lane {name} chunk");
    }
}

/// Allocations of one warm two-party operation: 8 pairs of perfect
/// matchings on 12 points, each simulated as a 24-vertex KT-1 run of
/// `NeighborIdBroadcast(MultiCycle)` on the 2-regular gadget, from
/// the partitions to the reports. Each of the 192 programs fills one
/// bit-stream buffer and a degree table, and at the end joins the
/// learned edges in one union-find and counts its components. The
/// programs read the board through their plans, so a round allocates
/// no inbox.
const TWO_PARTY_OP: u64 = 3_609;

/// The `r`-th perfect matching of `0..12` by the circle method: 11 of
/// them, pairwise edge-disjoint.
fn round_robin_matching(r: usize) -> SetPartition {
    let blocks: Vec<Vec<usize>> = std::iter::once(vec![11, r % 11])
        .chain((1..6).map(|k| vec![(r + k) % 11, (r + 11 - k) % 11]))
        .collect();
    SetPartition::from_blocks(12, &blocks).expect("a perfect matching")
}

#[test]
fn warm_two_party_op_allocates_a_pinned_count() {
    let pairs: Vec<(SetPartition, SetPartition)> = (1..9)
        .map(|r| (round_robin_matching(0), round_robin_matching(r)))
        .collect();
    let algorithm = NeighborIdBroadcast::new(Problem::MultiCycle);
    let op = || simulate_two_party_batched(Gadget::TwoRegular, &algorithm, &pairs, 31, 200);
    op().expect("valid gadgets");
    let (reports, count) = allocations(op);
    let reports = reports.expect("valid gadgets");
    assert_eq!(reports.len(), 8);
    assert!(reports
        .iter()
        .all(|r| r.decisions.len() == 24 && r.decisions.iter().all(|&d| d != Decision::Undecided)));
    assert_eq!(count, TWO_PARTY_OP, "a warm two-party op");
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
