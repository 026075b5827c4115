//! `bcc_bench`: times the base/variant pairs behind the repo's
//! speedup and overhead figures and writes them to `BENCH.json`.
//!
//! [`TABLE`] is the whole configuration; every pair is
//! timed by [`bcc_bench::ratios::measure`]. Run from the workspace
//! root, then gate with `bcc_report --check --bench BENCH.json`:
//!
//! ```text
//! cargo run --release -p bcc-bench --bin bcc_bench [-- OUTPUT.json]
//! ```

use bcc_algorithms::{
    HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast, ParityDecider, Problem, Truncated,
};
use bcc_bench::ratios::{self, measure, Arm, Kind};
use bcc_core::hard::{distributional_error, uniform_two_cycle_distribution, WeightedInstance};
use bcc_core::indist::IndistGraph;
use bcc_engine::artifacts::indist_round_zero;
use bcc_engine::{distributional_error_batched, ArtifactStore};
use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::RunRequest;
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_model::testing::ConstantDecision;
use bcc_model::{Algorithm, TransportSpec};
use bcc_trace::{Collector, TraceLevel};
use std::process::ExitCode;
use std::time::Instant;

/// E2's full-mode round-0 graphs: structure rows n = 6..9, then the census.
const ROUND_ZERO_SIZES: [usize; 5] = [6, 7, 8, 9, 9];

type ErrorFn = fn(&[WeightedInstance], &dyn Algorithm, usize, u64) -> f64;

/// The scalar and the batched distributional-error kernel
/// `(dist, algorithm, t, coin_seed)`.
const ERROR: [ErrorFn; 2] = [distributional_error, distributional_error_batched];

/// E2's round-0 graphs and both error sweeps (t = 1, 2) over its
/// algorithm roster: recomputed and scalar without a `store`, cached
/// and batched with one.
fn e2_workload(dist: &[WeightedInstance], store: Option<&ArtifactStore>) -> (usize, f64) {
    let graph = |n| store.map_or_else(|| IndistGraph::round_zero(n), |s| indist_round_zero(s, n));
    let v2 = ROUND_ZERO_SIZES.iter().map(|&n| graph(n).v2_len()).sum();
    let error = ERROR[usize::from(store.is_some())];
    let sweep = |t| {
        let upgrade = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
        let roster: [Box<dyn Algorithm>; 4] = [
            Box::new(ConstantDecision::yes()),
            Box::new(HashVoteDecider::new(t)),
            Box::new(ParityDecider::new(t)),
            Box::new(Truncated::new(upgrade, t)),
        ];
        let errors = roster.map(|algo| error(dist, algo.as_ref(), t, 0));
        errors.iter().sum::<f64>()
    };
    (v2, sweep(1) + sweep(2))
}

/// A trace level and a metrics level to observe a suite run at.
type Levels = (TraceLevel, MetricsLevel);

/// An arm timing one e2 suite run observed at `levels`. With
/// `telemetry` set, a block starts by setting the worker telemetry
/// knob and warming a freshly installed `sockets:2` transport with one
/// untimed run; otherwise a block's fastest run finds the cache warm.
fn suite(name: &'static str, quick: bool, levels: Levels, telemetry: Option<bool>) -> Arm<'static> {
    let (trace, metrics) = levels;
    let request = move || {
        RunRequest::new(["e2"], quick, DEFAULT_SEED)
            .observed(Collector::new(trace), MetricsHub::new(metrics))
    };
    // "e2" is a registry id; only a broken registry or transport fails.
    let run = |request: RunRequest| request.run().unwrap_or_else(|e| fail(format!("e2: {e:?}")));
    let prepare = move || {
        let knob = if telemetry? { "1" } else { "0" };
        std::env::set_var(bcc_transport::TELEMETRY_ENV, knob);
        Some(run(request().transport(TransportSpec::Sockets(2))))
    };
    Arm::new(name, prepare, move || run(request()))
}

/// Warms `store` with E2's round-0 graphs: a block's untimed step.
fn warm(store: &ArtifactStore) -> impl FnMut() + '_ {
    move || drop(ROUND_ZERO_SIZES.map(|n| indist_round_zero(store, n)))
}

/// One E2 sampling call, scalar against batched.
fn sampling(dist: &[WeightedInstance]) -> [Arm<'_>; 2] {
    let arm = |name, error: ErrorFn| {
        Arm::new(
            name,
            || {},
            move || error(dist, &HashVoteDecider::new(2), 2, 0),
        )
    };
    [arm("scalar", ERROR[0]), arm("batched", ERROR[1])]
}

/// Neither tracing nor metrics.
const OFF: Levels = (TraceLevel::Off, MetricsLevel::Off);

/// The full-mode e2 suite unobserved against observed at `levels`.
fn observed(name: &'static str, levels: Levels) -> [Arm<'static>; 2] {
    [
        suite("off", false, OFF, None),
        suite(name, false, levels, None),
    ]
}

/// Builds a pair's (base, variant) arms over E2's distribution and a
/// store shared by the whole run.
type Arms = for<'a> fn(&'a [WeightedInstance], &'a ArtifactStore) -> [Arm<'a>; 2];

/// The pairs, in run order: name, kind, reps, timed runs per block,
/// arms. `telemetry` goes last because its arms leave `sockets:2`
/// installed.
const TABLE: [(&str, Kind, u64, u64, Arms); 7] = [
    ("e2_workload", Kind::Speedup, 7, 1, |dist, store| {
        [
            Arm::new("scalar", || {}, move || e2_workload(dist, None)),
            Arm::new("batched_warm_cache", warm(store), move || {
                e2_workload(dist, Some(store))
            }),
        ]
    }),
    ("e2_sampling", Kind::Speedup, 21, 5, |dist, _| {
        sampling(dist)
    }),
    ("indist_cache", Kind::Speedup, 15, 3, |_, store| {
        let cold = || indist_round_zero(&ArtifactStore::in_memory(), 8);
        let warm_run = move || indist_round_zero(store, 8);
        [
            Arm::new("cold", || {}, cold),
            Arm::new("warm", warm(store), warm_run),
        ]
    }),
    ("metrics_core", Kind::Overhead, 15, 2, |_, _| {
        observed("core", (TraceLevel::Off, MetricsLevel::Core))
    }),
    ("metrics_full", Kind::Overhead, 15, 2, |_, _| {
        observed("full", (TraceLevel::Off, MetricsLevel::Full))
    }),
    ("profiler", Kind::Overhead, 15, 2, |_, _| {
        observed("costs_core", (TraceLevel::Costs, MetricsLevel::Core))
    }),
    ("telemetry", Kind::Overhead, 21, 5, |_, _| {
        [
            suite("off", true, OFF, Some(false)),
            suite("on", true, OFF, Some(true)),
        ]
    }),
];

/// Stops the recorder: a pair that cannot run cannot be timed.
fn fail(why: String) -> ! {
    eprintln!("bcc_bench: {why}");
    std::process::exit(1)
}

fn main() -> ExitCode {
    // The `sockets:2` arms re-exec this binary as their workers.
    bcc_transport::maybe_run_worker();
    let out_path = std::env::args().nth(1);
    let out_path = out_path.as_deref().unwrap_or("BENCH.json");
    let dist = uniform_two_cycle_distribution(7);
    let store = ArtifactStore::in_memory();
    let mut pairs = Vec::new();
    for (name, kind, reps, runs, arms) in TABLE {
        let start = Instant::now();
        let p = measure(name, kind, reps, runs, arms(&dist, &store));
        let [q1, median, q3] = p.quartiles.map(|x| kind.show(x));
        let secs = start.elapsed().as_secs_f64();
        eprintln!("bcc_bench: {name:<13} {median} [{q1}, {q3}] in {secs:.1} s");
        pairs.push(p);
    }
    if let Err(err) = std::fs::write(out_path, ratios::write(&pairs)) {
        eprintln!("bcc_bench: writing {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("bcc_bench: wrote {out_path}");
    ExitCode::SUCCESS
}
