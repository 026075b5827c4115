//! Records the metrics-layer overhead baseline as `BENCH_PR5.json`.
//!
//! Times the PR4 headline workload — the full-mode E2 suite
//! (`RunRequest::new(["e2"])`, warm artifact cache, one worker) — with the
//! workload-metrics layer off, at `core`, and at `full`, and records
//!
//! * `overhead_pct`: the relative cost of `--metrics-level core`
//!   against the metrics-off run (budget: ≤ 2%, checked by
//!   `bcc-report --check`);
//! * the per-call cost of the disabled fast path (a level check on a
//!   shared scope), demonstrating that off-mode instrumentation is
//!   unmeasurable;
//! * the artifact-cache hit-rate counters for the steady-state run.
//!
//! Run in release mode from the workspace root:
//!
//! ```text
//! cargo run --release -p bcc-bench --bin bench_pr5 [-- OUTPUT.json]
//! ```

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{cache, RunRequest, SuiteRun};
use bcc_metrics::{MetricScope, MetricsHub, MetricsLevel};
use bcc_trace::Collector;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const REPS: usize = 3;
const FAST_PATH_OPS: u64 = 10_000_000;

/// Best-of-`reps` wall time for `f`, in nanoseconds.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_nanos());
    }
    best.max(1)
}

/// One full-mode E2 suite run at the given metrics level; returns the
/// number of reports so the result is observably used.
fn e2_suite(level: MetricsLevel) -> usize {
    e2_run(level).reports.len()
}

/// One full-mode E2 run metered at `level`.
fn e2_run(level: MetricsLevel) -> SuiteRun {
    let request = RunRequest::new(["e2"], false, DEFAULT_SEED)
        .observed(Collector::disabled(), MetricsHub::new(level));
    match request.run() {
        Ok(run) => run,
        // "e2" is a registry id; the only failure mode is a broken
        // registry, which the recorder cannot meaningfully time.
        Err(e) => {
            eprintln!("error: e2 suite failed: {e:?}");
            std::process::exit(1);
        }
    }
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR5.json".to_string());

    // Warm the process-wide artifact cache so every timed run sees the
    // suite's steady state (the same regime PR4 recorded).
    e2_suite(MetricsLevel::Off);

    let off_ns = best_of(REPS, || e2_suite(MetricsLevel::Off));
    let core_ns = best_of(REPS, || e2_suite(MetricsLevel::Core));
    let full_ns = best_of(REPS, || e2_suite(MetricsLevel::Full));
    // Best-of timing still jitters by fractions of a percent; clamp so
    // a lucky core run doesn't record a negative overhead.
    let overhead_pct = ((core_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0).max(0.0);
    let full_overhead_pct = ((full_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0).max(0.0);

    // The off-mode fast path: every instrumentation site is guarded by
    // a level check on a shared scope, so metrics-off cost is one
    // branch per site.
    let scope = MetricScope::disabled();
    let fast_path_ns = best_of(3, || {
        let mut live = 0u64;
        for i in 0..FAST_PATH_OPS {
            if black_box(&scope).core_enabled() {
                live += i;
            }
        }
        live
    });
    let fast_path_ns_per_op = fast_path_ns as f64 / FAST_PATH_OPS as f64;

    // Cache hit rate over one steady-state metered run, plus the
    // deterministic lookup counter from its dump.
    let store = cache::store();
    let (h0, m0) = (store.hits(), store.misses());
    let run = e2_run(MetricsLevel::Core);
    let (hits, misses) = (store.hits() - h0, store.misses() - m0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let lookups = run.workload.counter("cache.lookups").unwrap_or(0);
    let dump_units = run.workload.units();
    let dump_counters = run.workload.counters().len();

    let json = format!(
        "{{\n  \"bench\": \"metrics-layer overhead (PR5)\",\n  \
         \"e2_suite_metrics\": {{\n    \
         \"workload\": \"RunRequest::new([\\\"e2\\\"]) full mode, warm cache, 1 worker\",\n    \
         \"reps\": {REPS},\n    \"off_ns\": {off_ns},\n    \"core_ns\": {core_ns},\n    \
         \"full_ns\": {full_ns},\n    \"overhead_pct\": {overhead_pct:.2},\n    \
         \"full_overhead_pct\": {full_overhead_pct:.2}\n  }},\n  \
         \"metrics_off_fast_path\": {{\n    \"ops\": {FAST_PATH_OPS},\n    \
         \"ns_per_op\": {fast_path_ns_per_op:.3}\n  }},\n  \
         \"cache_hit_rate\": {{\n    \"lookups\": {lookups},\n    \"hits\": {hits},\n    \
         \"misses\": {misses},\n    \"hit_rate\": {hit_rate:.2}\n  }},\n  \
         \"dump\": {{\n    \"level\": \"core\",\n    \"units\": {dump_units},\n    \
         \"counters\": {dump_counters}\n  }}\n}}\n"
    );
    if let Err(err) = std::fs::write(&out_path, &json) {
        eprintln!("error: writing {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    eprintln!(
        "bench_pr5: core overhead {overhead_pct:.2}% (full {full_overhead_pct:.2}%, \
         off fast path {fast_path_ns_per_op:.3} ns/op, cache hit rate {hit_rate:.2}) -> {out_path}"
    );
    ExitCode::SUCCESS
}
