//! The workload-metrics contract: metering is a pure observer over
//! deterministic quantities.
//!
//! Four invariants, all load-bearing for the regression story behind
//! `bcc-report --check`:
//!
//! 1. turning metrics on does not change a single report byte;
//! 2. the merged dump is byte-identical across thread counts — every
//!    recorded quantity is logical (bits, rounds, lookups), never a
//!    clock reading or a schedule artefact;
//! 3. re-running the same seed reproduces the dump exactly;
//! 4. every dump round-trips through the JSONL codec, and the level
//!    ladder behaves (`off` ⊂ `core` ⊂ `full`).

mod common;

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{RunRequest, SuiteRun};
use bcc_metrics::{MetricsDump, MetricsHub, MetricsLevel};
use bcc_trace::Collector;
use common::{assert_same_dump, dump_jsonl};

/// A quick run of `ids` on `threads` workers, metered at `level`.
fn run(ids: &[&str], threads: usize, level: MetricsLevel) -> SuiteRun {
    RunRequest::new(ids.iter().copied(), true, DEFAULT_SEED)
        .jobs(threads)
        .observed(Collector::disabled(), MetricsHub::new(level))
        .run()
        .expect("known ids")
}

const IDS: [&str; 8] = ["f1", "e1", "e2", "e4", "e5", "e7", "e8", "e11"];

#[test]
fn metering_never_changes_report_bytes() {
    let off = run(&IDS, 2, MetricsLevel::Off);
    let on = run(&IDS, 2, MetricsLevel::Core);
    assert!(off.workload.is_empty());
    assert!(!on.workload.is_empty());
    assert_eq!(off.reports.len(), on.reports.len());
    for (a, b) in off.reports.iter().zip(&on.reports) {
        assert_eq!(
            a.text, b.text,
            "report {} changed under metering",
            a.experiment
        );
        assert_eq!(a, b);
    }
}

#[test]
fn merged_dump_is_identical_across_thread_counts() {
    let serial = run(&IDS, 1, MetricsLevel::Full);
    let parallel = run(&IDS, 8, MetricsLevel::Full);
    assert_same_dump(
        &dump_jsonl(&serial.workload),
        &dump_jsonl(&parallel.workload),
        "1 vs 8 threads",
    );
}

#[test]
fn same_seed_reruns_reproduce_the_dump() {
    let a = run(&IDS, 4, MetricsLevel::Core);
    let b = run(&IDS, 4, MetricsLevel::Core);
    assert_eq!(dump_jsonl(&a.workload), dump_jsonl(&b.workload));
}

#[test]
fn dump_round_trips_through_jsonl() {
    let run = run(&IDS, 2, MetricsLevel::Full);
    let text = dump_jsonl(&run.workload);
    let parsed = MetricsDump::parse_jsonl(&text).expect("own dump parses");
    assert_eq!(dump_jsonl(&parsed), text, "codec round trip");
    assert_eq!(parsed.counters(), run.workload.counters());
    assert_eq!(parsed.units(), run.workload.units());
}

#[test]
fn level_ladder_off_core_full() {
    let off = run(&IDS, 2, MetricsLevel::Off);
    let core = run(&IDS, 2, MetricsLevel::Core);
    let full = run(&IDS, 2, MetricsLevel::Full);

    assert!(off.workload.is_empty());
    assert_eq!(off.workload.level(), MetricsLevel::Off);

    // Core records counters and gauges but no histograms.
    assert!(!core.workload.counters().is_empty());
    assert!(core.workload.hists().is_empty());

    // Full keeps every core counter at the same value and adds
    // histogram series on top.
    assert!(!full.workload.hists().is_empty());
    for (name, v) in core.workload.counters() {
        assert_eq!(
            full.workload.counter(name),
            Some(*v),
            "core counter {name} drifted at full level"
        );
    }

    // The dump carries real experiment quantities.
    for name in [
        "suite.jobs",
        "e1.pieces",
        "e2.structure_rows",
        "f1.crossings",
        "comm.protocol_runs",
        "comm.bits_exchanged",
    ] {
        assert!(
            core.workload.counter(name).unwrap_or(0) > 0,
            "expected {name} in the core dump"
        );
    }
}
