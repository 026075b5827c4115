//! The observability contract: tracing is a pure observer.
//!
//! Three invariants, all load-bearing for reproducibility claims:
//!
//! 1. turning tracing on does not change a single report byte;
//! 2. the merged trace is byte-identical across thread counts;
//! 3. every emitted trace line round-trips through the JSONL codec
//!    (the same property the CI trace validator checks on real runs).

mod common;

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{RunRequest, SuiteRun};
use bcc_metrics::MetricsHub;
use bcc_trace::json::parse_event;
use bcc_trace::{Collector, TraceLevel};
use common::{assert_same_trace, trace_jsonl};

/// A quick run of `ids` on `threads` workers, traced at `level`.
fn run(ids: &[&str], threads: usize, level: TraceLevel) -> SuiteRun {
    RunRequest::new(ids.iter().copied(), true, DEFAULT_SEED)
        .jobs(threads)
        .observed(Collector::new(level), MetricsHub::disabled())
        .run()
        .expect("known ids")
}

const IDS: [&str; 4] = ["f1", "e1", "e2", "e5"];

#[test]
fn tracing_never_changes_report_bytes() {
    let off = run(&IDS, 2, TraceLevel::Off);
    let on = run(&IDS, 2, TraceLevel::Events);
    assert!(off.trace.is_empty());
    assert!(!on.trace.is_empty());
    assert_eq!(off.reports.len(), on.reports.len());
    for (a, b) in off.reports.iter().zip(&on.reports) {
        assert_eq!(
            a.text, b.text,
            "report {} changed under tracing",
            a.experiment
        );
        assert_eq!(a, b);
    }
}

#[test]
fn merged_trace_is_identical_across_thread_counts() {
    let serial = run(&IDS, 1, TraceLevel::Events);
    let parallel = run(&IDS, 8, TraceLevel::Events);
    assert_same_trace(
        &trace_jsonl(&serial.trace),
        &trace_jsonl(&parallel.trace),
        "1 vs 8 threads",
    );
}

#[test]
fn same_seed_reruns_produce_identical_traces() {
    let a = run(&IDS, 4, TraceLevel::Events);
    let b = run(&IDS, 4, TraceLevel::Events);
    assert_same_trace(&trace_jsonl(&a.trace), &trace_jsonl(&b.trace), "re-run");
}

#[test]
#[should_panic(expected = "first diverging event (e2/job, 1)")]
fn trace_mismatch_names_the_diverging_event() {
    let line = |unit: &str, seq: u64, bits: u64| {
        format!(
            "{{\"unit\":\"{unit}\",\"seq\":{seq},\"path\":\"\",\"kind\":\"counter\",\
             \"name\":\"sim.bits_broadcast\",\"fields\":{{\"delta\":{bits}}}}}\n"
        )
    };
    let trace = |bits| line("e1/job", 0, 5) + &line("e2/job", 0, 5) + &line("e2/job", 1, bits);
    assert_same_trace(&trace(7), &trace(8), "one changed event");
}

#[test]
fn every_trace_line_round_trips_through_the_codec() {
    let suite = run(&IDS, 4, TraceLevel::Events);
    let text = trace_jsonl(&suite.trace);
    let mut parsed = Vec::new();
    for line in text.lines() {
        parsed.push(parse_event(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}")));
    }
    assert_eq!(parsed.len(), suite.trace.events().len());
    // Units arrive grouped and sequences increase within each unit —
    // the (unit, seq) merge order, observable from the file alone.
    for w in parsed.windows(2) {
        assert!(
            (&w[0].unit, w[0].seq) <= (&w[1].unit, w[1].seq),
            "events out of merge order: {w:?}"
        );
    }
}

#[test]
fn spans_level_drops_domain_events_but_keeps_job_lifecycles() {
    let spans = run(&["f1"], 2, TraceLevel::Spans);
    let events = run(&["f1"], 2, TraceLevel::Events);
    assert!(spans.trace.events().len() < events.trace.events().len());
    assert!(
        spans.trace.events().iter().all(|e| e.name == "job"),
        "spans level leaked non-lifecycle records"
    );
}
