//! The determinism contract holds for concurrent runs in one process,
//! as in `bcc-serve`: every run shares the process-wide artifact
//! store, so any run-level figure read from a process-global counter
//! would pick up the other run's work. Two same-seed runs started at
//! once must each produce the trace, metrics dump and profile of a run
//! made alone, byte for byte.

mod common;

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::RunRequest;
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_prof::{profile_to_jsonl, Profile};
use bcc_trace::{Collector, TraceLevel};
use common::assert_same_profile;

const IDS: [&str; 4] = ["f1", "e1", "e2", "e5"];

/// One fully observed quick run, rendered as `(trace, dump, profile)`
/// JSONL bytes.
fn artifacts() -> (String, String, String) {
    let run = RunRequest::new(IDS, true, DEFAULT_SEED)
        .jobs(2)
        .observed(
            Collector::new(TraceLevel::Events),
            MetricsHub::new(MetricsLevel::Full),
        )
        .run()
        .expect("known ids");
    let mut trace = Vec::new();
    run.trace.write_jsonl(&mut trace).expect("in-memory write");
    let profile = Profile::build(run.trace.events(), Some(&run.workload));
    (
        String::from_utf8(trace).expect("traces are UTF-8"),
        run.workload.to_jsonl_string(),
        profile_to_jsonl(&profile),
    )
}

#[test]
fn concurrent_runs_match_a_solo_run_byte_for_byte() {
    let solo = artifacts();
    assert!(solo.1.contains("\"cache.lookups\""));
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(artifacts);
        let b = s.spawn(artifacts);
        (a.join().expect("run a"), b.join().expect("run b"))
    });
    for (name, run) in [("first", &a), ("second", &b)] {
        assert!(run.0 == solo.0, "{name} concurrent trace differs from solo");
        assert!(run.1 == solo.1, "{name} concurrent dump differs from solo");
        assert_same_profile(&solo.2, &run.2, &format!("{name} concurrent run vs solo"));
    }
}
