//! The profiler inherits the suite's determinism contract: the
//! profile built from a run's merged trace and metrics dump — and the
//! JSONL bytes it encodes to — must be identical across thread counts
//! and across cold vs warm cache, because it is derived purely from
//! logical costs. Any wall-clock influence would show up here as a
//! byte diff, named by the first breached frame.

mod common;

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{RunRequest, SuiteRun};
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_prof::{profile_to_jsonl, Profile};
use bcc_trace::{Collector, TraceLevel};
use common::assert_same_profile;

const IDS: [&str; 5] = ["f1", "e1", "e2", "e5", "e7"];

/// A quick run of [`IDS`] on `threads` workers, observed at the levels
/// `--profile` implies.
fn run(threads: usize) -> SuiteRun {
    RunRequest::new(IDS, true, DEFAULT_SEED)
        .jobs(threads)
        .observed(
            Collector::new(TraceLevel::Costs),
            MetricsHub::new(MetricsLevel::Core),
        )
        .run()
        .expect("known ids")
}

fn profile_bytes(suite: &SuiteRun) -> String {
    let profile = Profile::build(suite.trace.events(), Some(&suite.workload));
    profile_to_jsonl(&profile)
}

#[test]
fn profile_bytes_identical_across_thread_counts() {
    let serial = run(1);
    let parallel = run(8);
    assert_same_profile(
        &profile_bytes(&serial),
        &profile_bytes(&parallel),
        "--jobs 1 vs --jobs 8",
    );
}

#[test]
fn profile_bytes_identical_cold_vs_warm_cache() {
    // Both runs share the process-wide artifact cache: the first
    // populates it, the second hits it warm. Only `cache.lookups` is
    // a cost counter — hits trade recomputation for lookups without
    // touching any counted quantity — so the profiles must agree.
    let cold = run(4);
    let warm = run(4);
    assert_same_profile(
        &profile_bytes(&cold),
        &profile_bytes(&warm),
        "cold vs warm cache",
    );
}

#[test]
#[should_panic(expected = "first breached frame sim.bits_broadcast @ e2/job: 7 vs 8")]
fn profile_mismatch_names_the_breached_frame() {
    // The changed frame also moves the counter total, which the diff
    // lists first; the gate must still name the frame.
    let profile = |bits: u64| {
        format!(
            "{{\"bcc_prof\":1,\"spans\":0,\"frames\":2,\"totals\":1}}\n\
             {{\"kind\":\"frame\",\"path\":\"e1/job\",\"counter\":\"sim.bits_broadcast\",\"inclusive\":5,\"exclusive\":5}}\n\
             {{\"kind\":\"frame\",\"path\":\"e2/job\",\"counter\":\"sim.bits_broadcast\",\"inclusive\":{bits},\"exclusive\":{bits}}}\n\
             {{\"kind\":\"total\",\"counter\":\"sim.bits_broadcast\",\"total\":{t},\"attributed\":{t},\"unattributed\":0,\"source\":\"trace\"}}\n",
            t = 5 + bits
        )
    };
    assert_same_profile(&profile(7), &profile(8), "one changed frame");
}

#[test]
fn profile_attributes_cost_counters_to_named_span_paths() {
    // The acceptance bar from the profiler's design: on a real suite
    // run, at least 95% of `sim.bits_broadcast` and
    // `engine.round_bits` must land on named span paths, with the
    // remainder explicit in the unattributed column.
    let suite = run(2);
    let profile = Profile::build(suite.trace.events(), Some(&suite.workload));
    for counter in ["sim.bits_broadcast", "engine.round_bits"] {
        let total = profile
            .totals
            .iter()
            .find(|t| t.counter == counter)
            .unwrap_or_else(|| panic!("{counter} missing from profile totals"));
        assert!(total.total > 0, "{counter} total is zero");
        let attributed = total.total - total.unattributed.min(total.total);
        assert!(
            attributed * 100 >= total.total * 95,
            "{counter}: only {attributed} of {} attributed to spans",
            total.total
        );
    }
}
