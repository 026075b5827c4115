//! The determinism contract of the suite: reports are a pure function
//! of the suite seed, independent of the worker-thread count.

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{RunRequest, REGISTRY};

#[test]
fn quick_suite_reports_identical_across_thread_counts() {
    let request = RunRequest::new(REGISTRY.iter().map(|e| e.id), true, DEFAULT_SEED);
    let serial = request.clone().jobs(1).run().expect("known ids");
    let parallel = request.jobs(8).run().expect("known ids");
    assert_eq!(serial.reports.len(), parallel.reports.len());
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(
            s, p,
            "report {} differs between 1 and 8 threads",
            s.experiment
        );
    }
    assert!(
        serial.reports.iter().all(|r| r.passed),
        "failing checks: {:?}",
        serial
            .reports
            .iter()
            .flat_map(|r| r.checks.iter().filter(|&&(_, ok)| !ok))
            .collect::<Vec<_>>()
    );
    // Every scheduled job completed in both runs.
    assert_eq!(serial.metrics.completed, serial.metrics.scheduled);
    assert_eq!(parallel.metrics.completed, parallel.metrics.scheduled);
}

#[test]
fn changing_the_seed_changes_randomized_series_only_deterministically() {
    let run = |seed| RunRequest::new(["f2"], true, seed).jobs(4).run();
    // Same seed twice: identical. (f2 is pure combinatorics but still
    // goes through the full pool path.)
    let a1 = run(7).expect("known id");
    let a2 = run(7).expect("known id");
    assert_eq!(a1.reports, a2.reports);
    // Different seed: still a valid, passing report.
    let b = run(8).expect("known id");
    assert!(b.reports[0].passed);
}
