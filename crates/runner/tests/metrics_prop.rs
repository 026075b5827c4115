//! Property tests for the scheduler profile: the fold over a batch of
//! results counts every result once and times exactly the jobs that ran.

use bcc_metrics::HistogramSnapshot;
use bcc_runner::{JobError, JobResult, JobStatus, MetricsSnapshot};
use proptest::prelude::*;
use std::time::Duration;

/// A result of kind `kind`: 0 completed, 1 failed, 2 panicked,
/// 3 timed out (these four ran once), 4 cancelled, 5 lost (never ran).
fn result(kind: u8, us: u64) -> JobResult<u64> {
    let (status, attempts) = match kind {
        0 => (JobStatus::Completed(us), 1),
        1 => (JobStatus::Failed(JobError::Fatal("err".into())), 1),
        2 => (JobStatus::Failed(JobError::Panicked("boom".into())), 1),
        3 => (JobStatus::TimedOut, 1),
        4 => (JobStatus::Cancelled, 0),
        _ => (JobStatus::Failed(JobError::Fatal("lost".into())), 0),
    };
    JobResult {
        id: format!("k{kind}"),
        seed: 0,
        status,
        attempts,
        latency: if attempts == 1 {
            Duration::from_micros(us)
        } else {
            Duration::ZERO
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn the_fold_counts_every_result_and_times_every_job_that_ran(
        mix in proptest::collection::vec((0u8..6, 0u64..10_000_000u64), 0..200),
    ) {
        let results: Vec<_> = mix.iter().map(|&(k, us)| result(k, us)).collect();
        let m = MetricsSnapshot::of(&results);
        let kinds = |ks: &[u8]| mix.iter().filter(|(k, _)| ks.contains(k)).count() as u64;
        prop_assert_eq!(m.scheduled, mix.len() as u64);
        prop_assert_eq!(
            m.completed + m.failed + m.timed_out + m.cancelled,
            m.scheduled
        );
        prop_assert_eq!(m.completed, kinds(&[0]));
        prop_assert_eq!(m.failed, kinds(&[1, 2, 5]));
        prop_assert_eq!(m.panicked, kinds(&[2]));
        prop_assert_eq!(m.timed_out, kinds(&[3]));
        prop_assert_eq!(m.cancelled, kinds(&[4]));
        // Exactly the jobs that ran are samples; sum and max are exact.
        let ran: Vec<u64> = mix.iter().filter(|(k, _)| *k < 4).map(|&(_, us)| us).collect();
        prop_assert_eq!(m.latency.count, ran.len() as u64);
        prop_assert_eq!(m.latency.buckets.iter().sum::<u64>(), m.latency.count);
        prop_assert_eq!(m.latency.sum, ran.iter().sum::<u64>());
        prop_assert_eq!(m.latency.max, ran.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn quantile_bounds_bracket_every_sample(
        latencies in proptest::collection::vec(0u64..1_000_000u64, 1..100),
    ) {
        let mut h = HistogramSnapshot::empty();
        for &us in &latencies {
            h.observe(us);
        }
        let p100 = h.quantile_upper(1.0);
        // The p100 upper bound must dominate every recorded sample.
        for &us in &latencies {
            prop_assert!(p100 >= us, "p100 bound {} below sample {}", p100, us);
        }
        // Quantile upper bounds are monotone in q.
        let p50 = h.quantile_upper(0.5);
        let p90 = h.quantile_upper(0.9);
        prop_assert!(p50 <= p90 && p90 <= p100);
    }
}
