//! End-to-end behavior of the one-queue pool: submission order,
//! panic isolation (inside the job and around it), deadlines,
//! cancellation, and the scheduler profile folded from the results.

use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_runner::{
    CancellationToken, Job, JobError, JobResult, JobSpec, JobStatus, MetricsSnapshot, Pool,
};
use bcc_trace::{Collector, EventKind, FieldValue, TraceLevel};
use std::time::Duration;

/// Runs one batch on `pool` with a fresh token and no observers.
fn execute<T: Send>(pool: &Pool, jobs: Vec<Job<T>>) -> Vec<JobResult<T>> {
    pool.execute(
        jobs,
        &CancellationToken::new(),
        &Collector::disabled(),
        &MetricsHub::disabled(),
    )
}

fn ok_job(id: &str, seed: u64) -> Job<u64> {
    Job::new(JobSpec::new(id, seed), |ctx| Ok(ctx.seed * 10))
}

#[test]
fn results_come_back_in_submission_order() {
    let pool = Pool::new(8);
    let jobs: Vec<Job<u64>> = (0..50).map(|i| ok_job(&format!("j{i}"), i)).collect();
    let results = execute(&pool, jobs);
    assert_eq!(results.len(), 50);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.id, format!("j{i}"));
        assert_eq!(r.status, JobStatus::Completed(i as u64 * 10));
        assert_eq!(r.attempts, 1);
    }
    let m = MetricsSnapshot::of(&results);
    assert_eq!(m.scheduled, 50);
    assert_eq!(m.completed, 50);
    assert_eq!(m.failed + m.timed_out + m.cancelled, 0);
    assert_eq!(m.latency.count, 50);
}

#[test]
fn parallel_and_serial_agree() {
    let build = || -> Vec<Job<u64>> {
        (0..40)
            .map(|i| Job::new(JobSpec::new(format!("d{i}"), i), |ctx| Ok(ctx.seed.pow(2))))
            .collect()
    };
    let serial: Vec<_> = execute(&Pool::new(1), build())
        .into_iter()
        .map(|r| r.status.output().copied())
        .collect();
    let parallel: Vec<_> = execute(&Pool::new(8), build())
        .into_iter()
        .map(|r| r.status.output().copied())
        .collect();
    assert_eq!(serial, parallel);
}

#[test]
fn panics_are_isolated_to_their_job() {
    let pool = Pool::new(4);
    let mut jobs: Vec<Job<u64>> = (0..10).map(|i| ok_job(&format!("ok{i}"), i)).collect();
    jobs.insert(
        5,
        Job::new(JobSpec::new("boom", 99), |_ctx| -> Result<u64, JobError> {
            panic!("shard exploded");
        }),
    );
    let results = execute(&pool, jobs);
    assert_eq!(results.len(), 11);
    match &results[5].status {
        JobStatus::Failed(JobError::Panicked(msg)) => assert!(msg.contains("shard exploded")),
        other => panic!("expected panicked status, got {other:?}"),
    }
    let completed = results
        .iter()
        .filter(|r| matches!(r.status, JobStatus::Completed(_)))
        .count();
    assert_eq!(completed, 10, "every other job still completed");
    let m = MetricsSnapshot::of(&results);
    assert_eq!(m.panicked, 1);
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 10);
}

#[test]
fn fatal_errors_are_not_retried() {
    let pool = Pool::new(1);
    let job = Job::new(JobSpec::new("fatal", 0), |_ctx| {
        Err(JobError::Fatal("bad input".into())) as Result<(), _>
    });
    let results = execute(&pool, vec![job]);
    assert_eq!(results[0].attempts, 1);
    assert!(matches!(
        results[0].status,
        JobStatus::Failed(JobError::Fatal(_))
    ));
    assert_eq!(MetricsSnapshot::of(&results).failed, 1);
}

#[test]
fn overdue_jobs_are_reported_timed_out() {
    let pool = Pool::new(2);
    let slow = Job::new(
        JobSpec::new("slow", 0).with_timeout(Duration::from_millis(5)),
        |_ctx| {
            std::thread::sleep(Duration::from_millis(40));
            Ok(1u64)
        },
    );
    let fast = Job::new(
        JobSpec::new("fast", 0).with_timeout(Duration::from_secs(60)),
        |_ctx| Ok(2u64),
    );
    let results = execute(&pool, vec![slow, fast]);
    assert_eq!(results[0].status, JobStatus::TimedOut);
    assert_eq!(results[1].status, JobStatus::Completed(2));
    let m = MetricsSnapshot::of(&results);
    assert_eq!(m.timed_out, 1);
    assert_eq!(m.completed, 1);
}

#[test]
fn a_panic_past_the_deadline_reads_timed_out() {
    let pool = Pool::new(1);
    let late = Job::new(
        JobSpec::new("late-panic", 0).with_timeout(Duration::from_millis(5)),
        |_ctx| -> Result<u64, JobError> {
            std::thread::sleep(Duration::from_millis(40));
            panic!("panicked after its deadline");
        },
    );
    let results = execute(&pool, vec![late]);
    assert_eq!(results[0].status, JobStatus::TimedOut);
    assert_eq!(results[0].attempts, 1);
    let m = MetricsSnapshot::of(&results);
    assert_eq!((m.timed_out, m.panicked, m.failed), (1, 0, 0));
    assert_eq!(m.latency.count, 1);
}

#[test]
fn cooperative_jobs_can_observe_their_deadline() {
    let pool = Pool::new(1);
    let cooperative = Job::new(
        JobSpec::new("coop", 0).with_timeout(Duration::from_millis(10)),
        |ctx| {
            // A sharded kernel polling its deadline between chunks.
            for _ in 0..1000 {
                if ctx.deadline_exceeded() {
                    return Err(JobError::Fatal("gave up at deadline".into()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(0u64)
        },
    );
    let results = execute(&pool, vec![cooperative]);
    // Either way the job must terminate promptly as TimedOut, not run
    // the full 1000ms loop.
    assert!(results[0].latency < Duration::from_millis(500));
    assert_eq!(results[0].status, JobStatus::TimedOut);
}

#[test]
fn cancelled_token_skips_unstarted_jobs() {
    let pool = Pool::new(2);
    let token = CancellationToken::new();
    token.cancel();
    let jobs: Vec<Job<u64>> = (0..6).map(|i| ok_job(&format!("c{i}"), i)).collect();
    let results = pool.execute(
        jobs,
        &token,
        &Collector::disabled(),
        &MetricsHub::disabled(),
    );
    assert!(results.iter().all(|r| r.status == JobStatus::Cancelled));
    let m = MetricsSnapshot::of(&results);
    assert_eq!(m.cancelled, 6);
    assert_eq!(m.completed, 0);
}

#[test]
fn empty_job_list_is_fine() {
    let pool = Pool::new(4);
    let results: Vec<JobResult<u64>> = execute(&pool, Vec::new());
    assert!(results.is_empty());
    assert_eq!(MetricsSnapshot::of(&results).scheduled, 0);
}

#[test]
fn imbalanced_loads_all_complete() {
    // Slow jobs at every even index: the idle worker keeps claiming
    // from the shared queue while the other sleeps.
    let pool = Pool::new(2);
    let jobs: Vec<Job<u64>> = (0..32)
        .map(|i| {
            Job::new(JobSpec::new(format!("w{i}"), i), move |ctx| {
                if ctx.seed % 2 == 0 {
                    std::thread::sleep(Duration::from_millis(4));
                }
                Ok(ctx.seed)
            })
        })
        .collect();
    let results = execute(&pool, jobs);
    assert!(results
        .iter()
        .all(|r| matches!(r.status, JobStatus::Completed(_))));
    let m = MetricsSnapshot::of(&results);
    assert_eq!(m.completed, 32);
}

/// A panic payload whose own `Drop` panics. The pool drops the
/// payload after the job's `catch_unwind` returned, so that second
/// panic starts outside the job body.
struct PanicOnDrop;

impl Drop for PanicOnDrop {
    fn drop(&mut self) {
        panic!("payload drop exploded");
    }
}

#[test]
fn a_panic_outside_the_job_body_fails_only_that_job() {
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let mut jobs: Vec<Job<u64>> = (0..10).map(|i| ok_job(&format!("ok{i}"), i)).collect();
        jobs.insert(
            3,
            Job::new(
                JobSpec::new("bad-payload", 99),
                |_ctx| -> Result<u64, JobError> { std::panic::panic_any(PanicOnDrop) },
            ),
        );
        let collector = Collector::new(TraceLevel::Events);
        let hub = MetricsHub::new(MetricsLevel::Core);
        let results = pool.execute(jobs, &CancellationToken::new(), &collector, &hub);
        assert_eq!(results.len(), 11);
        assert_eq!(results[3].id, "bad-payload");
        assert!(
            matches!(results[3].status, JobStatus::Failed(_)),
            "threads={threads}: {:?}",
            results[3].status
        );
        let others: Vec<_> = results
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 3)
            .map(|(_, r)| (r.id.clone(), r.status.output().copied()))
            .collect();
        let expected: Vec<_> = (0..10u64)
            .map(|i| (format!("ok{i}"), Some(i * 10)))
            .collect();
        assert_eq!(others, expected, "threads={threads}");
        let m = MetricsSnapshot::of(&results);
        assert_eq!(m.scheduled, m.completed + m.failed, "threads={threads}");
        assert_eq!((m.completed, m.failed), (10, 1), "threads={threads}");
        // Its closure panicked, but its result reads `Failed(Fatal)`.
        assert_eq!(m.panicked, 0, "threads={threads}");
        // The lost job still leaves a balanced `job` span and its
        // counters in the deterministic artifacts.
        let trace = collector.finish();
        let lost: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.unit == "bad-payload")
            .collect();
        let kinds: Vec<_> = lost.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::SpanStart, EventKind::Counter, EventKind::SpanEnd],
            "threads={threads}"
        );
        assert_eq!(
            (lost[0].name.as_str(), lost[2].name.as_str()),
            ("job", "job")
        );
        assert_eq!(
            (lost[1].name.as_str(), lost[1].path.as_str()),
            ("runner.jobs", "job")
        );
        assert_eq!(
            lost[2].field("status"),
            Some(&FieldValue::Str("failed".into()))
        );
        assert_eq!(lost[2].field("attempts"), Some(&FieldValue::UInt(0)));
        let dump = hub.finish();
        assert_eq!(dump.counter("runner.failed"), Some(m.failed));
        assert_eq!(dump.counter("runner.jobs"), Some(m.scheduled));
    }
}

mod tracing {
    use bcc_metrics::MetricsHub;
    use bcc_runner::{CancellationToken, Job, JobResult, JobSpec, Pool};
    use bcc_trace::{Collector, EventKind, FieldValue, TraceLevel};

    fn run_traced(pool: &Pool, jobs: Vec<Job<u64>>, c: &Collector) -> Vec<JobResult<u64>> {
        pool.execute(jobs, &CancellationToken::new(), c, &MetricsHub::disabled())
    }

    fn traced_jobs(n: u64) -> Vec<Job<u64>> {
        (0..n)
            .map(|i| {
                Job::new(JobSpec::new(format!("t{i:02}"), i), |ctx| {
                    ctx.observer()
                        .event("work", vec![bcc_trace::field("seed", ctx.seed)]);
                    ctx.observer()
                        .with(|trace, _| trace.counter("items", ctx.seed + 1));
                    Ok(ctx.seed)
                })
            })
            .collect()
    }

    #[test]
    fn job_spans_wrap_work_events() {
        let collector = Collector::new(TraceLevel::Events);
        let results = run_traced(&Pool::new(1), traced_jobs(2), &collector);
        assert_eq!(results.len(), 2);
        let trace = collector.finish();
        let unit0: Vec<_> = trace.events().iter().filter(|e| e.unit == "t00").collect();
        assert_eq!(unit0.len(), 5); // span_start, work, items, runner.jobs, span_end
        assert_eq!(unit0[0].kind, EventKind::SpanStart);
        assert_eq!(unit0[0].name, "job");
        assert_eq!(unit0[1].name, "work");
        assert_eq!(unit0[1].path, "job");
        assert_eq!(unit0[2].kind, EventKind::Counter);
        assert_eq!(unit0[3].kind, EventKind::Counter);
        assert_eq!(unit0[3].name, "runner.jobs");
        assert_eq!(unit0[3].path, "job");
        assert_eq!(unit0[4].kind, EventKind::SpanEnd);
        assert_eq!(
            unit0[4].field("status"),
            Some(&FieldValue::Str("completed".into()))
        );
        assert_eq!(unit0[4].field("attempts"), Some(&FieldValue::UInt(1)));
    }

    #[test]
    fn serial_and_parallel_traces_are_identical() {
        let run = |threads: usize| {
            let collector = Collector::new(TraceLevel::Events);
            run_traced(&Pool::new(threads), traced_jobs(24), &collector);
            collector.finish()
        };
        let (serial, parallel) = (run(1), run(8));
        assert!(!serial.is_empty());
        assert_eq!(serial.events(), parallel.events());
    }

    #[test]
    fn disabled_collector_adds_no_records_and_no_failures() {
        let collector = Collector::disabled();
        let results = run_traced(&Pool::new(4), traced_jobs(8), &collector);
        assert!(results.iter().all(|r| r.status.output().is_some()));
        assert!(collector.finish().is_empty());
    }

    #[test]
    fn spans_level_keeps_lifecycles_only() {
        let collector = Collector::new(TraceLevel::Spans);
        run_traced(&Pool::new(2), traced_jobs(3), &collector);
        let trace = collector.finish();
        assert_eq!(trace.events().len(), 6); // 3 jobs x (start + end)
        assert!(trace
            .events()
            .iter()
            .all(|e| matches!(e.kind, EventKind::SpanStart | EventKind::SpanEnd)));
    }
}
