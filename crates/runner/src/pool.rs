//! The thread pool: one queue, claimed in submission order.
//!
//! Every worker runs the same loop: lock the queue, take the next
//! `(index, job)`, unlock, run the job. No job is added after
//! `execute` starts, so an empty queue ends the run, and one shared
//! queue balances the load as well as per-worker deques with stealing
//! would.

use crate::job::{CancellationToken, Job, JobCtx, JobError, JobResult, JobStatus};
use bcc_metrics::{MetricsBuf, MetricsHub};
use bcc_trace::{field, Collector, Observer, TraceBuf};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A fixed-width worker pool executing [`Job`]s.
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Executes all jobs and returns their results **in submission
    /// order**, regardless of which worker ran what when — callers
    /// can rely on positional correspondence with the input vector.
    /// With one worker (or one job) the loop runs on the calling
    /// thread; otherwise on that many scoped threads.
    ///
    /// Jobs not yet started when `token` is cancelled are reported as
    /// [`JobStatus::Cancelled`], and running cooperative jobs observe
    /// the cancellation through their [`JobCtx`]. A job whose handling
    /// panics outside its work closure (say, while its panic payload
    /// is dropped) comes back `Failed` as lost; the other jobs and the
    /// call itself carry on.
    ///
    /// Every job gets a trace buffer and a metrics buffer (unit = job
    /// id), both behind the one handle [`JobCtx::observer`]. The trace
    /// buffer's lifecycle `job` span wraps whatever the work closure
    /// records through it; the metrics buffer collects what it records
    /// there plus the runner's own logical outcome counters (`runner.jobs`,
    /// `runner.completed`, `runner.failed`, …). Finished buffers are
    /// absorbed into `collector` and `hub`; pass
    /// [`Collector::disabled`] and [`MetricsHub::disabled`] to observe
    /// nothing, at no per-job cost.
    ///
    /// Everything recorded is logical — id, seed, terminal status tag,
    /// outcome and attempt counts — never latency or any other clock
    /// reading. The collector and hub merge by `(unit, seq)` and
    /// commutatively, so traces and dumps are byte-identical across
    /// `--jobs 1` and `--jobs 8` runs of the same suite. Wall-clock
    /// profiling is a fold over the returned results:
    /// [`MetricsSnapshot::of`](crate::MetricsSnapshot::of).
    pub fn execute<T: Send>(
        &self,
        jobs: Vec<Job<T>>,
        token: &CancellationToken,
        collector: &Collector,
        hub: &MetricsHub,
    ) -> Vec<JobResult<T>> {
        // Spec echoes, kept outside the queue so a slot no worker
        // fills degrades into a Failed result.
        let specs: Vec<(String, u64)> = jobs
            .iter()
            .map(|j| (j.spec.id.clone(), j.spec.seed))
            .collect();
        let workers = self.threads.min(specs.len());
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                // Nothing can panic while the lock is held (`next` on a
                // vector iterator), so a poisoned queue is still sound.
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((idx, job)) = next else {
                    return done; // queue empty: the run is over
                };
                let handled = catch_unwind(AssertUnwindSafe(|| {
                    if token.is_cancelled() {
                        cancelled_result(&job)
                    } else {
                        run_observed_job(&job, token, collector, hub)
                    }
                }));
                if let Ok(result) = handled {
                    done.push((idx, result));
                }
            }
        };
        let done: Vec<(usize, JobResult<T>)> = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_default())
                    .collect()
            })
        };

        let mut results: Vec<Option<JobResult<T>>> = specs.iter().map(|_| None).collect();
        for (idx, result) in done {
            results[idx] = Some(result);
        }
        results
            .into_iter()
            .zip(specs)
            .map(|(r, (id, seed))| r.unwrap_or_else(|| lost_result(id, seed, collector, hub)))
            .collect()
    }
}

/// The terminal state for a job whose handling panicked outside its
/// work closure — reported as failed rather than failing the whole run.
/// The buffers its handling had opened unwound with it, so the job's
/// `job` span and `runner.*` counters are recorded afresh here: the
/// trace and dump count the job as failed, as its result does.
fn lost_result<T>(id: String, seed: u64, collector: &Collector, hub: &MetricsHub) -> JobResult<T> {
    let result = JobResult {
        id,
        seed,
        status: JobStatus::Failed(JobError::Fatal(
            "job result was lost by the pool (its handling panicked outside the job)".to_string(),
        )),
        attempts: 0,
        latency: Duration::ZERO,
    };
    let buf = open_job_span(collector, &result.id, seed);
    close_job(buf, hub.buf(result.id.clone()), &result, collector, hub);
    result
}

fn cancelled_result<T>(job: &Job<T>) -> JobResult<T> {
    JobResult {
        id: job.spec.id.clone(),
        seed: job.spec.seed,
        status: JobStatus::Cancelled,
        attempts: 0,
        latency: Duration::ZERO,
    }
}

/// Runs one job inside a fresh trace buffer and a fresh metrics
/// buffer: opens the `job` span, executes, then closes it with
/// [`close_job`]. Everything recorded is logical — no clock values.
fn run_observed_job<T>(
    job: &Job<T>,
    run_token: &CancellationToken,
    collector: &Collector,
    hub: &MetricsHub,
) -> JobResult<T> {
    let buf = open_job_span(collector, &job.spec.id, job.spec.seed);
    // With tracing and metrics both off this is `Observer::off()`:
    // no lock and no shared allocation per job.
    let observer = Observer::new(buf, hub.buf(job.spec.id.clone()));
    let result = run_job(job, run_token, &observer);
    let (buf, mbuf) = observer.take();
    close_job(buf, mbuf, &result, collector, hub);
    result
}

/// A fresh trace buffer for job `id` with its `job` span open.
fn open_job_span(collector: &Collector, id: &str, seed: u64) -> TraceBuf {
    let mut buf = collector.buf(id);
    buf.span_start("job", vec![field("id", id), field("seed", seed)]);
    buf
}

/// Closes a job's `job` span with its terminal status, books the
/// runner's logical outcome counters, and absorbs both buffers.
fn close_job<T>(
    mut buf: TraceBuf,
    mut mbuf: MetricsBuf,
    result: &JobResult<T>,
    collector: &Collector,
    hub: &MetricsHub,
) {
    // A cost record at the span boundary, under the still-open `job`
    // span, named identically to the runner.* workload counter so
    // the profiler can attribute jobs to the job path.
    buf.counter("runner.jobs", 1);
    buf.span_end(
        "job",
        vec![
            field("status", result.status.tag()),
            field("attempts", result.attempts),
        ],
    );
    collector.absorb(buf);
    if hub.enabled() {
        mbuf.counter("runner.jobs", 1);
        mbuf.counter(&format!("runner.{}", result.status.tag()), 1);
        hub.absorb(mbuf);
    }
}

/// Runs one job to its terminal state on the current thread: one
/// attempt, deadline accounting, panic isolation.
fn run_job<T>(job: &Job<T>, run_token: &CancellationToken, observer: &Observer) -> JobResult<T> {
    let started = Instant::now();
    let deadline = job.spec.timeout.map(|t| started + t);
    let ctx = JobCtx {
        seed: job.spec.seed,
        token: run_token.clone(),
        deadline,
        observer: observer.clone(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| (job.work)(&ctx)));
    let status = if deadline.is_some_and(|d| Instant::now() >= d) {
        JobStatus::TimedOut
    } else {
        match outcome {
            Ok(Ok(value)) => JobStatus::Completed(value),
            Ok(Err(err)) => JobStatus::Failed(err),
            Err(payload) => JobStatus::Failed(JobError::Panicked(panic_message(payload.as_ref()))),
        }
    };
    JobResult {
        id: job.spec.id.clone(),
        seed: job.spec.seed,
        status,
        attempts: 1,
        latency: started.elapsed(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
