//! The work-stealing thread pool.
//!
//! Jobs are distributed round-robin over per-worker sharded deques
//! (the injector). Each worker pops from the front of its own shard
//! and, when empty, steals from the back of the other shards. Since
//! no jobs are injected after `execute` starts, "every shard empty"
//! is a correct termination condition.

use crate::job::{CancellationToken, Job, JobCtx, JobError, JobResult, JobStatus};
use crate::metrics::Metrics;
use bcc_metrics::MetricsHub;
use bcc_trace::{field, Collector, Observer};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One worker's deque of `(submission index, job)` pairs.
type Shard<T> = Mutex<VecDeque<(usize, Job<T>)>>;

/// Shared drain state of a pool and all its [`Pool::share`] handles:
/// a latch that, once set, makes every later `execute` call refuse
/// its batch (all jobs come back [`JobStatus::Cancelled`]), plus an
/// in-flight batch count so a drainer can wait for running work to
/// finish. This is the hook long-lived owners (the `bcc-serve`
/// daemon) use to shut down gracefully: finish what is running,
/// accept nothing new.
#[derive(Debug)]
struct DrainGate {
    draining: std::sync::atomic::AtomicBool,
    in_flight: Mutex<usize>,
    idle: std::sync::Condvar,
}

impl DrainGate {
    fn new() -> Self {
        DrainGate {
            draining: std::sync::atomic::AtomicBool::new(false),
            in_flight: Mutex::new(0),
            idle: std::sync::Condvar::new(),
        }
    }
}

/// RAII in-flight marker: decrements and notifies even if the batch
/// panics, so `wait_idle` can never hang on a lost decrement.
struct BatchGuard<'a>(&'a DrainGate);

impl<'a> BatchGuard<'a> {
    fn enter(gate: &'a DrainGate) -> Self {
        *gate
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        BatchGuard(gate)
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        let mut n = self
            .0
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *n = n.saturating_sub(1);
        drop(n);
        self.0.idle.notify_all();
    }
}

/// A fixed-width worker pool executing [`Job`]s.
pub struct Pool {
    threads: usize,
    metrics: Arc<Metrics>,
    gate: Arc<DrainGate>,
}

impl Pool {
    /// A pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            metrics: Arc::new(Metrics::new()),
            gate: Arc::new(DrainGate::new()),
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_default_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(n)
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's metrics (shared across `execute` calls).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A shared handle to this pool: same width, same metrics, same
    /// drain gate. Handles are how several owners (the connections of
    /// a long-lived service, a scheduler thread, a shutdown path)
    /// schedule onto one pool — a drain begun through any handle is
    /// observed by all of them.
    pub fn share(&self) -> Pool {
        Pool {
            threads: self.threads,
            metrics: Arc::clone(&self.metrics),
            gate: Arc::clone(&self.gate),
        }
    }

    /// Flips the pool (and every [`share`](Self::share) handle) into
    /// drain mode: batches already executing run to completion, but
    /// every later `execute` call refuses its jobs, reporting each as
    /// [`JobStatus::Cancelled`]. Idempotent.
    pub fn begin_drain(&self) {
        self.gate
            .draining
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// True once [`begin_drain`](Self::begin_drain) was called on any
    /// handle of this pool.
    pub fn is_draining(&self) -> bool {
        self.gate
            .draining
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Number of `execute` batches currently running across all
    /// handles.
    pub fn in_flight(&self) -> usize {
        *self
            .gate
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until no batch is executing on any handle, or until
    /// `timeout` elapses. Returns `true` when the pool went idle
    /// within the budget. With `None` the wait is unbounded.
    ///
    /// Typical drain sequence: `begin_drain()` (stop admitting), let
    /// the scheduler finish its queue, then `wait_idle(deadline)`
    /// before flushing observability state to disk.
    pub fn wait_idle(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut n = self
            .gate
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *n > 0 {
            match deadline {
                None => {
                    n = self
                        .gate
                        .idle
                        .wait(n)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let Some(left) = d.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    let (guard, _timed_out) = self
                        .gate
                        .idle
                        .wait_timeout(n, left)
                        .unwrap_or_else(PoisonError::into_inner);
                    n = guard;
                }
            }
        }
        true
    }

    /// Executes all jobs and returns their results **in submission
    /// order**, regardless of which worker ran what when — callers
    /// can rely on positional correspondence with the input vector.
    ///
    /// Jobs not yet started when `token` is cancelled are reported as
    /// [`JobStatus::Cancelled`], and running cooperative jobs observe
    /// the cancellation through their [`JobCtx`].
    ///
    /// Every job gets a trace buffer and a metrics buffer (unit = job
    /// id). The trace buffer's lifecycle `job` span wraps whatever the
    /// work closure records through [`JobCtx::trace`]; the metrics
    /// buffer collects what it records through [`JobCtx::metrics`]
    /// plus the runner's own logical outcome counters (`runner.jobs`,
    /// `runner.completed`, `runner.retries`, …). Finished buffers are
    /// absorbed into `collector` and `hub`; pass
    /// [`Collector::disabled`] and [`MetricsHub::disabled`] to observe
    /// nothing, at no per-job cost.
    ///
    /// Everything recorded is logical — id, seed, terminal status tag,
    /// outcome and attempt counts — never latency, any other clock
    /// reading, or the (schedule-dependent) steal count. The collector
    /// and hub merge by `(unit, seq)` and commutatively, so traces and
    /// dumps are byte-identical across `--jobs 1` and `--jobs 8` runs
    /// of the same suite. Wall-clock profiling stays on the pool's own
    /// [`Metrics`].
    pub fn execute<T: Send>(
        &self,
        jobs: Vec<Job<T>>,
        token: &CancellationToken,
        collector: &Collector,
        hub: &MetricsHub,
    ) -> Vec<JobResult<T>> {
        let num_jobs = jobs.len();
        if num_jobs == 0 {
            return Vec::new();
        }
        // A draining pool refuses whole batches: the caller gets a
        // fully-populated result vector (every job Cancelled) instead
        // of an error, so refusal composes with the reduce paths.
        if self.is_draining() {
            return jobs
                .iter()
                .map(|job| {
                    self.metrics.inc_scheduled();
                    self.metrics.inc_cancelled();
                    cancelled_result(job)
                })
                .collect();
        }
        let _batch = BatchGuard::enter(&self.gate);
        for _ in 0..num_jobs {
            self.metrics.inc_scheduled();
        }

        // Serial fast path: no threads, no channels, same semantics.
        if self.threads == 1 {
            return jobs
                .iter()
                .map(|job| {
                    if token.is_cancelled() {
                        self.metrics.inc_cancelled();
                        cancelled_result(job)
                    } else {
                        run_observed_job(job, token, &self.metrics, collector, hub)
                    }
                })
                .collect();
        }

        let workers = self.threads.min(num_jobs);
        // Spec echoes, kept outside the shards so a result slot that a
        // worker never fills (a lost send, which only a bug or a shard
        // poisoned mid-pop could cause) degrades into a Failed result
        // instead of a panic in the collector.
        let specs: Vec<(String, u64)> = jobs
            .iter()
            .map(|j| (j.spec.id.clone(), j.spec.seed))
            .collect();
        let mut shards: Vec<Shard<T>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (idx, job) in jobs.into_iter().enumerate() {
            shards[idx % workers]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back((idx, job));
        }
        let shards = &shards;
        let (tx, rx) = mpsc::channel::<(usize, JobResult<T>)>();
        let metrics = &self.metrics;

        let mut results: Vec<Option<JobResult<T>>> = (0..num_jobs).map(|_| None).collect();
        std::thread::scope(|scope| {
            for me in 0..workers {
                let tx = tx.clone();
                let token = token.clone();
                scope.spawn(move || {
                    loop {
                        // Own shard first (front), then steal from the
                        // back of the others.
                        let mut claimed = lock_shard(&shards[me]).pop_front();
                        if claimed.is_none() {
                            for other in (0..shards.len()).filter(|&o| o != me) {
                                let steal = lock_shard(&shards[other]).pop_back();
                                if steal.is_some() {
                                    metrics.inc_stolen();
                                    claimed = steal;
                                    break;
                                }
                            }
                        }
                        let Some((idx, job)) = claimed else {
                            break; // all shards drained: run is over
                        };
                        let result = if token.is_cancelled() {
                            metrics.inc_cancelled();
                            cancelled_result(&job)
                        } else {
                            run_observed_job(&job, &token, metrics, collector, hub)
                        };
                        if tx.send((idx, result)).is_err() {
                            break; // collector went away (shouldn't happen)
                        }
                    }
                });
            }
            drop(tx);
            while let Ok((idx, result)) = rx.recv() {
                results[idx] = Some(result);
            }
        });

        results
            .into_iter()
            .zip(specs)
            .map(|(r, (id, seed))| r.unwrap_or_else(|| lost_result(id, seed, metrics)))
            .collect()
    }
}

/// Locks a shard, recovering the queue if a previous holder panicked
/// while holding the lock. The guarded data is a plain `VecDeque`
/// mutated only by non-panicking `pop_front`/`pop_back`/`push_back`
/// calls, so a poisoned queue is still structurally sound.
fn lock_shard<T>(shard: &Shard<T>) -> MutexGuard<'_, VecDeque<(usize, Job<T>)>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The terminal state for a job whose result never reached the
/// collector — reported as failed rather than poisoning the whole run.
fn lost_result<T>(id: String, seed: u64, metrics: &Metrics) -> JobResult<T> {
    metrics.inc_failed();
    JobResult {
        id,
        seed,
        status: JobStatus::Failed(JobError::Fatal(
            "job result was lost by the pool (worker exited without reporting)".to_string(),
        )),
        attempts: 0,
        latency: Duration::ZERO,
    }
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
/// buffer: opens the `job` span, executes, closes the span with the
/// terminal status, books the runner's logical outcome counters, and
/// absorbs both buffers. Everything recorded is logical — no clock
/// values.
fn run_observed_job<T>(
    job: &Job<T>,
    run_token: &CancellationToken,
    metrics: &Metrics,
    collector: &Collector,
    hub: &MetricsHub,
) -> JobResult<T> {
    let mut buf = collector.buf(job.spec.id.clone());
    buf.span_start(
        "job",
        vec![
            field("id", job.spec.id.clone()),
            field("seed", job.spec.seed),
        ],
    );
    // With tracing and metrics both off this is `Observer::off()`:
    // no lock and no shared allocation per job.
    let observer = Observer::new(buf, hub.buf(job.spec.id.clone()));
    let result = run_job(job, run_token, metrics, &observer);
    let (mut buf, mut mbuf) = observer.take();
    // Cost records at the span boundary, under the still-open `job`
    // span, named identically to the runner.* workload counters so
    // the profiler can attribute attempts to the job path.
    buf.counter("runner.jobs", 1);
    if result.attempts > 1 {
        buf.counter("runner.retries", u64::from(result.attempts - 1));
    }
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
        if result.attempts > 1 {
            mbuf.counter("runner.retries", u64::from(result.attempts - 1));
        }
        hub.absorb(mbuf);
    }
    result
}

/// Runs one job to its terminal state on the current thread: retry
/// loop, deadline accounting, panic isolation, metrics booking.
pub(crate) fn run_job<T>(
    job: &Job<T>,
    run_token: &CancellationToken,
    metrics: &Metrics,
    observer: &Observer,
) -> JobResult<T> {
    let started = Instant::now();
    let deadline = job.spec.timeout.map(|t| started + t);
    let mut attempts = 0u32;
    let status = loop {
        attempts += 1;
        let ctx = JobCtx {
            seed: job.spec.seed,
            attempt: attempts,
            token: run_token.clone(),
            deadline,
            observer: observer.clone(),
        };
        let overdue = || deadline.is_some_and(|d| Instant::now() >= d);
        let outcome = catch_unwind(AssertUnwindSafe(|| (job.work)(&ctx)));
        match outcome {
            Ok(Ok(value)) => {
                if overdue() {
                    break JobStatus::TimedOut;
                }
                break JobStatus::Completed(value);
            }
            Ok(Err(JobError::Transient(msg))) => {
                if overdue() {
                    break JobStatus::TimedOut;
                }
                if attempts <= job.spec.max_retries && !run_token.is_cancelled() {
                    metrics.inc_retried();
                    continue;
                }
                break JobStatus::Failed(JobError::Transient(msg));
            }
            Ok(Err(err)) => {
                if overdue() {
                    break JobStatus::TimedOut;
                }
                break JobStatus::Failed(err);
            }
            Err(payload) => {
                metrics.inc_panicked();
                let msg = panic_message(payload.as_ref());
                if overdue() {
                    break JobStatus::TimedOut;
                }
                break JobStatus::Failed(JobError::Panicked(msg));
            }
        }
    };
    let latency = started.elapsed();
    metrics.latency.record(latency);
    match &status {
        JobStatus::Completed(_) => metrics.inc_completed(),
        JobStatus::Failed(_) => metrics.inc_failed(),
        JobStatus::TimedOut => metrics.inc_timed_out(),
        JobStatus::Cancelled => metrics.inc_cancelled(),
    }
    JobResult {
        id: job.spec.id.clone(),
        seed: job.spec.seed,
        status,
        attempts,
        latency,
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
