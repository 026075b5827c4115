//! The typed job model: specs, execution context, errors, results.

use bcc_trace::Observer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag that flips exactly once, from "running" to
/// "cancelled". Cheap to clone; all clones observe the flip.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flips the token; idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Identity and scheduling policy of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable identifier, e.g. `"e3/m4"`.
    pub id: String,
    /// Deterministic seed owned by this job; all of the job's
    /// randomness must derive from it.
    pub seed: u64,
    /// Wall-clock budget, measured from the moment the job starts
    /// executing. `None` means unbounded.
    pub timeout: Option<Duration>,
}

impl JobSpec {
    /// A spec with no deadline.
    pub fn new(id: impl Into<String>, seed: u64) -> Self {
        JobSpec {
            id: id.into(),
            seed,
            timeout: None,
        }
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Why a job did not produce an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The work closure returned an error.
    Fatal(String),
    /// The job panicked; the panic was isolated to its worker.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Fatal(m) => write!(f, "fatal: {m}"),
            JobError::Panicked(m) => write!(f, "panicked: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// What a running job can see: its seed, its observer, and whether it
/// should stop early. Cancellation is cooperative — a
/// long-running job that polls [`JobCtx::is_cancelled`] can bail out
/// at its deadline instead of being discarded at the end.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// The job's deterministic seed (copied from its spec).
    pub seed: u64,
    pub(crate) token: CancellationToken,
    pub(crate) deadline: Option<Instant>,
    pub(crate) observer: Observer,
}

impl JobCtx {
    /// The job's observer: its trace and metrics buffers. Off (every
    /// call a cheap no-op) unless the run went through a pool entry
    /// point with a live [`Collector`](bcc_trace::Collector) or
    /// [`MetricsHub`](bcc_metrics::MetricsHub). Only logical
    /// quantities may be recorded here — never clock readings.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// True once the job's deadline passed or the run was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled() || self.deadline_exceeded()
    }

    /// True once the wall-clock deadline passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left until the deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// The boxed work closure of a [`Job`].
pub type WorkFn<T> = Box<dyn Fn(&JobCtx) -> Result<T, JobError> + Send>;

/// A unit of schedulable work producing a `T`.
///
/// The closure is executed under `catch_unwind`, so a panic degrades
/// into [`JobError::Panicked`] instead of killing the suite.
pub struct Job<T> {
    /// Identity + policy.
    pub spec: JobSpec,
    pub(crate) work: WorkFn<T>,
}

impl<T> Job<T> {
    /// Packages a closure under a spec.
    pub fn new(
        spec: JobSpec,
        work: impl Fn(&JobCtx) -> Result<T, JobError> + Send + 'static,
    ) -> Self {
        Job {
            spec,
            work: Box::new(work),
        }
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("spec", &self.spec).finish()
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus<T> {
    /// Produced an output within its deadline.
    Completed(T),
    /// The work closure errored or panicked.
    Failed(JobError),
    /// Finished (or was abandoned) after its wall-clock deadline; any
    /// late output is discarded.
    TimedOut,
    /// The run was cancelled before the job started.
    Cancelled,
}

impl<T> JobStatus<T> {
    /// Short machine-readable tag (`"completed"`, `"failed"`, …).
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Completed(_) => "completed",
            JobStatus::Failed(_) => "failed",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// The output, if completed.
    pub fn output(&self) -> Option<&T> {
        match self {
            JobStatus::Completed(v) => Some(v),
            _ => None,
        }
    }
}

/// A job's spec echo plus its terminal status, attempt count, and
/// measured wall-clock latency.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult<T> {
    /// Id copied from the spec.
    pub id: String,
    /// Seed copied from the spec.
    pub seed: u64,
    /// Terminal state.
    pub status: JobStatus<T>,
    /// Number of attempts executed: 1 for a job that ran, 0 if it was
    /// cancelled before starting or its result was lost.
    pub attempts: u32,
    /// Wall-clock time from first attempt to terminal state.
    pub latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_flips_once_and_shares() {
        let t = CancellationToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn spec_builders() {
        let s = JobSpec::new("x", 1).with_timeout(Duration::from_secs(2));
        assert_eq!(s.timeout, Some(Duration::from_secs(2)));
    }
}
