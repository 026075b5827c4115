//! `bcc-runner`: parallel job orchestration for the experiment suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod metrics;
pub mod pool;

pub use job::{CancellationToken, Job, JobCtx, JobError, JobResult, JobSpec, JobStatus};
pub use metrics::MetricsSnapshot;
pub use pool::Pool;
