//! Run profiling: the scheduler profile of one `execute` call, folded
//! from the results it returned.
//!
//! This is the runner's *profiling* side — scheduling outcomes and
//! wall-clock latencies, which depend on the machine and the thread
//! schedule. The *deterministic* workload metrics (bits, rounds,
//! cache lookups) live in `bcc-metrics` and flow through
//! [`MetricsHub`](bcc_metrics::MetricsHub) instead; the two must not
//! mix, because a deterministic dump may not contain anything a clock
//! or a scheduler decided. The histogram itself is shared:
//! [`HistogramSnapshot`] is a `bcc-metrics` type.

use crate::job::{JobError, JobResult, JobStatus};
use bcc_metrics::HistogramSnapshot;

/// Scheduler counts and the latency histogram of a batch of results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs handed to the pool.
    pub scheduled: u64,
    /// Jobs that produced an output in time.
    pub completed: u64,
    /// Jobs whose attempt errored or panicked, or whose result was lost.
    pub failed: u64,
    /// Jobs that exceeded their wall-clock deadline.
    pub timed_out: u64,
    /// Jobs skipped because the run was cancelled first.
    pub cancelled: u64,
    /// Results that read `Failed(Panicked(_))`.
    pub panicked: u64,
    /// Latency of every job that ran (microsecond samples).
    pub latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// The profile of `results`: one count per status, `panicked` for
    /// the results that read `Failed(Panicked(_))`, and the latency of
    /// every job that ran (`attempts == 1`). A cancelled or lost job
    /// reads 0 attempts, and its zero latency is not a sample.
    pub fn of<T>(results: &[JobResult<T>]) -> MetricsSnapshot {
        let mut m = MetricsSnapshot {
            scheduled: results.len() as u64,
            ..MetricsSnapshot::default()
        };
        for r in results {
            match &r.status {
                JobStatus::Completed(_) => m.completed += 1,
                JobStatus::Failed(err) => {
                    m.failed += 1;
                    if matches!(err, JobError::Panicked(_)) {
                        m.panicked += 1;
                    }
                }
                JobStatus::TimedOut => m.timed_out += 1,
                JobStatus::Cancelled => m.cancelled += 1,
            }
            if r.attempts == 1 {
                m.latency
                    .observe(r.latency.as_micros().min(u64::MAX as u128) as u64);
            }
        }
        m
    }

    /// Human-readable end-of-run summary.
    pub fn summary_table(&self) -> String {
        let l = &self.latency;
        let fmt_us = |us: u64| -> String {
            if us >= 1_000_000 {
                format!("{:.2}s", us as f64 / 1e6)
            } else if us >= 1_000 {
                format!("{:.2}ms", us as f64 / 1e3)
            } else {
                format!("{us}us")
            }
        };
        let mut out = String::new();
        out.push_str("-- runner metrics --\n");
        out.push_str(&format!(
            "jobs      scheduled {:>6}  completed {:>6}  failed {:>4}  timed-out {:>4}  cancelled {:>4}\n",
            self.scheduled, self.completed, self.failed, self.timed_out, self.cancelled
        ));
        // A job runs once and the one queue has nothing to steal, so
        // `retried` and `stolen` are always 0; the columns stay so the
        // line keeps its shape.
        out.push_str(&format!(
            "attempts  retried        0  panicked  {:>6}  stolen    0\n",
            self.panicked
        ));
        out.push_str(&format!(
            "latency   mean {}  p50<= {}  p90<= {}  p99<= {}  max {}\n",
            fmt_us(l.mean() as u64),
            fmt_us(l.quantile_upper(0.50)),
            fmt_us(l.quantile_upper(0.90)),
            fmt_us(l.quantile_upper(0.99)),
            fmt_us(l.max),
        ));
        out
    }

    /// This snapshot as one JSONL record (`"type":"metrics"`), the
    /// final line of a `--json` run. Key order is fixed; the output
    /// contains only plain JSON numbers, so the record is stable
    /// byte-for-byte for equal snapshots. `retried` and `stolen` are
    /// always 0, as in the summary table. The latency object is the
    /// shared [`HistogramSnapshot`] schema with the `_us` unit suffix.
    pub fn to_jsonl(&self) -> String {
        format!(
            concat!(
                "{{\"type\":\"metrics\",\"scheduled\":{},\"completed\":{},",
                "\"failed\":{},\"retried\":0,\"timed_out\":{},",
                "\"cancelled\":{},\"panicked\":{},\"stolen\":0,",
                "\"latency\":{}}}"
            ),
            self.scheduled,
            self.completed,
            self.failed,
            self.timed_out,
            self.cancelled,
            self.panicked,
            self.latency.to_json("_us"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn completed(us: u64) -> JobResult<()> {
        JobResult {
            id: "j".into(),
            seed: 0,
            status: JobStatus::Completed(()),
            attempts: 1,
            latency: Duration::from_micros(us),
        }
    }

    #[test]
    fn jsonl_record_shape() {
        let rec = MetricsSnapshot::of(&[completed(100)]).to_jsonl();
        assert!(rec.starts_with("{\"type\":\"metrics\""));
        assert!(rec.ends_with("}}"));
        assert!(rec.contains("\"scheduled\":1"));
        assert!(rec.contains("\"latency\":{\"count\":1,\"mean_us\":100.0"));
        assert!(rec.contains("\"max_us\":100"));
        assert!(rec.contains("\"retried\":0,\"timed_out\":0,"));
        assert!(rec.contains("\"panicked\":0,\"stolen\":0,\"latency\""));
        assert!(!rec.contains('\n'));
    }

    #[test]
    fn empty_latency_jsonl_is_all_zero() {
        // Satellite pin: the empty histogram renders zeros (not NaN,
        // not nulls) through the shared schema.
        let rec = MetricsSnapshot::of::<()>(&[]).to_jsonl();
        assert!(rec.contains(
            "\"latency\":{\"count\":0,\"mean_us\":0.0,\"p50_le_us\":0,\
             \"p90_le_us\":0,\"p99_le_us\":0,\"max_us\":0}"
        ));
    }

    #[test]
    fn summary_table_renders() {
        let t = MetricsSnapshot::of(&[completed(3000)]).summary_table();
        assert!(t.contains("scheduled"));
        assert!(t.contains("completed"));
        assert!(t.contains("\nattempts  retried        0  panicked       0  stolen    0\n"));
    }
}
