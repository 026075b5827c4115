//! Run profiling: atomic scheduler counters and the wall-clock
//! latency histogram, safe to record into from any number of workers.
//!
//! This is the runner's *profiling* side — scheduling outcomes and
//! wall-clock latencies, which depend on the machine and the thread
//! schedule. The *deterministic* workload metrics (bits, rounds,
//! cache lookups) live in `bcc-metrics` and flow through
//! [`MetricsHub`](bcc_metrics::MetricsHub) instead; the two must not
//! mix, because a deterministic dump may not contain anything a clock
//! or a scheduler decided. The histogram implementation itself is
//! shared: [`Histogram`]/[`HistogramSnapshot`] are `bcc-metrics`
//! types.

use bcc_metrics::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for everything the pool does, plus the latency histogram.
#[derive(Debug, Default)]
pub struct Metrics {
    scheduled: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    /// Per-job wall-clock latency (one sample per finished job).
    pub latency: Histogram,
}

macro_rules! counter {
    ($($inc:ident / $get:ident -> $field:ident),* $(,)?) => {$(
        #[doc = concat!("Increments the `", stringify!($field), "` counter.")]
        pub fn $inc(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
        #[doc = concat!("Current `", stringify!($field), "` count.")]
        pub fn $get(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        }
    )*};
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    counter! {
        inc_scheduled / scheduled -> scheduled,
        inc_completed / completed -> completed,
        inc_failed / failed -> failed,
        inc_timed_out / timed_out -> timed_out,
        inc_cancelled / cancelled -> cancelled,
        inc_panicked / panicked -> panicked,
    }

    /// A point-in-time copy of every counter and the histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            scheduled: self.scheduled(),
            completed: self.completed(),
            failed: self.failed(),
            timed_out: self.timed_out(),
            cancelled: self.cancelled(),
            panicked: self.panicked(),
            latency: self.latency.snapshot(),
        }
    }
}

/// Immutable copy of [`Metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs handed to the pool.
    pub scheduled: u64,
    /// Jobs that produced an output in time.
    pub completed: u64,
    /// Jobs whose final attempt errored or panicked.
    pub failed: u64,
    /// Jobs that exceeded their wall-clock deadline.
    pub timed_out: u64,
    /// Jobs skipped because the run was cancelled first.
    pub cancelled: u64,
    /// Attempts that panicked (isolated by `catch_unwind`).
    pub panicked: u64,
    /// Latency histogram snapshot (microsecond samples).
    pub latency: HistogramSnapshot,
}

impl MetricsSnapshot {
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

    #[test]
    fn jsonl_record_shape() {
        let m = Metrics::new();
        m.inc_scheduled();
        m.inc_completed();
        m.latency.record(Duration::from_micros(100));
        let rec = m.snapshot().to_jsonl();
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
        let rec = Metrics::new().snapshot().to_jsonl();
        assert!(rec.contains(
            "\"latency\":{\"count\":0,\"mean_us\":0.0,\"p50_le_us\":0,\
             \"p90_le_us\":0,\"p99_le_us\":0,\"max_us\":0}"
        ));
    }

    #[test]
    fn summary_table_renders() {
        let m = Metrics::new();
        m.inc_scheduled();
        m.inc_completed();
        m.latency.record(Duration::from_millis(3));
        let t = m.snapshot().summary_table();
        assert!(t.contains("scheduled"));
        assert!(t.contains("completed"));
        assert!(t.contains("\nattempts  retried        0  panicked       0  stolen    0\n"));
    }
}
