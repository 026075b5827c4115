//! [`Observer`]: one shared, clonable handle to a unit's trace *and*
//! metrics buffers.
//!
//! [`TraceBuf`] and [`MetricsBuf`] are deliberately single-owner
//! (recording is a plain push or map update), but configuration
//! objects — a simulator config, a protocol-driver options struct, a
//! job context — want to *carry* their destinations by value and hand
//! them to library code that takes `&mut` buffers. An observer is that
//! bridge: one `Arc<Mutex<_>>` around the `(TraceBuf, MetricsBuf)`
//! pair, so a driver takes one lock per run and records both halves
//! under it. Recording stays deterministic — everything lands in the
//! wrapped buffers in call order, keyed by logical quantities, never
//! by wall-clock.

use crate::buf::{TraceBuf, TraceLevel};
use crate::event::FieldValue;
use bcc_metrics::{MetricsBuf, MetricsLevel};
use std::sync::{Arc, Mutex, PoisonError};

/// A clonable handle to one unit's trace and metrics buffers.
///
/// Both levels are cached outside the lock. With both halves off the
/// observer holds no buffers at all — [`off`](Self::off), the
/// `Default`, allocates nothing — and [`with`](Self::with) hands out
/// stack-local disabled buffers without locking, so instrumented code
/// needs no `if`s.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    trace: TraceLevel,
    metrics: MetricsLevel,
    bufs: Option<Arc<Mutex<(TraceBuf, MetricsBuf)>>>,
}

impl Observer {
    /// An observer that records nothing (unobserved runs).
    pub fn off() -> Self {
        Observer::default()
    }

    /// Wraps a trace and a metrics buffer for sharing. Two disabled
    /// buffers make an [`off`](Self::off) observer.
    pub fn new(trace: TraceBuf, metrics: MetricsBuf) -> Self {
        let (trace_level, metrics_level) = (trace.level(), metrics.level());
        if trace_level == TraceLevel::Off && metrics_level == MetricsLevel::Off {
            return Observer::off();
        }
        Observer {
            trace: trace_level,
            metrics: metrics_level,
            bufs: Some(Arc::new(Mutex::new((trace, metrics)))),
        }
    }

    /// The same metrics destination with the trace half switched off:
    /// [`with`](Self::with) then passes a stack-local disabled trace
    /// buffer. For a caller whose runs belong in the dump but would
    /// flood the trace.
    #[must_use]
    pub fn metrics_only(&self) -> Self {
        if self.metrics == MetricsLevel::Off {
            return Observer::off();
        }
        Observer {
            trace: TraceLevel::Off,
            ..self.clone()
        }
    }

    /// Runs `f` with exclusive access to both buffers under the one
    /// lock — the bridge into library APIs that take `&mut TraceBuf`
    /// and `&mut MetricsBuf` (a simulator or protocol driver recording
    /// its own spans and counters).
    pub fn with<R>(&self, f: impl FnOnce(&mut TraceBuf, &mut MetricsBuf) -> R) -> R {
        let Some(bufs) = &self.bufs else {
            return f(&mut TraceBuf::disabled(), &mut MetricsBuf::disabled());
        };
        let mut guard = bufs.lock().unwrap_or_else(PoisonError::into_inner);
        let (trace, metrics) = &mut *guard;
        if self.trace == TraceLevel::Off {
            f(&mut TraceBuf::disabled(), metrics)
        } else {
            f(trace, metrics)
        }
    }

    /// Records a domain point event (no-op unless events are kept).
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        if self.trace >= TraceLevel::Events {
            self.with(|trace, _| trace.event(name, fields));
        }
    }

    /// Takes both buffers back out, leaving disabled ones behind. A
    /// collector and hub call this once to absorb the records; a
    /// closure that (incorrectly) kept a clone alive past its owner
    /// records into the discarded replacements, never corrupting the
    /// trace or the dump.
    pub fn take(&self) -> (TraceBuf, MetricsBuf) {
        let disabled = (TraceBuf::disabled(), MetricsBuf::disabled());
        match &self.bufs {
            Some(bufs) => std::mem::replace(
                &mut *bufs.lock().unwrap_or_else(PoisonError::into_inner),
                disabled,
            ),
            None => disabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field;

    #[test]
    fn off_observer_records_nothing() {
        let observer = Observer::off();
        assert_eq!(observer.trace, TraceLevel::Off);
        assert_eq!(observer.metrics, MetricsLevel::Off);
        observer.event("x", vec![]);
        observer.with(|t, m| {
            t.counter("c", 1);
            t.gauge("g", 2u64);
            m.counter("c", 1);
            m.gauge("g", 2);
            m.observe("h", 3);
        });
        let (trace, metrics) = observer.take();
        assert!(trace.into_events().is_empty());
        assert!(metrics.is_empty());
        let disabled = Observer::new(TraceBuf::disabled(), MetricsBuf::disabled());
        assert!(disabled.bufs.is_none());
    }

    #[test]
    fn clones_share_one_buffer_pair() {
        let observer = Observer::new(
            TraceBuf::new(TraceLevel::Events, "u"),
            MetricsBuf::new(MetricsLevel::Core, "u"),
        );
        let clone = observer.clone();
        observer.event("a", vec![field("k", 1u64)]);
        clone.event("b", vec![]);
        observer.with(|_, m| m.counter("c", 1));
        clone.with(|_, m| m.counter("c", 2));
        let (trace, metrics) = observer.take();
        let events = trace.into_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        let (counters, _, _) = metrics.into_parts();
        assert_eq!(counters.get("c"), Some(&3));
        // The clone now points at the discarded replacements.
        clone.event("late", vec![]);
        clone.with(|_, m| m.counter("late", 1));
        let (trace, metrics) = observer.take();
        assert!(trace.into_events().is_empty());
        assert!(metrics.is_empty());
    }

    #[test]
    fn with_bridges_into_traced_apis() {
        let observer = Observer::new(
            TraceBuf::new(TraceLevel::Spans, "u"),
            MetricsBuf::disabled(),
        );
        assert_eq!(observer.trace, TraceLevel::Spans);
        observer.event("dropped", vec![]);
        observer.with(|b, _| {
            b.span_start("s", vec![]);
            b.span_end("s", vec![]);
        });
        assert_eq!(observer.take().0.into_events().len(), 2);
    }

    #[test]
    fn full_records_gate_on_the_metrics_level() {
        let core = Observer::new(
            TraceBuf::disabled(),
            MetricsBuf::new(MetricsLevel::Core, "u"),
        );
        core.with(|_, m| {
            m.full_counter("fc", 1);
            m.full_gauge("fg", 1);
            m.full_observe("fh", 1);
        });
        assert!(core.take().1.is_empty());
        let full = Observer::new(
            TraceBuf::disabled(),
            MetricsBuf::new(MetricsLevel::Full, "u"),
        );
        full.with(|_, m| {
            m.full_counter("fc", 1);
            m.full_observe("fh", 2);
        });
        assert_eq!(full.take().1.len(), 2);
    }

    #[test]
    fn metrics_only_hides_the_trace_half() {
        let observer = Observer::new(
            TraceBuf::new(TraceLevel::Events, "u"),
            MetricsBuf::new(MetricsLevel::Core, "u"),
        );
        let metered = observer.metrics_only();
        assert_eq!(metered.trace, TraceLevel::Off);
        assert_eq!(metered.metrics, MetricsLevel::Core);
        metered.event("hidden", vec![]);
        metered.with(|t, m| {
            assert_eq!(t.level(), TraceLevel::Off);
            t.event("hidden", vec![]);
            m.counter("c", 1);
        });
        let (trace, metrics) = observer.take();
        assert!(trace.into_events().is_empty());
        assert_eq!(metrics.into_parts().0.get("c"), Some(&1));
        let untraced = Observer::new(
            TraceBuf::new(TraceLevel::Events, "u"),
            MetricsBuf::disabled(),
        );
        assert!(untraced.metrics_only().bufs.is_none());
    }
}
