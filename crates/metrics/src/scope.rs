//! A shared, clonable handle to a [`MetricsBuf`].
//!
//! [`MetricsBuf`] is deliberately single-owner (recording is a plain
//! map update), but configuration objects — a simulator config, a
//! protocol-driver options struct, a job context — want to *carry* a
//! metrics destination by value and hand it to library code. This is
//! the same bridge `bcc_trace::TraceScope` provides for trace
//! buffers: an `Arc<Mutex<_>>` wrapper whose every method is a cheap
//! no-op branch on a cached level when metrics are off.

use crate::buf::MetricsBuf;
use crate::level::MetricsLevel;
use std::sync::{Arc, Mutex, PoisonError};

/// A clonable handle to one [`MetricsBuf`].
///
/// The mutex serializes the (rare) case of two clones recording
/// concurrently; when metrics are off every method is a branch on a
/// cached level — no lock, no allocation — so instrumented code needs
/// no `if`s.
#[derive(Debug, Clone)]
pub struct MetricScope {
    level: MetricsLevel,
    buf: Arc<Mutex<MetricsBuf>>,
}

impl MetricScope {
    /// Wraps a buffer for sharing.
    pub fn new(buf: MetricsBuf) -> Self {
        MetricScope {
            level: buf.level(),
            buf: Arc::new(Mutex::new(buf)),
        }
    }

    /// A scope that records nothing (unmeasured runs). This is the
    /// `Default`.
    pub fn disabled() -> Self {
        MetricScope::new(MetricsBuf::disabled())
    }

    /// The recording level the wrapped buffer was created with.
    pub fn level(&self) -> MetricsLevel {
        self.level
    }

    /// True when core counters/gauges/histograms are kept.
    pub fn core_enabled(&self) -> bool {
        self.level >= MetricsLevel::Core
    }

    /// True when per-observation detail is kept.
    pub fn full_enabled(&self) -> bool {
        self.level >= MetricsLevel::Full
    }

    /// Runs `f` with exclusive access to the underlying buffer — the
    /// bridge into library APIs that record several metrics at once.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsBuf) -> R) -> R {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut buf)
    }

    /// Adds `delta` to the counter `name` (no-op when off).
    pub fn counter(&self, name: &str, delta: u64) {
        if self.core_enabled() {
            self.with(|b| b.counter(name, delta));
        }
    }

    /// Folds one gauge observation into `name` (no-op when off).
    pub fn gauge(&self, name: &str, value: u64) {
        if self.core_enabled() {
            self.with(|b| b.gauge(name, value));
        }
    }

    /// Records one histogram sample under `name` (no-op when off).
    pub fn observe(&self, name: &str, value: u64) {
        if self.core_enabled() {
            self.with(|b| b.observe(name, value));
        }
    }

    /// [`counter`](Self::counter), kept only at [`MetricsLevel::Full`].
    pub fn full_counter(&self, name: &str, delta: u64) {
        if self.full_enabled() {
            self.with(|b| b.counter(name, delta));
        }
    }

    /// [`gauge`](Self::gauge), kept only at [`MetricsLevel::Full`].
    pub fn full_gauge(&self, name: &str, value: u64) {
        if self.full_enabled() {
            self.with(|b| b.gauge(name, value));
        }
    }

    /// [`observe`](Self::observe), kept only at [`MetricsLevel::Full`].
    pub fn full_observe(&self, name: &str, value: u64) {
        if self.full_enabled() {
            self.with(|b| b.observe(name, value));
        }
    }

    /// Takes the buffer back out, leaving a disabled one behind. A
    /// hub calls this once to absorb the records; a closure that
    /// (incorrectly) kept a clone alive past its owner records into
    /// the discarded replacement, never corrupting the dump.
    pub fn take(&self) -> MetricsBuf {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *buf, MetricsBuf::disabled())
    }
}

impl Default for MetricScope {
    fn default() -> Self {
        MetricScope::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scope_records_nothing() {
        let scope = MetricScope::disabled();
        assert!(!scope.core_enabled());
        assert!(!scope.full_enabled());
        scope.counter("c", 1);
        scope.gauge("g", 2);
        scope.observe("h", 3);
        assert!(scope.take().is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let scope = MetricScope::new(MetricsBuf::new(MetricsLevel::Core, "u"));
        let clone = scope.clone();
        scope.counter("c", 1);
        clone.counter("c", 2);
        let (counters, _, _) = scope.take().into_parts();
        assert_eq!(counters.get("c"), Some(&3));
        // The clone now points at the discarded replacement.
        clone.counter("late", 1);
        assert!(scope.take().is_empty());
    }

    #[test]
    fn full_methods_gate_on_level() {
        let core = MetricScope::new(MetricsBuf::new(MetricsLevel::Core, "u"));
        core.full_counter("fc", 1);
        core.full_gauge("fg", 1);
        core.full_observe("fh", 1);
        assert!(core.take().is_empty());
        let full = MetricScope::new(MetricsBuf::new(MetricsLevel::Full, "u"));
        full.full_counter("fc", 1);
        full.full_observe("fh", 2);
        assert_eq!(full.take().len(), 2);
    }
}
