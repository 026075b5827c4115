//! A shared, clonable handle to a [`TraceBuf`].
//!
//! [`TraceBuf`] is deliberately single-owner (recording is a plain
//! `Vec::push`), but configuration objects — a simulator config, a
//! protocol-driver options struct, a job context — want to *carry* a
//! trace destination by value and hand it to library code that takes
//! `&mut TraceBuf`. `TraceScope` is that bridge: an `Arc<Mutex<_>>`
//! wrapper whose every method is a cheap no-op branch when tracing is
//! off. Recording stays deterministic — everything lands in the one
//! wrapped buffer, in call order, keyed by the buffer's own sequence
//! counter, never by wall-clock.

use crate::buf::{TraceBuf, TraceLevel};
use crate::event::FieldValue;
use std::sync::{Arc, Mutex, PoisonError};

/// A clonable handle to one [`TraceBuf`].
///
/// The mutex serializes the (rare) case of two clones recording
/// concurrently; when tracing is off every method is a branch on a
/// cached level — no lock, no allocation — so instrumented code needs
/// no `if`s.
#[derive(Debug, Clone)]
pub struct TraceScope {
    level: TraceLevel,
    buf: Arc<Mutex<TraceBuf>>,
}

impl TraceScope {
    /// Wraps a buffer for sharing.
    pub fn new(buf: TraceBuf) -> Self {
        TraceScope {
            level: buf.level(),
            buf: Arc::new(Mutex::new(buf)),
        }
    }

    /// A scope that records nothing (untraced runs). This is the
    /// `Default`.
    pub fn disabled() -> Self {
        TraceScope::new(TraceBuf::disabled())
    }

    /// The recording level the wrapped buffer was created with.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// True when point events are kept.
    pub fn enabled(&self) -> bool {
        self.level >= TraceLevel::Events
    }

    /// True when counter/gauge cost records are kept.
    pub fn costs_enabled(&self) -> bool {
        self.level >= TraceLevel::Costs
    }

    /// True when span start/end records are kept.
    pub fn spans_enabled(&self) -> bool {
        self.level >= TraceLevel::Spans
    }

    /// Runs `f` with exclusive access to the underlying buffer — the
    /// bridge into traced library APIs that take `&mut TraceBuf`
    /// (e.g. a simulator or protocol driver recording its own spans).
    pub fn with<R>(&self, f: impl FnOnce(&mut TraceBuf) -> R) -> R {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut buf)
    }

    /// Records a domain point event (no-op when tracing is off).
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        if self.enabled() {
            self.with(|b| b.event(name, fields));
        }
    }

    /// Records a counter increment (no-op when tracing is off).
    pub fn counter(&self, name: &str, delta: u64) {
        if self.costs_enabled() {
            self.with(|b| b.counter(name, delta));
        }
    }

    /// Records an instantaneous level (no-op when tracing is off).
    pub fn gauge(&self, name: &str, value: impl Into<FieldValue>) {
        if self.costs_enabled() {
            self.with(|b| b.gauge(name, value));
        }
    }

    /// Takes the buffer back out, leaving a disabled one behind. A
    /// collector calls this once to absorb the records; a closure that
    /// (incorrectly) kept a clone alive past its owner records into
    /// the discarded replacement, never corrupting the trace.
    pub fn take(&self) -> TraceBuf {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *buf, TraceBuf::disabled())
    }
}

impl Default for TraceScope {
    fn default() -> Self {
        TraceScope::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field;

    #[test]
    fn disabled_scope_records_nothing() {
        let scope = TraceScope::disabled();
        assert!(!scope.enabled());
        assert!(!scope.spans_enabled());
        scope.event("x", vec![]);
        scope.counter("c", 1);
        scope.gauge("g", 2u64);
        assert!(scope.take().into_events().is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let scope = TraceScope::new(TraceBuf::new(TraceLevel::Events, "u"));
        let clone = scope.clone();
        scope.event("a", vec![field("k", 1u64)]);
        clone.event("b", vec![]);
        let events = scope.take().into_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        // The clone now points at the discarded replacement.
        clone.event("late", vec![]);
        assert!(scope.take().into_events().is_empty());
    }

    #[test]
    fn with_bridges_into_traced_apis() {
        let scope = TraceScope::new(TraceBuf::new(TraceLevel::Spans, "u"));
        assert!(scope.spans_enabled());
        assert!(!scope.enabled());
        scope.with(|b| {
            b.span_start("s", vec![]);
            b.span_end("s", vec![]);
        });
        assert_eq!(scope.take().into_events().len(), 2);
    }
}
