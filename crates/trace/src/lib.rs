//! `bcc-trace`: deterministic structured tracing for the bcclique
//! workspace.
//!
//! The theorems this repository reproduces are statements about
//! *transcripts* — which bits cross the broadcast channel in which
//! round. This crate makes those transcripts observable without
//! breaking the property that makes them checkable: every span and
//! event is keyed on **logical time** (experiment → job → round →
//! node), never wall-clock, so a trace is a pure function of the
//! suite seed and the lint rule D2 (no clock reads outside the
//! runner) keeps holding in instrumented code.
//!
//! # Pieces
//!
//! - [`Event`], [`EventKind`], [`FieldValue`]: the typed event model.
//!   Events carry a `unit` (the owning logical scope, e.g. a job id),
//!   a per-unit sequence number, a slash-joined logical `path`
//!   (`round=3/node=7`), and named fields.
//! - [`TraceBuf`]: a plain, lock-free per-unit buffer. Recording is a
//!   `Vec::push`; a disabled buffer ([`TraceLevel::Off`]) skips the
//!   push entirely, so tracing compiles to a branch on the hot path.
//! - [`Collector`]: the only route from buffers to bytes. Buffers
//!   are absorbed under one short lock each and merged
//!   **deterministically** by `(unit, seq)` — thread interleaving can
//!   never reorder a trace.
//! - [`Trace`]: the merged, immutable result. Its two renderers,
//!   JSONL ([`Trace::write_jsonl`]) and a compact text summary
//!   ([`Trace::summary`]), are the only code that turns events into
//!   artifact bytes.
//! - [`json`]: the JSONL event codec, a typed schema over the
//!   workspace's shared JSON codec (`bcc_metrics::json`), so traces
//!   round-trip (used by the determinism proptests and the trace
//!   validator in CI).
//! - [`Observer`]: the one clonable handle configuration objects
//!   carry (simulator configs, driver options, job contexts): a job's
//!   `TraceBuf` and its `bcc_metrics::MetricsBuf` behind one lock.
//! - [`tree`]: span-tree reconstruction — rebuilds each unit's span
//!   forest (with per-span cost attachment) from the merged stream,
//!   the substrate for the `bcc-prof` cost-attribution profiler.
//!
//! # The invariant
//!
//! Tracing **on vs. off must never change experiment reports**, and a
//! re-run with the same seed must produce a byte-identical trace.
//! Nothing in this crate reads clocks, thread ids, or addresses, and
//! the merge order is a pure function of event content.
//!
//! # Example
//!
//! ```
//! use bcc_trace::{Collector, TraceLevel, field};
//!
//! let collector = Collector::new(TraceLevel::Events);
//! let mut buf = collector.buf("e1/n=27");
//! buf.span_start("job", vec![field("seed", 42u64)]);
//! buf.event("broadcast", vec![field("round", 0u64), field("bit", true)]);
//! buf.counter("bits_broadcast", 1);
//! buf.span_end("job", vec![]);
//! collector.absorb(buf);
//! let trace = collector.finish();
//! assert_eq!(trace.events().len(), 4);
//! let mut jsonl = Vec::new();
//! trace.write_jsonl(&mut jsonl).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod collector;
mod event;
pub mod json;
mod scope;
pub mod tree;

pub use buf::{TraceBuf, TraceLevel};
pub use collector::{Collector, Trace};
pub use event::{field, Event, EventKind, FieldValue};
pub use scope::Observer;
pub use tree::{build_trees, SpanNode, UnitTree};
