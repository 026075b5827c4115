//! Trace sinks: where a merged [`Trace`](crate::Trace) renders to.
//!
//! Sinks only ever see the deterministic, `(unit, seq)`-sorted event
//! stream — instrumented code records through
//! [`TraceBuf`](crate::TraceBuf)/[`Collector`](crate::Collector) and
//! never writes to a sink directly (lint rule O1).

use crate::event::Event;
use crate::json;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// A consumer of ordered trace events.
pub trait Sink {
    /// Consumes one event.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, if any.
    fn write_event(&mut self, event: &Event) -> io::Result<()>;

    /// Flushes any buffered output. Default: no-op.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, if any.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one JSONL record per event.
pub struct JsonlSink<'w> {
    w: io::BufWriter<&'w mut dyn Write>,
}

impl<'w> JsonlSink<'w> {
    /// A sink writing to `w`.
    pub fn new(w: &'w mut dyn Write) -> Self {
        JsonlSink {
            w: io::BufWriter::new(w),
        }
    }
}

impl Sink for JsonlSink<'_> {
    fn write_event(&mut self, event: &Event) -> io::Result<()> {
        writeln!(self.w, "{}", json::event_to_json(event))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Accumulates a compact text summary: record counts per kind, event
/// counts per name, and counter totals. Purely in-memory; never
/// fails.
#[derive(Debug, Default)]
pub struct SummarySink {
    units: BTreeMap<String, usize>,
    kinds: BTreeMap<&'static str, usize>,
    names: BTreeMap<String, usize>,
    counters: BTreeMap<String, u64>,
}

impl SummarySink {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the accumulated summary as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("-- trace summary --\n");
        let total: usize = self.kinds.values().sum();
        out.push_str(&format!(
            "{} events across {} units\n",
            total,
            self.units.len()
        ));
        for (kind, n) in &self.kinds {
            out.push_str(&format!("  kind {kind:<10} {n:>8}\n"));
        }
        for (name, n) in &self.names {
            out.push_str(&format!("  event {name:<20} {n:>8}\n"));
        }
        for (name, total) in &self.counters {
            out.push_str(&format!("  counter {name:<18} {total:>8}\n"));
        }
        out
    }
}

impl Sink for SummarySink {
    fn write_event(&mut self, event: &Event) -> io::Result<()> {
        *self.units.entry(event.unit.clone()).or_insert(0) += 1;
        *self.kinds.entry(event.kind.tag()).or_insert(0) += 1;
        *self.names.entry(event.name.clone()).or_insert(0) += 1;
        if event.kind == crate::EventKind::Counter {
            if let Some(crate::FieldValue::UInt(delta)) = event.field("delta") {
                *self.counters.entry(event.name.clone()).or_insert(0) += delta;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{field, EventKind};

    fn ev(name: &str, kind: EventKind) -> Event {
        Event {
            unit: "u".into(),
            seq: 0,
            path: String::new(),
            kind,
            name: name.into(),
            fields: vec![field("delta", 7u64)],
        }
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut out = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut out);
            sink.write_event(&ev("a", EventKind::Point)).unwrap();
            sink.write_event(&ev("b", EventKind::Counter)).unwrap();
            sink.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn summary_sink_accumulates() {
        let mut sink = SummarySink::new();
        sink.write_event(&ev("bits", EventKind::Counter)).unwrap();
        sink.write_event(&ev("bits", EventKind::Counter)).unwrap();
        sink.write_event(&ev("msg", EventKind::Point)).unwrap();
        let text = sink.render();
        assert!(text.contains("3 events across 1 units"));
        assert!(text.contains("counter bits"));
        assert!(text.contains("14"), "counter total missing: {text}");
    }
}
