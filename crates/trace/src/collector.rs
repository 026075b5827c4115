//! The deterministic collector: per-unit buffers in, one ordered
//! trace out.

use crate::buf::{TraceBuf, TraceLevel};
use crate::event::{Event, EventKind, FieldValue};
use crate::json;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// Collects [`TraceBuf`]s from any number of threads and merges them
/// into one deterministic [`Trace`].
///
/// The collector is the only route from recorded events to rendered
/// bytes: instrumented code records into buffers, buffers are absorbed
/// here, and [`Trace`] renders only the merged, `(unit, seq)`-sorted
/// stream. That ordering is a pure function of event content, so
/// `--jobs 1` and `--jobs 8` produce byte-identical traces no matter
/// how workers interleave.
///
/// Cloning shares the underlying store (`Arc`), so a collector can be
/// handed to a pool and finished by the caller.
#[derive(Debug, Clone)]
pub struct Collector {
    level: TraceLevel,
    store: Arc<Mutex<Vec<Vec<Event>>>>,
}

impl Collector {
    /// A collector recording at `level`.
    pub fn new(level: TraceLevel) -> Self {
        Collector {
            level,
            store: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A collector that records nothing.
    pub fn disabled() -> Self {
        Collector::new(TraceLevel::Off)
    }

    /// The recording level handed to new buffers.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// True when this collector keeps any records at all.
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// A fresh buffer for the logical unit `unit`, recording at the
    /// collector's level. Units should be unique per run (job ids
    /// are); the merge is still deterministic if they are not, but
    /// interleaved same-unit events sort by sequence number alone.
    pub fn buf(&self, unit: impl Into<String>) -> TraceBuf {
        TraceBuf::new(self.level, unit)
    }

    /// Absorbs a finished buffer: one short lock per buffer, never
    /// per event. Empty buffers are dropped without locking.
    pub fn absorb(&self, buf: TraceBuf) {
        if buf.is_empty() {
            return;
        }
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(buf.into_events());
    }

    /// Merges everything absorbed so far into an ordered [`Trace`].
    ///
    /// Events sort by `(unit, seq, name)` — unit groups a job's
    /// records together, sequence preserves recording order inside a
    /// unit, and the name tiebreak makes even pathological duplicate
    /// `(unit, seq)` pairs order deterministically.
    pub fn finish(&self) -> Trace {
        let mut batches = self
            .store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .split_off(0);
        let mut events: Vec<Event> = batches.drain(..).flatten().collect();
        events.sort_by(|a, b| {
            (a.unit.as_str(), a.seq, a.name.as_str()).cmp(&(
                b.unit.as_str(),
                b.seq,
                b.name.as_str(),
            ))
        });
        Trace {
            level: self.level,
            events,
        }
    }
}

/// The merged, immutable result of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    level: TraceLevel,
    events: Vec<Event>,
}

impl Trace {
    /// The level the trace was recorded at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The ordered events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Writes the trace as JSONL, one event per line, and flushes `w`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> std::io::Result<()> {
        for e in &self.events {
            writeln!(w, "{}", json::event_to_json(e))?;
        }
        w.flush()
    }

    /// The compact text summary: record counts per kind, event counts
    /// per name, and counter totals.
    pub fn summary(&self) -> String {
        let mut units = BTreeSet::new();
        let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
        let mut names: BTreeMap<&str, usize> = BTreeMap::new();
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &self.events {
            units.insert(e.unit.as_str());
            *kinds.entry(e.kind.tag()).or_insert(0) += 1;
            *names.entry(e.name.as_str()).or_insert(0) += 1;
            if let (EventKind::Counter, Some(FieldValue::UInt(delta))) = (e.kind, e.field("delta"))
            {
                *counters.entry(e.name.as_str()).or_insert(0) += delta;
            }
        }
        let mut out = format!(
            "-- trace summary --\n{} events across {} units\n",
            self.events.len(),
            units.len()
        );
        for (kind, n) in kinds {
            out.push_str(&format!("  kind {kind:<10} {n:>8}\n"));
        }
        for (name, n) in names {
            out.push_str(&format!("  event {name:<20} {n:>8}\n"));
        }
        for (name, total) in counters {
            out.push_str(&format!("  counter {name:<18} {total:>8}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;

    #[test]
    fn merge_is_deterministic_regardless_of_absorb_order() {
        let order_ab = Collector::new(TraceLevel::Events);
        let order_ba = Collector::new(TraceLevel::Events);
        let make = |c: &Collector, unit: &str, n: u64| {
            let mut b = c.buf(unit);
            for i in 0..n {
                b.event("x", vec![field("i", i)]);
            }
            b
        };
        let (a1, b1) = (make(&order_ab, "a", 3), make(&order_ab, "b", 2));
        order_ab.absorb(a1);
        order_ab.absorb(b1);
        let (a2, b2) = (make(&order_ba, "a", 3), make(&order_ba, "b", 2));
        order_ba.absorb(b2);
        order_ba.absorb(a2);
        assert_eq!(order_ab.finish().events(), order_ba.finish().events());
    }

    #[test]
    fn disabled_collector_stays_empty() {
        let c = Collector::disabled();
        assert!(!c.enabled());
        let mut b = c.buf("u");
        b.event("x", vec![]);
        b.counter("c", 1);
        c.absorb(b);
        assert!(c.finish().is_empty());
    }

    #[test]
    fn clones_share_the_store() {
        let c = Collector::new(TraceLevel::Events);
        let c2 = c.clone();
        let mut b = c2.buf("u");
        b.event("x", vec![]);
        c2.absorb(b);
        assert_eq!(c.finish().events().len(), 1);
    }

    #[test]
    fn summary_renders_counts() {
        let c = Collector::new(TraceLevel::Events);
        let mut b = c.buf("u");
        b.counter("bits", 3);
        b.counter("bits", 2);
        b.event("broadcast", vec![]);
        c.absorb(b);
        let mut v = c.buf("v");
        v.span_start("job", vec![]);
        c.absorb(v);
        assert_eq!(
            c.finish().summary(),
            "-- trace summary --\n\
             4 events across 2 units\n  \
             kind counter           2\n  \
             kind point             1\n  \
             kind span_start        1\n  \
             event bits                        2\n  \
             event broadcast                   1\n  \
             event job                         1\n  \
             counter bits                      5\n"
        );
    }

    #[test]
    fn write_jsonl_writes_one_parsable_line_per_event() {
        let c = Collector::new(TraceLevel::Events);
        let mut b = c.buf("u");
        b.event("a", vec![field("i", 1u64)]);
        b.counter("b", 7);
        c.absorb(b);
        let trace = c.finish();
        let mut out = Vec::new();
        trace.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| json::parse_event(l).unwrap())
            .collect();
        assert_eq!(parsed, trace.events());
    }
}
