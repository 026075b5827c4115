//! Span-tree reconstruction: from a merged, flat event stream back to
//! the per-unit tree of logical scopes.
//!
//! A [`Trace`](crate::Trace) is a flat record — `(unit, seq)`-ordered
//! span opens/closes with counters interleaved. Consumers that reason
//! about *structure* (the `bcc-prof` cost-attribution profiler, the
//! trace validator) want the tree back: which spans nested in which,
//! and which costs were recorded while each span was innermost.
//! This module rebuilds that tree deterministically from the merged
//! stream, without re-running anything.
//!
//! Reconstruction is total: malformed streams (a close without an
//! open, a span left open at end of unit) never panic — the anomalies
//! are surfaced on the [`UnitTree`] so callers can decide whether
//! they are errors (the validator does) or noise (the profiler
//! attributes what it can and reports the rest as unattributed).

use crate::event::{Event, EventKind, FieldValue};

/// One reconstructed span instance: a named scope with the costs
/// recorded while it was innermost and the spans that nested in it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span name as recorded (`"job"`, `"round=3"`).
    pub name: String,
    /// Sequence number of the opening record within the unit.
    pub start_seq: u64,
    /// Sequence number of the closing record, or `None` when the
    /// span was still open at the end of the unit's stream.
    pub end_seq: Option<u64>,
    /// Counter increments recorded while this span was innermost
    /// (name, delta), in recording order. Gauges and point events are
    /// not part of the cost stream and are not retained here.
    pub counters: Vec<(String, u64)>,
    /// Child spans, in opening order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Walks this node and all descendants, depth-first, parents
    /// before children.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a SpanNode, usize)) {
        self.visit_at(0, f);
    }

    fn visit_at<'a>(&'a self, depth: usize, f: &mut impl FnMut(&'a SpanNode, usize)) {
        f(self, depth);
        for child in &self.children {
            child.visit_at(depth + 1, f);
        }
    }

    /// Total number of spans in this subtree (including `self`).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }
}

/// The reconstructed span forest of one unit, plus every anomaly the
/// reconstruction hit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UnitTree {
    /// The owning unit.
    pub unit: String,
    /// Top-level spans, in opening order.
    pub roots: Vec<SpanNode>,
    /// Counter increments recorded outside any span (name, delta).
    pub floor_counters: Vec<(String, u64)>,
    /// Spans that were still open when the unit's stream ended
    /// (their nodes are in the tree with `end_seq: None`).
    pub unclosed: usize,
    /// Span-close records that had no matching open.
    pub unmatched_closes: usize,
}

impl UnitTree {
    /// Walks every span in the forest, depth-first.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a SpanNode, usize)) {
        for root in &self.roots {
            root.visit(f);
        }
    }
}

/// Extracts the `delta` payload of a counter record; counters written
/// by [`TraceBuf::counter`](crate::TraceBuf::counter) always carry
/// one. A hand-built event without it counts as zero cost.
fn counter_delta(event: &Event) -> u64 {
    match event.field("delta") {
        Some(FieldValue::UInt(v)) => *v,
        Some(FieldValue::Int(v)) => u64::try_from(*v).unwrap_or(0),
        _ => 0,
    }
}

/// Rebuilds the span forest of every unit in a merged event stream.
///
/// `events` must be grouped by unit with per-unit recording order
/// preserved — exactly what [`Trace::events`](crate::Trace::events)
/// yields. Units appear in the output in first-appearance order.
pub fn build_trees(events: &[Event]) -> Vec<UnitTree> {
    let mut trees: Vec<UnitTree> = Vec::new();
    let mut start = 0usize;
    while start < events.len() {
        let unit = &events[start].unit;
        let mut end = start + 1;
        while end < events.len() && events[end].unit == *unit {
            end += 1;
        }
        trees.push(build_unit_tree(unit, &events[start..end]));
        start = end;
    }
    trees
}

fn build_unit_tree(unit: &str, events: &[Event]) -> UnitTree {
    let mut tree = UnitTree {
        unit: unit.to_string(),
        ..UnitTree::default()
    };
    // The stack holds spans that are open; closing pops the top and
    // attaches it to the new top (or the roots).
    let mut stack: Vec<SpanNode> = Vec::new();
    for event in events {
        match event.kind {
            EventKind::SpanStart => stack.push(SpanNode {
                name: event.name.clone(),
                start_seq: event.seq,
                end_seq: None,
                counters: Vec::new(),
                children: Vec::new(),
            }),
            EventKind::SpanEnd => match stack.pop() {
                Some(mut node) => {
                    node.end_seq = Some(event.seq);
                    attach(&mut stack, &mut tree.roots, node);
                }
                None => tree.unmatched_closes += 1,
            },
            EventKind::Counter => {
                let cost = (event.name.clone(), counter_delta(event));
                match stack.last_mut() {
                    Some(node) => node.counters.push(cost),
                    None => tree.floor_counters.push(cost),
                }
            }
            EventKind::Gauge | EventKind::Point => {}
        }
    }
    // Anything still open is kept in the tree (deepest spans attach
    // to their parents first) and counted as an anomaly.
    tree.unclosed = stack.len();
    while let Some(node) = stack.pop() {
        attach(&mut stack, &mut tree.roots, node);
    }
    // Popping open spans attaches in reverse opening order; restore
    // opening order at whatever level they landed.
    tree.roots.sort_by_key(|n| n.start_seq);
    tree
}

fn attach(stack: &mut [SpanNode], roots: &mut Vec<SpanNode>, node: SpanNode) {
    match stack.last_mut() {
        Some(parent) => parent.children.push(node),
        None => roots.push(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{TraceBuf, TraceLevel};

    fn sample_events() -> Vec<Event> {
        let mut b = TraceBuf::new(TraceLevel::Events, "u");
        b.counter("floor.cost", 1);
        b.span_start("job", vec![]);
        b.counter("sim.bits_broadcast", 10);
        b.span_start("round=0", vec![]);
        b.counter("sim.bits_broadcast", 7);
        b.event("broadcast", vec![]);
        b.span_end("round=0", vec![]);
        b.span_end("job", vec![]);
        b.into_events()
    }

    #[test]
    fn rebuilds_nesting_and_cost_attachment() {
        let trees = build_trees(&sample_events());
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!((tree.unclosed, tree.unmatched_closes), (0, 0));
        assert_eq!(tree.unit, "u");
        assert_eq!(tree.floor_counters, vec![("floor.cost".into(), 1)]);
        assert_eq!(tree.roots.len(), 1);
        let job = &tree.roots[0];
        assert_eq!(job.name, "job");
        assert_eq!(job.counters, vec![("sim.bits_broadcast".into(), 10)]);
        assert_eq!(job.children.len(), 1);
        let round = &job.children[0];
        assert_eq!(round.name, "round=0");
        assert_eq!(round.counters, vec![("sim.bits_broadcast".into(), 7)]);
        assert_eq!(round.end_seq, Some(6));
        assert_eq!(job.span_count(), 2);
    }

    #[test]
    fn groups_by_unit_in_first_appearance_order() {
        let mut a = TraceBuf::new(TraceLevel::Spans, "a");
        a.span_start("s", vec![]);
        a.span_end("s", vec![]);
        let mut b = TraceBuf::new(TraceLevel::Spans, "b");
        b.span_start("t", vec![]);
        b.span_end("t", vec![]);
        let mut events = a.into_events();
        events.extend(b.into_events());
        let trees = build_trees(&events);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].unit, "a");
        assert_eq!(trees[1].unit, "b");
    }

    #[test]
    fn anomalies_are_counted_not_fatal() {
        // A close without an open, then an open without a close.
        let mut events = Vec::new();
        let mut b = TraceBuf::new(TraceLevel::Spans, "u");
        b.span_start("late", vec![]);
        let open = b.into_events();
        events.push(Event {
            kind: EventKind::SpanEnd,
            ..open[0].clone()
        });
        events.extend(open);
        let trees = build_trees(&events);
        assert_eq!(trees[0].unmatched_closes, 1);
        assert_eq!(trees[0].unclosed, 1);
        assert_eq!(trees[0].roots.len(), 1);
        assert_eq!(trees[0].roots[0].end_seq, None);
        assert!(trees[0].unclosed + trees[0].unmatched_closes > 0);
    }

    #[test]
    fn unclosed_spans_keep_their_nesting() {
        let mut b = TraceBuf::new(TraceLevel::Events, "u");
        b.span_start("outer", vec![]);
        b.span_start("inner", vec![]);
        b.counter("c", 3);
        let trees = build_trees(&b.into_events());
        let tree = &trees[0];
        assert_eq!(tree.unclosed, 2);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "outer");
        assert_eq!(tree.roots[0].children[0].name, "inner");
        assert_eq!(tree.roots[0].children[0].counters, vec![("c".into(), 3)]);
    }

    #[test]
    fn counter_delta_tolerates_odd_fields() {
        let e = Event {
            unit: "u".into(),
            seq: 0,
            path: String::new(),
            kind: EventKind::Counter,
            name: "c".into(),
            fields: vec![("delta".into(), FieldValue::Int(-4))],
        };
        assert_eq!(counter_delta(&e), 0);
    }
}
