//! The cost-attribution model: from a merged trace (plus optionally a
//! metrics dump) to an aggregated, deterministic profile.

use bcc_metrics::MetricsDump;
use bcc_trace::tree::{build_trees, SpanNode};
use bcc_trace::Event;
use std::collections::{BTreeMap, BTreeSet};

/// Where a [`CounterTotal`]'s `total` came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TotalSource {
    /// The metrics dump carried this counter; `total` is the dump
    /// value and `unattributed` is whatever the span tree could not
    /// account for.
    Dump,
    /// The counter only appeared in the trace cost stream; `total`
    /// equals `attributed` by construction.
    Trace,
}

impl TotalSource {
    /// Machine-readable tag, stable across versions.
    pub fn tag(&self) -> &'static str {
        match self {
            TotalSource::Dump => "dump",
            TotalSource::Trace => "trace",
        }
    }

    /// Parses a tag produced by [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "dump" => Some(TotalSource::Dump),
            "trace" => Some(TotalSource::Trace),
            _ => None,
        }
    }
}

/// Per-counter attribution summary. The invariant the profiler sells:
/// `attributed + unattributed == total` whenever `total >= attributed`
/// (`unattributed` saturates at zero if span-attributed costs ever
/// exceeded the dump total, which would indicate double counting in
/// instrumentation — the diff renderer flags that case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTotal {
    /// Canonical counter name (`sim.bits_broadcast`).
    pub counter: String,
    /// The authoritative total.
    pub total: u64,
    /// Cost attributed to named span paths.
    pub attributed: u64,
    /// Remainder the span tree could not account for — reported
    /// explicitly, never silently dropped.
    pub unattributed: u64,
    /// Provenance of `total`.
    pub source: TotalSource,
}

/// One aggregated frame: a normalized span path crossed with one
/// counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Normalized frame path: the unit class followed by the span
    /// names on the stack, with `=value` detail stripped
    /// (`e2/job/sim/round`).
    pub path: String,
    /// The counter this frame accumulates.
    pub counter: String,
    /// Cost of this frame plus all descendant frames.
    pub inclusive: u64,
    /// Cost recorded while a span at exactly this path was innermost.
    pub exclusive: u64,
}

/// How many span instances (or, for a root frame, units) aggregated
/// into one frame path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Normalized frame path.
    pub path: String,
    /// Number of span instances at this path; at a root path
    /// (`e2`), the number of units in that class.
    pub count: u64,
}

/// A deterministic cost-attribution profile: a pure function of the
/// merged trace and the metrics dump, byte-identical across thread
/// counts and same-seed re-runs once encoded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Span/unit population per frame path, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Cost frames, sorted by `(path, counter)`.
    pub frames: Vec<Frame>,
    /// Per-counter attribution summaries, sorted by counter.
    pub totals: Vec<CounterTotal>,
}

/// The unit class: the unit id up to its first `/` — `"e2/n=7 t=0"`
/// and `"e2/n=9 t=1"` both aggregate as `"e2"`, `"serve/req=000001"`
/// as `"serve"`.
pub fn unit_class(unit: &str) -> &str {
    unit.split('/').next().unwrap_or(unit)
}

/// Strips the `=value` detail from a span name, so `round=3` and
/// `round=17` aggregate as one `round` frame.
pub fn normalize_segment(name: &str) -> &str {
    name.split('=').next().unwrap_or(name)
}

fn add(map: &mut BTreeMap<(String, String), u64>, path: &str, counter: &str, delta: u64) {
    let slot = map
        .entry((path.to_string(), counter.to_string()))
        .or_insert(0);
    *slot = slot.saturating_add(delta);
}

fn walk(
    node: &SpanNode,
    prefix: &str,
    span_counts: &mut BTreeMap<String, u64>,
    excl: &mut BTreeMap<(String, String), u64>,
) {
    let path = format!("{prefix}/{}", normalize_segment(&node.name));
    *span_counts.entry(path.clone()).or_insert(0) += 1;
    for (counter, delta) in &node.counters {
        add(excl, &path, counter, *delta);
    }
    for child in &node.children {
        walk(child, &path, span_counts, excl);
    }
}

/// Every `/`-boundary prefix of `path`, shortest first, including the
/// full path.
fn ancestors(path: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (i, b) in path.bytes().enumerate() {
        if b == b'/' {
            out.push(&path[..i]);
        }
    }
    out.push(path);
    out
}

impl Profile {
    /// Builds the profile from a merged event stream (as yielded by
    /// [`Trace::events`](bcc_trace::Trace::events)) and, optionally,
    /// the metrics dump of the same run.
    ///
    /// Attribution: each trace counter increment is booked, under the
    /// counter's canonical name, to the normalized frame path of the
    /// innermost open span (or the unit-class root when recorded
    /// outside any span). Inclusive totals roll every frame's
    /// exclusive cost up its ancestor chain. When a dump is given,
    /// each dump counter becomes the authoritative total and the
    /// remainder the tree could not attribute is reported explicitly.
    pub fn build(events: &[Event], dump: Option<&MetricsDump>) -> Profile {
        let trees = build_trees(events);
        let mut span_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut excl: BTreeMap<(String, String), u64> = BTreeMap::new();
        for tree in &trees {
            let root = unit_class(&tree.unit);
            *span_counts.entry(root.to_string()).or_insert(0) += 1;
            for (counter, delta) in &tree.floor_counters {
                add(&mut excl, root, counter, *delta);
            }
            for node in &tree.roots {
                walk(node, root, &mut span_counts, &mut excl);
            }
        }

        let mut incl: BTreeMap<(String, String), u64> = BTreeMap::new();
        for ((path, counter), v) in &excl {
            for ancestor in ancestors(path) {
                let slot = incl
                    .entry((ancestor.to_string(), counter.clone()))
                    .or_insert(0);
                *slot = slot.saturating_add(*v);
            }
        }

        let frames: Vec<Frame> = incl
            .iter()
            .map(|((path, counter), &inclusive)| Frame {
                path: path.clone(),
                counter: counter.clone(),
                inclusive,
                exclusive: excl
                    .get(&(path.clone(), counter.clone()))
                    .copied()
                    .unwrap_or(0),
            })
            .collect();

        let mut attributed: BTreeMap<String, u64> = BTreeMap::new();
        for ((_, counter), v) in &excl {
            let slot = attributed.entry(counter.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        let mut names: BTreeSet<String> = attributed.keys().cloned().collect();
        if let Some(d) = dump {
            names.extend(d.counters().keys().cloned());
        }
        let totals: Vec<CounterTotal> = names
            .into_iter()
            .map(|counter| {
                let attr = attributed.get(&counter).copied().unwrap_or(0);
                match dump.and_then(|d| d.counter(&counter)) {
                    Some(total) => CounterTotal {
                        counter,
                        total,
                        attributed: attr,
                        unattributed: total.saturating_sub(attr),
                        source: TotalSource::Dump,
                    },
                    None => CounterTotal {
                        counter,
                        total: attr,
                        attributed: attr,
                        unattributed: 0,
                        source: TotalSource::Trace,
                    },
                }
            })
            .collect();

        Profile {
            spans: span_counts
                .into_iter()
                .map(|(path, count)| SpanStat { path, count })
                .collect(),
            frames,
            totals,
        }
    }

    /// Looks up a counter's attribution summary.
    pub fn total(&self, counter: &str) -> Option<&CounterTotal> {
        self.totals.iter().find(|t| t.counter == counter)
    }

    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.frames.is_empty() && self.totals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metrics::{MetricsHub, MetricsLevel};
    use bcc_trace::{Collector, TraceLevel};

    fn sample_trace() -> Vec<Event> {
        let collector = Collector::new(TraceLevel::Events);
        for unit in ["e2/n=5 t=0", "e2/n=7 t=1"] {
            let mut b = collector.buf(unit);
            b.span_start("job", vec![]);
            b.span_start("sim", vec![]);
            b.span_start("round=0", vec![]);
            b.counter("sim.bits_broadcast", 10);
            b.span_end("round=0", vec![]);
            b.span_start("round=1", vec![]);
            b.counter("sim.bits_broadcast", 4);
            b.span_end("round=1", vec![]);
            b.span_end("sim", vec![]);
            b.counter("runner.jobs", 1);
            b.span_end("job", vec![]);
            collector.absorb(b);
        }
        let mut s = collector.buf("suite");
        s.counter("cache.lookups", 3);
        collector.absorb(s);
        collector.finish().events().to_vec()
    }

    #[test]
    fn attribution_rolls_up_and_normalizes() {
        let events = sample_trace();
        let p = Profile::build(&events, None);
        let frame = |path: &str, counter: &str| {
            p.frames
                .iter()
                .find(|f| f.path == path && f.counter == counter)
                .unwrap()
        };
        // Rounds aggregate: round=0 and round=1 across two units.
        let round = frame("e2/job/sim/round", "sim.bits_broadcast");
        assert_eq!(round.exclusive, 28);
        assert_eq!(round.inclusive, 28);
        let sim = frame("e2/job/sim", "sim.bits_broadcast");
        assert_eq!(sim.exclusive, 0);
        assert_eq!(sim.inclusive, 28);
        let root = frame("e2", "sim.bits_broadcast");
        assert_eq!(root.inclusive, 28);
        // Floor costs of the suite unit land at the suite root.
        let suite = frame("suite", "cache.lookups");
        assert_eq!(suite.exclusive, 3);
        // Span stats: 2 units of class e2, 4 round spans, 1 suite unit.
        let count = |path: &str| p.spans.iter().find(|s| s.path == path).unwrap().count;
        assert_eq!(count("e2"), 2);
        assert_eq!(count("e2/job/sim/round"), 4);
        assert_eq!(count("suite"), 1);
        // Without a dump, totals come from the trace.
        let t = p.total("sim.bits_broadcast").unwrap();
        assert_eq!((t.total, t.attributed, t.unattributed), (28, 28, 0));
        assert_eq!(t.source, TotalSource::Trace);
    }

    #[test]
    fn dump_join_reports_unattributed_remainder() {
        let events = sample_trace();
        let hub = MetricsHub::new(MetricsLevel::Core);
        let mut b = hub.buf("w");
        b.counter("sim.bits_broadcast", 30); // 2 bits nothing attributes
        b.counter("sim.runs", 2); // dump-only counter
        hub.absorb(b);
        let dump = hub.finish();
        let p = Profile::build(&events, Some(&dump));
        let t = p.total("sim.bits_broadcast").unwrap();
        assert_eq!((t.total, t.attributed, t.unattributed), (30, 28, 2));
        assert_eq!(t.source, TotalSource::Dump);
        // Dump-only counters appear with zero attribution.
        let runs = p.total("sim.runs").unwrap();
        assert_eq!((runs.total, runs.attributed, runs.unattributed), (2, 0, 2));
        // Trace-only counters keep their trace totals.
        assert_eq!(p.total("runner.jobs").unwrap().total, 2);
    }

    #[test]
    fn empty_input_builds_empty_profile() {
        let p = Profile::build(&[], None);
        assert!(p.is_empty());
        assert_eq!(p, Profile::default());
    }

    #[test]
    fn helpers_normalize() {
        assert_eq!(unit_class("e2/n=7 t=0"), "e2");
        assert_eq!(unit_class("suite"), "suite");
        assert_eq!(unit_class("serve/req=000003"), "serve");
        assert_eq!(normalize_segment("round=3"), "round");
        assert_eq!(normalize_segment("job"), "job");
    }
}
