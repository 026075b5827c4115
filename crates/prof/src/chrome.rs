//! Chrome `trace_event` / Perfetto export of the logical timeline.
//!
//! The export maps logical time onto the trace-viewer clock: one
//! process (`pid` 1), one thread per unit (`tid` = the unit's
//! first-appearance index in the merged stream), and the per-unit
//! sequence number as the microsecond timestamp. Span opens/closes
//! become `B`/`E` duration events, counters and gauges become `C`
//! counter tracks (counters cumulative, gauges instantaneous), and
//! point events become `i` instants. The output is a pure function
//! of the merged event stream — byte-identical across `--jobs` and
//! same-seed re-runs, like every other deterministic artifact.
//!
//! Counter values are written as exact integers, but the trace viewer
//! reads every number as a double, so it displays values past 2^53
//! rounded; this is the only artifact with that limit.

use bcc_metrics::json;
use bcc_trace::{Event, EventKind, FieldValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn push_fields(out: &mut String, fields: &[(String, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_quoted(out, k);
        out.push(':');
        out.push_str(&v.to_json());
    }
    out.push('}');
}

fn push_common(out: &mut String, name: &str, ph: char, tid: usize, ts: u64) {
    out.push_str("{\"name\":");
    json::push_quoted(out, name);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}");
}

/// Renders the merged event stream as a Chrome `trace_event` JSON
/// document (open it in `chrome://tracing` or ui.perfetto.dev).
pub fn render_chrome(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |line: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&line);
    };
    let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
    // Cumulative counter value per (unit, counter) — trace-viewer
    // counter tracks plot levels, not deltas.
    let mut running: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    for e in events {
        let next_tid = tids.len() + 1;
        let tid = match tids.get(e.unit.as_str()) {
            Some(&t) => t,
            None => {
                tids.insert(&e.unit, next_tid);
                let mut meta = String::from("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1");
                let _ = write!(meta, ",\"tid\":{next_tid},\"args\":{{\"name\":");
                json::push_quoted(&mut meta, &e.unit);
                meta.push_str("}}");
                emit(meta, &mut first);
                next_tid
            }
        };
        let mut line = String::new();
        match e.kind {
            EventKind::SpanStart | EventKind::SpanEnd => {
                let ph = if e.kind == EventKind::SpanStart {
                    'B'
                } else {
                    'E'
                };
                push_common(&mut line, &e.name, ph, tid, e.seq);
                line.push_str(",\"args\":");
                push_fields(&mut line, &e.fields);
                line.push('}');
            }
            EventKind::Counter => {
                let delta = match e.field("delta") {
                    Some(FieldValue::UInt(v)) => *v,
                    _ => 0,
                };
                let slot = running.entry((tid, e.name.as_str())).or_insert(0);
                *slot = slot.saturating_add(delta);
                let value = *slot;
                push_common(&mut line, &e.name, 'C', tid, e.seq);
                line.push_str(",\"args\":{");
                json::push_quoted(&mut line, &e.name);
                let _ = write!(line, ":{value}}}}}");
            }
            EventKind::Gauge => {
                push_common(&mut line, &e.name, 'C', tid, e.seq);
                line.push_str(",\"args\":{");
                json::push_quoted(&mut line, &e.name);
                line.push(':');
                let value = e
                    .field("value")
                    .map(FieldValue::to_json)
                    .unwrap_or_else(|| "0".to_string());
                line.push_str(&value);
                line.push_str("}}");
            }
            EventKind::Point => {
                push_common(&mut line, &e.name, 'i', tid, e.seq);
                line.push_str(",\"s\":\"t\",\"args\":");
                push_fields(&mut line, &e.fields);
                line.push('}');
            }
        }
        emit(line, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_trace::{Collector, TraceLevel};

    #[test]
    fn exports_spans_counters_and_thread_names() {
        let collector = Collector::new(TraceLevel::Events);
        let mut b = collector.buf("e2/n=5 t=0");
        b.span_start("job", vec![]);
        b.counter("sim.bits_broadcast", 7);
        b.counter("sim.bits_broadcast", 3);
        b.gauge("engine.active_lanes", 2u64);
        b.event("broadcast", vec![bcc_trace::field("bit", true)]);
        b.span_end("job", vec![]);
        collector.absorb(b);
        let trace = collector.finish();
        let chrome = render_chrome(trace.events());
        assert!(chrome.starts_with("{\"displayTimeUnit\""));
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        // The counter track is cumulative: 7 then 10.
        assert!(chrome.contains("\"sim.bits_broadcast\":7"));
        assert!(chrome.contains("\"sim.bits_broadcast\":10"));
        assert!(chrome.contains("\"ph\":\"i\""));
        // Valid JSON by the workspace's own parser.
        assert!(bcc_metrics::json::parse(&chrome).is_ok());
    }

    #[test]
    fn empty_stream_is_valid_json() {
        let chrome = render_chrome(&[]);
        assert!(bcc_metrics::json::parse(&chrome).is_ok());
    }
}
