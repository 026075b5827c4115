//! Shared helpers for the experiments' determinism gates. Each gate
//! compares bytes and, on a mismatch, names the first thing that
//! differs instead of stopping at "differs".
#![allow(dead_code)] // each test binary uses a different subset

use bcc_metrics::MetricsDump;
use bcc_prof::{diff_profiles, parse_profile_jsonl, DiffKind, DiffOptions};
use bcc_trace::json::parse_event;
use bcc_trace::Trace;

/// Asserts that two profile JSONL renderings are byte-identical. On a
/// mismatch it parses both sides, diffs them with
/// [`bcc_prof::diff_profiles`] at zero tolerance, and panics naming the
/// first changed frame (`counter @ span path`), or the first changed
/// row of any kind when no frame changed.
pub fn assert_same_profile(expected: &str, actual: &str, what: &str) {
    if expected == actual {
        return;
    }
    let parse = |text| {
        parse_profile_jsonl(text).unwrap_or_else(|e| panic!("{what}: profile does not parse: {e}"))
    };
    let diff = diff_profiles(&parse(expected), &parse(actual), &DiffOptions::default());
    let frame = diff.rows.iter().find(|row| row.kind == DiffKind::Frame);
    let Some(row) = frame.or(diff.rows.first()) else {
        panic!("{what}: profile bytes differ but every compared cost agrees");
    };
    panic!(
        "{what}: profile differs; first breached {} {}: {} vs {}",
        row.kind.tag(),
        row.key,
        row.a,
        row.b
    );
}

/// A trace's JSONL bytes.
pub fn trace_jsonl(trace: &Trace) -> String {
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("traces are UTF-8")
}

/// A metrics dump's JSONL bytes.
pub fn dump_jsonl(dump: &MetricsDump) -> String {
    let mut buf = Vec::new();
    dump.write_jsonl(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("dumps are UTF-8")
}

/// Asserts that two trace JSONL renderings are byte-identical. On a
/// mismatch it panics naming the first diverging event by its
/// `(unit, seq)` merge key, with both sides' lines.
pub fn assert_same_trace(expected: &str, actual: &str, what: &str) {
    if expected == actual {
        return;
    }
    let (mut a, mut b) = (expected.lines(), actual.lines());
    let (x, y) = loop {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => panic!("{what}: trace bytes differ but every event line agrees"),
            pair => break pair,
        }
    };
    let line = x.or(y).expect("one side has the diverging line");
    let event =
        parse_event(line).unwrap_or_else(|e| panic!("{what}: bad trace line {line:?}: {e}"));
    panic!(
        "{what}: trace differs; first diverging event ({}, {}): {} vs {}",
        event.unit,
        event.seq,
        x.unwrap_or("<missing>"),
        y.unwrap_or("<missing>")
    );
}

/// Asserts that two metrics dump JSONL renderings are byte-identical.
/// On a mismatch it panics naming the first differing counter.
pub fn assert_same_dump(expected: &str, actual: &str, what: &str) {
    if expected == actual {
        return;
    }
    let parse = |text| {
        MetricsDump::parse_jsonl(text)
            .unwrap_or_else(|e| panic!("{what}: dump does not parse: {e}"))
    };
    let (a, b) = (parse(expected), parse(actual));
    let (a, b) = (a.counters(), b.counters());
    let differs = |name: &&String| a.get(*name) != b.get(*name);
    let Some(name) = a.keys().chain(b.keys()).filter(differs).min() else {
        panic!("{what}: dump bytes differ but every counter agrees");
    };
    panic!(
        "{what}: dump differs; first differing counter {name}: {:?} vs {:?}",
        a.get(name),
        b.get(name)
    );
}
