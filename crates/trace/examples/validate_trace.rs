//! Trace-file validator: checks that a JSONL trace emitted by
//! `--trace` is well-formed. Used by CI after the trace smoke run.
//!
//! Checks, per file:
//!
//! 1. every line parses back through the codec (`parse_event`);
//! 2. lines appear in merge order — units grouped, and `seq` strictly
//!    increasing within each unit (a duplicate seq means two writers
//!    shared a unit, which the merge cannot order deterministically);
//! 3. spans nest within each unit: every `span_end` matches the
//!    innermost open `span_start`, and no span is left open;
//! 4. span opens and closes balance per `(unit, name)` pair — a close
//!    in one unit can never satisfy an open in another, so a
//!    cross-unit mismatch shows up as one unit with surplus opens and
//!    another with surplus closes rather than being absorbed silently;
//! 5. worker units (`transport/worker:<rank>`, synthesized from the
//!    coordinator's per-rank session counts) start with their
//!    `worker:<rank>` wrapper `span_start` and end with its matching
//!    `span_end` — so a truncated or mis-merged worker replay cannot
//!    masquerade as a valid unit. Because a dead rank's open sessions
//!    are counted as `truncated` rather than replayed, these checks
//!    must hold even for traces collected on a run that lost a
//!    worker.
//!
//! All violations in a file are reported, not just the first — a
//! truncated or interleaved trace usually breaks several checks at
//! once and the full list localises the corruption faster.
//!
//! Usage: `validate_trace <trace.jsonl>...`; exits 0 when every file
//! is valid, 1 on any violation, 2 on usage/IO errors.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bcc_trace::json::parse_event;
use bcc_trace::EventKind;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_trace <trace.jsonl>...");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => match validate(&text) {
                Ok(stats) => println!("{path}: ok ({stats})"),
                Err(violations) => {
                    for v in &violations {
                        eprintln!("{path}: INVALID: {v}");
                    }
                    ok = false;
                }
            },
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs all checks over one file's contents. Returns a stats line on
/// success, or every violation found (never an empty list) on
/// failure. A line that fails to parse ends validation at that line —
/// nothing after it can be trusted as event data — but everything
/// gathered up to it is still reported.
fn validate(text: &str) -> Result<String, Vec<String>> {
    let mut violations: Vec<String> = Vec::new();
    let mut prev: Option<(String, u64)> = None;
    // Per-unit stack of open span names, for nesting checks.
    let mut open: BTreeMap<String, Vec<String>> = BTreeMap::new();
    // Per-(unit, name) open/close tallies, for balance checks that
    // survive even when nesting is already broken.
    let mut opens: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut closes: BTreeMap<(String, String), u64> = BTreeMap::new();
    // Per-unit first and last (kind, name), for the worker wrapper
    // check.
    type Edge = (EventKind, String);
    let mut bounds: BTreeMap<String, (Edge, Edge)> = BTreeMap::new();
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let e = match parse_event(line) {
            Ok(e) => e,
            Err(e) => {
                violations.push(format!("line {lineno}: {e}"));
                return Err(violations);
            }
        };
        let key = (e.unit.clone(), e.seq);
        if let Some(p) = &prev {
            if *p >= key {
                let what = if *p == key { "duplicate" } else { "out of" };
                violations.push(format!(
                    "line {lineno}: {what} merge order: ({}, {}) after ({}, {})",
                    key.0, key.1, p.0, p.1
                ));
            }
        }
        prev = Some(key);
        let stack = open.entry(e.unit.clone()).or_default();
        match e.kind {
            EventKind::SpanStart => {
                stack.push(e.name.clone());
                *opens.entry((e.unit.clone(), e.name.clone())).or_default() += 1;
            }
            EventKind::SpanEnd => {
                *closes.entry((e.unit.clone(), e.name.clone())).or_default() += 1;
                match stack.pop() {
                    Some(top) if top == e.name => {}
                    Some(top) => violations.push(format!(
                        "line {lineno}: span_end `{}` closes open span `{top}` in unit `{}`",
                        e.name, e.unit
                    )),
                    None => violations.push(format!(
                        "line {lineno}: span_end `{}` with no open span in unit `{}`",
                        e.name, e.unit
                    )),
                }
            }
            EventKind::Point | EventKind::Counter | EventKind::Gauge => {}
        }
        let this = (e.kind, e.name.clone());
        bounds
            .entry(e.unit.clone())
            .and_modify(|(_, last)| *last = this.clone())
            .or_insert_with(|| (this.clone(), this.clone()));
        events += 1;
    }
    for (unit, stack) in &open {
        for name in stack {
            violations.push(format!("span `{name}` left open in unit `{unit}`"));
        }
    }
    // Cross-check counts per (unit, name): surplus closes here pair
    // with surplus opens elsewhere when a close landed in the wrong
    // unit's stream.
    let mut pairs: Vec<&(String, String)> = opens.keys().chain(closes.keys()).collect();
    pairs.sort();
    pairs.dedup();
    for pair in pairs {
        let o = opens.get(pair).copied().unwrap_or(0);
        let c = closes.get(pair).copied().unwrap_or(0);
        if o != c {
            violations.push(format!(
                "span `{}` in unit `{}`: {o} open(s) vs {c} close(s)",
                pair.1, pair.0
            ));
        }
    }
    // Worker-origin units must be bracketed by the wrapper span the
    // driver synthesises at flush: `transport/worker:<rank>` opens
    // with span_start `worker:<rank>` and closes with its span_end.
    for (unit, (first, last)) in &bounds {
        let Some(wrapper) = unit.strip_prefix("transport/") else {
            continue;
        };
        if !wrapper.starts_with("worker:") {
            continue;
        }
        if *first != (EventKind::SpanStart, wrapper.to_string()) {
            violations.push(format!(
                "unit `{unit}` does not start with its `{wrapper}` wrapper span_start"
            ));
        }
        if *last != (EventKind::SpanEnd, wrapper.to_string()) {
            violations.push(format!(
                "unit `{unit}` does not end with its `{wrapper}` wrapper span_end"
            ));
        }
    }
    // Unit classes (the prefix before `/`) tell a reader at a glance
    // which subsystems contributed: jobs, suite, transport workers.
    let classes: std::collections::BTreeSet<&str> = open
        .keys()
        .map(|u| u.split('/').next().unwrap_or(u.as_str()))
        .collect();
    if violations.is_empty() {
        Ok(format!(
            "{events} events, {} units, {} unit classes",
            open.len(),
            classes.len()
        ))
    } else {
        Err(violations)
    }
}
