//! The logic behind the `bcc-report` binary: merge a deterministic
//! workload-metrics dump, an optional trace, and committed
//! `BENCH_*.json` recordings into one offline report, and check the
//! inputs for regressions.
//!
//! Everything here is pure string/value processing — the binary owns
//! all I/O — so the rendering and check semantics are unit-testable
//! byte for byte. Two kinds of checks run under `--check`:
//!
//! * **dump vs baseline** — workload dumps are deterministic, so every
//!   counter must match a committed baseline dump *exactly*; any
//!   drift means the workload itself changed (a new experiment
//!   version, a lost shard) and must be acknowledged by re-committing
//!   the baseline.
//! * **bench recordings** — every `"speedup"` field in a
//!   `BENCH_*.json` must stay at or above break-even minus the
//!   tolerance, and every `"overhead_pct"` field at or below the
//!   overhead budget.

use bcc_metrics::json::{parse, push_quoted, JsonValue};
use bcc_metrics::MetricsDump;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated shape of a trace JSONL file (one event per line).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events.
    pub events: u64,
    /// Events per `kind` (`span_start`, `point`, `counter`, …).
    pub by_kind: BTreeMap<String, u64>,
    /// Distinct `unit` values (jobs).
    pub units: u64,
}

/// Parses a trace JSONL file into per-kind counts.
pub fn trace_stats(text: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut units = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("trace line {}: no \"kind\" field", i + 1))?;
        *stats.by_kind.entry(kind.to_string()).or_insert(0) += 1;
        stats.events += 1;
        if let Some(u) = v.get("unit").and_then(JsonValue::as_str) {
            units.insert(u.to_string());
        }
    }
    stats.units = units.len() as u64;
    Ok(stats)
}

/// One committed benchmark recording (`BENCH_*.json`).
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// Display name (the file name).
    pub name: String,
    /// Parsed JSON root.
    pub root: JsonValue,
}

/// Parses one `BENCH_*.json` recording.
pub fn load_bench(name: impl Into<String>, text: &str) -> Result<BenchFile, String> {
    let name = name.into();
    let root = parse(text).map_err(|e| format!("{name}: {e}"))?;
    Ok(BenchFile { name, root })
}

/// Everything `bcc-report` can merge into one report.
#[derive(Debug, Default)]
pub struct Inputs {
    /// The workload-metrics dump under inspection (`--metrics`).
    pub metrics: Option<MetricsDump>,
    /// A committed baseline dump to compare against (`--baseline`).
    pub baseline: Option<MetricsDump>,
    /// Trace shape (`--trace`).
    pub trace: Option<TraceStats>,
    /// A cost-attribution profile (`--profile`), rendered as the
    /// hot-path section.
    pub profile: Option<bcc_prof::Profile>,
    /// Worker postmortems (`--postmortem`): flight-recorder rings
    /// frozen at transport-failure time, rendered as the incident
    /// section.
    pub postmortems: Option<Vec<bcc_model::postmortem::Postmortem>>,
    /// Committed benchmark recordings (`--bench`, repeatable).
    pub benches: Vec<BenchFile>,
}

/// Thresholds for [`run_checks`].
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// How far below break-even (1.0) a recorded `"speedup"` may sit,
    /// in percent.
    pub tolerance_pct: f64,
    /// Ceiling for recorded `"overhead_pct"` fields, in percent.
    pub max_overhead_pct: f64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            tolerance_pct: 5.0,
            max_overhead_pct: 2.0,
        }
    }
}

/// Runs every applicable regression check; returns one line per
/// failure (empty = all checks passed).
pub fn run_checks(inputs: &Inputs, opts: CheckOptions) -> Vec<String> {
    let mut failures = Vec::new();
    if let (Some(dump), Some(base)) = (&inputs.metrics, &inputs.baseline) {
        check_dump_against_baseline(dump, base, &mut failures);
    }
    for bench in &inputs.benches {
        walk_bench(&bench.name, &bench.root, opts, &mut failures);
    }
    failures
}

/// Counters must match a committed baseline dump exactly — dumps are
/// deterministic, so any drift is a real workload change.
fn check_dump_against_baseline(dump: &MetricsDump, base: &MetricsDump, out: &mut Vec<String>) {
    if dump.level() != base.level() {
        out.push(format!(
            "metrics level changed: baseline {:?}, current {:?}",
            base.level(),
            dump.level()
        ));
    }
    for (name, expect) in base.counters() {
        match dump.counter(name) {
            None => out.push(format!("counter {name} missing (baseline {expect})")),
            Some(got) if got != *expect => {
                out.push(format!("counter {name}: baseline {expect}, current {got}"))
            }
            Some(_) => {}
        }
    }
    for name in dump.counters().keys() {
        if base.counter(name).is_none() {
            out.push(format!(
                "counter {name} not in baseline (re-commit the baseline dump to accept it)"
            ));
        }
    }
}

/// Recursively checks `"speedup"` and `"overhead_pct"` fields in a
/// bench recording.
fn walk_bench(path: &str, v: &JsonValue, opts: CheckOptions, out: &mut Vec<String>) {
    match v {
        JsonValue::Obj(fields) => {
            for (key, val) in fields {
                let sub = format!("{path}.{key}");
                if let Some(num) = val.as_f64() {
                    if key == "speedup" && num < 1.0 - opts.tolerance_pct / 100.0 {
                        out.push(format!(
                            "{sub} = {num:.2} below break-even (tolerance {:.1}%)",
                            opts.tolerance_pct
                        ));
                    }
                    if key == "overhead_pct" && num > opts.max_overhead_pct {
                        out.push(format!(
                            "{sub} = {num:.2}% above the {:.1}% overhead budget",
                            opts.max_overhead_pct
                        ));
                    }
                }
                walk_bench(&sub, val, opts, out);
            }
        }
        JsonValue::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk_bench(&format!("{path}[{i}]"), item, opts, out);
            }
        }
        _ => {}
    }
}

/// Renders the merged report as Markdown.
pub fn render_markdown(inputs: &Inputs, failures: &[String]) -> String {
    let mut md = String::from("# bcc report\n");
    if let Some(dump) = &inputs.metrics {
        let _ = writeln!(
            md,
            "\n## Workload metrics\n\nlevel `{}` · {} units · {} counters · {} gauges · {} histograms\n",
            dump.level().name(),
            dump.units(),
            dump.counters().len(),
            dump.gauges().len(),
            dump.hists().len()
        );
        if !dump.counters().is_empty() {
            md.push_str("| counter | value |\n|---|---:|\n");
            for (name, value) in dump.counters() {
                let _ = writeln!(md, "| `{name}` | {value} |");
            }
        }
        if !dump.gauges().is_empty() {
            md.push_str("\n| gauge | samples | min | mean | max |\n|---|---:|---:|---:|---:|\n");
            for (name, g) in dump.gauges() {
                let _ = writeln!(
                    md,
                    "| `{name}` | {} | {} | {:.2} | {} |",
                    g.count,
                    g.min,
                    g.mean(),
                    g.max
                );
            }
        }
        if !dump.hists().is_empty() {
            md.push_str(
                "\n| histogram | samples | mean | p50≤ | p90≤ | p99≤ | max |\n\
                 |---|---:|---:|---:|---:|---:|---:|\n",
            );
            for (name, h) in dump.hists() {
                let _ = writeln!(
                    md,
                    "| `{name}` | {} | {:.2} | {} | {} | {} | {} |",
                    h.count,
                    h.mean(),
                    h.quantile_upper(0.50),
                    h.quantile_upper(0.90),
                    h.quantile_upper(0.99),
                    h.max
                );
            }
        }
        render_serve_section(dump, &mut md);
    }
    if let Some(trace) = &inputs.trace {
        let _ = writeln!(
            md,
            "\n## Trace\n\n{} events across {} units\n",
            trace.events, trace.units
        );
        md.push_str("| kind | events |\n|---|---:|\n");
        for (kind, count) in &trace.by_kind {
            let _ = writeln!(md, "| `{kind}` | {count} |");
        }
    }
    if let Some(profile) = &inputs.profile {
        let _ = writeln!(
            md,
            "\n## Profile\n\n{} span paths · {} frames · {} counters\n",
            profile.spans.len(),
            profile.frames.len(),
            profile.totals.len()
        );
        md.push_str(&bcc_prof::render_hot_paths(profile, 10));
    }
    if let Some(postmortems) = &inputs.postmortems {
        render_postmortem_section(postmortems, &mut md);
    }
    for bench in &inputs.benches {
        let _ = writeln!(md, "\n## Bench: {}\n", bench.name);
        md.push_str("| metric | value |\n|---|---:|\n");
        let mut rows = Vec::new();
        flatten_numbers("", &bench.root, &mut rows);
        for (path, value) in rows {
            let _ = writeln!(md, "| `{path}` | {value} |");
        }
    }
    md.push_str("\n## Checks\n\n");
    if failures.is_empty() {
        md.push_str("all checks passed\n");
    } else {
        for f in failures {
            let _ = writeln!(md, "- **FAIL** {f}");
        }
    }
    md
}

/// Renders the `## Service` section when the dump came from a
/// `bcc-serve` daemon (any `serve.*` counter present): the admission
/// headline, every service counter, and the queue-depth histogram.
fn render_serve_section(dump: &MetricsDump, md: &mut String) {
    let serve: Vec<(&String, &u64)> = dump
        .counters()
        .iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .collect();
    if serve.is_empty() {
        return;
    }
    let head = |name: &str| dump.counter(name).unwrap_or(0);
    let _ = writeln!(
        md,
        "\n## Service\n\n{} accepted · {} rejected · {} completed · \
         {} cancelled · {} drained\n",
        head("serve.accepted"),
        head("serve.rejected"),
        head("serve.completed"),
        head("serve.cancelled"),
        head("serve.drained"),
    );
    md.push_str("| service counter | value |\n|---|---:|\n");
    for (name, value) in serve {
        let _ = writeln!(md, "| `{name}` | {value} |");
    }
    if let Some(h) = dump.hists().get("serve.queue.depth") {
        let _ = writeln!(
            md,
            "\nqueue depth at admission: {} samples · mean {:.2} · \
             p50≤{} · p90≤{} · max {}",
            h.count,
            h.mean(),
            h.quantile_upper(0.50),
            h.quantile_upper(0.90),
            h.max
        );
    }
}

/// Renders the `## Postmortem` section: one block per incident with
/// the failure detail, the per-worker health table, and each
/// worker's flight-recorder ring (its last wire events, oldest
/// first) — everything a post-mortem of a dead worker starts from.
fn render_postmortem_section(postmortems: &[bcc_model::postmortem::Postmortem], md: &mut String) {
    let _ = writeln!(md, "\n## Postmortem\n\n{} incident(s)\n", postmortems.len());
    if postmortems.is_empty() {
        md.push_str("no transport incidents recorded\n");
        return;
    }
    for (i, pm) in postmortems.iter().enumerate() {
        let _ = writeln!(md, "### Incident {i}: `{}`\n", pm.backend);
        let _ = writeln!(md, "error: `{}`\n", pm.error);
        md.push_str("| rank | alive | respawns | open sessions | ring events |\n|---:|---|---:|---:|---:|\n");
        for w in &pm.workers {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} |",
                w.rank,
                if w.alive { "yes" } else { "**dead**" },
                w.respawns,
                w.sessions,
                w.ring.len()
            );
        }
        for w in &pm.workers {
            if w.ring.is_empty() {
                continue;
            }
            let _ = writeln!(md, "\nworker {} flight ring (oldest first):\n", w.rank);
            md.push_str("| dir | kind | session | round | bytes |\n|---|---|---:|---:|---:|\n");
            for e in &w.ring {
                let _ = writeln!(
                    md,
                    "| {} | `{}` | {} | {} | {} |",
                    e.dir, e.kind, e.session, e.round, e.bytes
                );
            }
        }
        md.push('\n');
    }
}

/// Renders a profile diff as Markdown — the `--diff` mode's output.
/// Only changed rows appear; rows outside the tolerance are marked
/// **BREACH** and make `bcc-report --diff` exit 1.
pub fn render_diff_markdown(a_name: &str, b_name: &str, diff: &bcc_prof::ProfileDiff) -> String {
    let mut md = String::from("# bcc profile diff\n\n");
    let _ = writeln!(md, "baseline `{a_name}` vs `{b_name}`\n");
    if diff.is_identical() {
        md.push_str("profiles are identical\n");
        return md;
    }
    let _ = writeln!(
        md,
        "{} changed row(s), {} breach(es)\n",
        diff.rows.len(),
        diff.breaches()
    );
    md.push_str("| kind | key | baseline | current | status |\n|---|---|---:|---:|---|\n");
    for row in &diff.rows {
        let _ = writeln!(
            md,
            "| {} | `{}` | {} | {} | {} |",
            row.kind.tag(),
            row.key,
            row.a,
            row.b,
            if row.within { "within" } else { "**BREACH**" }
        );
    }
    md
}

/// Renders the merged report as one JSON object.
pub fn render_json(inputs: &Inputs, failures: &[String]) -> String {
    let mut out = String::from("{");
    if let Some(dump) = &inputs.metrics {
        let _ = write!(
            out,
            "\"metrics\":{{\"level\":\"{}\",\"units\":{},\"counters\":{{",
            dump.level().name(),
            dump.units()
        );
        for (i, (name, value)) in dump.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_quoted(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("}},");
    }
    if let Some(trace) = &inputs.trace {
        let _ = write!(
            out,
            "\"trace\":{{\"events\":{},\"units\":{}}},",
            trace.events, trace.units
        );
    }
    if let Some(profile) = &inputs.profile {
        let _ = write!(
            out,
            "\"profile\":{{\"spans\":{},\"frames\":{},\"totals\":{}}},",
            profile.spans.len(),
            profile.frames.len(),
            profile.totals.len()
        );
    }
    if let Some(postmortems) = &inputs.postmortems {
        let _ = write!(out, "\"postmortems\":{},", postmortems.len());
    }
    out.push_str("\"benches\":");
    push_string_array(&mut out, inputs.benches.iter().map(|b| b.name.as_str()));
    let _ = write!(out, ",\"passed\":{},\"failures\":", failures.is_empty());
    push_string_array(&mut out, failures.iter().map(String::as_str));
    out.push_str("}\n");
    out
}

fn push_string_array<'a>(out: &mut String, items: impl Iterator<Item = &'a str>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_quoted(out, item);
    }
    out.push(']');
}

/// Flattens every numeric/boolean/string leaf into `(path, rendered)`
/// rows for the Markdown table.
fn flatten_numbers(path: &str, v: &JsonValue, out: &mut Vec<(String, String)>) {
    match v {
        JsonValue::Obj(fields) => {
            for (key, val) in fields {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten_numbers(&sub, val, out);
            }
        }
        JsonValue::Arr(items) => {
            let rendered: Vec<String> = items.iter().map(render_leaf).collect();
            out.push((path.to_string(), format!("[{}]", rendered.join(", "))));
        }
        leaf => out.push((path.to_string(), render_leaf(leaf))),
    }
}

fn render_leaf(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::UInt(n) => n.to_string(),
        JsonValue::Int(n) => n.to_string(),
        JsonValue::Float(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        JsonValue::Str(s) => s.clone(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metrics::{MetricsHub, MetricsLevel};

    fn dump_with(counters: &[(&str, u64)]) -> MetricsDump {
        let hub = MetricsHub::new(MetricsLevel::Core);
        let mut buf = hub.buf("t");
        for (name, v) in counters {
            buf.counter(name, *v);
        }
        hub.absorb(buf);
        hub.finish()
    }

    #[test]
    fn baseline_check_requires_exact_counters() {
        let base = dump_with(&[("a", 1), ("b", 2)]);
        let same = dump_with(&[("a", 1), ("b", 2)]);
        let inputs = Inputs {
            metrics: Some(same),
            baseline: Some(base),
            ..Default::default()
        };
        assert!(run_checks(&inputs, CheckOptions::default()).is_empty());

        let base = dump_with(&[("a", 1), ("b", 2)]);
        let drifted = dump_with(&[("a", 1), ("b", 3), ("c", 4)]);
        let inputs = Inputs {
            metrics: Some(drifted),
            baseline: Some(base),
            ..Default::default()
        };
        let failures = run_checks(&inputs, CheckOptions::default());
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("counter b"));
        assert!(failures[1].contains("counter c"));
    }

    #[test]
    fn bench_check_flags_speedup_and_overhead() {
        let bench = load_bench(
            "B.json",
            r#"{"x":{"speedup":0.85},"y":{"overhead_pct":3.5},"z":{"speedup":4.5,"overhead_pct":0.2}}"#,
        )
        .unwrap();
        let inputs = Inputs {
            benches: vec![bench],
            ..Default::default()
        };
        let failures = run_checks(&inputs, CheckOptions::default());
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("B.json.x.speedup"));
        assert!(failures[1].contains("B.json.y.overhead_pct"));
        // A looser budget lets both through.
        let loose = CheckOptions {
            tolerance_pct: 20.0,
            max_overhead_pct: 4.0,
        };
        assert!(run_checks(&inputs, loose).is_empty());
    }

    #[test]
    fn trace_stats_count_kinds_and_units() {
        let text = "\
{\"unit\":\"a\",\"seq\":0,\"kind\":\"span_start\",\"name\":\"job\"}\n\
{\"unit\":\"a\",\"seq\":1,\"kind\":\"point\",\"name\":\"x\"}\n\
{\"unit\":\"b\",\"seq\":0,\"kind\":\"span_start\",\"name\":\"job\"}\n";
        let stats = trace_stats(text).unwrap();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.units, 2);
        assert_eq!(stats.by_kind.get("span_start"), Some(&2));
        assert!(trace_stats("not json").is_err());
    }

    #[test]
    fn markdown_report_renders_every_section() {
        let dump = dump_with(&[("sim.runs", 7)]);
        let inputs = Inputs {
            metrics: Some(dump),
            trace: Some(trace_stats("{\"unit\":\"a\",\"kind\":\"point\"}\n").unwrap()),
            benches: vec![load_bench("B.json", r#"{"a":{"speedup":2.0}}"#).unwrap()],
            ..Default::default()
        };
        let md = render_markdown(&inputs, &[]);
        assert!(md.contains("## Workload metrics"));
        assert!(md.contains("| `sim.runs` | 7 |"));
        assert!(md.contains("## Trace"));
        assert!(md.contains("## Bench: B.json"));
        assert!(md.contains("| `a.speedup` | 2 |"));
        assert!(md.contains("all checks passed"));
        let md_fail = render_markdown(&inputs, &["boom".to_string()]);
        assert!(md_fail.contains("**FAIL** boom"));
    }

    #[test]
    fn serve_section_renders_only_for_daemon_dumps() {
        let hub = MetricsHub::new(MetricsLevel::Core);
        let mut buf = hub.buf("serve/sched");
        buf.counter("serve.accepted", 2);
        buf.counter("serve.rejected", 1);
        buf.counter("serve.completed", 2);
        buf.observe("serve.queue.depth", 1);
        buf.observe("serve.queue.depth", 2);
        hub.absorb(buf);
        let inputs = Inputs {
            metrics: Some(hub.finish()),
            ..Default::default()
        };
        let md = render_markdown(&inputs, &[]);
        assert!(md.contains("## Service"));
        assert!(md.contains("2 accepted · 1 rejected · 2 completed · 0 cancelled · 0 drained"));
        assert!(md.contains("| `serve.accepted` | 2 |"));
        assert!(md.contains("queue depth at admission: 2 samples"));

        // A workload dump without serve.* counters gets no section.
        let plain = Inputs {
            metrics: Some(dump_with(&[("sim.runs", 7)])),
            ..Default::default()
        };
        assert!(!render_markdown(&plain, &[]).contains("## Service"));
    }

    #[test]
    fn json_report_escapes_control_characters() {
        let inputs = Inputs {
            metrics: Some(dump_with(&[("a\"b", 1)])),
            benches: vec![BenchFile {
                name: "odd\\name\n.json".to_string(),
                root: JsonValue::Null,
            }],
            ..Default::default()
        };
        let failure = "line one\nline two \u{1} \"quoted\"".to_string();
        let text = render_json(&inputs, std::slice::from_ref(&failure));
        assert_eq!(text.lines().count(), 1, "not one JSONL line: {text}");
        let v = parse(&text).unwrap();
        let failures = v.arr_field("failures").unwrap();
        assert_eq!(failures[0].as_str(), Some(failure.as_str()));
        let benches = v.arr_field("benches").unwrap();
        assert_eq!(benches[0].as_str(), Some("odd\\name\n.json"));
        let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(counters.u64_field("a\"b"), Ok(1));
    }

    #[test]
    fn leaves_render_integral_numbers_without_a_point() {
        let v = parse(r#"{"f":2.0,"u":7,"i":-3,"x":0.25,"big":18446744073709551615}"#).unwrap();
        let leaves: Vec<String> = ["f", "u", "i", "x", "big"]
            .iter()
            .map(|k| render_leaf(v.get(k).unwrap()))
            .collect();
        assert_eq!(leaves, ["2", "7", "-3", "0.25", "18446744073709551615"]);
    }

    #[test]
    fn json_report_is_parseable_and_carries_failures() {
        let inputs = Inputs {
            metrics: Some(dump_with(&[("a", 1)])),
            ..Default::default()
        };
        let text = render_json(&inputs, &["bad \"thing\"".to_string()]);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("passed"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            v.get("failures").and_then(JsonValue::as_arr).unwrap().len(),
            1
        );
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("a"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    fn tiny_profile(bits: u64) -> bcc_prof::Profile {
        let collector = bcc_trace::Collector::new(bcc_trace::TraceLevel::Costs);
        let mut b = collector.buf("e2/n=5");
        b.span_start("job", vec![]);
        b.span_start("sim", vec![]);
        b.counter("sim.bits_broadcast", bits);
        b.span_end("sim", vec![]);
        b.span_end("job", vec![]);
        collector.absorb(b);
        bcc_prof::Profile::build(collector.finish().events(), None)
    }

    #[test]
    fn markdown_report_renders_profile_section() {
        let inputs = Inputs {
            profile: Some(tiny_profile(12)),
            ..Default::default()
        };
        let md = render_markdown(&inputs, &[]);
        assert!(md.contains("## Profile"), "{md}");
        assert!(md.contains("span paths"), "{md}");
        assert!(md.contains("e2/job/sim"), "{md}");
        assert!(md.contains("sim.bits_broadcast"), "{md}");

        // No profile input, no section.
        let plain = Inputs::default();
        assert!(!render_markdown(&plain, &[]).contains("## Profile"));
    }

    #[test]
    fn markdown_report_renders_postmortem_section() {
        use bcc_model::postmortem::{Postmortem, WireEvent, WorkerHealth};
        let pm = Postmortem {
            backend: "sockets:2".to_string(),
            error: "transport worker 0 died: connection closed".to_string(),
            workers: vec![
                WorkerHealth {
                    rank: 0,
                    alive: false,
                    respawns: 0,
                    sessions: 1,
                    ring: vec![WireEvent {
                        dir: "send".to_string(),
                        kind: "round".to_string(),
                        session: 3,
                        round: 2,
                        bytes: 120,
                    }],
                },
                WorkerHealth {
                    rank: 1,
                    alive: true,
                    respawns: 0,
                    sessions: 1,
                    ring: vec![],
                },
            ],
        };
        let inputs = Inputs {
            postmortems: Some(vec![pm]),
            ..Default::default()
        };
        let md = render_markdown(&inputs, &[]);
        assert!(md.contains("## Postmortem"), "{md}");
        assert!(md.contains("1 incident(s)"), "{md}");
        assert!(md.contains("Incident 0: `sockets:2`"), "{md}");
        assert!(md.contains("**dead**"), "{md}");
        assert!(md.contains("worker 0 flight ring"), "{md}");
        assert!(md.contains("| send | `round` | 3 | 2 | 120 |"), "{md}");
        let json = render_json(&inputs, &[]);
        assert!(json.contains("\"postmortems\":1"), "{json}");

        // An empty artifact (no incidents) still renders a section —
        // "nothing went wrong" is a result, not an omission.
        let clean = Inputs {
            postmortems: Some(vec![]),
            ..Default::default()
        };
        let md = render_markdown(&clean, &[]);
        assert!(md.contains("no transport incidents recorded"), "{md}");

        // No --postmortem input, no section.
        assert!(!render_markdown(&Inputs::default(), &[]).contains("## Postmortem"));
    }

    #[test]
    fn diff_markdown_reports_identity_and_breaches() {
        let a = tiny_profile(12);
        let same = render_diff_markdown(
            "a.jsonl",
            "b.jsonl",
            &bcc_prof::diff_profiles(&a, &tiny_profile(12), &Default::default()),
        );
        assert!(same.contains("profiles are identical"), "{same}");

        let diff = bcc_prof::diff_profiles(&a, &tiny_profile(40), &Default::default());
        assert!(diff.breaches() > 0);
        let md = render_diff_markdown("a.jsonl", "b.jsonl", &diff);
        assert!(md.contains("baseline `a.jsonl` vs `b.jsonl`"), "{md}");
        assert!(md.contains("**BREACH**"), "{md}");
        assert!(md.contains("| 12 | 40 |"), "{md}");
    }
}
