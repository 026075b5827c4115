//! The logic behind the `bcc-report` binary: merge a deterministic
//! workload-metrics dump, an optional trace, and the committed
//! `BENCH.json` ratios into one offline report, and check the inputs
//! for regressions.
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
//! * **bench ratios** — a `BENCH.json` pair whose `[q1, q3]`
//!   interval straddles its [`CheckOptions::bound`] is reported
//!   `unresolved`, not failed, whatever its median; otherwise its
//!   median must be inside the bound.

use crate::ratios::{Kind, Pair, Verdict};
use bcc_metrics::json::push_quoted;
use bcc_metrics::MetricsDump;
use bcc_trace::json::parse_event;
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

/// Parses a trace JSONL file into per-kind counts. Each line is read
/// with the trace codec's own decoder, [`parse_event`], so a line
/// that is not a well-formed event is an error here too.
pub fn trace_stats(text: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut units = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_event(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        *stats
            .by_kind
            .entry(event.kind.tag().to_string())
            .or_insert(0) += 1;
        stats.events += 1;
        units.insert(event.unit);
    }
    stats.units = units.len() as u64;
    Ok(stats)
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
    /// The committed `BENCH.json` pairs (`--bench`).
    pub bench: Option<Vec<Pair>>,
}

/// Thresholds for [`run_checks`].
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// How far below break-even (1.0) a speedup median may sit, in %.
    pub tolerance_pct: f64,
    /// Ceiling for an overhead median, in percent.
    pub max_overhead_pct: f64,
}

impl CheckOptions {
    /// The lowest speedup, or the highest overhead in %, that passes.
    pub fn bound(&self, kind: Kind) -> f64 {
        match kind {
            Kind::Speedup => 1.0 - self.tolerance_pct / 100.0,
            Kind::Overhead => self.max_overhead_pct,
        }
    }
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
    for p in inputs.bench.iter().flatten() {
        let bound = opts.bound(p.kind);
        if p.verdict(bound) == Verdict::Fail {
            let [median, bound] = [p.quartiles[1], bound].map(|x| p.kind.show(x));
            let (kind, name) = (p.kind.name(), &p.name);
            failures.push(format!(
                "bench {kind} `{name}`: median {median} is past the bound {bound}"
            ));
        }
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

/// Renders the merged report as Markdown.
pub fn render_markdown(inputs: &Inputs, opts: CheckOptions, failures: &[String]) -> String {
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
    if let Some(pairs) = &inputs.bench {
        md.push_str(
            "\n## Bench ratios\n\n\
             | pair | base → variant | reps × runs | base ns | variant ns | median | [q1, q3] | bound | verdict |\n\
             |---|---|---:|---:|---:|---:|---|---:|---|\n",
        );
        for p in pairs {
            let bound = opts.bound(p.kind);
            let verdict = match p.verdict(bound) {
                Verdict::Pass => "pass",
                Verdict::Unresolved => "unresolved",
                Verdict::Fail => "**FAIL**",
            };
            let [q1, median, q3] = p.quartiles.map(|x| p.kind.show(x));
            let (arms, bound) = (format!("{} → {}", p.base, p.variant), p.kind.show(bound));
            let timing = format!("{} × {} | {} | {}", p.reps, p.runs, p.base_ns, p.variant_ns);
            let row = format!("{median} | [{q1}, {q3}] | {bound} | {verdict}");
            let _ = writeln!(md, "| `{}` | {arms} | {timing} | {row} |", p.name);
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
    let unresolved: Vec<_> = unresolved(inputs, opts)
        .map(|p| format!("`{}`", p.name))
        .collect();
    if !unresolved.is_empty() {
        let names = unresolved.join(", ");
        let _ = writeln!(md, "\nunresolved, [q1, q3] straddles the bound: {names}");
    }
    md
}

/// The bench pairs whose `[q1, q3]` straddles their bound.
fn unresolved(inputs: &Inputs, opts: CheckOptions) -> impl Iterator<Item = &Pair> {
    let straddles = move |p: &&Pair| p.verdict(opts.bound(p.kind)) == Verdict::Unresolved;
    inputs.bench.iter().flatten().filter(straddles)
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
pub fn render_json(inputs: &Inputs, opts: CheckOptions, failures: &[String]) -> String {
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
    out.push_str("\"unresolved\":");
    push_string_array(&mut out, unresolved(inputs, opts).map(|p| p.name.as_str()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metrics::json::{parse, JsonValue};
    use bcc_metrics::{MetricsHub, MetricsLevel};

    /// One well-formed trace line.
    fn event(unit: &str, seq: u64, kind: &str) -> String {
        format!(
            "{{\"unit\":\"{unit}\",\"seq\":{seq},\"path\":\"\",\"kind\":\"{kind}\",\"name\":\"job\",\"fields\":{{}}}}"
        )
    }

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

    fn pair(name: &str, kind: Kind, q1: f64, median: f64, q3: f64) -> Pair {
        Pair {
            name: name.to_string(),
            kind,
            base: "off".to_string(),
            variant: "on".to_string(),
            reps: 9,
            runs: 1,
            base_ns: 100,
            variant_ns: 101,
            quartiles: [q1, median, q3],
        }
    }

    #[test]
    fn bench_check_fails_medians_past_their_bound() {
        let inputs = Inputs {
            bench: Some(vec![
                pair("slow", Kind::Speedup, 0.8, 0.9, 0.93),
                pair("noisy", Kind::Overhead, -1.0, 0.5, 2.5),
                pair("fine", Kind::Speedup, 4.0, 4.5, 5.0),
                pair("costly", Kind::Overhead, 2.5, 3.5, 4.0),
                pair("wide", Kind::Overhead, -2.5, 11.5, 41.0),
            ]),
            ..Default::default()
        };
        let opts = CheckOptions::default();
        let failures = run_checks(&inputs, opts);
        assert_eq!(
            failures,
            [
                "bench speedup `slow`: median 0.90× is past the bound 0.95×",
                "bench overhead `costly`: median +3.50% is past the bound +2.00%",
            ]
        );
        let md = render_markdown(&inputs, opts, &failures);
        let noisy =
            "| `noisy` | off → on | 9 × 1 | 100 | 101 | +0.50% | [-1.00%, +2.50%] | +2.00% |";
        assert!(md.contains(&format!("{noisy} unresolved |")), "{md}");
        // A median past the bound inside a straddling interval is not
        // a failure: the spread is too wide to tell.
        assert!(md.contains("| +11.50% | [-2.50%, +41.00%] | +2.00% | unresolved |"));
        assert!(md.contains("unresolved, [q1, q3] straddles the bound: `noisy`, `wide`"));
        assert!(
            md.contains(
                "| `fine` | off → on | 9 × 1 | 100 | 101 | 4.50× | [4.00×, 5.00×] | 0.95× | pass |"
            ),
            "{md}"
        );
        assert!(
            md.contains("| `slow` |") && md.contains("| 0.95× | **FAIL** |"),
            "{md}"
        );
        let json = parse(&render_json(&inputs, opts, &failures)).unwrap();
        let unresolved = json.arr_field("unresolved").unwrap();
        let names = ["noisy", "wide"].map(|name| JsonValue::Str(name.to_string()));
        assert_eq!(unresolved, names);
        // A looser budget lets both medians through.
        let loose = CheckOptions {
            tolerance_pct: 20.0,
            max_overhead_pct: 4.0,
        };
        assert!(run_checks(&inputs, loose).is_empty());
    }

    #[test]
    fn trace_stats_count_kinds_and_units() {
        let text = format!(
            "{}\n{}\n\n{}\n",
            event("a", 0, "span_start"),
            event("a", 1, "point"),
            event("b", 0, "span_start")
        );
        let stats = trace_stats(&text).unwrap();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.units, 2);
        assert_eq!(stats.by_kind.get("span_start"), Some(&2));
        assert!(trace_stats("not json").is_err());
    }

    #[test]
    fn trace_stats_rejects_what_the_trace_codec_rejects() {
        for line in [
            r#"{"kind":"point"}"#,
            r#"{"unit":"a","seq":0,"path":"","kind":"nope","name":"x","fields":{}}"#,
            r#"{"unit":"a","seq":0,"path":"","kind":"point","name":"x","fields":{},"extra":1}"#,
        ] {
            assert!(parse_event(line).is_err(), "{line}");
            let text = format!("{}\n{line}\n", event("a", 0, "point"));
            let err = trace_stats(&text).unwrap_err();
            assert!(err.starts_with("trace line 2: "), "{err}");
        }
    }

    #[test]
    fn markdown_report_renders_every_section() {
        let dump = dump_with(&[("sim.runs", 7)]);
        let inputs = Inputs {
            metrics: Some(dump),
            trace: Some(trace_stats(&event("a", 0, "point")).unwrap()),
            bench: Some(vec![pair("a", Kind::Speedup, 1.5, 2.0, 2.5)]),
            ..Default::default()
        };
        let md = render_markdown(&inputs, CheckOptions::default(), &[]);
        assert!(md.contains("## Workload metrics"));
        assert!(md.contains("| `sim.runs` | 7 |"));
        assert!(md.contains("## Trace"));
        assert!(md.contains("## Bench ratios"));
        assert!(md.contains("| `a` | off → on |"));
        assert!(md.contains("all checks passed"));
        let md_fail = render_markdown(&inputs, CheckOptions::default(), &["boom".to_string()]);
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
        let md = render_markdown(&inputs, CheckOptions::default(), &[]);
        assert!(md.contains("## Service"));
        assert!(md.contains("2 accepted · 1 rejected · 2 completed · 0 cancelled · 0 drained"));
        assert!(md.contains("| `serve.accepted` | 2 |"));
        assert!(md.contains("queue depth at admission: 2 samples"));

        // A workload dump without serve.* counters gets no section.
        let plain = Inputs {
            metrics: Some(dump_with(&[("sim.runs", 7)])),
            ..Default::default()
        };
        assert!(!render_markdown(&plain, CheckOptions::default(), &[]).contains("## Service"));
    }

    #[test]
    fn json_report_escapes_control_characters() {
        let inputs = Inputs {
            metrics: Some(dump_with(&[("a\"b", 1)])),
            bench: Some(vec![pair("odd\\name\n", Kind::Overhead, 1.0, 1.5, 2.5)]),
            ..Default::default()
        };
        let failure = "line one\nline two \u{1} \"quoted\"".to_string();
        let text = render_json(
            &inputs,
            CheckOptions::default(),
            std::slice::from_ref(&failure),
        );
        assert_eq!(text.lines().count(), 1, "not one JSONL line: {text}");
        let v = parse(&text).unwrap();
        let failures = v.arr_field("failures").unwrap();
        assert_eq!(failures[0].as_str(), Some(failure.as_str()));
        let unresolved = v.arr_field("unresolved").unwrap();
        assert_eq!(unresolved[0].as_str(), Some("odd\\name\n"));
        let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(counters.u64_field("a\"b"), Ok(1));
    }

    #[test]
    fn json_report_is_parseable_and_carries_failures() {
        let inputs = Inputs {
            metrics: Some(dump_with(&[("a", 1)])),
            ..Default::default()
        };
        let text = render_json(
            &inputs,
            CheckOptions::default(),
            &["bad \"thing\"".to_string()],
        );
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
        let md = render_markdown(&inputs, CheckOptions::default(), &[]);
        assert!(md.contains("## Profile"), "{md}");
        assert!(md.contains("span paths"), "{md}");
        assert!(md.contains("e2/job/sim"), "{md}");
        assert!(md.contains("sim.bits_broadcast"), "{md}");

        // No profile input, no section.
        let plain = Inputs::default();
        assert!(!render_markdown(&plain, CheckOptions::default(), &[]).contains("## Profile"));
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
        let md = render_markdown(&inputs, CheckOptions::default(), &[]);
        assert!(md.contains("## Postmortem"), "{md}");
        assert!(md.contains("1 incident(s)"), "{md}");
        assert!(md.contains("Incident 0: `sockets:2`"), "{md}");
        assert!(md.contains("**dead**"), "{md}");
        assert!(md.contains("worker 0 flight ring"), "{md}");
        assert!(md.contains("| send | `round` | 3 | 2 | 120 |"), "{md}");
        let json = render_json(&inputs, CheckOptions::default(), &[]);
        assert!(json.contains("\"postmortems\":1"), "{json}");

        // An empty artifact (no incidents) still renders a section —
        // "nothing went wrong" is a result, not an omission.
        let clean = Inputs {
            postmortems: Some(vec![]),
            ..Default::default()
        };
        let md = render_markdown(&clean, CheckOptions::default(), &[]);
        assert!(md.contains("no transport incidents recorded"), "{md}");

        // No --postmortem input, no section.
        assert!(
            !render_markdown(&Inputs::default(), CheckOptions::default(), &[])
                .contains("## Postmortem")
        );
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
