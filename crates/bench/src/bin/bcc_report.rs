//! `bcc-report`: merge a deterministic metrics dump, an optional
//! trace, and the committed `BENCH.json` ratios (written by
//! `bcc_bench`) into one offline Markdown/JSON report, optionally
//! failing on regressions.
//!
//! Exit-code contract (stable for CI):
//!
//! * **0** — success: report rendered, every requested check passed.
//! * **1** — a regression: `--check` found a failing check, or
//!   `--diff` found a delta outside the tolerance. Also used for
//!   output-write failures (the run itself was valid).
//! * **2** — a usage error: bad flags (including a percentage that is
//!   negative or not finite), or an unreadable/malformed input file,
//!   such as a `--bench` file that is not a `BENCH.json`. CI can tell
//!   "the gate tripped" (1) apart from "the gate was miswired" (2).
//!
//! The checks `--check` gates on (an exact counter match against a
//! baseline dump, and the `BENCH.json` medians against their bounds)
//! are documented in `bcc_bench::report`.

use bcc_bench::ratios;
use bcc_bench::report::{
    render_diff_markdown, render_json, render_markdown, run_checks, trace_stats, CheckOptions,
    Inputs,
};
use bcc_metrics::MetricsDump;
use std::fmt::Display;
use std::process::ExitCode;

const USAGE: &str = "usage: bcc-report [--metrics PATH] [--baseline PATH] [--trace PATH]
                  [--profile PATH] [--postmortem PATH] [--bench PATH]
                  [--format md|json] [--out PATH] [--check] [--tolerance PCT]
                  [--max-overhead PCT]
       bcc-report --diff A.profile B.profile [--diff-tolerance PCT] [--out PATH]

  --metrics PATH       workload metrics dump (JSONL) to report on
  --baseline PATH      committed baseline dump; counters must match exactly
  --trace PATH         trace JSONL; reported as event counts by kind
  --profile PATH       bcc-prof profile JSONL; reported as the hot-path table
  --postmortem PATH    worker postmortem artifact (bcc_postmortem JSONL);
                       reported as the incident + flight-ring section
  --bench PATH         committed BENCH.json ratios (written by bcc_bench)
  --format md|json     output format (default md)
  --out PATH           write the report here instead of stdout
  --check              exit 1 if any regression check fails
  --tolerance PCT      how far below 1.0 a speedup median may sit (default 5)
  --max-overhead PCT   ceiling for an overhead median, in percent (default 2)
  --diff A B           compare two profile artifacts; exit 1 on any delta
                       outside --diff-tolerance
  --diff-tolerance PCT relative drift allowed per quantity (default 0)

exit codes: 0 success · 1 regression (--check/--diff) or write failure
            2 usage error or unreadable/malformed input";

#[derive(Default)]
struct Cli {
    metrics: Option<String>,
    baseline: Option<String>,
    trace: Option<String>,
    profile: Option<String>,
    postmortem: Option<String>,
    bench: Option<String>,
    diff: Option<(String, String)>,
    diff_tolerance_pct: f64,
    json: bool,
    out: Option<String>,
    check: bool,
    opts: CheckOptions,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--metrics" => cli.metrics = Some(value("--metrics")?),
            "--baseline" => cli.baseline = Some(value("--baseline")?),
            "--trace" => cli.trace = Some(value("--trace")?),
            "--profile" => cli.profile = Some(value("--profile")?),
            "--postmortem" => cli.postmortem = Some(value("--postmortem")?),
            "--bench" if cli.bench.is_some() => return Err("--bench takes one file".to_string()),
            "--bench" => cli.bench = Some(value("--bench")?),
            "--diff" => {
                let a = value("--diff")?;
                let b = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--diff needs two profile paths".to_string())?;
                cli.diff = Some((a, b));
            }
            "--diff-tolerance" => cli.diff_tolerance_pct = percent(arg, value(arg)?)?,
            "--format" => match value("--format")?.as_str() {
                "md" => cli.json = false,
                "json" => cli.json = true,
                f => return Err(format!("unknown format `{f}` (md|json)")),
            },
            "--out" => cli.out = Some(value("--out")?),
            "--check" => cli.check = true,
            "--tolerance" => cli.opts.tolerance_pct = percent(arg, value(arg)?)?,
            "--max-overhead" => cli.opts.max_overhead_pct = percent(arg, value(arg)?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let reported = [
        &cli.metrics,
        &cli.trace,
        &cli.profile,
        &cli.postmortem,
        &cli.bench,
    ];
    let reports = reported.iter().any(|path| path.is_some());
    if cli.diff.is_some() && (reports || cli.baseline.is_some() || cli.check) {
        return Err(
            "--diff is its own mode; combine it only with --diff-tolerance and --out".into(),
        );
    }
    if cli.diff.is_none() && !reports {
        return Err(
            "nothing to report: pass --metrics, --trace, --profile, --postmortem or --bench".into(),
        );
    }
    Ok(cli)
}

/// A threshold in percent. NaN would make every comparison false and
/// switch the gate off, so only finite, non-negative values pass.
fn percent(flag: &str, text: String) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(pct) if pct.is_finite() && pct >= 0.0 => Ok(pct),
        _ => Err(format!("{flag} needs a finite number ≥ 0, got `{text}`")),
    }
}

/// Reads the file at `path` and decodes it; errors name the path.
fn decode_file<T, E: Display>(
    path: &str,
    decode: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    decode(&text).map_err(|e| format!("{path}: {e}"))
}

/// [`decode_file`] for an optional input.
fn load<T, E: Display>(
    path: &Option<String>,
    decode: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, String> {
    path.as_deref().map(|p| decode_file(p, decode)).transpose()
}

fn load_inputs(cli: &Cli) -> Result<Inputs, String> {
    Ok(Inputs {
        metrics: load(&cli.metrics, MetricsDump::parse_jsonl)?,
        baseline: load(&cli.baseline, MetricsDump::parse_jsonl)?,
        trace: load(&cli.trace, trace_stats)?,
        profile: load(&cli.profile, bcc_prof::parse_profile_jsonl)?,
        postmortems: load(&cli.postmortem, bcc_model::postmortem::parse_jsonl)?,
        bench: load(&cli.bench, ratios::parse)?,
    })
}

/// Writes `rendered` to `--out` or stdout; false when the write failed.
fn emit(cli: &Cli, rendered: &str) -> bool {
    let Some(path) = &cli.out else {
        print!("{rendered}");
        return true;
    };
    if let Err(e) = std::fs::write(path, rendered) {
        eprintln!("bcc-report: {path}: {e}");
        return false;
    }
    eprintln!("bcc-report: wrote {path}");
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("bcc-report: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a_path, b_path)) = &cli.diff {
        return run_diff(&cli, a_path, b_path);
    }
    let inputs = match load_inputs(&cli) {
        Ok(inputs) => inputs,
        Err(msg) => {
            // Unreadable or malformed inputs are a miswired
            // invocation, not a tripped gate: exit 2, not 1.
            eprintln!("bcc-report: {msg}");
            return ExitCode::from(2);
        }
    };
    let failures = run_checks(&inputs, cli.opts);
    let rendered = if cli.json {
        render_json(&inputs, cli.opts, &failures)
    } else {
        render_markdown(&inputs, cli.opts, &failures)
    };
    if !emit(&cli, &rendered) {
        return ExitCode::FAILURE;
    }
    for f in &failures {
        eprintln!("bcc-report: FAIL {f}");
    }
    if cli.check && !failures.is_empty() {
        eprintln!("bcc-report: {} check(s) failed", failures.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `--diff` mode: load two profile artifacts, render the changed
/// rows, exit 1 when any delta falls outside the tolerance.
fn run_diff(cli: &Cli, a_path: &str, b_path: &str) -> ExitCode {
    let load = |path| decode_file(path, bcc_prof::parse_profile_jsonl);
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("bcc-report: {msg}");
            return ExitCode::from(2);
        }
    };
    let diff = bcc_prof::diff_profiles(
        &a,
        &b,
        &bcc_prof::DiffOptions {
            tolerance_pct: cli.diff_tolerance_pct,
        },
    );
    if !emit(cli, &render_diff_markdown(a_path, b_path, &diff)) {
        return ExitCode::FAILURE;
    }
    let breaches = diff.breaches();
    if breaches > 0 {
        eprintln!("bcc-report: {breaches} profile delta(s) outside tolerance");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
