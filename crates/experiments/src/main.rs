//! CLI for the experiment harness.
//!
//! ```text
//! bcc-experiments [OPTIONS] <id>...    id ∈ {f1, f2, e1..e12, all}
//!
//! OPTIONS:
//!   --quick             trim instance sizes (test-friendly)
//!   --jobs N            worker threads (default 1 = serial)
//!   --seed S            suite seed (default 2024)
//!   --timeout-secs T    per-job wall-clock deadline
//!   --json PATH         write JSONL: one record per job, one per
//!                       report, and a final metrics record
//!   --trace PATH        write the merged event trace as JSONL
//!                       (implies --trace-level events)
//!   --trace-level L     off | spans | costs | events (default: off;
//!                       events when --trace is given; costs when
//!                       only --profile asks for a trace)
//!   --metrics PATH      write the merged deterministic workload
//!                       metrics as JSONL (implies --metrics-level
//!                       core)
//!   --metrics-level L   off | core | full (default: off, or core
//!                       when --metrics or --profile is given)
//!   --profile PATH      write the deterministic cost-attribution
//!                       profile (bcc-prof JSONL) built from this
//!                       run's trace and metrics dump; implies
//!                       --trace-level costs and --metrics-level core
//!                       when those are otherwise off, and rejects an
//!                       explicit --trace-level below costs
//!   --wall PATH         write the wall-clock sidecar: per-job
//!                       latency bands and transport stats (spawn
//!                       counts, accept ticks) under its own bcc_wall
//!                       schema; never deterministic, never read back
//!                       by any deterministic artifact
//!   --cache PATH        persist the artifact cache (ranks, Bell
//!                       tables, indistinguishability graphs) in
//!                       PATH; reports are byte-identical with or
//!                       without it
//!   --transport T       round-delivery backend: local (in-process,
//!                       default) or sockets:N (N worker subprocesses
//!                       over loopback TCP). Reports, traces, and
//!                       metrics dumps are byte-identical across
//!                       backends (DESIGN.md §14)
//!   --postmortem PATH   write worker postmortems (flight-recorder
//!                       rings frozen at failure time) as a typed
//!                       JSONL artifact; an empty artifact is still
//!                       written when the run saw no incident
//! ```

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{json, RunRequest, REGISTRY};
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_trace::{Collector, TraceLevel};
use std::io::Write;
use std::process::ExitCode;

mod wall;

const USAGE: &str = "usage: bcc-experiments [--quick] [--jobs N] [--seed S] \
[--timeout-secs T] [--json PATH] [--trace PATH] [--trace-level off|spans|costs|events] \
[--metrics PATH] [--metrics-level off|core|full] [--profile PATH] [--wall PATH] \
[--cache PATH] [--transport local|sockets:N] [--postmortem PATH] \
<id>...\n       \
id ∈ {f1, f2, e1..e12, all}";

struct Cli {
    request: RunRequest,
    threads: usize,
    json_path: Option<String>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    profile_path: Option<String>,
    wall_path: Option<String>,
    postmortem_path: Option<String>,
}

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut request = RunRequest::new(Vec::<String>::new(), false, DEFAULT_SEED);
    let mut threads = 1;
    let mut json_path = None;
    let mut trace_path: Option<String> = None;
    let mut trace_level: Option<TraceLevel> = None;
    let mut metrics_path: Option<String> = None;
    let mut metrics_level: Option<MetricsLevel> = None;
    let mut profile_path: Option<String> = None;
    let mut wall_path: Option<String> = None;
    let mut postmortem_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => request.quick = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                threads = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs: not a thread count: {v:?}"))?
                    .max(1);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                request.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed: not a u64: {v:?}"))?;
            }
            "--timeout-secs" => {
                let v = it.next().ok_or("--timeout-secs needs a value")?;
                let secs = v
                    .parse::<u64>()
                    .map_err(|_| format!("--timeout-secs: not a number of seconds: {v:?}"))?;
                request = request.timeout(std::time::Duration::from_secs(secs));
            }
            "--json" => {
                json_path = Some(it.next().ok_or("--json needs a path")?);
            }
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a path")?;
                request = request.cache(v);
            }
            "--transport" => {
                let v = it.next().ok_or("--transport needs a value")?;
                request = request.transport(
                    bcc_model::TransportSpec::parse(&v).map_err(|e| format!("--transport: {e}"))?,
                );
            }
            "--trace-level" => {
                let v = it.next().ok_or("--trace-level needs a value")?;
                trace_level = Some(match v.as_str() {
                    "off" => TraceLevel::Off,
                    "spans" => TraceLevel::Spans,
                    "costs" => TraceLevel::Costs,
                    "events" => TraceLevel::Events,
                    other => {
                        return Err(format!(
                            "--trace-level: expected off, spans, costs, or events, got {other:?}"
                        ))
                    }
                });
            }
            "--profile" => {
                profile_path = Some(it.next().ok_or("--profile needs a path")?);
            }
            "--wall" => {
                wall_path = Some(it.next().ok_or("--wall needs a path")?);
            }
            "--postmortem" => {
                postmortem_path = Some(it.next().ok_or("--postmortem needs a path")?);
            }
            "--metrics" => {
                metrics_path = Some(it.next().ok_or("--metrics needs a path")?);
            }
            "--metrics-level" => {
                let v = it.next().ok_or("--metrics-level needs a value")?;
                metrics_level = Some(MetricsLevel::from_name(&v).ok_or_else(|| {
                    format!("--metrics-level: expected off, core, or full, got {v:?}")
                })?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            id => request.ids.push(id.to_string()),
        }
    }
    if request.ids.is_empty() || request.ids.iter().any(|i| i == "all") {
        request.ids = REGISTRY.iter().map(|e| e.id.to_string()).collect();
    }
    // --trace without an explicit level records everything; --profile
    // alone needs only the cost stream; an explicit --trace-level
    // (even off) always wins.
    let trace_level = match (trace_level, &trace_path, &profile_path) {
        (Some(level), _, _) => level,
        (None, Some(_), _) => TraceLevel::Events,
        (None, None, Some(_)) => TraceLevel::Costs,
        (None, None, None) => TraceLevel::Off,
    };
    // Same rule for metrics: --metrics (or --profile, which joins the
    // dump for authoritative totals) records core counters; an
    // explicit --metrics-level (even off) always wins.
    let metrics_level = match (metrics_level, &metrics_path, &profile_path) {
        (Some(level), _, _) => level,
        (None, Some(_), _) | (None, None, Some(_)) => MetricsLevel::Core,
        (None, None, None) => MetricsLevel::Off,
    };
    // Below `costs` the trace holds no counter events, so a profile
    // would attribute nothing.
    if profile_path.is_some() && trace_level < TraceLevel::Costs {
        return Err("--profile needs --trace-level costs or events".to_string());
    }
    Ok(Cli {
        request: request
            .jobs(threads)
            .observed(Collector::new(trace_level), MetricsHub::new(metrics_level)),
        threads,
        json_path,
        trace_path,
        metrics_path,
        profile_path,
        wall_path,
        postmortem_path,
    })
}

fn main() -> ExitCode {
    // Must run before anything else: under `--transport sockets:N`
    // this binary re-execs itself as the delivery workers.
    bcc_transport::maybe_run_worker();
    match run(std::env::args().skip(1).collect()) {
        Ok(code) | Err(code) => code,
    }
}

fn usage_error(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Creates `path`, lets `write` fill it, and reports the summary
/// `write` returns on stderr. Any I/O failure exits 1.
fn emit(
    path: &str,
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<String>,
) -> Result<(), ExitCode> {
    let written = std::fs::File::create(path).and_then(|file| {
        let mut w = std::io::BufWriter::new(file);
        let summary = write(&mut w)?;
        w.flush()?;
        Ok(summary)
    });
    match written {
        Ok(summary) => {
            eprintln!("wrote {summary} to {path}");
            Ok(())
        }
        Err(err) => {
            eprintln!("error: writing {path}: {err}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The whole CLI after worker dispatch; `Err` carries the exit code of
/// a usage error or a failed write.
fn run(args: Vec<String>) -> Result<ExitCode, ExitCode> {
    let cli = parse_args(args).map_err(usage_error)?;
    // Wall-clock here times the whole suite for the stderr summary —
    // it never reaches report bytes.
    // bcc-lint: allow(D2, N1): suite timing feeds stderr only
    let started = std::time::Instant::now();
    let suite = cli.request.run().map_err(usage_error)?;
    let elapsed = started.elapsed();

    for report in &suite.reports {
        print!("{}", report.text);
        println!(
            "[{} {} in {} jobs]\n",
            report.experiment,
            if report.passed { "passed" } else { "FAILED" },
            suite
                .job_results
                .iter()
                .filter(|r| r.id.starts_with(&format!("{}/", report.experiment)))
                .count(),
        );
    }

    if let Some(path) = &cli.json_path {
        emit(path, |w| {
            for result in &suite.job_results {
                writeln!(w, "{}", json::job_record(result))?;
            }
            for report in &suite.reports {
                writeln!(w, "{}", json::report_record(report))?;
            }
            writeln!(w, "{}", suite.metrics.to_jsonl())?;
            let records = suite.job_results.len() + suite.reports.len() + 1;
            Ok(format!("{records} JSONL records"))
        })?;
    }

    if let Some(path) = &cli.trace_path {
        emit(path, |w| {
            suite.trace.write_jsonl(w)?;
            Ok(format!("{} trace events", suite.trace.events().len()))
        })?;
    }
    if !suite.trace.is_empty() {
        eprint!("{}", suite.trace.summary());
    }

    if let Some(path) = &cli.profile_path {
        let dump = (!suite.workload.is_empty()).then_some(&suite.workload);
        let profile = bcc_prof::Profile::build(suite.trace.events(), dump);
        emit(path, |w| {
            bcc_prof::write_profile_jsonl(&profile, w)?;
            Ok(format!(
                "profile ({} frames, {} counters)",
                profile.frames.len(),
                profile.totals.len()
            ))
        })?;
    }

    if let Some(path) = &cli.wall_path {
        // Per-job latencies measured by the runner plus the transport
        // factory's spawn/accept stats. Separate file, separate schema
        // key — no deterministic artifact ever reads it.
        let jobs: Vec<(String, std::time::Duration)> = suite
            .job_results
            .iter()
            .map(|r| (r.id.clone(), r.latency))
            .collect();
        let stats = bcc_model::transport::default_factory().wall_stats();
        emit(path, |w| {
            w.write_all(wall::to_jsonl(&jobs, &stats).as_bytes())?;
            Ok(format!(
                "wall sidecar ({} jobs, {} stats)",
                jobs.len(),
                stats.len()
            ))
        })?;
    }

    if let Some(path) = &cli.postmortem_path {
        let incidents = bcc_model::transport::default_factory().take_postmortems();
        emit(path, |w| {
            w.write_all(bcc_model::postmortem::postmortems_to_jsonl(&incidents).as_bytes())?;
            Ok(format!(
                "postmortem artifact ({} incidents)",
                incidents.len()
            ))
        })?;
    }

    if let Some(path) = &cli.metrics_path {
        emit(path, |w| {
            suite.workload.write_jsonl(w)?;
            Ok(format!(
                "{} metric series",
                suite.workload.counters().len()
                    + suite.workload.gauges().len()
                    + suite.workload.hists().len()
            ))
        })?;
    }
    if !suite.workload.is_empty() {
        eprint!("{}", suite.workload.summary());
    }

    eprintln!(
        "suite: {} experiments, {} jobs, {} threads, {:.1?}",
        suite.reports.len(),
        suite.job_results.len(),
        cli.threads,
        elapsed
    );
    eprint!("{}", suite.metrics.summary_table());

    Ok(if suite.reports.iter().all(|r| r.passed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
