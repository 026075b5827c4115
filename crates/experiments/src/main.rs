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
//!                       when those are otherwise off
//!   --prof-wall PATH    write the wall-clock sidecar (per-job
//!                       latency bands; separate schema, never
//!                       deterministic, never read back by any
//!                       deterministic artifact)
//!   --cache PATH        persist the artifact cache (ranks, Bell
//!                       tables, indistinguishability graphs) in
//!                       PATH; reports are byte-identical with or
//!                       without it
//!   --transport T       round-delivery backend: local (in-process,
//!                       default) or sockets:N (N worker subprocesses
//!                       over loopback TCP). Reports, traces, and
//!                       metrics dumps are byte-identical across
//!                       backends (DESIGN.md §14)
//!   --transport-wall P  write the transport wall sidecar (spawn
//!                       counts, accept ticks, worker lifetime
//!                       totals; separate bcc_transport_wall schema,
//!                       never deterministic, never read back by any
//!                       deterministic artifact)
//!   --postmortem PATH   write worker postmortems (flight-recorder
//!                       rings frozen at failure time) as a typed
//!                       JSONL artifact; an empty artifact is still
//!                       written when the run saw no incident
//! ```

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{json, RunRequest, ALL_EXPERIMENTS};
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_trace::{Collector, TraceLevel};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: bcc-experiments [--quick] [--jobs N] [--seed S] \
[--timeout-secs T] [--json PATH] [--trace PATH] [--trace-level off|spans|costs|events] \
[--metrics PATH] [--metrics-level off|core|full] [--profile PATH] [--prof-wall PATH] \
[--cache PATH] [--transport local|sockets:N] [--transport-wall PATH] [--postmortem PATH] \
<id>...\n       \
id ∈ {f1, f2, e1..e12, all}";

struct Cli {
    request: RunRequest,
    threads: usize,
    json_path: Option<String>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    profile_path: Option<String>,
    prof_wall_path: Option<String>,
    transport_wall_path: Option<String>,
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
    let mut prof_wall_path: Option<String> = None;
    let mut transport_wall_path: Option<String> = None;
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
            "--prof-wall" => {
                prof_wall_path = Some(it.next().ok_or("--prof-wall needs a path")?);
            }
            "--transport-wall" => {
                transport_wall_path = Some(it.next().ok_or("--transport-wall needs a path")?);
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
        request.ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
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
    if profile_path.is_some() && trace_level == TraceLevel::Off {
        return Err("--profile needs a trace; drop --trace-level off or raise it".to_string());
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
        prof_wall_path,
        transport_wall_path,
        postmortem_path,
    })
}

fn main() -> ExitCode {
    // Must run before anything else: under `--transport sockets:N`
    // this binary re-execs itself as the delivery workers.
    bcc_transport::maybe_run_worker();
    let cli = match parse_args(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Wall-clock here times the whole suite for the stderr summary —
    // it never reaches report bytes.
    // bcc-lint: allow(D2, N1): suite timing feeds stderr only
    let started = std::time::Instant::now();
    let suite = match cli.request.run() {
        Ok(suite) => suite,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
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
        match write_jsonl(path, &suite) {
            Ok(records) => eprintln!("wrote {records} JSONL records to {path}"),
            Err(err) => {
                eprintln!("error: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &cli.trace_path {
        match write_trace(path, &suite.trace) {
            Ok(()) => eprintln!(
                "wrote {} trace events to {path}",
                suite.trace.events().len()
            ),
            Err(err) => {
                eprintln!("error: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !suite.trace.is_empty() {
        eprint!("{}", suite.trace.summary());
    }

    if let Some(path) = &cli.profile_path {
        let dump = (!suite.workload.is_empty()).then_some(&suite.workload);
        let profile = bcc_prof::Profile::build(suite.trace.events(), dump);
        match write_profile(path, &profile) {
            Ok(()) => eprintln!(
                "wrote profile ({} frames, {} counters) to {path}",
                profile.frames.len(),
                profile.totals.len()
            ),
            Err(err) => {
                eprintln!("error: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &cli.prof_wall_path {
        // Wall-clock sidecar: per-job latencies measured by the
        // runner. Separate file, separate schema key — no
        // deterministic artifact ever reads it.
        let entries: Vec<(String, std::time::Duration)> = suite
            .job_results
            .iter()
            .map(|r| (r.id.clone(), r.latency))
            .collect();
        match write_wall(path, &entries) {
            Ok(()) => eprintln!("wrote wall sidecar ({} jobs) to {path}", entries.len()),
            Err(err) => {
                eprintln!("error: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &cli.transport_wall_path {
        // Transport wall sidecar: spawn/accept/lifetime quantities
        // measured by the socket factory. Separate file, separate
        // schema key — no deterministic artifact ever reads it.
        let stats = bcc_model::transport::default_factory().wall_stats();
        match write_transport_wall(path, &stats) {
            Ok(()) => eprintln!(
                "wrote transport wall sidecar ({} stats) to {path}",
                stats.len()
            ),
            Err(err) => {
                eprintln!("error: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &cli.postmortem_path {
        let incidents = bcc_model::transport::default_factory().take_postmortems();
        match std::fs::write(
            path,
            bcc_model::postmortem::postmortems_to_jsonl(&incidents),
        ) {
            Ok(()) => eprintln!(
                "wrote postmortem artifact ({} incidents) to {path}",
                incidents.len()
            ),
            Err(err) => {
                eprintln!("error: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &cli.metrics_path {
        match write_metrics(path, &suite.workload) {
            Ok(()) => eprintln!(
                "wrote {} metric series to {path}",
                suite.workload.counters().len()
                    + suite.workload.gauges().len()
                    + suite.workload.hists().len()
            ),
            Err(err) => {
                eprintln!("error: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
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

    if suite.reports.iter().all(|r| r.passed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_jsonl(path: &str, suite: &bcc_experiments::SuiteRun) -> std::io::Result<usize> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    let mut records = 0usize;
    for result in &suite.job_results {
        writeln!(w, "{}", json::job_record(result))?;
        records += 1;
    }
    for report in &suite.reports {
        writeln!(w, "{}", json::report_record(report))?;
        records += 1;
    }
    writeln!(w, "{}", json::metrics_record(&suite.metrics))?;
    records += 1;
    w.flush()?;
    Ok(records)
}

fn write_trace(path: &str, trace: &bcc_trace::Trace) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    trace.write_jsonl(&mut w)?;
    w.flush()
}

fn write_metrics(path: &str, dump: &bcc_metrics::MetricsDump) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    dump.write_jsonl(&mut w)?;
    w.flush()
}

fn write_profile(path: &str, profile: &bcc_prof::Profile) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    bcc_prof::write_profile_jsonl(profile, &mut w)?;
    w.flush()
}

fn write_wall(path: &str, entries: &[(String, std::time::Duration)]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    bcc_prof::write_wall_sidecar(entries, &mut w)?;
    w.flush()
}

fn write_transport_wall(path: &str, stats: &[(String, u64)]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    bcc_transport::wall::write_transport_wall(stats, &mut w)?;
    w.flush()
}
