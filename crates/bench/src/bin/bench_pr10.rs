//! Records the cross-process telemetry overhead baseline as
//! `BENCH_PR10.json`.
//!
//! Times the E2 suite on the `sockets:2` transport with worker-side
//! telemetry in its default-on state against the same workload with
//! telemetry disabled (`BCC_TRANSPORT_TELEMETRY=0`, the knob the
//! workers read at spawn), and records
//!
//! * `overhead_pct`: the relative cost of recording, shipping, and
//!   accumulating worker telemetry (budget: ≤ 2%, checked by
//!   `bcc-report --check`);
//! * the telemetry the priced configuration actually yields — the
//!   `transport.*` counter family totals of one observed run — so the
//!   number is tied to a concrete artifact rather than a bare ratio.
//!
//! Run in release mode from the workspace root:
//!
//! ```text
//! cargo run --release -p bcc-bench --bin bench_pr10 [-- OUTPUT.json]
//! ```

use bcc_experiments::job::DEFAULT_SEED;
use bcc_experiments::{RunRequest, SuiteRun};
use bcc_metrics::{MetricsHub, MetricsLevel};
use bcc_model::TransportSpec;
use bcc_trace::Collector;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const REPS: usize = 21;
const WORKERS: usize = 2;
/// Timed suite runs per configuration block (after one warm run on
/// freshly spawned workers); the block's time is the fastest of
/// these.
const INNER: usize = 5;

/// One quick-mode E2 suite run. With `install_transport` the call
/// installs a fresh `sockets:2` factory, so the worker subprocesses
/// are respawned under the current environment — which is how the
/// telemetry knob reaches them. Without it, the call reuses whatever
/// factory (and live workers) the previous install left behind, which
/// keeps fork/exec out of the timed region.
fn e2_suite(metrics: MetricsLevel, install_transport: bool) -> SuiteRun {
    let mut request = RunRequest::new(["e2"], true, DEFAULT_SEED)
        .observed(Collector::disabled(), MetricsHub::new(metrics));
    if install_transport {
        request = request.transport(TransportSpec::Sockets(WORKERS));
    }
    match request.run() {
        Ok(run) => run,
        // "e2" is a registry id; the only failure mode here is the
        // transport, which the recorder cannot meaningfully time.
        Err(e) => {
            eprintln!("error: e2 suite failed: {e:?}");
            std::process::exit(1);
        }
    }
}

/// Times one configuration block: spawn workers under the knob, warm
/// them with one untimed run, then time `INNER` runs on the live
/// group and keep the fastest. Worker spawn (fork/exec plus the
/// accept loop) is tens of milliseconds of pure jitter, so it stays
/// outside the clock; taking the block minimum discards the upper
/// scheduling tail (runs on a loaded host vary ±30% while the lower
/// envelope stays within ~2%).
fn timed_block(telemetry: bool) -> u128 {
    if telemetry {
        std::env::remove_var(bcc_transport::TELEMETRY_ENV);
    } else {
        std::env::set_var(bcc_transport::TELEMETRY_ENV, "0");
    }
    e2_suite(MetricsLevel::Off, true);
    let mut best = u128::MAX;
    for _ in 0..INNER {
        let start = Instant::now();
        black_box(e2_suite(MetricsLevel::Off, false));
        best = best.min(start.elapsed().as_nanos().max(1));
    }
    best
}

fn main() -> ExitCode {
    // Under --transport sockets:N this binary re-execs itself as the
    // delivery workers.
    bcc_transport::maybe_run_worker();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());

    // Warm the process-wide artifact cache so every timed run sees
    // the suite's steady state.
    e2_suite(MetricsLevel::Off, true);

    // A shared machine drifts in load epochs lasting whole seconds,
    // so comparing each configuration's global best-of is dominated
    // by whichever config got the quiet epoch. Instead: time the two
    // configuration blocks back to back (a pair spans well under a
    // second, inside one epoch), alternate the within-pair order so
    // monotone drift biases alternate pairs in opposite directions,
    // and take the median of the per-pair ratios.
    let mut off_ns = u128::MAX;
    let mut on_ns = u128::MAX;
    let mut ratios: Vec<f64> = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let (off, on) = if rep % 2 == 0 {
            let off = timed_block(false);
            (off, timed_block(true))
        } else {
            let on = timed_block(true);
            (timed_block(false), on)
        };
        off_ns = off_ns.min(off);
        on_ns = on_ns.min(on);
        ratios.push(on as f64 / off as f64);
        if std::env::var("BENCH_PR10_DEBUG").is_ok() {
            eprintln!(
                "rep {rep} ({}) off {:.1}ms on {:.1}ms ratio {:.4}",
                if rep % 2 == 0 {
                    "off-first"
                } else {
                    "on-first"
                },
                off as f64 / 1e6,
                on as f64 / 1e6,
                on as f64 / off as f64
            );
        }
    }
    ratios.sort_by(f64::total_cmp);
    // Clamp so a lucky telemetry epoch doesn't record a negative
    // overhead.
    let overhead_pct = ((ratios[REPS / 2] - 1.0) * 100.0).max(0.0);

    // The telemetry the priced configuration yields: one observed run
    // whose flushed transport.* totals anchor the timing to a real
    // artifact shape.
    std::env::remove_var(bcc_transport::TELEMETRY_ENV);
    let run = e2_suite(MetricsLevel::Core, true);
    let total = |name: &str| run.workload.counter(name).unwrap_or(0);
    let (sessions, rounds, frames, symbols) = (
        total("transport.sessions"),
        total("transport.rounds"),
        total("transport.frames"),
        total("transport.symbols"),
    );

    let json = format!(
        "{{\n  \"bench\": \"cross-process telemetry overhead (PR10)\",\n  \
         \"e2_suite_transport_telemetry\": {{\n    \
         \"workload\": \"{INNER}x RunRequest::new([\\\"e2\\\"]) quick mode, sockets:{WORKERS}, live workers, warm cache\",\n    \
         \"reps\": {REPS},\n    \"telemetry_off_ns\": {off_ns},\n    \
         \"telemetry_on_ns\": {on_ns},\n    \"overhead_pct\": {overhead_pct:.2}\n  }},\n  \
         \"transport_counters\": {{\n    \"sessions\": {sessions},\n    \
         \"rounds\": {rounds},\n    \"frames\": {frames},\n    \"symbols\": {symbols}\n  }}\n}}\n"
    );
    if let Err(err) = std::fs::write(&out_path, &json) {
        eprintln!("error: writing {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    eprintln!(
        "bench_pr10: worker telemetry overhead {overhead_pct:.2}% \
         ({sessions} sessions, {frames} frames shipped) -> {out_path}"
    );
    ExitCode::SUCCESS
}
