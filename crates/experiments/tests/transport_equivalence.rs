//! The transport determinism contract, end to end (DESIGN.md §14–§15):
//!
//! * the **experiment-side** artifacts — stdout report, job/suite
//!   trace units, workload counters — are byte-identical between
//!   `--transport local` and `--transport sockets:N` for the same
//!   seed;
//! * the **transport-side** telemetry (`transport.*` counters and
//!   `transport/worker:<rank>` trace units) exists only where workers
//!   exist: present in every sockets dump, absent — not zero-valued —
//!   from every local dump;
//! * sockets artifacts are themselves deterministic: byte-identical
//!   across same-seed re-runs and across `--jobs 1` vs `--jobs 8`.
//!
//! `--json` is deliberately not compared: its job records carry
//! wall-clock latencies, which are not deterministic under any
//! transport. Wall-clock transport quantities live in the `--wall`
//! sidecar, which is likewise never compared.

use std::path::{Path, PathBuf};
use std::process::Command;

struct CaseOutput {
    stdout: Vec<u8>,
    trace: Vec<u8>,
    metrics: Vec<u8>,
}

// Per-id scratch dirs: the e2 and e5 tests run in parallel threads,
// so each needs its own directory to create and remove.
fn scratch_dir(id: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcc-transport-eq-{}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_case(id: &str, transport: &str, jobs: &str, tag: &str, dir: &Path) -> CaseOutput {
    let trace = dir.join(format!("{id}-{tag}.trace.jsonl"));
    let metrics = dir.join(format!("{id}-{tag}.metrics.jsonl"));
    let output = Command::new(env!("CARGO_BIN_EXE_bcc-experiments"))
        .args([
            "--quick",
            "--seed",
            "7",
            "--jobs",
            jobs,
            "--transport",
            transport,
            "--trace",
            trace.to_str().expect("utf-8 path"),
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
            id,
        ])
        .output()
        .expect("spawn bcc-experiments");
    assert!(
        output.status.success(),
        "bcc-experiments {id} --transport {transport} --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    CaseOutput {
        stdout: output.stdout,
        trace: std::fs::read(&trace).expect("read trace dump"),
        metrics: std::fs::read(&metrics).expect("read metrics dump"),
    }
}

/// True for the JSONL lines that only a workered run produces: the
/// `transport.*` counter family in a metrics dump and the
/// `transport/worker:<rank>` units in a trace — plus the metrics meta
/// line, whose `units`/`counters` totals legitimately count them.
fn is_transport_line(line: &str) -> bool {
    line.contains("\"type\":\"meta\"")
        || line.contains("\"name\":\"transport.")
        || line.contains("\"unit\":\"transport/")
}

/// The non-transport lines of a JSONL artifact, for comparing the
/// experiment-side content of a local run against a sockets run.
fn without_transport_lines(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter(|l| !is_transport_line(l))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_transports_agree(id: &str) {
    let dir = scratch_dir(id);
    let local = run_case(id, "local", "1", "local", &dir);
    let sockets = run_case(id, "sockets:2", "1", "sockets-2", &dir);
    assert!(!local.trace.is_empty(), "trace dump should not be empty");
    assert!(
        !local.metrics.is_empty(),
        "metrics dump should not be empty"
    );

    // The experiment-side artifacts must not depend on the transport:
    // stdout byte-for-byte, trace and metrics after stripping the
    // transport-only lines the sockets run legitimately adds.
    assert_eq!(
        local.stdout, sockets.stdout,
        "{id}: stdout report differs between local and sockets:2"
    );
    assert_eq!(
        without_transport_lines(&local.trace),
        without_transport_lines(&sockets.trace),
        "{id}: experiment-side trace differs between local and sockets:2"
    );
    assert_eq!(
        without_transport_lines(&local.metrics),
        without_transport_lines(&sockets.metrics),
        "{id}: experiment-side metrics differ between local and sockets:2"
    );

    // Worker telemetry exists exactly where workers exist. A local
    // dump carrying `transport.* = 0` lines would leak the transport
    // choice into the artifact; absence is the contract.
    let local_metrics = String::from_utf8_lossy(&local.metrics).into_owned();
    let sockets_metrics = String::from_utf8_lossy(&sockets.metrics).into_owned();
    assert!(
        !local_metrics.contains("transport."),
        "{id}: local metrics dump must not mention transport.* at all"
    );
    assert!(
        !String::from_utf8_lossy(&local.trace).contains("transport/worker:"),
        "{id}: local trace must not contain worker units"
    );
    for name in ["sessions", "rounds", "frames", "symbols"] {
        assert!(
            sockets_metrics.contains(&format!("\"name\":\"transport.{name}\"")),
            "{id}: sockets metrics dump is missing transport.{name}"
        );
    }
    assert!(
        sockets_metrics.contains("\"name\":\"transport.worker:0."),
        "{id}: sockets metrics dump is missing per-rank worker counters"
    );
    assert!(
        String::from_utf8_lossy(&sockets.trace).contains("\"unit\":\"transport/worker:0\""),
        "{id}: sockets trace is missing the rank-0 worker unit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sockets_transport_is_byte_identical_on_e2() {
    assert_transports_agree("e2");
}

#[test]
fn sockets_transport_is_byte_identical_on_e5() {
    assert_transports_agree("e5");
}

/// Telemetry included, sockets artifacts are fully deterministic:
/// same-seed re-runs and `--jobs 1` vs `--jobs 8` produce
/// byte-identical dumps with no filtering at all.
#[test]
fn sockets_artifacts_are_deterministic_across_reruns_and_jobs() {
    let dir = scratch_dir("e2-det");
    let first = run_case("e2", "sockets:2", "1", "run1", &dir);
    let second = run_case("e2", "sockets:2", "1", "run2", &dir);
    let wide = run_case("e2", "sockets:2", "8", "jobs8", &dir);
    assert_eq!(
        first.metrics, second.metrics,
        "metrics dump differs across same-seed sockets re-runs"
    );
    assert_eq!(
        first.trace, second.trace,
        "trace differs across same-seed sockets re-runs"
    );
    assert_eq!(first.stdout, second.stdout);
    assert_eq!(
        first.metrics, wide.metrics,
        "metrics dump differs between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        first.trace, wide.trace,
        "trace differs between --jobs 1 and --jobs 8"
    );
    // Quick e2 ships a fixed amount of work through the workers, and
    // the coordinator's counts of it are pinned here: one board
    // message per row per round, not one per receiving port.
    let text = String::from_utf8(first.metrics).expect("utf-8 metrics dump");
    let dump = bcc_metrics::MetricsDump::parse_jsonl(&text).expect("metrics dump parses");
    for (name, total) in [
        ("sessions", 32),
        ("rounds", 36),
        ("frames", 3780),
        ("symbols", 3780),
    ] {
        let name = format!("transport.{name}");
        assert_eq!(dump.counter(&name), Some(total), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_transport_spec_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_bcc-experiments"))
        .args(["--quick", "--transport", "sockets:0", "e2"])
        .output()
        .expect("spawn bcc-experiments");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--transport"));
}
