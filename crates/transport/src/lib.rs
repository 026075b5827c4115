//! # bcc-transport — multi-process round delivery for BCC(b) runs
//!
//! The `bcc_model` simulator and the batched engine route every
//! round's message delivery through the
//! [`Transport`] trait. This crate provides the multi-process
//! backend: [`SocketFactory`] spawns worker subprocesses that each
//! own a contiguous range of nodes and serve deliveries over
//! loopback TCP, speaking the JSONL protocol in [`wire`].
//!
//! ## Determinism contract
//!
//! A socket run must be **byte-identical** to an in-process
//! [`LocalTransport`] run for
//! the same seed — same reports, same merged traces, same metrics
//! dumps. That holds by construction:
//!
//! 1. workers only route messages; all accounting (bit counts, span
//!    trees, counters) stays in the driver process,
//! 2. replies are merged in rank order and node ranges are
//!    contiguous ascending, so the merged [`RoundView`] is in node
//!    order regardless of scheduling, and
//! 3. nothing derived from a clock or a PID ever crosses the wire.
//!
//! ## Worker processes
//!
//! Workers are launched by re-exec'ing the current binary with
//! [`WORKER_FLAG`] as `argv[1]`. Any binary that wants to act as a
//! socket-transport host must call [`maybe_run_worker`] first thing
//! in `main`:
//!
//! ```no_run
//! bcc_transport::maybe_run_worker();
//! // ... normal CLI ...
//! ```
//!
//! A worker that dies mid-run surfaces as a typed
//! [`TransportError::WorkerDead`] on the driver side — never a panic
//! — and the run degrades to an all-`Undecided` outcome exactly like
//! any other transport failure.
//!
//! ## Transport telemetry
//!
//! The coordinator counts each rank's traffic (rounds, frames,
//! symbols per session) from the views it restores; workers count and
//! ship nothing. The factory accumulates the counts per rank and
//! replays them — rank-ordered, canonically sorted — into the run's
//! shared `Collector`/`MetricsHub` when the driver calls
//! [`TransportFactory::flush_telemetry`], yielding the deterministic
//! `transport.*` counter family and `transport/worker:<rank>` trace
//! units (DESIGN.md §15). Wall-ish quantities (spawn counts, accept
//! ticks) go to [`TransportFactory::wall_stats`] for the `--wall`
//! sidecar only. Each worker link also keeps a flight-recorder ring
//! of recent wire events; on a worker death the rings are frozen into
//! a [`Postmortem`](bcc_model::postmortem::Postmortem) that travels on
//! the error and via [`TransportFactory::take_postmortems`].

pub mod socket;
pub mod wire;
pub mod worker;

pub use bcc_model::transport::{
    LocalFactory, LocalTransport, RoundView, Routes, Transport, TransportError, TransportFactory,
    TransportSpec,
};
pub use socket::{worker_unit, SocketFactory, SocketTransport, WorkerCmd, WorkerGroup};
pub use worker::EXIT_AFTER_ENV;

use std::sync::Arc;

/// The `argv[1]` magic that turns any participating binary into a
/// transport worker (see [`maybe_run_worker`]).
pub const WORKER_FLAG: &str = "--bcc-transport-worker";

/// Builds the factory for a parsed `--transport` spec: `local` maps
/// to the in-process oracle, `sockets:N` to a self-exec'ing
/// [`SocketFactory`] with `N` workers.
pub fn factory_for(spec: TransportSpec) -> Arc<dyn TransportFactory> {
    match spec {
        TransportSpec::Local => Arc::new(LocalFactory),
        TransportSpec::Sockets(workers) => Arc::new(SocketFactory::self_exec(workers)),
    }
}

/// Installs `spec` as the process-wide default transport, used by
/// every [`SimConfig`](bcc_model::SimConfig) that has no explicit
/// factory.
pub fn install(spec: TransportSpec) {
    bcc_model::transport::set_default_factory(factory_for(spec));
}

/// Worker-mode dispatch: if the process was launched with
/// [`WORKER_FLAG`] as its first argument, runs the worker loop and
/// **exits the process** with its status code. Otherwise returns
/// immediately. Call this first thing in `main` of any binary that
/// hosts `--transport sockets:N`.
pub fn maybe_run_worker() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some(WORKER_FLAG) {
        let code = worker::run_from_args(&args[2..]);
        std::process::exit(code);
    }
}
