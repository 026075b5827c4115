//! `bcc-metrics`: deterministic workload metrics for the bcclique
//! workspace.
//!
//! The theorems this repository reproduces are statements about
//! *resources* — bits broadcast per round in `BCC(1)`, rounds to
//! solve `TwoCycle`/`Connectivity`, communication in the two-party
//! reductions. This crate makes those resources first-class outputs:
//! counters, gauges, and histograms over **logical quantities only**,
//! recorded into per-unit buffers and merged deterministically, so a
//! metrics dump is a pure function of the suite seed — byte-identical
//! across `--jobs 1` and `--jobs 8` and across same-seed reruns.
//!
//! # Pieces
//!
//! - [`MetricsLevel`]: `off` / `core` / `full`, mirroring
//!   `bcc_trace::TraceLevel`.
//! - [`MetricsBuf`]: a plain per-unit buffer. Recording is a
//!   `BTreeMap` update; a disabled buffer skips it entirely.
//! - [`MetricsHub`]: absorbs buffers under one short lock each and
//!   merges them with **commutative aggregates** — counters add,
//!   gauges fold `count`/`min`/`max`/`sum`, histograms add
//!   bucket-wise — so thread interleaving can never change a dump.
//! - [`MetricsDump`]: the merged result; renders to a stable JSONL
//!   codec (and parses back) through the facade that lint rule O2
//!   guards, plus a compact text summary.
//! - [`Histogram`] / [`HistogramSnapshot`]: the shared fixed-bucket
//!   log₂ histogram. The atomic recorder serves the runner's
//!   wall-clock profiling; the snapshot doubles as the in-buffer
//!   histogram here.
//! - [`json`]: a minimal JSON parser for reading dumps and the
//!   committed `BENCH.json` ratios back (used by `bcc-report`).
//!
//! # The invariant
//!
//! Metrics **on vs. off must never change experiment reports**, and
//! the dump must stay a pure function of the workload: only logical
//! quantities are recorded here. Wall-clock profiling (latencies,
//! jobs/sec) stays behind `crates/runner` and `crates/bench` — lint
//! rule D2 — and is never merged into a deterministic dump.
//!
//! # Example
//!
//! ```
//! use bcc_metrics::{MetricsHub, MetricsLevel};
//!
//! let hub = MetricsHub::new(MetricsLevel::Core);
//! let mut buf = hub.buf("e1/n=27");
//! buf.counter("sim.bits_broadcast", 27);
//! buf.observe("sim.round_bits", 9);
//! hub.absorb(buf);
//! let dump = hub.finish();
//! assert_eq!(dump.counter("sim.bits_broadcast"), Some(27));
//! let mut bytes = Vec::new();
//! dump.write_jsonl(&mut bytes).unwrap();
//! let text = String::from_utf8(bytes).unwrap();
//! assert_eq!(bcc_metrics::MetricsDump::parse_jsonl(&text).unwrap(), dump);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod hist;
mod hub;
pub mod json;
mod level;
mod sink;

pub use buf::{GaugeStat, MetricsBuf};
pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use hub::{MetricsDump, MetricsHub};
pub use level::MetricsLevel;
