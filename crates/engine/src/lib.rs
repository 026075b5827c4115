//! `bcc-engine` — the batched simulation kernel and the
//! content-addressed artifact cache behind the experiment suite.
//!
//! The scalar executor in `bcc-model` runs one `(instance, seed)` at
//! a time; every lower-bound experiment in this reproduction runs
//! *families* of same-shape instances (a hard distribution, a sweep
//! of sampled partition pairs). This crate exploits that shape:
//!
//! * [`BatchRun`] cuts a list of instances into batches of up to
//!   [`MAX_LANES`] (= 64) same-shape lanes and advances each batch
//!   through one lockstep round loop: each round delivers every
//!   lane's broadcasts as one board in one exchange of one transport
//!   session, and each lane reads its rows through its own plan.
//!   Per-lane outcomes are byte-identical to scalar
//!   [`SimConfig::run`](bcc_model::SimConfig::run) calls, pinned by
//!   proptests.
//! * [`ArtifactStore`] memoizes expensive derived tables (GF(2)
//!   ranks, Bell tables, the round-0 indistinguishability graph)
//!   under content-addressed keys, optionally persisted as
//!   header-checked JSONL files; any cache failure degrades to
//!   recomputation, and no wall-clock is read anywhere.
//! * [`measure`] ports the hottest sampling loops —
//!   `distributional_error` and the Section 4.3 two-party simulation
//!   — onto the kernel with bit-for-bit identical results.
//!
//! Everything here is an *accelerator*: removing this crate and
//! calling the scalar paths must change nothing but wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod batch;
pub mod hash;
pub mod measure;
pub mod store;

pub use batch::{BatchRun, Lane, MAX_LANES};
pub use hash::{fnv1a, Fnv64};
pub use measure::{distributional_error_batched, simulate_two_party_batched, EngineError};
pub use store::{thread_lookups, ArtifactKey, ArtifactStore};
