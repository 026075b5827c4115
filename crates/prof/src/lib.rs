//! `bcc-prof`: deterministic cost-attribution profiling for the
//! bcclique workspace.
//!
//! The theorems this repository reproduces are statements about
//! *where bits and rounds are spent*. `bcc-trace` records the span
//! and cost stream; `bcc-metrics` folds authoritative totals; this
//! crate joins the two into a **profile**: logical costs (bits
//! broadcast, rounds, lane occupancy, cache lookups, job attempts)
//! rolled up the span tree into per-span-path inclusive/exclusive
//! totals.
//!
//! # The invariant
//!
//! A profile is a *pure function* of the merged trace and the
//! metrics dump — both of which are themselves byte-identical across
//! `--jobs` and same-seed re-runs — so profile bytes are ratchetable
//! artifacts like reports and dumps. Nothing in this crate reads a
//! clock; runner-measured latencies go to `bcc-experiments --wall`,
//! a separate file under a separate schema key that no parser here
//! accepts.
//!
//! # Pieces
//!
//! - [`Profile`] ([`profile`]): the model — frames keyed by
//!   normalized span path (`e2/job/sim/round`) × counter, span
//!   populations, and per-counter attribution summaries with the
//!   unattributed remainder reported explicitly.
//! - [`codec`]: the fixed-key-order JSONL writer and its parser;
//!   encode∘decode is the identity on writer output.
//! - [`render`]: folded flame stacks and the Markdown hot-path table
//!   `bcc-report` embeds.
//! - [`chrome`]: Chrome `trace_event` / Perfetto export of the
//!   logical timeline (`ts` = per-unit sequence number).
//! - [`diff`]: per-counter / per-span-path deltas between two
//!   profiles with a relative tolerance, exit-coded for CI by the
//!   `bcc-report --diff` front end.
//!
//! # Example
//!
//! ```
//! use bcc_trace::{Collector, TraceLevel};
//! use bcc_prof::Profile;
//!
//! let collector = Collector::new(TraceLevel::Costs);
//! let mut buf = collector.buf("e1/n=8 t=0");
//! buf.span_start("job", vec![]);
//! buf.span_start("sim", vec![]);
//! buf.counter("sim.bits_broadcast", 24);
//! buf.span_end("sim", vec![]);
//! buf.span_end("job", vec![]);
//! collector.absorb(buf);
//! let trace = collector.finish();
//!
//! let profile = Profile::build(trace.events(), None);
//! let total = profile.total("sim.bits_broadcast").unwrap();
//! assert_eq!((total.total, total.attributed), (24, 24));
//! let jsonl = bcc_prof::codec::profile_to_jsonl(&profile);
//! assert_eq!(bcc_prof::codec::parse_profile_jsonl(&jsonl).unwrap(), profile);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod codec;
pub mod diff;
pub mod profile;
pub mod render;

pub use chrome::render_chrome;
pub use codec::{parse_profile_jsonl, profile_to_jsonl, write_profile_jsonl};
pub use diff::{diff_profiles, DiffKind, DiffOptions, DiffRow, ProfileDiff};
pub use profile::{CounterTotal, Frame, Profile, SpanStat, TotalSource};
pub use render::{default_counter, render_folded, render_hot_paths};
