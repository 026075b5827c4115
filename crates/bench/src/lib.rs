//! The logic of the `bcc_bench` ratio recorder ([`ratios`], which owns
//! the `BENCH.json` format) and of the `bcc-report` renderer
//! ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ratios;
pub mod report;
