//! Shared helpers for the Criterion benchmark suite, plus the logic of
//! the `bcc_bench` ([`ratios`]) and `bcc-report` ([`report`]) binaries.
//!
//! Each bench target regenerates (and times) one experiment family
//! from DESIGN.md §3; see EXPERIMENTS.md for the recorded series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ratios;
pub mod report;

use bcc_graphs::generators;
use bcc_model::Instance;

/// A canonical KT-0 one-cycle instance (the base object of the
/// Section 3 benches).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn kt0_cycle(n: usize) -> Instance {
    Instance::new_kt0_canonical(generators::cycle(n)).expect("valid instance")
}

/// A KT-1 one-cycle instance.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn kt1_cycle(n: usize) -> Instance {
    Instance::new_kt1(generators::cycle(n)).expect("valid instance")
}

#[cfg(test)]
mod tests {
    #[test]
    fn helpers_build() {
        assert_eq!(super::kt0_cycle(6).num_vertices(), 6);
        assert_eq!(super::kt1_cycle(6).num_vertices(), 6);
    }
}
