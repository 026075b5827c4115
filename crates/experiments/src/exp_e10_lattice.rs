//! E10 — Theorem 2.3, structurally: the Dowling–Wilson factorization
//! `M_n = Z·diag(μ(R,1̂))·Zᵀ` on the partition lattice.

use crate::job::{ExpJob, JobOutput, Report};
use bcc_partitions::lattice::{verify_dowling_wilson, PartitionLattice};
use bcc_partitions::SetPartition;
use std::fmt::Write as _;

/// One factorization job per lattice size plus the Möbius spot-check.
pub fn jobs(quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    let max_n = if quick { 5 } else { 6 };
    let mut jobs = Vec::new();
    for n in 1..=max_n {
        jobs.push(ExpJob::new(format!("n={n}"), move |_ctx| {
            let lat = PartitionLattice::new(n);
            let z = lat.zeta_matrix();
            let all_nonzero = lat
                .elements
                .iter()
                .all(|p| !PartitionLattice::mobius_to_top(p).is_zero());
            let ok = verify_dowling_wilson(n);
            let text = format!(
                "{:>3} {:>7} {:>12} {:>14} {:>13}\n",
                n,
                lat.len(),
                z.rank(),
                all_nonzero,
                ok
            );
            JobOutput::default()
                .value("n", n)
                .value("bell", lat.len())
                .value("zeta_rank", z.rank())
                .check("mu(R, top) never vanishes", all_nonzero)
                .check("factorization verified", ok)
                .check("zeta full rank", z.rank() == lat.len())
                .text(text)
        }));
    }
    // Spot-check the Möbius closed form against the recursion at n = 4.
    jobs.push(ExpJob::new("mobius spot-check", move |_ctx| {
        let lat = PartitionLattice::new(4);
        let mu = lat.mobius_matrix();
        // The trivial partition is always an element of the
        // lattice; if it ever went missing, index 0 makes the
        // closed-form check below fail instead of panicking.
        let top = lat
            .elements
            .iter()
            .position(SetPartition::is_trivial)
            .unwrap_or_default();
        let agree = lat
            .elements
            .iter()
            .enumerate()
            .all(|(i, p)| mu.get(i, top) == PartitionLattice::mobius_to_top(p));
        JobOutput::default()
            .value("n", 4usize)
            .check("closed form matches recursion", agree)
            .text(format!(
                "closed-form mu(R, top) == recursive Mobius at n=4: {agree}\n"
            ))
    }));
    jobs
}

/// Assembles the E10 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new(
        "e10",
        "Dowling–Wilson factorization (Theorem 2.3, structural)",
    );
    let mut text = String::new();
    writeln!(
        text,
        "== E10: Dowling–Wilson factorization (Theorem 2.3, structural) =="
    )
    .unwrap();
    writeln!(
        text,
        "M_n = Z · diag(mu(R, top)) · Z^T with Z the refinement zeta matrix;"
    )
    .unwrap();
    writeln!(
        text,
        "mu(R, top) = (-1)^(k-1)(k-1)! never vanishes -> rank(M_n) = B_n."
    )
    .unwrap();
    writeln!(
        text,
        "{:>3} {:>7} {:>12} {:>14} {:>13}",
        "n", "B_n", "zeta rank", "min |mu| != 0", "factorization"
    )
    .unwrap();
    for o in outputs.iter().filter(|o| o.label.starts_with("n=")) {
        text.push_str(&o.text);
    }
    for o in outputs.iter().filter(|o| !o.label.starts_with("n=")) {
        text.push_str(&o.text);
    }
    r.param(
        "sizes",
        outputs.iter().filter(|o| o.label.starts_with("n=")).count(),
    );
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_verifies_everything() {
        let r = crate::test_report("e10", true).text;
        assert!(!r.contains("false"));
        assert!(r.contains("closed-form mu(R, top) == recursive Mobius at n=4: true"));
    }

    #[test]
    fn reduced_report_passes() {
        let rep = crate::test_report("e10", true);
        assert!(rep.passed, "failed checks: {:?}", rep.checks);
    }
}
