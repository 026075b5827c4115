//! E4 — Corollaries 2.4 / 4.2: the trivial protocol's measured cost vs
//! the log-rank lower bound.

use crate::job::{ExpJob, JobOutput, Report};
use bcc_comm::bounds::{certify_rank, exact_deterministic_cc};
use bcc_comm::driver::{run_protocol, DriverOpts};
use bcc_comm::protocols::{TrivialJoinAlice, TrivialJoinBob};
use bcc_partitions::enumerate::all_partitions;
use bcc_partitions::matrices::{partition_join_matrix, two_partition_matrix};
use bcc_partitions::numbers::log2_bell;
use bcc_partitions::random::uniform_partition;
use bcc_partitions::SetPartition;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// One upper-vs-lower row.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Ground-set size.
    pub n: usize,
    /// Measured bits of the trivial protocol (worst case over inputs
    /// tried).
    pub upper_bits: usize,
    /// The log-rank lower bound for `Partition` (exact for small `n`,
    /// `log₂ B_n` beyond).
    pub lower_bits: f64,
    /// Gap factor upper/lower.
    pub gap: f64,
}

/// Measures the trivial decision protocol on a set of input pairs and
/// returns the worst-case bits.
pub fn measure_trivial_cost(n: usize, samples: usize, seed: u64) -> usize {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Exact uniform sampling needs Bell numbers (n ≤ 39); beyond that
    // use random block assignments — the protocol's cost is
    // input-independent, so the measurement is unaffected.
    let sample = |rng: &mut rand::rngs::StdRng| {
        if n <= 39 {
            uniform_partition(n, rng)
        } else {
            let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            SetPartition::from_assignment(&labels)
        }
    };
    let mut worst = 0;
    for _ in 0..samples {
        let pa = sample(&mut rng);
        let pb = sample(&mut rng);
        let mut alice = TrivialJoinAlice::new(pa);
        let mut bob = TrivialJoinBob::new(pb);
        let run = run_protocol(&mut alice, &mut bob, &DriverOpts::new(8));
        assert!(run.alice_output.is_some() && run.bob_output.is_some());
        worst = worst.max(run.bits_exchanged);
    }
    worst
}

/// Builds one row. For `n ≤ rank_max` the lower bound is the exact
/// rank; beyond it is `log₂ B_n` (the rank value Theorem 2.3
/// guarantees).
pub fn cost_row(n: usize, rank_max: usize, seed: u64) -> CostRow {
    let lower = if n <= rank_max {
        certify_rank(&partition_join_matrix(n)).comm_lower_bound_bits
    } else {
        log2_bell(n)
    };
    let upper = measure_trivial_cost(n, 16, seed);
    CostRow {
        n,
        upper_bits: upper,
        lower_bits: lower,
        gap: upper as f64 / lower.max(1e-9),
    }
}

fn grid(quick: bool) -> (&'static [usize], usize) {
    if quick {
        (&[4, 6, 8, 16], 5)
    } else {
        (&[4, 6, 8, 16, 32, 64, 128], 6)
    }
}

/// One cost-measurement job per `n`, plus the exhaustive-correctness
/// sweep, the `E_6` certificate, and two exact protocol-tree searches.
pub fn jobs(quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    let (ns, rank_max) = grid(quick);
    let mut jobs = Vec::new();
    for &n in ns {
        jobs.push(ExpJob::new(format!("cost n={n}"), move |ctx| {
            let r = cost_row(n, rank_max, ctx.seed);
            ctx.observer().with(|_, b| {
                b.counter("e4.cost_rows", 1);
                b.counter("e4.upper_bits", r.upper_bits as u64);
            });
            let text = format!(
                "{:>5} {:>11} {:>11.2} {:>7.2}\n",
                r.n, r.upper_bits, r.lower_bits, r.gap
            );
            JobOutput::default()
                .value("n", r.n)
                .value("upper_bits", r.upper_bits)
                .value("lower_bits", r.lower_bits)
                .value("gap", r.gap)
                .check("upper >= lower", r.upper_bits as f64 + 1e-9 >= r.lower_bits)
                .text(text)
        }));
    }

    // Correctness sweep of the trivial protocol on all pairs at n = 4,
    // and the TwoPartition bound.
    jobs.push(ExpJob::new("exhaustive n=4", move |ctx| {
        let mut ok = 0usize;
        let mut total = 0usize;
        // Route the driver's comm.* counters into the job's dump
        // but keep the sweep's 225 `protocol` spans and their
        // `message` events out of the trace (no-op when metrics
        // are off).
        let opts = DriverOpts::new(8).observe(ctx.observer().metrics_only());
        for pa in all_partitions(4) {
            for pb in all_partitions(4) {
                let mut alice = TrivialJoinAlice::new(pa.clone());
                let mut bob = TrivialJoinBob::new(pb.clone());
                let run = run_protocol(&mut alice, &mut bob, &opts);
                total += 1;
                if run.bob_output == Some(pa.join(&pb).is_trivial()) {
                    ok += 1;
                }
            }
        }
        JobOutput::default()
            .value("ok", ok)
            .value("total", total)
            .check("exhaustively correct", ok == total)
            .text(format!(
                "trivial protocol exhaustive correctness at n=4: {ok}/{total}\n"
            ))
    }));

    jobs.push(ExpJob::new("E_6 certificate", move |_ctx| {
        let e6 = certify_rank(&two_partition_matrix(6));
        JobOutput::default()
            .value("rank", e6.rank)
            .value("dim", e6.dim)
            .value("lower_bound_bits", e6.comm_lower_bound_bits)
            .check("E_6 full rank", e6.rank == e6.dim)
            .text(format!(
                "TwoPartition (E_6): rank {}/{} -> lower bound {:.2} bits\n",
                e6.rank, e6.dim, e6.comm_lower_bound_bits
            ))
    }));

    // Exact D(f) by protocol-tree search on the tiny matrices,
    // sandwiched between log-rank and the trivial upper bound.
    for (name, which) in [("M_3", 0usize), ("E_4", 1usize)] {
        jobs.push(ExpJob::new(
                        format!("exact D({name})"),
            move |_ctx| {
                let jm = if which == 0 {
                    partition_join_matrix(3)
                } else {
                    two_partition_matrix(4)
                };
                let d = exact_deterministic_cc(&jm.matrix);
                let lb = certify_rank(&jm).comm_lower_bound_bits;
                let trivial = (jm.dim() as f64).log2().ceil() as usize + 1;
                JobOutput::default()
                    .value("d", d)
                    .value("log_rank_bound", lb)
                    .value("trivial_upper", trivial)
                    .check("D >= log-rank bound", d as f64 + 1e-9 >= lb)
                    .check("D <= trivial upper", d <= trivial)
                    .text(format!(
                        "exact D({name}) = {d} bits (log-rank bound {lb:.2}, trivial upper {trivial})\n"
                    ))
            },
        ));
    }
    jobs
}

/// Assembles the E4 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new(
        "e4",
        "2-party Partition — trivial protocol vs log-rank bound",
    );
    let mut text = String::new();
    writeln!(
        text,
        "== E4: 2-party Partition — trivial protocol vs log-rank bound =="
    )
    .unwrap();
    writeln!(
        text,
        "{:>5} {:>11} {:>11} {:>7}",
        "n", "upper bits", "lower bits", "gap"
    )
    .unwrap();
    for o in outputs.iter().filter(|o| o.label.starts_with("cost")) {
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "both sides Θ(n log n): gap factor stays bounded as n grows"
    )
    .unwrap();
    for o in outputs.iter().filter(|o| !o.label.starts_with("cost")) {
        text.push_str(&o.text);
    }
    let rows = outputs
        .iter()
        .filter(|o| o.label.starts_with("cost"))
        .count();
    r.param("cost_rows", rows);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    /// Builds the series serially with the historical seed.
    fn series(ns: &[usize], rank_max: usize) -> Vec<super::CostRow> {
        ns.iter()
            .map(|&n| super::cost_row(n, rank_max, 7))
            .collect()
    }

    #[test]
    fn upper_dominates_lower() {
        let rows = series(&[4, 6, 8], 5);
        for r in &rows {
            assert!(r.upper_bits as f64 + 1e-9 >= r.lower_bits, "n={}", r.n);
            assert!(r.gap < 20.0, "gap unexpectedly large at n={}", r.n);
        }
    }

    #[test]
    fn quick_report_correctness() {
        let r = crate::test_report("e4", true).text;
        assert!(r.contains("correctness at n=4: 225/225"));
    }
}
