//! E5 — Section 4.3 / Theorem 4.4: the Alice/Bob simulation of KT-1
//! algorithms, its measured cost, and the implied round lower bound.

use crate::job::{job_seed, sort_by_shard, ExpJob, JobOutput, Report};
use bcc_algorithms::{NeighborIdBroadcast, Problem};
use bcc_comm::reduction::Gadget;
use bcc_core::kt1::{simulation_bits_per_round, theorem_4_4_certificate};
use bcc_engine::BatchRun;
use bcc_model::SimConfig;
use bcc_partitions::numbers::log2_bell;
use bcc_partitions::random::uniform_matching_partition;
use bcc_trace::{field, Observer};
use rand::SeedableRng;
use std::fmt::Write as _;

/// One simulation row.
#[derive(Debug, Clone)]
pub struct SimRow {
    /// Ground-set size.
    pub n: usize,
    /// Simulated rounds (worst over sampled inputs).
    pub rounds: usize,
    /// Measured bits exchanged (worst).
    pub bits: usize,
    /// Formula bits/round.
    pub bits_per_round: usize,
    /// Exact or extrapolated communication lower bound for
    /// `TwoPartition`.
    pub comm_lower: f64,
    /// The implied KT-1 round lower bound.
    pub implied_rounds: f64,
    /// Answers agreed with join-triviality on every sampled input.
    pub correct: bool,
}

/// Measures one ground-set size with the given sampling RNG. The
/// lockstep kernel records its round spans and `engine.*` cost
/// counters into `observer` (pass [`Observer::off`] to observe
/// nothing); observers never change a row field.
pub fn sim_row(
    n: usize,
    samples: usize,
    rng: &mut rand::rngs::StdRng,
    observer: Observer,
) -> SimRow {
    let algo = NeighborIdBroadcast::new(Problem::MultiCycle);
    // Draw every sampled pair first, consuming the RNG in the exact
    // sequence the scalar per-pair loop did (the simulations never
    // touch it), then advance all pairs through the lockstep kernel —
    // the batched reports are field-identical to `simulate_two_party`.
    let pairs: Vec<_> = (0..samples)
        .map(|_| {
            (
                uniform_matching_partition(n, rng),
                uniform_matching_partition(n, rng),
            )
        })
        .collect();
    let reports = BatchRun::new(
        SimConfig::bcc1(1_000_000)
            .transcripts(false)
            .observe(observer),
    )
    .simulate_two_party(Gadget::TwoRegular, &algo, &pairs, 0)
    .unwrap_or_default();
    let mut worst_rounds = 0;
    let mut worst_bits = 0;
    // Matching partitions on the TwoRegular gadget always form valid
    // instances; a construction error (empty `reports`) would be a
    // bug, surfaced here as an incorrect row rather than a panic.
    let mut correct = reports.len() == pairs.len();
    for ((pa, pb), report) in pairs.iter().zip(&reports) {
        worst_rounds = worst_rounds.max(report.rounds);
        worst_bits = worst_bits.max(report.bits_exchanged);
        let expect_yes = pa.join(pb).is_trivial();
        correct &= (report.system_decision() == bcc_model::Decision::Yes) == expect_yes;
    }
    // Exact rank certificate only feasible for n ≤ 10; the
    // communication bound log2 (n−1)!! is available for all n via the
    // closed form (log2_bell bounds it above; use the
    // double-factorial logarithm directly).
    let comm_lower = log2_double_factorial(n);
    let bpr = simulation_bits_per_round(Gadget::TwoRegular, n);
    SimRow {
        n,
        rounds: worst_rounds,
        bits: worst_bits,
        bits_per_round: bpr,
        comm_lower,
        implied_rounds: comm_lower / bpr as f64,
        correct,
    }
}

/// `log₂ (n−1)!!` for even `n` (the exact log of rank(E_n)).
pub fn log2_double_factorial(n: usize) -> f64 {
    (1..n).step_by(2).map(|k| (k as f64).log2()).sum()
}

fn grid(quick: bool) -> (&'static [usize], usize) {
    if quick {
        (&[4, 6, 8], 4)
    } else {
        (&[4, 6, 8, 12, 16, 24, 32], 8)
    }
}

/// One simulation job per ground-set size plus the exact-certificate
/// job.
pub fn jobs(quick: bool, suite_seed: u64) -> Vec<ExpJob> {
    let (ns, samples) = grid(quick);
    let mut jobs = Vec::new();
    let mut shard = 0u32;
    for &n in ns {
        jobs.push(ExpJob::new(
            "e5",
            shard,
            format!("sim n={n}"),
            job_seed(suite_seed, "e5", shard),
            move |ctx| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed);
                let r = sim_row(n, samples, &mut rng, ctx.observer().clone());
                ctx.observer().event(
                    "e5.sim",
                    vec![
                        field("n", r.n),
                        field("rounds", r.rounds),
                        field("bits", r.bits),
                        field("implied_rounds", r.implied_rounds),
                    ],
                );
                ctx.observer().with(|trace, b| {
                    trace.counter("e5.bits_exchanged", r.bits as u64);
                    b.counter("e5.sim_rows", 1);
                    b.counter("e5.bits_exchanged", r.bits as u64);
                    b.counter("e5.rounds", r.rounds as u64);
                });
                let text = format!(
                    "{:>4} {:>7} {:>9} {:>9} {:>10.1} {:>13.2} {:>8}\n",
                    r.n,
                    r.rounds,
                    r.bits,
                    r.bits_per_round,
                    r.comm_lower,
                    r.implied_rounds,
                    r.correct
                );
                JobOutput::new("e5", shard, format!("sim n={n}"))
                    .value("n", r.n)
                    .value("rounds", r.rounds)
                    .value("bits", r.bits)
                    .value("bits_per_round", r.bits_per_round)
                    .value("comm_lower", r.comm_lower)
                    .value("implied_rounds", r.implied_rounds)
                    .check("simulation correct", r.correct)
                    .check(
                        "bits divisible by bits/round",
                        r.bits.is_multiple_of(r.bits_per_round),
                    )
                    .text(text)
            },
        ));
        shard += 1;
    }
    let cert_n = if quick { 6 } else { 8 };
    jobs.push(ExpJob::new(
        "e5",
        shard,
        format!("certificate n={cert_n}"),
        job_seed(suite_seed, "e5", shard),
        move |ctx| {
            let cert = theorem_4_4_certificate(Gadget::TwoRegular, cert_n);
            ctx.observer().event(
                "e5.certificate",
                vec![
                    field("n", cert.n),
                    field("rank", cert.rank.rank),
                    field("round_lower_bound", cert.round_lower_bound),
                ],
            );
            JobOutput::new("e5", shard, format!("certificate n={cert_n}"))
                .value("n", cert.n)
                .value("rank", cert.rank.rank)
                .value("dim", cert.rank.dim)
                .value("bits_per_round", cert.bits_per_round)
                .value("round_lower_bound", cert.round_lower_bound)
                .check("certificate full rank", cert.rank.full_rank)
                .text(format!(
                    "exact certificate n={}: rank {}/{} (full: {}), bits/round {}, round LB {}\n",
                    cert.n,
                    cert.rank.rank,
                    cert.rank.dim,
                    cert.rank.full_rank,
                    cert.bits_per_round,
                    cert.round_lower_bound
                ))
        },
    ));
    jobs
}

/// Assembles the E5 report from its job outputs.
pub fn reduce(mut outputs: Vec<JobOutput>) -> Report {
    sort_by_shard(&mut outputs);
    let mut r = Report::new(
        "e5",
        "two-party simulation of KT-1 BCC(1) (Section 4.3, Theorem 4.4)",
    );
    let mut text = String::new();
    writeln!(
        text,
        "== E5: two-party simulation of KT-1 BCC(1) (Section 4.3, Theorem 4.4) =="
    )
    .unwrap();
    writeln!(
        text,
        "{:>4} {:>7} {:>9} {:>9} {:>10} {:>13} {:>8}",
        "n", "rounds", "bits", "bits/rnd", "comm LB", "implied rnds", "correct"
    )
    .unwrap();
    for o in outputs.iter().filter(|o| o.label.starts_with("sim")) {
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "implied round LB = log2 (n-1)!! / (2N+2) — the Ω(log n) of Theorem 4.4"
    )
    .unwrap();
    for o in outputs
        .iter()
        .filter(|o| o.label.starts_with("certificate"))
    {
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "upper bound context: log2 B_n ~ {:.1} bits at n=32 (trivial protocol Θ(n log n))",
        log2_bell(32)
    )
    .unwrap();
    let sims = outputs
        .iter()
        .filter(|o| o.label.starts_with("sim"))
        .count();
    r.param("sim_rows", sims);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

/// Registry handle: this module's entry in [`crate::REGISTRY`].
pub struct E5;

impl crate::Experiment for E5 {
    fn id(&self) -> &'static str {
        "e5"
    }

    fn jobs(&self, quick: bool, suite_seed: u64) -> Vec<ExpJob> {
        jobs(quick, suite_seed)
    }

    fn reduce(&self, outputs: Vec<JobOutput>) -> Report {
        reduce(outputs)
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    /// Runs the sweep over ground sizes (even `n`), unobserved.
    fn series(ns: &[usize], samples: usize) -> Vec<super::SimRow> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        ns.iter()
            .map(|&n| super::sim_row(n, samples, &mut rng, super::Observer::off()))
            .collect()
    }

    #[test]
    fn simulation_correct_and_costed() {
        let rows = series(&[4, 6], 3);
        for r in &rows {
            assert!(r.correct, "n={}", r.n);
            assert_eq!(r.bits % r.bits_per_round, 0);
        }
    }

    #[test]
    fn implied_bound_grows_like_log() {
        // implied_rounds(4n)/implied_rounds(n) should be modest (log shape),
        // and the bound must increase.
        let rows = series(&[8, 32], 1);
        assert!(rows[1].implied_rounds > rows[0].implied_rounds);
        assert!(rows[1].implied_rounds < 4.0 * rows[0].implied_rounds);
    }

    #[test]
    fn double_factorial_log() {
        assert!((super::log2_double_factorial(6) - (15f64).log2()).abs() < 1e-9);
    }
}
