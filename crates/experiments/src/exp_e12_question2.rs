//! E12 — the paper's open Question 2, explored empirically: error vs
//! communication for a one-sided randomized `Partition` protocol.
//!
//! No lower-bound claim is made (the question is open); the experiment
//! charts where a natural randomized protocol family lands relative to
//! the deterministic Θ(n log n) cost.

use crate::job::{job_seed, ExpJob, JobOutput, Report};
use bcc_comm::protocols::trivial_message_bits;
use bcc_comm::randomized::measure_error;
use bcc_partitions::random::uniform_partition;
use bcc_partitions::SetPartition;
use rand::SeedableRng;
use std::fmt::Write as _;

/// One row of the Question 2 exploration.
#[derive(Debug, Clone)]
pub struct Q2Row {
    /// Ground-set size.
    pub n: usize,
    /// Sampled constraints (= bits sent by Alice).
    pub k: usize,
    /// False-negative rate on trivial-join inputs.
    pub error: f64,
    /// Whether any false positive occurred (must be never).
    pub false_positive: bool,
}

/// Generates the trivial-join-heavy input set from one seed.
pub fn input_set(n: usize, num_inputs: usize, seed: u64) -> Vec<(SetPartition, SetPartition)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut inputs: Vec<(SetPartition, SetPartition)> = Vec::new();
    while inputs.len() < num_inputs {
        let pa = uniform_partition(n, &mut rng);
        let pb = uniform_partition(n, &mut rng);
        if pa.join(&pb).is_trivial() {
            inputs.push((pa, pb));
        }
    }
    inputs
}

/// Measures one constraint count on a pre-generated input set.
pub fn q2_row(
    n: usize,
    k: usize,
    inputs: &[(SetPartition, SetPartition)],
    num_seeds: usize,
) -> Q2Row {
    let seeds: Vec<u64> = (0..num_seeds as u64).collect();
    let (error, false_positive) = measure_error(inputs, k, &seeds);
    Q2Row {
        n,
        k,
        error,
        false_positive,
    }
}

fn grid(quick: bool) -> (usize, Vec<usize>, usize, usize) {
    let (n, num_inputs, num_seeds) = if quick { (8, 10, 6) } else { (16, 20, 10) };
    let deterministic = trivial_message_bits(n) + 1;
    let ks: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&k| quick || k <= 8 * deterministic)
        .collect();
    (n, ks, num_inputs, num_seeds)
}

/// One job per constraint count `k`. Every job regenerates the
/// identical input set from the shared input seed so the error curve
/// is measured on the same inputs at every `k`.
pub fn jobs(quick: bool, suite_seed: u64) -> Vec<ExpJob> {
    let (n, ks, num_inputs, num_seeds) = grid(quick);
    let input_seed = job_seed(suite_seed, "e12/inputs", 0);
    ks.into_iter()
        .map(|k| {
            ExpJob::new(format!("k={k}"), move |_ctx| {
                let inputs = input_set(n, num_inputs, input_seed);
                let r = q2_row(n, k, &inputs, num_seeds);
                let text = format!("{:>6} {:>12.3} {:>16}\n", r.k, r.error, r.false_positive);
                JobOutput::default()
                    .value("n", r.n)
                    .value("k", r.k)
                    .value("error", r.error)
                    .check("one-sided (no false positives)", !r.false_positive)
                    .text(text)
            })
        })
        .collect()
}

/// Assembles the E12 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new(
        "e12",
        "Question 2 exploration — randomized Partition, error vs bits",
    );
    let n = outputs.first().and_then(|o| o.int("n")).unwrap_or(0) as usize;
    let deterministic = if n > 0 {
        trivial_message_bits(n) + 1
    } else {
        0
    };
    let mut text = String::new();
    writeln!(
        text,
        "== E12: Question 2 exploration — randomized Partition, error vs bits =="
    )
    .unwrap();
    writeln!(
        text,
        "one-sided sampled-constraint protocol at n={n}; deterministic cost = {deterministic} bits"
    )
    .unwrap();
    writeln!(
        text,
        "{:>6} {:>12} {:>16}",
        "bits", "error (FN)", "false positives"
    )
    .unwrap();
    let mut monotone_ok = true;
    let mut last = f64::INFINITY;
    for o in &outputs {
        text.push_str(&o.text);
        let err = o.float("error").unwrap_or(0.0);
        if err > last + 0.15 {
            monotone_ok = false;
        }
        last = err;
    }
    writeln!(
        text,
        "error decays (roughly monotonically: {monotone_ok}) and needs k comparable to"
    )
    .unwrap();
    writeln!(
        text,
        "the deterministic n·log n cost before it vanishes — consistent with (but of"
    )
    .unwrap();
    writeln!(text, "course not proving) a positive answer to Question 2.").unwrap();
    r.param("n", n);
    r.param("deterministic_bits", deterministic);
    r.value("error_roughly_monotone", monotone_ok);
    r.check("error decays roughly monotonically", monotone_ok);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    #[test]
    fn error_curve_behaves() {
        let inputs = super::input_set(8, 8, 23);
        let rows: Vec<_> = [2, 128]
            .iter()
            .map(|&k| super::q2_row(8, k, &inputs, 5))
            .collect();
        assert!(!rows[0].false_positive && !rows[1].false_positive);
        assert!(rows[1].error <= rows[0].error);
    }

    #[test]
    fn reduced_report_passes() {
        let rep = crate::test_report("e12", true);
        assert!(rep.passed, "failed checks: {:?}", rep.checks);
    }
}
