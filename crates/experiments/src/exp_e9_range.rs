//! E9 — the range spectrum (Becker et al., paper §1.3): a problem
//! solved in one round with range 3 but needing `n/2` broadcast
//! rounds, inside the same simulator.

use crate::job::{ExpJob, JobOutput, Report};
use bcc_algorithms::{common_neighbor_truth, CommonNeighborBroadcast, CommonNeighborUnicast};
use bcc_graphs::generators;
use bcc_model::range::RangeSimulator;
use bcc_model::{Decision, Instance};
use rand::SeedableRng;
use std::fmt::Write as _;

/// One row of the range comparison.
#[derive(Debug, Clone)]
pub struct RangeRow {
    /// Vertices.
    pub n: usize,
    /// Rounds used by the unicast (range-3) algorithm.
    pub unicast_rounds: usize,
    /// Rounds used by the broadcast (range-1) algorithm.
    pub broadcast_rounds: usize,
    /// Both algorithms matched the ground truth on every pair.
    pub correct: bool,
}

/// Measures one size on a random graph drawn from `rng`.
pub fn range_row(n: usize, rng: &mut rand::rngs::StdRng) -> RangeRow {
    let g = generators::gnm(n, 2 * n, rng);
    let truth = common_neighbor_truth(&g);
    let inst = Instance::new_kt1(g).expect("instance");
    let uni = RangeSimulator::new(10_000, 1, 3).run(&inst, &CommonNeighborUnicast, 0);
    let bc = RangeSimulator::new(10_000, 1, 1).run(&inst, &CommonNeighborBroadcast, 0);
    let correct = truth.iter().enumerate().all(|(i, &t)| {
        let expect = if t { Decision::Yes } else { Decision::No };
        uni.decisions[2 * i] == expect && bc.decisions[2 * i] == expect
    });
    RangeRow {
        n,
        unicast_rounds: uni.rounds,
        broadcast_rounds: bc.rounds,
        correct,
    }
}

/// Sweeps sizes on random graphs (serial entry point).
pub fn series(ns: &[usize], seed: u64) -> Vec<RangeRow> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ns.iter().map(|&n| range_row(n, &mut rng)).collect()
}

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 64, 128, 256]
    }
}

/// One job per graph size.
pub fn jobs(quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    sizes(quick)
        .iter()
        .map(|&n| {
            ExpJob::new(format!("n={n}"), move |ctx| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed);
                let r = range_row(n, &mut rng);
                let text = format!(
                    "{:>5} {:>15} {:>17} {:>8}\n",
                    r.n, r.unicast_rounds, r.broadcast_rounds, r.correct
                );
                JobOutput::default()
                    .value("n", r.n)
                    .value("unicast_rounds", r.unicast_rounds)
                    .value("broadcast_rounds", r.broadcast_rounds)
                    .check("both algorithms correct", r.correct)
                    .check("unicast solves in 1 round", r.unicast_rounds == 1)
                    .check("broadcast needs n/2 rounds", r.broadcast_rounds == n / 2)
                    .text(text)
            })
        })
        .collect()
}

/// Assembles the E9 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new(
        "e9",
        "range spectrum — PairedCommonNeighbor, range 3 vs range 1",
    );
    let mut text = String::new();
    writeln!(
        text,
        "== E9: range spectrum — PairedCommonNeighbor, range 3 vs range 1 =="
    )
    .unwrap();
    writeln!(
        text,
        "(the Becker-et-al. sensitivity the paper cites: unicast O(1) vs broadcast Ω(n))"
    )
    .unwrap();
    writeln!(
        text,
        "{:>5} {:>15} {:>17} {:>8}",
        "n", "unicast rounds", "broadcast rounds", "correct"
    )
    .unwrap();
    for o in &outputs {
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "unicast stays at 1 round; broadcast grows as n/2 — a linear separation from range alone"
    )
    .unwrap();
    r.param("rows", outputs.len());
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    #[test]
    fn separation_is_linear() {
        let rows = super::series(&[8, 24], 1);
        for r in &rows {
            assert!(r.correct, "n={}", r.n);
            assert_eq!(r.unicast_rounds, 1);
            assert_eq!(r.broadcast_rounds, r.n / 2);
        }
    }

    #[test]
    fn reduced_report_passes() {
        let rep = crate::test_report("e9", true);
        assert!(rep.passed, "failed checks: {:?}", rep.checks);
    }
}
