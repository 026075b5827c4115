//! E7 — the tightness side: measured round counts of the upper-bound
//! algorithms on the paper's instance families.

use crate::job::{ExpJob, JobOutput, Report};
use bcc_algorithms::{
    BoruvkaMinLabel, FullGraphBroadcast, Kt0Upgrade, NeighborIdBroadcast, Problem,
};
use bcc_graphs::generators;
use bcc_model::{Decision, Instance, SimConfig};
use std::fmt::Write as _;

/// Measured rounds of each algorithm at one size.
#[derive(Debug, Clone)]
pub struct UpperRow {
    /// Cycle length.
    pub n: usize,
    /// `NeighborIdBroadcast` on KT-1 (`3·⌈log₂ n⌉` predicted).
    pub neighbor_kt1: usize,
    /// `Kt0Upgrade(NeighborIdBroadcast)` on KT-0 (`4·⌈log₂ n⌉`).
    pub neighbor_kt0: usize,
    /// `BoruvkaMinLabel` on KT-1 at b = 1 (`O(log² n)`).
    pub boruvka: usize,
    /// `BoruvkaMinLabel` at b = ⌈log₂ n⌉ (`O(log n)` — the BCC(log n)
    /// regime).
    pub boruvka_blog: usize,
    /// `FullGraphBroadcast` baseline (`n` rounds).
    pub full: usize,
}

/// Measures every algorithm on the single cycle `C_n` (a YES
/// instance; each one is verified to answer correctly as it goes).
/// Each simulated run records its `sim` span tree and `sim.*` cost
/// counters into `observer` (pass `Observer::off()` to observe
/// nothing); observers never change a row field.
pub fn upper_row(n: usize, observer: bcc_trace::Observer) -> UpperRow {
    let g = generators::cycle(n);
    let kt1 = Instance::new_kt1(g.clone()).expect("instance");
    let kt0 = Instance::new_kt0(g, 5).expect("instance");
    let sim = SimConfig::bcc1(1_000_000)
        .transcripts(false)
        .observe(observer.clone());

    let run = |i: &Instance, a: &dyn bcc_model::Algorithm| {
        let out = sim.run(i, a, 0);
        assert_eq!(
            out.system_decision(),
            Decision::Yes,
            "{} wrong on C_{n}",
            a.name()
        );
        out.stats().rounds
    };
    let blog = bcc_model::codec::bits_needed(n);
    let sim_blog = SimConfig::bcc1(1_000_000)
        .bandwidth(blog)
        .transcripts(false)
        .observe(observer);
    let out_blog = sim_blog.run(&kt1, &BoruvkaMinLabel::new(Problem::Connectivity), 0);
    assert_eq!(out_blog.system_decision(), Decision::Yes);
    UpperRow {
        n,
        neighbor_kt1: run(&kt1, &NeighborIdBroadcast::new(Problem::TwoCycle)),
        neighbor_kt0: run(
            &kt0,
            &Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
        ),
        boruvka: run(&kt1, &BoruvkaMinLabel::new(Problem::Connectivity)),
        boruvka_blog: out_blog.stats().rounds,
        full: run(&kt1, &FullGraphBroadcast::new(Problem::Connectivity)),
    }
}

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[8, 16, 32, 64]
    } else {
        &[8, 16, 32, 64, 128, 256, 512]
    }
}

/// One job per cycle length — the larger simulations dominate, so the
/// sweep parallelizes across sizes.
pub fn jobs(quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    sizes(quick)
        .iter()
        .map(|&n| {
            ExpJob::new(format!("n={n}"), move |ctx| {
                let r = upper_row(n, ctx.observer().clone());
                let w = bcc_model::codec::bits_needed(n);
                let ratio = r.neighbor_kt1 as f64 / (n as f64).log2();
                let text = format!(
                    "{:>5} {:>12} {:>12} {:>9} {:>11} {:>7} {:>14.2}\n",
                    r.n, r.neighbor_kt1, r.neighbor_kt0, r.boruvka, r.boruvka_blog, r.full, ratio
                );
                JobOutput::default()
                    .value("n", r.n)
                    .value("neighbor_kt1", r.neighbor_kt1)
                    .value("neighbor_kt0", r.neighbor_kt0)
                    .value("boruvka", r.boruvka)
                    .value("boruvka_blog", r.boruvka_blog)
                    .value("full", r.full)
                    .check("nbr-kt1 = 3 ceil(log2 n)", r.neighbor_kt1 == 3 * w)
                    .check("nbr-kt0 = 4 ceil(log2 n)", r.neighbor_kt0 == 4 * w)
                    .check("full = n", r.full == n)
                    .check("boruvka O(log^2 n)", r.boruvka <= (2 * w + 1) * (w + 2))
                    .text(text)
            })
        })
        .collect()
}

/// Assembles the E7 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new(
        "e7",
        "upper bounds on cycles — rounds vs n (tightness of Ω(log n))",
    );
    let mut text = String::new();
    writeln!(
        text,
        "== E7: upper bounds on cycles — rounds vs n (tightness of Ω(log n)) =="
    )
    .unwrap();
    writeln!(
        text,
        "{:>5} {:>12} {:>12} {:>9} {:>11} {:>7} {:>14}",
        "n", "nbr-kt1", "nbr-kt0", "boruvka", "boruvka@log", "full", "nbr-kt1/log2 n"
    )
    .unwrap();
    for o in &outputs {
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "shape: nbr-kt1 = 3·ceil(log2 n) (O(log n), matches the lower bound);"
    )
    .unwrap();
    writeln!(
        text,
        "       nbr-kt0 adds the ceil(log2 n) ID-exchange prologue; boruvka = O(log^2 n) at b=1,"
    )
    .unwrap();
    writeln!(
        text,
        "       O(log n) at b=log n (the BCC(log n) regime, cf. JN17); full = n."
    )
    .unwrap();
    // Crossover: the log algorithms beat the baseline from n = 16 on.
    let crossover = outputs
        .iter()
        .find(|o| o.int("neighbor_kt1") < o.int("full"))
        .and_then(|o| o.int("n"));
    writeln!(
        text,
        "first n where nbr-kt1 beats full broadcast: {crossover:?}"
    )
    .unwrap();
    r.param("rows", outputs.len());
    if let Some(c) = crossover {
        r.value("crossover_n", c);
    }
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logarithmic_shape() {
        let rows: Vec<UpperRow> = [16, 64]
            .into_iter()
            .map(|n| upper_row(n, bcc_trace::Observer::off()))
            .collect();
        for r in &rows {
            let w = bcc_model::codec::bits_needed(r.n);
            assert_eq!(r.neighbor_kt1, 3 * w, "n={}", r.n);
            assert_eq!(r.neighbor_kt0, 4 * w, "n={}", r.n);
            assert_eq!(r.full, r.n);
            assert!(r.boruvka <= (2 * w + 1) * (w + 2));
        }
        // Doubling n four-fold increases the log algorithms by a
        // constant, the baseline by 4x.
        assert_eq!(rows[1].full, 4 * rows[0].full);
        assert!(rows[1].neighbor_kt1 <= rows[0].neighbor_kt1 + 6);
    }
}
