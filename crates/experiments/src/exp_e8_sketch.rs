//! E8 — the bandwidth contrast: AGM sketch connectivity at varying
//! `b`, reproducing the `BCC(1)` vs `BCC(polylog)` gap the paper's
//! introduction draws.

use crate::job::{job_seed, ExpJob, JobOutput, Report};
use bcc_algorithms::{Problem, SketchConnectivity};
use bcc_graphs::generators;
use bcc_model::{Decision, Instance, SimConfig};
use rand::SeedableRng;
use std::fmt::Write as _;

/// One bandwidth row.
#[derive(Debug, Clone)]
pub struct SketchRow {
    /// Vertices.
    pub n: usize,
    /// Bandwidth `b`.
    pub b: usize,
    /// Mean rounds over trials.
    pub mean_rounds: f64,
    /// Fraction of trials answered correctly.
    pub accuracy: f64,
    /// Sketch bits per node per phase.
    pub sketch_bits: usize,
}

/// Generates the shared instance set (half connected, half
/// disconnected) from one seed, so every bandwidth sees the same
/// inputs regardless of which worker measures it.
pub fn instance_set(n: usize, trials: usize, seed: u64) -> Vec<(bcc_graphs::Graph, bool)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..trials)
        .map(|i| {
            if i % 2 == 0 {
                (generators::random_tree_plus(n, n / 4, &mut rng), true)
            } else {
                let g = generators::random_disjoint_cycles(n, &mut rng);
                let connected = g.is_connected();
                (g, connected)
            }
        })
        .collect()
}

/// Measures one bandwidth on a pre-generated instance set. Each
/// simulated run records its `sim` span tree and `sim.*` cost counters
/// into `observer` (pass `Observer::off()` to observe nothing);
/// observers never change a row field.
pub fn sketch_row(
    n: usize,
    b: usize,
    graphs: &[(bcc_graphs::Graph, bool)],
    observer: bcc_trace::Observer,
) -> SketchRow {
    let algo = SketchConnectivity::new(Problem::Connectivity);
    let sim = SimConfig::bcc1(50_000_000)
        .bandwidth(b)
        .transcripts(false)
        .observe(observer);
    let mut rounds_total = 0usize;
    let mut correct = 0usize;
    for (i, (g, truth)) in graphs.iter().enumerate() {
        let inst = Instance::new_kt1(g.clone()).expect("instance");
        let out = sim.run(&inst, &algo, i as u64);
        rounds_total = rounds_total.saturating_add(out.stats().rounds);
        if (out.system_decision() == Decision::Yes) == *truth {
            correct += 1;
        }
    }
    SketchRow {
        n,
        b,
        mean_rounds: rounds_total as f64 / graphs.len() as f64,
        accuracy: correct as f64 / graphs.len() as f64,
        sketch_bits: SketchConnectivity::sketch_bits(n),
    }
}

fn grid(quick: bool) -> (usize, &'static [usize], usize) {
    if quick {
        (12, &[16, 256, 4096], 6)
    } else {
        (20, &[1, 16, 256, 4096], 10)
    }
}

/// One job per bandwidth. Each job regenerates the identical instance
/// set from the shared input seed (shard-independent), so rows stay
/// comparable and deterministic under any thread count.
pub fn jobs(quick: bool, suite_seed: u64) -> Vec<ExpJob> {
    let (n, bandwidths, trials) = grid(quick);
    // One seed for the instance set, shared by all shards.
    let input_seed = job_seed(suite_seed, "e8/inputs", 0);
    bandwidths
        .iter()
        .map(|&b| {
            ExpJob::new(format!("b={b}"), move |ctx| {
                let graphs = instance_set(n, trials, input_seed);
                let r = sketch_row(n, b, &graphs, ctx.observer().clone());
                let text = format!(
                    "{:>4} {:>7} {:>12.1} {:>9.2} {:>12}\n",
                    r.n, r.b, r.mean_rounds, r.accuracy, r.sketch_bits
                );
                JobOutput::default()
                    .value("n", r.n)
                    .value("b", r.b)
                    .value("mean_rounds", r.mean_rounds)
                    .value("accuracy", r.accuracy)
                    .value("sketch_bits", r.sketch_bits)
                    .check("accuracy >= 3/4", r.accuracy >= 0.75)
                    .text(text)
            })
        })
        .collect()
}

/// Assembles the E8 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new("e8", "sketch connectivity vs bandwidth (AGM + Boruvka)");
    let mut text = String::new();
    writeln!(
        text,
        "== E8: sketch connectivity vs bandwidth (AGM + Boruvka) =="
    )
    .unwrap();
    writeln!(
        text,
        "{:>4} {:>7} {:>12} {:>9} {:>12}",
        "n", "b", "mean rounds", "accuracy", "sketch bits"
    )
    .unwrap();
    for o in &outputs {
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "rounds scale ~ 1/b at fixed n (phases × ceil(sketch_bits/b));"
    )
    .unwrap();
    writeln!(
        text,
        "at b = 1 the polylog-bit sketches cost Θ(log^3 n)-ish rounds per phase —"
    )
    .unwrap();
    writeln!(
        text,
        "the gap between BCC(1) and higher-bandwidth broadcast cliques (paper §1)."
    )
    .unwrap();
    // Rounds must fall as bandwidth rises (the 1/b scaling).
    let rounds: Vec<f64> = outputs
        .iter()
        .filter_map(|o| o.float("mean_rounds"))
        .collect();
    let monotone = rounds.windows(2).all(|w| w[1] <= w[0]);
    r.param("bandwidths", outputs.len());
    r.value("rounds_monotone_in_b", monotone);
    r.check("rounds fall with bandwidth", monotone);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    #[test]
    fn bandwidth_scaling() {
        let graphs = super::instance_set(10, 4, 77);
        let rows: Vec<super::SketchRow> = [64, 1024]
            .into_iter()
            .map(|b| super::sketch_row(10, b, &graphs, bcc_trace::Observer::off()))
            .collect();
        assert!(rows[0].mean_rounds > rows[1].mean_rounds);
        for r in &rows {
            assert!(
                r.accuracy >= 0.75,
                "accuracy {} too low at b={}",
                r.accuracy,
                r.b
            );
        }
    }
}
