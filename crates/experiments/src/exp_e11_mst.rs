//! E11 — MST in `BCC(1)`: the distributed Borůvka forest against the
//! Kruskal oracle, with the polylog round profile.

use crate::job::{job_seed, sort_by_shard, ExpJob, JobOutput, Report};
use bcc_algorithms::BoruvkaMst;
use bcc_graphs::weighted::WeightedGraph;
use bcc_graphs::{generators, Graph};
use bcc_model::{Instance, SimConfig};
use rand::SeedableRng;
use std::fmt::Write as _;

/// One MST row.
#[derive(Debug, Clone)]
pub struct MstRow {
    /// Vertices.
    pub n: usize,
    /// Edges of the input graph.
    pub m: usize,
    /// Rounds used by the distributed algorithm.
    pub rounds: usize,
    /// Forest weight (agrees with Kruskal when `matches`).
    pub weight: u64,
    /// Distributed forest == Kruskal forest, at every vertex.
    pub matches: bool,
}

/// Runs one instance. The simulated run records its `sim` span tree
/// and `sim.*` cost counters into `observer` (pass `Observer::off()`
/// to observe nothing); observers never change a row field.
pub fn run_one(g: Graph, weight_seed: u64, observer: bcc_trace::Observer) -> MstRow {
    let n = g.num_vertices();
    let m = g.num_edges();
    let algo = BoruvkaMst::new(weight_seed);
    let inst = Instance::new_kt1(g.clone()).expect("instance");
    let out = SimConfig::bcc1(10_000_000)
        .transcripts(false)
        .observe(observer)
        .run(&inst, &algo, 0);
    let wg = WeightedGraph::from_graph_hashed(&g, weight_seed);
    let oracle = wg.minimum_spanning_forest();
    let oracle_edges: Vec<(u64, u64)> = oracle
        .edges
        .iter()
        .map(|&(u, v, _)| (u as u64, v as u64))
        .collect();
    let matches = (0..n).all(|v| {
        out.spanning_edges()[v]
            .as_ref()
            .is_some_and(|edges| *edges == oracle_edges)
    });
    MstRow {
        n,
        m,
        rounds: out.stats().rounds,
        weight: oracle.total_weight,
        matches,
    }
}

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 64, 128]
    }
}

/// One job per graph size; each derives its random graph and weight
/// seed from the job seed.
pub fn jobs(quick: bool, suite_seed: u64) -> Vec<ExpJob> {
    sizes(quick)
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let shard = i as u32;
            ExpJob::new(
                "e11",
                shard,
                format!("n={n}"),
                job_seed(suite_seed, "e11", shard),
                move |ctx| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed);
                    let g = generators::gnm(n, 2 * n, &mut rng);
                    let row = run_one(g, n as u64, ctx.observer().clone());
                    let log2 = (n as f64).log2();
                    let text = format!(
                        "{:>5} {:>6} {:>8} {:>9} {:>16.2}\n",
                        row.n,
                        row.m,
                        row.rounds,
                        row.matches,
                        row.rounds as f64 / (log2 * log2)
                    );
                    JobOutput::new("e11", shard, format!("n={n}"))
                        .value("n", row.n)
                        .value("m", row.m)
                        .value("rounds", row.rounds)
                        .value("weight", row.weight)
                        .check("forest matches Kruskal oracle", row.matches)
                        .text(text)
                },
            )
        })
        .collect()
}

/// Assembles the E11 report from its job outputs.
pub fn reduce(mut outputs: Vec<JobOutput>) -> Report {
    sort_by_shard(&mut outputs);
    let mut r = Report::new("e11", "Boruvka MST over broadcast vs Kruskal oracle");
    let mut text = String::new();
    writeln!(
        text,
        "== E11: Boruvka MST over broadcast vs Kruskal oracle =="
    )
    .unwrap();
    writeln!(
        text,
        "{:>5} {:>6} {:>8} {:>9} {:>16}",
        "n", "m", "rounds", "matches", "rounds/log2^2 n"
    )
    .unwrap();
    let mut all_match = true;
    for o in &outputs {
        all_match &= o.checks_pass();
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "all forests match the Kruskal oracle at every vertex: {all_match}"
    )
    .unwrap();
    writeln!(
        text,
        "rounds = O(log n) phases x (41 + log n) bits: polylog, vs the Θ(n) baseline;"
    )
    .unwrap();
    writeln!(
        text,
        "the MST-verification Ω(log n) lower bound of §1.3 is matched in order by the"
    )
    .unwrap();
    writeln!(text, "per-phase cost already.").unwrap();
    r.param("rows", outputs.len());
    r.value("all_match", all_match);
    r.check("all forests match oracle", all_match);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

/// Registry handle: this module's entry in [`crate::REGISTRY`].
pub struct E11;

impl crate::Experiment for E11 {
    fn id(&self) -> &'static str {
        "e11"
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
    #[test]
    fn mst_rows_match_oracle() {
        let r = crate::test_report("e11", true).text;
        assert!(r.contains("every vertex: true"));
    }

    #[test]
    fn single_run_matches() {
        let row = super::run_one(
            bcc_graphs::generators::complete(9),
            4,
            bcc_trace::Observer::off(),
        );
        assert!(row.matches);
        assert_eq!(row.m, 36);
    }
}
