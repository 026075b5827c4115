//! E2 — Lemmas 3.7–3.9 and Theorem 3.1: the exact indistinguishability
//! graph, its degree census, expansion, k-matchings, and measured
//! distributional error.

use crate::job::{ExpJob, JobOutput, Report};
use bcc_algorithms::{
    HashVoteDecider, Kt0Upgrade, NeighborIdBroadcast, ParityDecider, Problem, Truncated,
};
use bcc_core::hard::uniform_two_cycle_distribution;
use bcc_core::indist::{harmonic_tail, lemma_3_9_degree_check, lemma_3_9_t_counts};
use bcc_engine::artifacts::indist_round_zero;
use bcc_engine::BatchRun;
use bcc_model::testing::ConstantDecision;
use bcc_model::SimConfig;
use bcc_trace::field;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Distributional error at `t` rounds with the job's observer
/// attached, so the kernel's round spans and `engine.*` cost counters
/// land in this job's trace/metrics units.
fn err(
    dist: &[bcc_core::hard::WeightedInstance],
    algorithm: &dyn bcc_model::Algorithm,
    t: usize,
    ctx: &bcc_runner::JobCtx,
) -> f64 {
    BatchRun::new(
        SimConfig::bcc1(t)
            .transcripts(false)
            .observe(ctx.observer().clone()),
    )
    .distributional_error(dist, algorithm, 0)
}

/// Structural row for one `n`.
#[derive(Debug, Clone)]
pub struct IndistRow {
    /// Instance size.
    pub n: usize,
    /// `|V₁|`.
    pub v1: usize,
    /// `|V₂|`.
    pub v2: usize,
    /// `|V₂|/|V₁|`.
    pub ratio: f64,
    /// Lemma 3.9 harmonic prediction `≈ Σ_{i=3}^{n/2} n/(2i(n−i))`.
    pub harmonic: f64,
    /// Degree formulas verified exactly.
    pub degrees_exact: bool,
    /// Largest k-matching saturating `V₂`.
    pub k_v2: usize,
    /// Sampled expansion `min |N(S)|/|S|` from the `V₂` side (the
    /// feasible Hall direction at these sizes).
    pub expansion: f64,
}

/// Builds the structural row for one `n` with the given sampling RNG.
pub fn structure_row(n: usize, rng: &mut rand::rngs::StdRng) -> IndistRow {
    // Cache front: decoded-or-rebuilt G⁰ is structurally identical to
    // a direct `IndistGraph::round_zero(n)`, so every number below —
    // including the RNG-sampled expansion — is unchanged by caching.
    let g = indist_round_zero(crate::cache::store(), n);
    let harmonic: f64 = (3..=n / 2)
        .map(|i| {
            let per = if 2 * i == n { n as f64 / 2.0 } else { n as f64 };
            per / (2.0 * i as f64 * (n - i) as f64)
        })
        .sum();
    let sizes = [1, 2, g.v2_len() / 4 + 1, g.v2_len()];
    IndistRow {
        n,
        v1: g.v1_len(),
        v2: g.v2_len(),
        ratio: g.count_ratio(),
        harmonic,
        degrees_exact: lemma_3_9_degree_check(&g),
        k_v2: g.max_k_matching_v2(1 + g.v1_len() / g.v2_len().max(1)),
        expansion: g.sampled_expansion_v2(&sizes, 8, rng),
    }
}

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[6, 7]
    } else {
        &[6, 7, 8, 9]
    }
}

/// One structure job per `n`, a `T_i` census job at the largest `n`,
/// and one error-measurement job per round budget.
pub fn jobs(quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    let ns = sizes(quick);
    let mut jobs = Vec::new();
    for &n in ns {
        jobs.push(ExpJob::new(format!("structure n={n}"), move |ctx| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed);
            let r = structure_row(n, &mut rng);
            ctx.observer().event(
                "e2.structure",
                vec![
                    field("n", r.n),
                    field("v1", r.v1),
                    field("v2", r.v2),
                    field("ratio", r.ratio),
                    field("expansion", r.expansion),
                ],
            );
            ctx.observer().with(|_, b| {
                b.counter("e2.structure_rows", 1);
                b.gauge("e2.lower_graph_vertices", (r.v1 + r.v2) as u64);
            });
            let text = format!(
                "{:>3} {:>8} {:>8} {:>8.4} {:>9.4} {:>8} {:>5} {:>9.3}\n",
                r.n, r.v1, r.v2, r.ratio, r.harmonic, r.degrees_exact, r.k_v2, r.expansion
            );
            JobOutput::default()
                .value("n", r.n)
                .value("v1", r.v1)
                .value("v2", r.v2)
                .value("ratio", r.ratio)
                .value("harmonic", r.harmonic)
                .value("k_v2", r.k_v2)
                .value("expansion", r.expansion)
                .check("degree formulas exact", r.degrees_exact)
                .check(
                    "ratio matches harmonic",
                    (r.ratio - r.harmonic).abs() < 1e-9,
                )
                .check("expansion >= 1", r.expansion >= 1.0)
                .text(text)
        }));
    }

    // T_i census at the largest n.
    let n_big = *ns.last().unwrap();
    jobs.push(ExpJob::new(format!("census n={n_big}"), move |ctx| {
        let g = indist_round_zero(crate::cache::store(), n_big);
        ctx.observer().event(
            "e2.census",
            vec![
                field("n", n_big),
                field("v1", g.v1_len()),
                field("v2", g.v2_len()),
            ],
        );
        ctx.observer().with(|_, m| m.counter("e2.census_rows", 1));
        let mut text = String::new();
        writeln!(
            text,
            "-- |T_i| census at n={n_big} (measured vs exact prediction)"
        )
        .unwrap();
        let mut exact = true;
        let mut out = JobOutput::default();
        for (i, count, pred) in lemma_3_9_t_counts(&g) {
            writeln!(text, "   i={i}: {count} vs {pred:.1}").unwrap();
            exact &= (count as f64 - pred).abs() < 0.5;
            out = out.value(format!("T_{i}"), count);
        }
        out.check("census matches prediction", exact).text(text)
    }));

    // Distributional error of the algorithm library at t = 1, 2.
    let n_err = if quick { 6 } else { 7 };
    for t in [1usize, 2] {
        jobs.push(ExpJob::new(format!("error t={t}"), move |ctx| {
            let dist = uniform_two_cycle_distribution(n_err);
            let trunc = Truncated::new(
                Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle)),
                t,
            );
            let rows = [
                (
                    "constant-yes".to_string(),
                    err(&dist, &ConstantDecision::yes(), t, ctx),
                ),
                (
                    "hash-vote".to_string(),
                    err(&dist, &HashVoteDecider::new(t), t, ctx),
                ),
                (
                    "parity-vote".to_string(),
                    err(&dist, &ParityDecider::new(t), t, ctx),
                ),
                ("truncated-real".to_string(), err(&dist, &trunc, t, ctx)),
            ];
            for (name, e) in &rows {
                ctx.observer().event(
                    "e2.error",
                    vec![
                        field("t", t),
                        field("algo", name.as_str()),
                        field("error", *e),
                    ],
                );
            }
            ctx.observer()
                .with(|_, m| m.counter("e2.error_rows", rows.len() as u64));
            let s: Vec<String> = rows.iter().map(|(n, e)| format!("{n}={e:.4}")).collect();
            let mut out = JobOutput::default().value("n", n_err).value("t", t);
            for (name, e) in &rows {
                out = out.value(format!("err:{name}"), *e);
            }
            out.text(format!("   t={t}: {}\n", s.join("  ")))
        }));
    }
    jobs
}

/// Assembles the E2 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new(
        "e2",
        "indistinguishability graph structure (Lemmas 3.7-3.9, Thm 2.1)",
    );
    let mut text = String::new();
    writeln!(
        text,
        "== E2: indistinguishability graph structure (Lemmas 3.7-3.9, Thm 2.1) =="
    )
    .unwrap();
    writeln!(
        text,
        "{:>3} {:>8} {:>8} {:>8} {:>9} {:>8} {:>5} {:>9}",
        "n", "|V1|", "|V2|", "V2/V1", "harmonic", "degrees", "k(V2)", "expansion"
    )
    .unwrap();
    for o in outputs.iter().filter(|o| o.label.starts_with("structure")) {
        text.push_str(&o.text);
    }
    writeln!(
        text,
        "ratio == harmonic prediction exactly; Θ(log n) growth (harmonic_tail({}) = {:.3})",
        64,
        harmonic_tail(64)
    )
    .unwrap();
    for o in outputs.iter().filter(|o| o.label.starts_with("census")) {
        text.push_str(&o.text);
    }
    if let Some(err0) = outputs.iter().find(|o| o.label.starts_with("error")) {
        writeln!(
            text,
            "-- Theorem 3.1 error measurements at n={} (uniform V1/V2 distribution)",
            err0.int("n").unwrap_or(0)
        )
        .unwrap();
    }
    for o in outputs.iter().filter(|o| o.label.starts_with("error")) {
        text.push_str(&o.text);
    }
    let structures = outputs
        .iter()
        .filter(|o| o.label.starts_with("structure"))
        .count();
    r.param("structure_rows", structures);
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    #[test]
    fn structure_rows_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let rows: Vec<_> = [6, 7]
            .iter()
            .map(|&n| super::structure_row(n, &mut rng))
            .collect();
        for r in &rows {
            assert!(r.degrees_exact, "n={}", r.n);
            assert!(
                (r.ratio - r.harmonic).abs() < 1e-9,
                "ratio mismatch at n={}",
                r.n
            );
            assert!(r.k_v2 >= 1);
            assert!(r.expansion >= 1.0);
        }
        // Ratio grows with n (the Θ(log n) trend).
        assert!(rows[1].ratio > rows[0].ratio);
    }

    #[test]
    fn reduced_report_passes() {
        let rep = crate::test_report("e2", true);
        assert!(rep.passed, "failed checks: {:?}", rep.checks);
        assert!(rep.text.contains("harmonic"));
    }
}
