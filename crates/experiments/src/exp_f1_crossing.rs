//! F1 — Figure 1: a port-preserving crossing, rendered as data, with
//! Lemma 3.4 executed live.

use crate::job::{ExpJob, JobOutput, Report};
use bcc_core::crossing::{cross_instance, indistinguishable_after, DirectedEdge};
use bcc_graphs::generators;
use bcc_model::testing::{EchoBit, IdBroadcast};
use bcc_model::Instance;
use bcc_trace::field;
use std::fmt::Write as _;

/// The eight ports of Figure 1 for a crossing of `(v₁,u₁), (v₂,u₂)`,
/// before and after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortTable {
    /// Rows `(vertex, peer-before, port, peer-after)`.
    pub rows: Vec<(usize, usize, usize, usize)>,
}

/// Builds Figure 1 concretely on the canonical 8-cycle with
/// `e₁ = 0→1`, `e₂ = 4→5`, and checks every claim in Definition 3.3.
pub fn figure1() -> (Instance, Instance, PortTable) {
    let i1 = Instance::new_kt0_canonical(generators::cycle(8)).expect("instance");
    let (v1, u1, v2, u2) = (0usize, 1usize, 4usize, 5usize);
    let i2 = cross_instance(&i1, DirectedEdge::new(v1, u1), DirectedEdge::new(v2, u2))
        .expect("independent crossing");
    let mut rows = Vec::new();
    for &(a, b) in &[
        (v1, u1),
        (v1, u2),
        (v2, u1),
        (v2, u2),
        (u1, v1),
        (u1, v2),
        (u2, v1),
        (u2, v2),
    ] {
        let port = i1.network().port_of(a, b);
        let after = i2.network().peer_of(a, port);
        rows.push((a, b, port, after));
    }
    (i1, i2, PortTable { rows })
}

/// F1 is one fixed figure — a single job covering the crossing, the
/// port table, and both Lemma 3.4 directions.
pub fn jobs(_quick: bool, _suite_seed: u64) -> Vec<ExpJob> {
    vec![ExpJob::new("figure1", |ctx| {
        let (i1, i2, table) = figure1();
        ctx.observer().event(
            "f1.crossing",
            vec![field("n", 8usize), field("crossed_edges", 2usize)],
        );
        ctx.observer().with(|_, m| m.counter("f1.crossings", 1));
        let mut out = String::new();
        writeln!(
            out,
            "base: canonical KT-0 8-cycle; crossing e1 = 0->1, e2 = 4->5"
        )
        .unwrap();
        writeln!(out, "input edges before: {:?}", i1.input().canonical_key()).unwrap();
        writeln!(out, "input edges after : {:?}", i2.input().canonical_key()).unwrap();
        writeln!(out, "vertex  peer-before  port  peer-after").unwrap();
        for (v, before, port, after) in &table.rows {
            writeln!(out, "{v:>6}  {before:>11}  {port:>4}  {after:>10}").unwrap();
        }
        // Port preservation: input-edge port sets identical at all
        // vertices.
        let ports_preserved = (0..8).all(|v| {
            i1.initial_knowledge(v, 1, 0).input_port_labels
                == i2.initial_knowledge(v, 1, 0).input_port_labels
        });
        writeln!(
            out,
            "input-edge port sets preserved at every vertex: {ports_preserved}"
        )
        .unwrap();
        // Lemma 3.4 live: indistinguishable under a uniform
        // broadcaster, distinguishable once IDs flow.
        let indist_uniform = indistinguishable_after(&i1, &i2, &EchoBit, 6, 0);
        let indist_ids = indistinguishable_after(&i1, &i2, &IdBroadcast::new(), 3, 0);
        ctx.observer().event(
            "f1.lemma_3_4",
            vec![
                field("indist_uniform", indist_uniform),
                field("indist_ids", indist_ids),
            ],
        );
        writeln!(
            out,
            "Lemma 3.4 (hypothesis satisfied, EchoBit, t=6): indistinguishable = {indist_uniform}"
        )
        .unwrap();
        writeln!(
            out,
            "Lemma 3.4 contrapositive (IdBroadcast, t=3):    indistinguishable = {indist_ids}"
        )
        .unwrap();
        JobOutput::default()
            .value("ports_preserved", ports_preserved)
            .value("indist_uniform", indist_uniform)
            .value("indist_ids", indist_ids)
            .check("ports preserved", ports_preserved)
            .check("lemma 3.4 indistinguishable", indist_uniform)
            .check("lemma 3.4 contrapositive distinguishes", !indist_ids)
            .text(out)
    })]
}

/// Assembles the F1 report from its job outputs.
pub fn reduce(outputs: Vec<JobOutput>) -> Report {
    let mut r = Report::new("f1", "port-preserving crossing (Figure 1)");
    r.param("n", 8usize);
    let mut text = String::new();
    writeln!(text, "== F1: port-preserving crossing (Figure 1) ==").unwrap();
    for o in &outputs {
        text.push_str(&o.text);
        for (k, v) in &o.values {
            r.value(k.clone(), v.clone());
        }
    }
    r.absorb_checks(&outputs);
    r.text = text;
    r.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_checks_pass() {
        let r = crate::test_report("f1", false).text;
        assert!(r.contains("preserved at every vertex: true"));
        assert!(r.contains("EchoBit, t=6): indistinguishable = true"));
        assert!(r.contains("IdBroadcast, t=3):    indistinguishable = false"));
    }

    #[test]
    fn reduced_report_passes() {
        let rep = crate::test_report("f1", true);
        assert!(rep.passed);
        assert_eq!(rep.values.len(), 3);
    }

    #[test]
    fn port_table_swaps_pairs() {
        let (_, _, t) = figure1();
        // v1's port to u1 now reaches u2 and vice versa.
        let find = |a: usize, b: usize| t.rows.iter().find(|r| r.0 == a && r.1 == b).unwrap().3;
        assert_eq!(find(0, 1), 5);
        assert_eq!(find(0, 5), 1);
        assert_eq!(find(4, 5), 1);
        assert_eq!(find(4, 1), 5);
        assert_eq!(find(1, 0), 4);
        assert_eq!(find(5, 4), 0);
    }
}
