//! Edge labels over `{0,1,⊥}` and the active-edge census.
//!
//! The crossing arguments assign each directed input edge `(v, u)` a
//! `2t`-character label: the `t` characters broadcast by the tail `v`
//! followed by the `t` characters broadcast by the head `u`. The
//! pigeonhole step of Theorems 3.5/3.1 then finds `≥ d/3^{2t}` edges
//! sharing one label, and edges sharing a label are exactly the
//! *active* edges among which crossings are indistinguishable.

use crate::crossing::DirectedEdge;
use bcc_graphs::cycles::cycle_structure;
use bcc_graphs::Graph;
use bcc_model::{Algorithm, Instance, SimConfig, Symbol};

/// The per-vertex broadcast strings of the first `t` rounds of
/// `algorithm` on `instance` (index = vertex). Strings may be shorter
/// than `t` if the algorithm halted early; they are padded with `⊥` to
/// exactly `t`, matching the model's "silent once done" semantics.
pub fn broadcast_strings(
    instance: &Instance,
    algorithm: &dyn Algorithm,
    t: usize,
    coin_seed: u64,
) -> Vec<Vec<Symbol>> {
    let run = SimConfig::bcc1(t).run(instance, algorithm, coin_seed);
    (0..instance.num_vertices())
        .map(|v| {
            let mut s: Vec<Symbol> = run.transcript(v).sent.iter().map(|m| m.symbol()).collect();
            s.resize(t, Symbol::Silent);
            s
        })
        .collect()
}

/// The canonical orientation of a disjoint-cycle graph's edges: each
/// cycle is traversed from its minimum vertex toward that vertex's
/// smaller neighbor (the paper's "clockwise" orientation, fixed once
/// per instance), and every edge is directed along the traversal.
///
/// # Panics
///
/// Panics if `g` is not a disjoint union of cycles.
pub fn canonical_orientation(g: &Graph) -> Vec<DirectedEdge> {
    let s = cycle_structure(g).expect("disjoint-cycle input");
    let mut out = Vec::with_capacity(g.num_edges());
    for cycle in &s.cycles {
        let k = cycle.len();
        for i in 0..k {
            out.push(DirectedEdge::new(cycle[i], cycle[(i + 1) % k]));
        }
    }
    out
}

/// The label of a directed edge: `(tail string, head string)`.
pub type EdgeLabel = (Vec<Symbol>, Vec<Symbol>);

/// Labels every canonically-oriented edge of a disjoint-cycle input.
pub fn edge_labels(g: &Graph, strings: &[Vec<Symbol>]) -> Vec<(DirectedEdge, EdgeLabel)> {
    canonical_orientation(g)
        .into_iter()
        .map(|e| (e, (strings[e.tail].clone(), strings[e.head].clone())))
        .collect()
}

/// The edges *active with respect to* `(x, y)`: tail broadcasts `x`,
/// head broadcasts `y` (Section 3.1's definition).
pub fn active_edges(
    g: &Graph,
    strings: &[Vec<Symbol>],
    x: &[Symbol],
    y: &[Symbol],
) -> Vec<DirectedEdge> {
    canonical_orientation(g)
        .into_iter()
        .filter(|e| strings[e.tail] == x && strings[e.head] == y)
        .collect()
}

/// The `(x, y)` label pair with the most active edges, with its count —
/// the pigeonhole step. Guaranteed `count ≥ m / 3^{2t}` where `m` is
/// the number of edges (each label has `3^t` choices per side).
// bcc-lint: allow(U1): the pigeonhole census, an input of the open Theorem 3.1 items
pub fn best_label_pair(g: &Graph, strings: &[Vec<Symbol>]) -> (EdgeLabel, usize) {
    let mut census: std::collections::BTreeMap<EdgeLabel, usize> =
        std::collections::BTreeMap::new();
    for (_, label) in edge_labels(g, strings) {
        *census.entry(label).or_insert(0) += 1;
    }
    census
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("graphs with edges have labels")
}

/// The pigeonhole guarantee of the warm-up argument: with `m` edges
/// and `t` rounds, some label class has at least `⌈m / 3^{2t}⌉` edges.
// bcc-lint: allow(U1): the pigeonhole floor, an input of the open Theorem 3.1 items
pub fn pigeonhole_floor(m: usize, t: usize) -> usize {
    let classes = 9usize.checked_pow(t as u32).unwrap_or(usize::MAX);
    m.div_ceil(classes.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::generators;
    use bcc_model::testing::{EchoBit, IdBroadcast};

    #[test]
    fn orientation_covers_all_edges_once() {
        let g = generators::multi_cycle(&[3, 5]);
        let o = canonical_orientation(&g);
        assert_eq!(o.len(), 8);
        let set: std::collections::HashSet<(usize, usize)> = o
            .iter()
            .map(|e| (e.tail.min(e.head), e.tail.max(e.head)))
            .collect();
        assert_eq!(set.len(), 8, "each undirected edge appears exactly once");
    }

    #[test]
    fn echo_bit_has_single_label_class() {
        let inst = Instance::new_kt0_canonical(generators::cycle(9)).unwrap();
        let strings = broadcast_strings(&inst, &EchoBit, 4, 0);
        let (label, count) = best_label_pair(inst.input(), &strings);
        assert_eq!(count, 9, "all edges share one label under EchoBit");
        assert_eq!(label.0, vec![Symbol::One; 4]);
        let act = active_edges(inst.input(), &strings, &label.0, &label.1);
        assert_eq!(act.len(), 9);
    }

    #[test]
    fn id_broadcast_fragments_labels() {
        let inst = Instance::new_kt0_canonical(generators::cycle(8)).unwrap();
        let strings = broadcast_strings(&inst, &IdBroadcast::new(), 3, 0);
        // Distinct ids → distinct strings → every label class is a
        // single edge.
        let (_, count) = best_label_pair(inst.input(), &strings);
        assert_eq!(count, 1);
    }

    #[test]
    fn strings_padded_when_algorithm_halts() {
        let inst = Instance::new_kt0_canonical(generators::cycle(8)).unwrap();
        // IdBroadcast halts after 3 rounds; ask for 5.
        let strings = broadcast_strings(&inst, &IdBroadcast::new(), 5, 0);
        for s in &strings {
            assert_eq!(s.len(), 5);
            assert_eq!(s[4], Symbol::Silent);
        }
    }

    #[test]
    fn pigeonhole_matches_census() {
        let inst = Instance::new_kt0_canonical(generators::cycle(30)).unwrap();
        for t in 0..3 {
            let strings = broadcast_strings(&inst, &IdBroadcast::new(), t, 0);
            let (_, count) = best_label_pair(inst.input(), &strings);
            assert!(
                count >= pigeonhole_floor(30, t),
                "t={t}: census {count} below pigeonhole floor {}",
                pigeonhole_floor(30, t)
            );
        }
    }

    #[test]
    fn pigeonhole_floor_values() {
        assert_eq!(pigeonhole_floor(30, 0), 30);
        assert_eq!(pigeonhole_floor(30, 1), 4); // ceil(30/9)
        assert_eq!(pigeonhole_floor(30, 2), 1);
        assert_eq!(pigeonhole_floor(0, 1), 0);
    }

    #[test]
    fn round_zero_labels_are_empty_strings() {
        let inst = Instance::new_kt0_canonical(generators::cycle(6)).unwrap();
        let strings = broadcast_strings(&inst, &EchoBit, 0, 0);
        let (label, count) = best_label_pair(inst.input(), &strings);
        assert!(label.0.is_empty() && label.1.is_empty());
        assert_eq!(count, 6);
    }
}
