//! Property-based tests for the crossing and indistinguishability
//! machinery.

use bcc_core::crossing::{
    are_independent, cross_graph, cross_instance, indistinguishable_after,
    lemma_3_4_hypothesis_holds, DirectedEdge,
};
use bcc_core::labels::{
    best_label_pair, broadcast_strings, canonical_orientation, pigeonhole_floor,
};
use bcc_graphs::cycles::cycle_structure;
use bcc_graphs::generators;
use bcc_model::testing::EchoBit;
use bcc_model::Instance;
use proptest::prelude::*;

/// Strategy: a cycle size plus two co-oriented edge positions that are
/// independent (distance ≥ 3 in both directions).
fn arb_crossing() -> impl Strategy<Value = (usize, usize, usize)> {
    (8usize..20).prop_flat_map(|n| {
        (0..n).prop_flat_map(move |a| (3..=n - 3).prop_map(move |d| (n, a, (a + d) % n)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crossing co-oriented independent edges of a cycle always yields
    /// exactly two cycles of length ≥ 3 summing to n.
    #[test]
    fn crossing_splits_cycles((n, a, b) in arb_crossing()) {
        let g = generators::cycle(n);
        let e1 = DirectedEdge::new(a, (a + 1) % n);
        let e2 = DirectedEdge::new(b, (b + 1) % n);
        prop_assume!(are_independent(&g, e1, e2));
        let crossed = cross_graph(&g, e1, e2).unwrap();
        let s = cycle_structure(&crossed).unwrap();
        prop_assert_eq!(s.count(), 2);
        prop_assert!(s.min_length() >= 3);
        prop_assert_eq!(s.lengths().iter().sum::<usize>(), n);
    }

    /// Graph-level crossing is an involution.
    #[test]
    fn crossing_involution((n, a, b) in arb_crossing()) {
        let g = generators::cycle(n);
        let e1 = DirectedEdge::new(a, (a + 1) % n);
        let e2 = DirectedEdge::new(b, (b + 1) % n);
        prop_assume!(are_independent(&g, e1, e2));
        let crossed = cross_graph(&g, e1, e2).unwrap();
        let f1 = DirectedEdge::new(e1.tail, e2.head);
        let f2 = DirectedEdge::new(e2.tail, e1.head);
        let back = cross_graph(&crossed, f1, f2).unwrap();
        prop_assert_eq!(back, g);
    }

    /// Instance-level crossing preserves the port-label view of every
    /// vertex's input edges, and preserves degree sequences.
    #[test]
    fn instance_crossing_preserves_views((n, a, b) in arb_crossing(), seed in any::<u64>()) {
        let i1 = Instance::new_kt0(generators::cycle(n), seed).unwrap();
        let e1 = DirectedEdge::new(a, (a + 1) % n);
        let e2 = DirectedEdge::new(b, (b + 1) % n);
        prop_assume!(are_independent(i1.input(), e1, e2));
        let i2 = cross_instance(&i1, e1, e2).unwrap();
        for v in 0..n {
            prop_assert_eq!(
                i1.initial_knowledge(v, 1, 0).input_port_labels,
                i2.initial_knowledge(v, 1, 0).input_port_labels
            );
            prop_assert_eq!(i1.input().degree(v), i2.input().degree(v));
        }
        // At t = 0, the instances are always indistinguishable.
        prop_assert!(indistinguishable_after(&i1, &i2, &EchoBit, 0, 0));
    }

    /// Lemma 3.4 as a universally quantified implication for the
    /// uniform broadcaster (whose hypothesis always holds).
    #[test]
    fn lemma_3_4_echo((n, a, b) in arb_crossing(), t in 0usize..6) {
        let i1 = Instance::new_kt0_canonical(generators::cycle(n)).unwrap();
        let e1 = DirectedEdge::new(a, (a + 1) % n);
        let e2 = DirectedEdge::new(b, (b + 1) % n);
        prop_assume!(are_independent(i1.input(), e1, e2));
        prop_assert!(lemma_3_4_hypothesis_holds(&i1, e1, e2, &EchoBit, t, 0));
        let i2 = cross_instance(&i1, e1, e2).unwrap();
        prop_assert!(indistinguishable_after(&i1, &i2, &EchoBit, t, 0));
    }

    /// The canonical orientation covers each undirected edge once, and
    /// labels respect the pigeonhole floor.
    #[test]
    fn orientation_and_pigeonhole(n in 6usize..16, t in 0usize..3) {
        let g = generators::cycle(n);
        let o = canonical_orientation(&g);
        prop_assert_eq!(o.len(), n);
        let inst = Instance::new_kt0_canonical(g.clone()).unwrap();
        let strings = broadcast_strings(&inst, &EchoBit, t, 0);
        let (_, count) = best_label_pair(&g, &strings);
        prop_assert!(count >= pigeonhole_floor(n, t));
    }

    /// Independence is symmetric and correctly characterized.
    #[test]
    fn independence_symmetric(n in 6usize..14, a in 0usize..14, b in 0usize..14) {
        prop_assume!(a < n && b < n);
        let g = generators::cycle(n);
        let e1 = DirectedEdge::new(a, (a + 1) % n);
        let e2 = DirectedEdge::new(b, (b + 1) % n);
        prop_assert_eq!(are_independent(&g, e1, e2), are_independent(&g, e2, e1));
        // Known characterization on a cycle: independent iff the
        // positions differ by at least 3 cyclically.
        let d = (a + n - b) % n;
        let expect = d >= 3 && d <= n - 3;
        prop_assert_eq!(are_independent(&g, e1, e2), expect);
    }
}
