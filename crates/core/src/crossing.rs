//! Port-preserving crossings: Definitions 3.2 and 3.3, Figure 1, and
//! Lemma 3.4.

use crate::error::CoreError;
use bcc_graphs::Graph;
use bcc_model::{runs_indistinguishable, Algorithm, Instance, KnowledgeMode, SimConfig, Symbol};

/// A directed input-graph edge `tail → head`. The direction
/// disambiguates the port notation `e(p, q)` (p at the tail, q at the
/// head), exactly as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedEdge {
    /// The tail `v` of `e = (v, u)`.
    pub tail: usize,
    /// The head `u`.
    pub head: usize,
}

impl DirectedEdge {
    /// Constructs a directed edge.
    pub fn new(tail: usize, head: usize) -> Self {
        DirectedEdge { tail, head }
    }
}

impl std::fmt::Display for DirectedEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}→{}", self.tail, self.head)
    }
}

/// Definition 3.2: `e₁ = (v₁, u₁)` and `e₂ = (v₂, u₂)` are
/// *independent* iff the four endpoints are distinct and neither
/// `(v₁, u₂)` nor `(v₂, u₁)` is an input edge.
pub fn are_independent(g: &Graph, e1: DirectedEdge, e2: DirectedEdge) -> bool {
    let vs = [e1.tail, e1.head, e2.tail, e2.head];
    for i in 0..4 {
        for j in (i + 1)..4 {
            if vs[i] == vs[j] {
                return false;
            }
        }
    }
    !g.has_edge(e1.tail, e2.head) && !g.has_edge(e2.tail, e1.head)
}

/// The crossing at the *input-graph* level: replaces `{v₁,u₁}, {v₂,u₂}`
/// with `{v₁,u₂}, {v₂,u₁}`.
///
/// # Errors
///
/// Returns an error if either edge is missing or the pair is not
/// independent.
pub fn cross_graph(g: &Graph, e1: DirectedEdge, e2: DirectedEdge) -> Result<Graph, CoreError> {
    if !g.has_edge(e1.tail, e1.head) {
        return Err(CoreError::NotAnInputEdge {
            tail: e1.tail,
            head: e1.head,
        });
    }
    if !g.has_edge(e2.tail, e2.head) {
        return Err(CoreError::NotAnInputEdge {
            tail: e2.tail,
            head: e2.head,
        });
    }
    if !are_independent(g, e1, e2) {
        return Err(CoreError::NotIndependent {
            reason: format!("{e1} and {e2} share endpoints or are chorded"),
        });
    }
    let mut out = g.clone();
    out.remove_edge(e1.tail, e1.head);
    out.remove_edge(e2.tail, e2.head);
    // Independence keeps the graph simple, so these cannot fail on a
    // well-formed input; a failure surfaces as a typed error anyway.
    out.add_edge(e1.tail, e2.head)
        .map_err(|e| CoreError::RewireFailed {
            step: "add e1'",
            reason: e.to_string(),
        })?;
    out.add_edge(e2.tail, e1.head)
        .map_err(|e| CoreError::RewireFailed {
            step: "add e2'",
            reason: e.to_string(),
        })?;
    Ok(out)
}

/// Definition 3.3 / Figure 1: the port-preserving crossing
/// `I(e₁, e₂)` as a full instance transformation. The input edges
/// `e₁, e₂` are replaced by `e₁' = (v₁, u₂)` and `e₂' = (v₂, u₁)`, and
/// the network is rewired so that each new input edge occupies the
/// ports the old input edges used:
///
/// - at `v₁`, ports `p₁` (old: to `u₁`) and `p₁'` (old: to `u₂`) swap;
/// - at `v₂`, ports `p₂` and `p₂'` swap;
/// - at `u₁`, ports `q₁` and `q₁'` swap;
/// - at `u₂`, ports `q₂` and `q₂'` swap.
///
/// Afterwards every vertex sees input edges on exactly the same port
/// numbers as before — the property Lemma 3.4 exploits.
///
/// # Errors
///
/// Returns an error on KT-1 instances, missing edges, or dependent
/// edge pairs.
pub fn cross_instance(
    instance: &Instance,
    e1: DirectedEdge,
    e2: DirectedEdge,
) -> Result<Instance, CoreError> {
    if instance.mode() == KnowledgeMode::Kt1 {
        return Err(CoreError::Kt1Crossing);
    }
    let crossed_graph = cross_graph(instance.input(), e1, e2)?;
    let mut out = instance.clone();
    let (v1, u1, v2, u2) = (e1.tail, e1.head, e2.tail, e2.head);
    {
        let net = out.network_mut();
        // `cross_graph` has already validated both edges and their
        // independence, so every swap sees the peers it expects.
        for (at, a, b) in [(v1, u1, u2), (v2, u1, u2), (u1, v1, v2), (u2, v1, v2)] {
            net.swap_peers(at, a, b)
                .map_err(|e| CoreError::RewireFailed {
                    step: "swap ports",
                    reason: e.to_string(),
                })?;
        }
    }
    out.set_input(crossed_graph)
        .map_err(|e| CoreError::RewireFailed {
            step: "set input",
            reason: e.to_string(),
        })?;
    Ok(out)
}

/// Lemma 3.4, executed: runs `algorithm` for `t` rounds on both
/// instances and checks that every vertex's *state* (initial knowledge
/// + transcript) is identical.
pub fn indistinguishable_after(
    a: &Instance,
    b: &Instance,
    algorithm: &dyn Algorithm,
    t: usize,
    coin_seed: u64,
) -> bool {
    let sim = SimConfig::bcc1(t);
    let ra = sim.run(a, algorithm, coin_seed);
    let rb = sim.run(b, algorithm, coin_seed);
    runs_indistinguishable(&ra, &rb)
}

/// The hypothesis of Lemma 3.4 for a specific run: `v₁, v₂` broadcast
/// the same sequence and `u₁, u₂` broadcast the same sequence during
/// the first `t` rounds of `algorithm` on `instance`.
pub fn lemma_3_4_hypothesis_holds(
    instance: &Instance,
    e1: DirectedEdge,
    e2: DirectedEdge,
    algorithm: &dyn Algorithm,
    t: usize,
    coin_seed: u64,
) -> bool {
    let run = SimConfig::bcc1(t).run(instance, algorithm, coin_seed);
    let seq =
        |v: usize| -> Vec<Symbol> { run.transcript(v).sent.iter().map(|m| m.symbol()).collect() };
    seq(e1.tail) == seq(e2.tail) && seq(e1.head) == seq(e2.head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::cycles::cycle_structure;
    use bcc_graphs::generators;
    use bcc_model::testing::{EchoBit, IdBroadcast};

    fn cycle_instance(n: usize) -> Instance {
        Instance::new_kt0_canonical(generators::cycle(n)).unwrap()
    }

    #[test]
    fn independence_definition() {
        let g = generators::cycle(8);
        // Co-oriented, far apart: independent.
        assert!(are_independent(
            &g,
            DirectedEdge::new(0, 1),
            DirectedEdge::new(4, 5)
        ));
        // Shared endpoint: not independent.
        assert!(!are_independent(
            &g,
            DirectedEdge::new(0, 1),
            DirectedEdge::new(1, 2)
        ));
        // (v1, u2) ∈ E: 0→1 and 2→3 has (v2, u1) = (2, 1) ∈ E.
        assert!(!are_independent(
            &g,
            DirectedEdge::new(0, 1),
            DirectedEdge::new(2, 3)
        ));
    }

    #[test]
    fn cross_graph_splits_cycle() {
        // Crossing two co-oriented edges of one cycle yields two cycles.
        let g = generators::cycle(8);
        let crossed = cross_graph(&g, DirectedEdge::new(0, 1), DirectedEdge::new(4, 5)).unwrap();
        let s = cycle_structure(&crossed).unwrap();
        assert_eq!(s.count(), 2);
        assert_eq!(s.lengths(), vec![4, 4]);
    }

    #[test]
    fn cross_graph_counter_oriented_keeps_one_cycle() {
        // Crossing counter-oriented edges reverses a segment: still one cycle.
        let g = generators::cycle(8);
        let crossed = cross_graph(&g, DirectedEdge::new(0, 1), DirectedEdge::new(5, 4)).unwrap();
        let s = cycle_structure(&crossed).unwrap();
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn cross_graph_merges_two_cycles() {
        let g = generators::two_cycles(4, 4);
        let crossed = cross_graph(&g, DirectedEdge::new(0, 1), DirectedEdge::new(4, 5)).unwrap();
        assert_eq!(cycle_structure(&crossed).unwrap().count(), 1);
    }

    #[test]
    fn cross_graph_rejects_bad_pairs() {
        let g = generators::cycle(6);
        assert!(matches!(
            cross_graph(&g, DirectedEdge::new(0, 2), DirectedEdge::new(3, 4)),
            Err(CoreError::NotAnInputEdge { .. })
        ));
        assert!(matches!(
            cross_graph(&g, DirectedEdge::new(0, 1), DirectedEdge::new(1, 2)),
            Err(CoreError::NotIndependent { .. })
        ));
    }

    #[test]
    fn crossing_preserves_input_port_sets() {
        // The defining property of a *port-preserving* crossing: every
        // vertex's set of input-edge port labels is unchanged.
        let i1 = cycle_instance(10);
        let e1 = DirectedEdge::new(0, 1);
        let e2 = DirectedEdge::new(5, 6);
        let i2 = cross_instance(&i1, e1, e2).unwrap();
        for v in 0..10 {
            let k1 = i1.initial_knowledge(v, 1, 0);
            let k2 = i2.initial_knowledge(v, 1, 0);
            assert_eq!(k1.input_port_labels, k2.input_port_labels, "vertex {v}");
            assert_eq!(k1.port_labels, k2.port_labels);
        }
        // And the input graph really is the crossed one.
        assert!(i2.input().has_edge(0, 6));
        assert!(i2.input().has_edge(5, 1));
        assert!(!i2.input().has_edge(0, 1));
    }

    #[test]
    fn crossing_a_warm_instance_rederives_its_start() {
        // A run warms the instance's start table; the crossed clone
        // must not inherit it.
        let warm = cycle_instance(10);
        let _ = SimConfig::bcc1(2).run(&warm, &EchoBit, 0);
        let crossed =
            cross_instance(&warm, DirectedEdge::new(0, 1), DirectedEdge::new(5, 6)).unwrap();
        let cold = Instance::new(crossed.network().clone(), crossed.input().clone()).unwrap();
        assert_ne!(crossed.routes(), warm.routes());
        assert_eq!(crossed.routes(), cold.routes());
        for v in 0..10 {
            assert_eq!(
                crossed.initial_knowledge(v, 1, 3),
                cold.initial_knowledge(v, 1, 3),
                "vertex {v}"
            );
        }
        assert_eq!(crossed, cold);
    }

    #[test]
    fn crossing_is_involution() {
        let i1 = cycle_instance(9);
        let e1 = DirectedEdge::new(1, 2);
        let e2 = DirectedEdge::new(6, 7);
        let i2 = cross_instance(&i1, e1, e2).unwrap();
        // Cross the two new input edges back.
        let back = cross_instance(&i2, DirectedEdge::new(1, 7), DirectedEdge::new(6, 2)).unwrap();
        assert_eq!(back, i1);
    }

    #[test]
    fn kt1_crossing_rejected() {
        let i = Instance::new_kt1(generators::cycle(6)).unwrap();
        assert_eq!(
            cross_instance(&i, DirectedEdge::new(0, 1), DirectedEdge::new(3, 4)),
            Err(CoreError::Kt1Crossing)
        );
    }

    #[test]
    fn lemma_3_4_holds_for_uniform_broadcasters() {
        // EchoBit: every vertex sends the same sequence, so the
        // hypothesis holds for every independent pair and the crossed
        // instance is indistinguishable forever.
        let i1 = cycle_instance(8);
        let e1 = DirectedEdge::new(0, 1);
        let e2 = DirectedEdge::new(4, 5);
        assert!(lemma_3_4_hypothesis_holds(&i1, e1, e2, &EchoBit, 6, 0));
        let i2 = cross_instance(&i1, e1, e2).unwrap();
        assert!(indistinguishable_after(&i1, &i2, &EchoBit, 6, 0));
    }

    #[test]
    fn lemma_3_4_contrapositive_for_id_broadcast() {
        // IdBroadcast: vertices broadcast distinct IDs, so the
        // hypothesis FAILS, and indeed after enough rounds the crossed
        // instance becomes distinguishable (u1 hears a different id on
        // its input port).
        let i1 = cycle_instance(8);
        let e1 = DirectedEdge::new(0, 1);
        let e2 = DirectedEdge::new(4, 5);
        let algo = IdBroadcast::new();
        assert!(!lemma_3_4_hypothesis_holds(&i1, e1, e2, &algo, 3, 0));
        let i2 = cross_instance(&i1, e1, e2).unwrap();
        assert!(!indistinguishable_after(&i1, &i2, &algo, 3, 0));
        // At t = 0 everything is indistinguishable (port-preserving).
        assert!(indistinguishable_after(&i1, &i2, &algo, 0, 0));
    }

    #[test]
    fn crossing_degree_sequence_preserved() {
        let i1 = cycle_instance(12);
        let i2 = cross_instance(&i1, DirectedEdge::new(2, 3), DirectedEdge::new(8, 9)).unwrap();
        assert_eq!(i1.input().degree_sequence(), i2.input().degree_sequence());
        assert_eq!(i1.input().num_edges(), i2.input().num_edges());
    }
}
