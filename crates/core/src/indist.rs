//! The bipartite indistinguishability graph of Definition 3.6, built
//! exactly over the enumerated instance spaces.
//!
//! Vertices: all labeled one-cycle graphs (`V₁`) and all two-cycle
//! graphs (`V₂`) on `n` vertices over the fixed canonical KT-0
//! network. There is an edge `{I₁, I₂}` iff `I₂` arises from `I₁` by
//! crossing two *active* independent directed edges (active with
//! respect to a label pair `(x, y)` after `t` rounds of an algorithm).
//!
//! At `t = 0` every edge is active (`x = y = λ`), which gives the
//! purely combinatorial graph `G⁰` used by Lemma 3.9; its degree
//! structure is exactly the `i·(d−i)` census of Lemma 3.7, and the
//! Polygamous Hall condition of Lemma 3.8 / Theorem 2.1 can be checked
//! and *realized* (a k-matching extracted) via Hopcroft–Karp.

use crate::crossing::{are_independent, cross_graph};
use crate::labels::{active_edges, broadcast_strings, canonical_orientation};
use bcc_graphs::enumerate::{num_one_cycles, num_two_cycles, one_cycles, two_cycle_graphs};
use bcc_graphs::matching::{k_matching, BipartiteGraph, KMatching};
use bcc_graphs::Graph;
use bcc_model::{Algorithm, Instance, Symbol};
use std::collections::BTreeMap;

/// The indistinguishability graph `G^t_{x,y}`.
#[derive(Debug, Clone)]
pub struct IndistGraph {
    /// Number of vertices of the underlying instances.
    pub n: usize,
    /// The one-cycle instance space `V₁` (input graphs over the
    /// canonical network).
    pub one_cycles: Vec<Graph>,
    /// The two-cycle instance space `V₂`.
    pub two_cycles: Vec<Graph>,
    /// Bipartite adjacency: left = indices into `one_cycles`, right =
    /// indices into `two_cycles`.
    pub bip: BipartiteGraph,
    /// Active-edge count of each one-cycle instance (`d` in the
    /// lemmas).
    pub active_counts: Vec<usize>,
}

impl IndistGraph {
    /// The round-0 graph `G⁰_{λ,λ}`: every edge of every instance is
    /// active, so `{I₁, I₂} ∈ E` iff `I₂` is obtainable from `I₁` by
    /// crossing *any* independent co-oriented pair. Purely
    /// combinatorial (no algorithm involved).
    pub fn round_zero(n: usize) -> Self {
        Self::build_with_active(n, canonical_orientation)
    }

    /// The graph `G^t_{x,y}` for a concrete algorithm: active edges of
    /// each one-cycle instance are computed from its own `t`-round run
    /// on the canonical KT-0 network.
    // bcc-lint: allow(U1): builds Theorem 3.1's t-round graph, an input of the open E2 proof-chain item
    pub fn with_algorithm(
        n: usize,
        algorithm: &dyn Algorithm,
        t: usize,
        coin_seed: u64,
        x: &[Symbol],
        y: &[Symbol],
    ) -> Self {
        Self::build_with_active(n, |g| {
            let inst = Instance::new_kt0_canonical(g.clone()).expect("canonical instance");
            let strings = broadcast_strings(&inst, algorithm, t, coin_seed);
            active_edges(g, &strings, x, y)
        })
    }

    fn build_with_active(
        n: usize,
        mut active_of: impl FnMut(&Graph) -> Vec<crate::crossing::DirectedEdge>,
    ) -> Self {
        assert!(n >= 6, "two-cycle instances need n >= 6");
        let ones: Vec<Graph> = one_cycles(n).collect();
        let twos: Vec<Graph> = two_cycle_graphs(n).collect();
        let two_index: BTreeMap<Vec<(usize, usize)>, usize> = twos
            .iter()
            .enumerate()
            .map(|(i, g)| (g.canonical_key(), i))
            .collect();
        let mut bip = BipartiteGraph::new(ones.len(), twos.len());
        let mut active_counts = Vec::with_capacity(ones.len());
        for (li, g) in ones.iter().enumerate() {
            let active = active_of(g);
            active_counts.push(active.len());
            for (a, &e1) in active.iter().enumerate() {
                for &e2 in &active[a + 1..] {
                    if !are_independent(g, e1, e2) {
                        continue;
                    }
                    let crossed = cross_graph(g, e1, e2).expect("independent input edges");
                    if let Some(&ri) = two_index.get(&crossed.canonical_key()) {
                        bip.add_edge(li, ri);
                    }
                }
            }
        }
        IndistGraph {
            n,
            one_cycles: ones,
            two_cycles: twos,
            bip,
            active_counts,
        }
    }

    /// `|V₁|`.
    pub fn v1_len(&self) -> usize {
        self.one_cycles.len()
    }

    /// `|V₂|`.
    pub fn v2_len(&self) -> usize {
        self.two_cycles.len()
    }

    /// Degrees of the `V₁` side.
    pub fn v1_degrees(&self) -> Vec<usize> {
        (0..self.v1_len())
            .map(|l| self.bip.neighbors(l).len())
            .collect()
    }

    /// Degrees of the `V₂` side.
    pub fn v2_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.v2_len()];
        for l in 0..self.v1_len() {
            for &r in self.bip.neighbors(l) {
                deg[r] += 1;
            }
        }
        deg
    }

    /// The measured ratio `|V₂| / |V₁|` — Lemma 3.9 says `Θ(log n)`.
    pub fn count_ratio(&self) -> f64 {
        self.v2_len() as f64 / self.v1_len() as f64
    }

    /// Extracts a `k`-matching saturating `V₁` if one exists — the
    /// literal statement of Theorem 2.1 as used in the paper. Note
    /// this requires `|V₂| ≥ k·|V₁|`: the Lemma 3.9 ratio
    /// `|V₂|/|V₁| = Θ(log n)` only exceeds 1 near `n ≈ 90`, far beyond
    /// enumerable sizes, so at experiment scale use
    /// [`IndistGraph::max_k_matching_v2`] (the same Hall
    /// machinery in the feasible direction; the error argument is
    /// symmetric in the matched pair).
    pub fn k_matching(&self, k: usize) -> Option<KMatching> {
        k_matching(&self.bip, k)
    }

    /// The bipartite graph with sides swapped (left = `V₂`).
    fn flipped(&self) -> BipartiteGraph {
        let mut flip = BipartiteGraph::new(self.v2_len(), self.v1_len());
        for l in 0..self.v1_len() {
            for &r in self.bip.neighbors(l) {
                flip.add_edge(r, l);
            }
        }
        flip
    }

    /// The largest `k` for which a `k`-matching of size `|V₁|` exists,
    /// by linear search from 1 (the interesting values are `O(log n)`).
    pub fn max_k_matching(&self, cap: usize) -> usize {
        let mut best = 0;
        for k in 1..=cap {
            if self.k_matching(k).is_some() {
                best = k;
            } else {
                break;
            }
        }
        best
    }

    /// The measured neighborhood expansion `min_S |N(S)|/|S|` over
    /// randomly sampled subsets `S ⊆ V₂` (the side whose saturation is
    /// feasible at enumerable sizes) — the empirical Lemma 3.8 /
    /// Hall-condition check matching [`Self::max_k_matching_v2`].
    pub fn sampled_expansion_v2<R: rand::Rng + ?Sized>(
        &self,
        sizes: &[usize],
        samples_per_size: usize,
        rng: &mut R,
    ) -> f64 {
        use rand::seq::SliceRandom;
        let flip = self.flipped();
        let mut min_ratio = f64::INFINITY;
        let all: Vec<usize> = (0..self.v2_len()).collect();
        for &s in sizes {
            if s == 0 || s > self.v2_len() {
                continue;
            }
            for _ in 0..samples_per_size {
                let subset: Vec<usize> = all.choose_multiple(rng, s).copied().collect();
                let nb = flip.neighborhood(subset.iter().copied());
                min_ratio = min_ratio.min(nb.len() as f64 / s as f64);
            }
        }
        min_ratio
    }

    /// The largest `k` for which a `k`-matching saturating `V₂`
    /// exists: every two-cycle instance assigned `k` distinct
    /// one-cycle instances, disjointly. This is the direction feasible
    /// at enumerable sizes (where `|V₁| > |V₂|`), and it carries the
    /// same indistinguishability consequence: the algorithm answers
    /// identically on each matched star, so it errs on the lighter
    /// side of every star.
    pub fn max_k_matching_v2(&self, cap: usize) -> usize {
        let flip = self.flipped();
        let mut best = 0;
        for k in 1..=cap {
            if k_matching(&flip, k).is_some() {
                best = k;
            } else {
                break;
            }
        }
        best
    }
}

/// The exact degree structure of `G⁰` — the precise version of the
/// degree bookkeeping inside Lemma 3.9.
///
/// The paper counts `n−3` crossing partners per edge and degree
/// `i·(n−i)` per two-cycle instance; the *exact* counts over the
/// enumerated spaces differ by the bounded bookkeeping the Θ-notation
/// absorbs: splits producing a cycle of length < 3 are excluded by
/// independence (two more exclusions per edge, so a one-cycle instance
/// has exactly `n(n−5)/2` neighbors), and a two-cycle instance can be
/// merged with either relative orientation of its cycles (doubling to
/// `2·i·(n−i)`). These exact formulas, checked here, imply the paper's
/// `|T_i| = Θ(|V₁|·n/(i(n−i)))` and hence Lemma 3.9 itself.
pub fn lemma_3_9_degree_check(g: &IndistGraph) -> bool {
    let n = g.n;
    let expect_v1 = n * (n - 5) / 2;
    if g.v1_degrees().iter().any(|&d| d != expect_v1) {
        return false;
    }
    let v2_deg = g.v2_degrees();
    for (ri, graph) in g.two_cycles.iter().enumerate() {
        let s = bcc_graphs::cycles::cycle_structure(graph).expect("two-cycle promise");
        let i = s.min_length();
        if v2_deg[ri] != 2 * i * (n - i) {
            return false;
        }
    }
    true
}

/// Lemma 3.9's counting identities on `G⁰`, in exact form:
/// `|T_i| = |V₁|·n / (2i(n−i))` for `3 ≤ i < n/2` and
/// `|T_{n/2}| = |V₁|·(n/2) / (2i(n−i))`. Returns
/// `(i, measured |T_i|, predicted |T_i|)` per smaller-cycle length.
pub fn lemma_3_9_t_counts(g: &IndistGraph) -> Vec<(usize, usize, f64)> {
    let n = g.n;
    let mut by_i: BTreeMap<usize, usize> = BTreeMap::new();
    for graph in &g.two_cycles {
        let s = bcc_graphs::cycles::cycle_structure(graph).expect("two-cycle promise");
        *by_i.entry(s.min_length()).or_insert(0) += 1;
    }
    // BTreeMap iterates in key order, so the rows come out sorted by i.
    by_i.into_iter()
        .map(|(i, count)| {
            let per_v1 = if 2 * i == n { n as f64 / 2.0 } else { n as f64 };
            let predicted = g.v1_len() as f64 * per_v1 / (2.0 * i as f64 * (n - i) as f64);
            (i, count, predicted)
        })
        .collect()
}

/// Counts of `V₁`/`V₂` from the closed-form formulas, for validating
/// the enumeration itself.
pub fn closed_form_counts(n: usize) -> (u64, u64) {
    (num_one_cycles(n), num_two_cycles(n))
}

/// The harmonic-sum shape of Lemma 3.8's expansion bound:
/// `Σ_{i=3}^{d/2} 1/i ≈ ln(d/2) − 3/2 + …`. Exposed so experiments can
/// plot measured expansion against it.
pub fn harmonic_tail(d: usize) -> f64 {
    (3..=d / 2).map(|i| 1.0 / i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_model::testing::{EchoBit, IdBroadcast};

    #[test]
    fn round_zero_counts_match_formulas() {
        for n in [6usize, 7] {
            let g = IndistGraph::round_zero(n);
            let (v1, v2) = closed_form_counts(n);
            assert_eq!(g.v1_len() as u64, v1);
            assert_eq!(g.v2_len() as u64, v2);
        }
    }

    /// Lemma 3.9's degree formulas hold exactly on `G⁰`.
    #[test]
    fn degree_structure_matches_lemma_3_9() {
        for n in [6usize, 7, 8] {
            let g = IndistGraph::round_zero(n);
            assert!(lemma_3_9_degree_check(&g), "n={n}");
        }
    }

    /// The `|T_i|` bound inside Lemma 3.9.
    #[test]
    fn t_i_bounds_hold() {
        let g = IndistGraph::round_zero(8);
        let counts = lemma_3_9_t_counts(&g);
        let total: usize = counts.iter().map(|&(_, c, _)| c).sum();
        assert_eq!(total, g.v2_len());
        for (i, count, predicted) in counts {
            assert!(
                (count as f64 - predicted).abs() < 1e-6,
                "i={i}: |T_i|={count} != predicted {predicted}"
            );
        }
    }

    /// Theorem 2.1 in action: at enumerable sizes `|V₁| > |V₂|`, so the
    /// Hall machinery saturates `V₂`; the extracted k-matching is
    /// valid and its k tracks `|V₁|/|V₂|`.
    #[test]
    fn k_matching_exists_at_round_zero() {
        let g = IndistGraph::round_zero(7);
        // V1-saturating matchings are infeasible below n ≈ 90
        // (|V2| < |V1|): confirmed by the pigeonhole.
        assert!(g.count_ratio() < 1.0);
        assert_eq!(g.max_k_matching(4), 0);
        // The feasible direction saturates V2.
        let k = g.max_k_matching_v2(16);
        assert!(k >= 1, "no V2-saturating 1-matching at n=7");
        let km = k_matching(&g.flipped(), k).expect("max_k certified");
        assert_eq!(km.assignments.len(), g.v2_len());
        // k cannot exceed |V1|/|V2|.
        assert!((k as f64) <= 1.0 / g.count_ratio() + 1e-9);
    }

    /// With EchoBit every edge stays active forever: `G^t` equals `G⁰`.
    #[test]
    fn echo_bit_keeps_full_graph() {
        let n = 6;
        let g0 = IndistGraph::round_zero(n);
        let x = vec![Symbol::One; 2];
        let gt = IndistGraph::with_algorithm(n, &EchoBit, 2, 0, &x, &x);
        assert_eq!(g0.bip.num_edges(), gt.bip.num_edges());
        assert_eq!(gt.active_counts, vec![n; g0.v1_len()]);
    }

    /// With IdBroadcast labels fragment completely: no active pairs,
    /// so `G^t` is empty — the "algorithm defeats the crossing" regime
    /// the pigeonhole says is impossible for t = o(log n)… except that
    /// IdBroadcast *spends* Θ(log n) rounds, consistent with the bound.
    #[test]
    fn id_broadcast_empties_graph_after_log_n_rounds() {
        let n = 6;
        let t = 3; // = ceil(log2 6): full ids broadcast
        let x = vec![Symbol::Zero; t];
        let g = IndistGraph::with_algorithm(n, &IdBroadcast::new(), t, 0, &x, &x);
        // Active sets are tiny (ids are distinct), so very few crossings.
        let total_active: usize = g.active_counts.iter().sum();
        assert!(total_active <= g.v1_len(), "labels did not fragment");
    }

    #[test]
    fn harmonic_tail_values() {
        assert_eq!(harmonic_tail(5), 0.0); // empty sum for d/2 < 3
        assert!((harmonic_tail(6) - 1.0 / 3.0).abs() < 1e-12);
        assert!(harmonic_tail(100) > 1.0);
    }
}
