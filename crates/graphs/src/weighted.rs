//! Weighted graphs and minimum spanning trees/forests.
//!
//! The paper's context is the MST line of work in congested cliques
//! (Hegeman et al., Ghaffari–Parter, Jurdziński–Nowicki, and the MST
//! verification lower bounds of §1.3). This module supplies the
//! sequential ground truth — Kruskal's algorithm — against which the
//! distributed Borůvka implementation in `bcc-algorithms` is checked.

use crate::graph::Graph;
use crate::union_find::UnionFind;

/// An undirected graph with `u64` edge weights.
///
/// # Example
///
/// ```
/// use bcc_graphs::weighted::WeightedGraph;
///
/// let mut g = WeightedGraph::new(4);
/// g.add_edge(0, 1, 5).unwrap();
/// g.add_edge(1, 2, 3).unwrap();
/// g.add_edge(0, 2, 10).unwrap();
/// g.add_edge(2, 3, 1).unwrap();
/// let mst = g.minimum_spanning_forest();
/// assert_eq!(mst.total_weight, 5 + 3 + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    graph: Graph,
    /// Weights keyed by normalized `(u, v)` with `u < v`.
    weights: std::collections::BTreeMap<(usize, usize), u64>,
}

/// A minimum spanning forest: the chosen edges and their total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningForest {
    /// Edges `(u, v, weight)` with `u < v`, sorted.
    pub edges: Vec<(usize, usize, u64)>,
    /// Sum of chosen weights.
    pub total_weight: u64,
}

impl WeightedGraph {
    /// An edgeless weighted graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            graph: Graph::new(n),
            weights: std::collections::BTreeMap::new(),
        }
    }

    /// Builds a weighted graph from an unweighted one, assigning each
    /// edge the *distinct* deterministic weight used by the
    /// distributed algorithms: a hash of the endpoints and a seed.
    /// Distinctness is enforced by embedding the edge index into the
    /// low bits, so ties are impossible and the MST is unique.
    pub fn from_graph_hashed(g: &Graph, seed: u64) -> Self {
        let mut out = WeightedGraph::new(g.num_vertices());
        for e in g.edges() {
            let w = hashed_weight(e.u, e.v, g.num_vertices(), seed);
            let inserted = out.add_edge(e.u, e.v, w);
            debug_assert!(inserted.is_ok(), "edges valid in source graph");
        }
        out
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// The underlying unweighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Adds a weighted edge.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::add_edge`].
    pub fn add_edge(&mut self, u: usize, v: usize, weight: u64) -> Result<(), crate::GraphError> {
        self.graph.add_edge(u, v)?;
        self.weights.insert((u.min(v), u.max(v)), weight);
        Ok(())
    }

    /// The weight of edge `{u, v}`, if present.
    pub fn weight(&self, u: usize, v: usize) -> Option<u64> {
        self.weights.get(&(u.min(v), u.max(v))).copied()
    }

    /// All edges as `(u, v, weight)` with `u < v`, sorted by `(u, v)`.
    pub fn weighted_edges(&self) -> Vec<(usize, usize, u64)> {
        self.graph
            .edges()
            .into_iter()
            .map(|e| (e.u, e.v, self.weights[&(e.u, e.v)]))
            .collect()
    }

    /// Kruskal's algorithm: the minimum spanning forest (spanning tree
    /// per connected component). With distinct weights the result is
    /// the unique MSF.
    pub fn minimum_spanning_forest(&self) -> SpanningForest {
        let mut edges = self.weighted_edges();
        edges.sort_by_key(|&(u, v, w)| (w, u, v));
        let mut uf = UnionFind::new(self.num_vertices());
        let mut chosen = Vec::new();
        let mut total = 0u64;
        for (u, v, w) in edges {
            if uf.union(u, v) {
                chosen.push((u, v, w));
                total += w;
            }
        }
        chosen.sort_unstable();
        SpanningForest {
            edges: chosen,
            total_weight: total,
        }
    }
}

/// The deterministic distinct edge weight shared by the distributed
/// algorithms and the oracle: high bits pseudo-random (splitmix64 of
/// the normalized endpoints and seed), low bits the edge's unique slot
/// index, so no two edges collide.
pub fn hashed_weight(u: usize, v: usize, n: usize, seed: u64) -> u64 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    let slot = a * n as u64 + b; // unique per unordered pair
    let mut z = seed ^ (a << 32 | b).wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    // 16 pseudo-random high bits, 24 deterministic distinct low bits:
    // 40-bit weights, so sums over any graph stay far from overflow.
    ((z >> 48) << 24) | (slot & 0xff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn kruskal_basic() {
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 2).unwrap();
        g.add_edge(2, 0, 3).unwrap();
        g.add_edge(3, 4, 7).unwrap();
        let f = g.minimum_spanning_forest();
        assert_eq!(f.edges, vec![(0, 1, 1), (1, 2, 2), (3, 4, 7)]);
        assert_eq!(f.total_weight, 10);
    }

    #[test]
    fn forest_size_matches_components() {
        let g = WeightedGraph::from_graph_hashed(&generators::two_cycles(4, 5), 1);
        let f = g.minimum_spanning_forest();
        // n − #components = 9 − 2.
        assert_eq!(f.edges.len(), 7);
    }

    #[test]
    fn hashed_weights_distinct() {
        let n = 12;
        for seed in 0..5 {
            let weights: std::collections::BTreeSet<u64> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| hashed_weight(u, v, n, seed)))
                .collect();
            assert_eq!(weights.len(), n * (n - 1) / 2, "seed={seed}");
        }
    }

    #[test]
    fn weight_lookup_symmetric() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(2, 0, 9).unwrap();
        assert_eq!(g.weight(0, 2), Some(9));
        assert_eq!(g.weight(2, 0), Some(9));
        assert_eq!(g.weight(0, 1), None);
    }

    #[test]
    fn mst_weight_optimal_brute_force() {
        // Compare against brute force over all spanning trees on a
        // small dense graph.
        let base = Graph::from_edges(5, (0..5).flat_map(|u| (u + 1..5).map(move |v| (u, v))))
            .expect("K_5 edges are valid");
        let g = WeightedGraph::from_graph_hashed(&base, 3);
        let edges = g.weighted_edges();
        let m = edges.len();
        let mut best = u64::MAX;
        for mask in 0u32..(1 << m) {
            if mask.count_ones() != 4 {
                continue;
            }
            let chosen: Vec<_> = (0..m)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| edges[i])
                .collect();
            let mut uf = UnionFind::new(5);
            let mut ok = true;
            for &(u, v, _) in &chosen {
                if !uf.union(u, v) {
                    ok = false;
                    break;
                }
            }
            if ok && uf.num_sets() == 1 {
                best = best.min(chosen.iter().map(|&(_, _, w)| w).sum());
            }
        }
        assert_eq!(g.minimum_spanning_forest().total_weight, best);
    }

    #[test]
    fn from_graph_preserves_structure() {
        let base = generators::cycle(7);
        let g = WeightedGraph::from_graph_hashed(&base, 0);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.graph(), &base);
    }
}
