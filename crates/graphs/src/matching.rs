//! Bipartite matching machinery for the Polygamous Hall Theorem
//! (Theorem 2.1 of the paper).
//!
//! The KT-0 lower bound (Theorem 3.1) packs the indistinguishability
//! graph with `|V₁|` disjoint "stars": every one-cycle instance is
//! matched to `k = Θ(log n)` *distinct* two-cycle instances. The paper
//! derives this from Hall's marriage theorem applied to a graph in
//! which every left vertex is cloned `k` times. This module implements
//! exactly that construction:
//!
//! - [`BipartiteGraph`]: adjacency between a left and right vertex set;
//! - [`hopcroft_karp`]: maximum matching in `O(E·√V)`;
//! - [`hall_condition_brute_force`]: the expansion condition checked
//!   over every subset, the oracle the tests hold [`k_matching`] to;
//! - [`k_matching`]: the constructive Polygamous Hall Theorem —
//!   returns a `k`-matching of size `|L|` whenever the expansion
//!   condition `|N(S)| ≥ k·|S|` holds.

use crate::bitset::BitSet;

/// A bipartite graph with `left` and `right` vertex counts and
/// adjacency lists from left to right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    left: usize,
    right: usize,
    adj: Vec<Vec<usize>>,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph.
    pub fn new(left: usize, right: usize) -> Self {
        BipartiteGraph {
            left,
            right,
            adj: vec![Vec::new(); left],
        }
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Adds an edge from left vertex `l` to right vertex `r`.
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.left, "left vertex {l} out of range");
        assert!(r < self.right, "right vertex {r} out of range");
        if !self.adj[l].contains(&r) {
            self.adj[l].push(r);
        }
    }

    /// Right neighbors of left vertex `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= left`.
    pub fn neighbors(&self, l: usize) -> &[usize] {
        &self.adj[l]
    }

    /// The neighborhood `N(S)` of a set of left vertices.
    pub fn neighborhood(&self, s: impl IntoIterator<Item = usize>) -> BitSet {
        let mut out = BitSet::new(self.right);
        for l in s {
            for &r in &self.adj[l] {
                out.insert(r);
            }
        }
        out
    }
}

/// A matching: `pair_left[l] = Some(r)` iff `l` is matched to `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// For each left vertex, its matched right vertex.
    pub pair_left: Vec<Option<usize>>,
    /// For each right vertex, its matched left vertex.
    pub pair_right: Vec<Option<usize>>,
}

impl Matching {
    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.pair_left.iter().filter(|p| p.is_some()).count()
    }
}

/// Maximum bipartite matching via Hopcroft–Karp.
///
/// # Example
///
/// ```
/// use bcc_graphs::matching::{BipartiteGraph, hopcroft_karp};
///
/// let mut g = BipartiteGraph::new(2, 2);
/// g.add_edge(0, 0);
/// g.add_edge(0, 1);
/// g.add_edge(1, 0);
/// assert_eq!(hopcroft_karp(&g).size(), 2);
/// ```
pub fn hopcroft_karp(g: &BipartiteGraph) -> Matching {
    const INF: usize = usize::MAX;
    let (nl, nr) = (g.left, g.right);
    let mut pair_left: Vec<Option<usize>> = vec![None; nl];
    let mut pair_right: Vec<Option<usize>> = vec![None; nr];
    let mut dist = vec![INF; nl];

    loop {
        // BFS from all free left vertices.
        let mut queue = std::collections::VecDeque::new();
        for l in 0..nl {
            if pair_left[l].is_none() {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(l) = queue.pop_front() {
            for &r in &g.adj[l] {
                match pair_right[r] {
                    None => found_augmenting = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push_back(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: find vertex-disjoint shortest augmenting paths.
        fn try_augment(
            l: usize,
            g: &BipartiteGraph,
            dist: &mut [usize],
            pair_left: &mut [Option<usize>],
            pair_right: &mut [Option<usize>],
        ) -> bool {
            for i in 0..g.adj[l].len() {
                let r = g.adj[l][i];
                let ok = match pair_right[r] {
                    None => true,
                    Some(l2) => {
                        dist[l2] == dist[l] + 1 && try_augment(l2, g, dist, pair_left, pair_right)
                    }
                };
                if ok {
                    pair_left[l] = Some(r);
                    pair_right[r] = Some(l);
                    return true;
                }
            }
            dist[l] = usize::MAX;
            false
        }
        for l in 0..nl {
            if pair_left[l].is_none() {
                try_augment(l, g, &mut dist, &mut pair_left, &mut pair_right);
            }
        }
    }
    Matching {
        pair_left,
        pair_right,
    }
}

/// A `k`-matching assigning each left vertex `k` *distinct* right
/// vertices, with all assigned right vertices disjoint across left
/// vertices (the generalized matching of Theorem 2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KMatching {
    /// Replication factor.
    pub k: usize,
    /// `assignments[l]` = the `k` right vertices assigned to `l`.
    pub assignments: Vec<Vec<usize>>,
}

impl KMatching {
    /// Verifies the defining properties against `g`: each left vertex
    /// has exactly `k` neighbors assigned, every assigned vertex is an
    /// actual neighbor, and the assigned sets are pairwise disjoint.
    // bcc-lint: allow(U1): certificate check that k_matching's outputs are tested against
    pub fn is_valid(&self, g: &BipartiteGraph) -> bool {
        let mut used = BitSet::new(g.right);
        for (l, assigned) in self.assignments.iter().enumerate() {
            if assigned.len() != self.k {
                return false;
            }
            for &r in assigned {
                if !g.adj[l].contains(&r) || !used.insert(r) {
                    return false;
                }
            }
        }
        true
    }
}

/// Constructive Polygamous Hall Theorem (Theorem 2.1 of the paper):
/// clone each left vertex `k` times, run Hopcroft–Karp, and regroup.
///
/// Returns `Some(km)` with a full `k`-matching of size `|L|` iff the
/// expansion condition `|N(S)| ≥ k·|S|` holds for every `S ⊆ L` (by
/// Hall's theorem the clone graph has a perfect left matching exactly
/// then); otherwise returns `None`.
pub fn k_matching(g: &BipartiteGraph, k: usize) -> Option<KMatching> {
    let mut clone_graph = BipartiteGraph::new(g.left * k, g.right);
    for l in 0..g.left {
        for c in 0..k {
            for &r in &g.adj[l] {
                clone_graph.add_edge(l * k + c, r);
            }
        }
    }
    let m = hopcroft_karp(&clone_graph);
    if m.size() < g.left * k {
        return None;
    }
    let mut assignments = vec![Vec::with_capacity(k); g.left];
    // The size check above guarantees every clone is matched.
    for (cl, r) in m.pair_left.iter().enumerate() {
        if let Some(r) = r {
            assignments[cl / k].push(*r);
        }
    }
    Some(KMatching { k, assignments })
}

/// Checks the expansion condition `|N(S)| ≥ k·|S|` for *every* subset
/// `S ⊆ L` by brute force. Exponential in `|L|`; intended for tests
/// against [`k_matching`] on small graphs.
// bcc-lint: allow(U1): brute-force Hall oracle that k_matching is tested against
pub fn hall_condition_brute_force(g: &BipartiteGraph, k: usize) -> bool {
    assert!(g.left <= 20, "brute force limited to 20 left vertices");
    for mask in 1u32..(1 << g.left) {
        let s = (0..g.left).filter(|&l| mask & (1 << l) != 0);
        let count = (mask.count_ones() as usize) * k;
        if g.neighborhood(s).len() < count {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_bipartite(l: usize, r: usize) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(l, r);
        for a in 0..l {
            for b in 0..r {
                g.add_edge(a, b);
            }
        }
        g
    }

    #[test]
    fn matching_on_complete_bipartite() {
        let g = complete_bipartite(3, 5);
        assert_eq!(hopcroft_karp(&g).size(), 3);
        let g2 = complete_bipartite(5, 3);
        assert_eq!(hopcroft_karp(&g2).size(), 3);
    }

    #[test]
    fn matching_respects_structure() {
        // A path-like structure: 0-0, 1-0, 1-1 has max matching 2.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        g.add_edge(1, 1);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 2);
        assert_eq!(m.pair_left[0], Some(0));
        assert_eq!(m.pair_left[1], Some(1));
    }

    #[test]
    fn matching_empty_graph() {
        let g = BipartiteGraph::new(3, 3);
        assert_eq!(hopcroft_karp(&g).size(), 0);
    }

    #[test]
    fn k_matching_on_complete() {
        let g = complete_bipartite(3, 7);
        let km = k_matching(&g, 2).expect("2-matching exists");
        assert!(km.is_valid(&g));
        assert!(k_matching(&g, 3).is_none(), "3·3 = 9 > 7 right vertices");
    }

    #[test]
    fn k_matching_matches_hall() {
        // Left 0 sees {0,1}; left 1 sees {1,2,3}: 2-matching needs
        // |N({0})| >= 2 (ok), |N({1})| >= 2 (ok), |N({0,1})| >= 4 (=4, ok).
        let mut g = BipartiteGraph::new(2, 4);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        assert!(hall_condition_brute_force(&g, 2));
        let km = k_matching(&g, 2).expect("Hall holds");
        assert!(km.is_valid(&g));
    }

    #[test]
    fn neighborhood_computation() {
        let mut g = BipartiteGraph::new(3, 5);
        g.add_edge(0, 1);
        g.add_edge(1, 1);
        g.add_edge(1, 4);
        let nb = g.neighborhood([0, 1]);
        assert_eq!(nb.iter().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0);
        g.add_edge(0, 0);
        assert_eq!(g.num_edges(), 1);
    }
}
