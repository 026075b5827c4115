//! The undirected simple graph type used as the input graph of every
//! `BCC(b)` instance.

use crate::bitset::BitSet;
use crate::error::GraphError;
use crate::union_find::UnionFind;

/// An undirected edge, stored with `u <= v`.
///
/// `Edge` is a plain value type; construction through [`Edge::new`]
/// normalizes endpoint order so that `Edge::new(3, 1) == Edge::new(1, 3)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
}

impl Edge {
    /// Creates an edge, normalizing endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (input graphs are simple).
    pub fn new(u: usize, v: usize) -> Self {
        assert_ne!(u, v, "self-loops are not allowed");
        if u < v {
            Edge { u, v }
        } else {
            Edge { u: v, v: u }
        }
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not an endpoint of this edge.
    pub fn other(&self, w: usize) -> usize {
        if w == self.u {
            self.v
        } else if w == self.v {
            self.u
        } else {
            panic!(
                "vertex {w} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// An undirected simple graph on vertices `0..n`.
///
/// Maintains both adjacency lists (for iteration) and adjacency bit
/// rows (for O(1) edge queries); the two are kept consistent by the
/// mutation methods.
///
/// # Example
///
/// ```
/// use bcc_graphs::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<usize>>,
    rows: Vec<BitSet>,
    m: usize,
}

impl PartialEq for Graph {
    /// Structural equality: same vertex count and same edge set,
    /// regardless of edge insertion order.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.rows == other.rows
    }
}

impl Eq for Graph {}

impl std::hash::Hash for Graph {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.rows.hash(state);
    }
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            adj: vec![Vec::new(); n],
            rows: vec![BitSet::new(n); n],
            m: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints, self-loops, or
    /// duplicate edges.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, `u == v`, or
    /// the edge already exists.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                num_vertices: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if self.rows[u].contains(v) {
            return Err(GraphError::DuplicateEdge {
                u: u.min(v),
                v: u.max(v),
            });
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.rows[u].insert(v);
        self.rows[v].insert(u);
        self.m += 1;
        Ok(())
    }

    /// Removes the undirected edge `{u, v}`, returning `true` if it
    /// was present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n || !self.rows[u].contains(v) {
            return false;
        }
        self.adj[u].retain(|&w| w != v);
        self.adj[v].retain(|&w| w != u);
        self.rows[u].remove(v);
        self.rows[v].remove(u);
        self.m -= 1;
        true
    }

    /// Returns `true` if the edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && self.rows[u].contains(v)
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Neighbors of `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Iterates over all edges with `u < v`, in sorted order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.m);
        for u in 0..self.n {
            for v in self.rows[u].iter() {
                if u < v {
                    out.push(Edge { u, v });
                }
            }
        }
        out
    }

    /// Returns `true` if the graph is connected (the empty graph and
    /// singleton graph are connected).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut uf = UnionFind::new(self.n);
        for u in 0..self.n {
            for &v in &self.adj[u] {
                uf.union(u, v);
            }
        }
        uf.num_sets() == 1
    }

    /// A canonical, hashable encoding of the edge set: the sorted edge
    /// list. Two graphs on the same vertex set are equal iff their
    /// canonical keys are equal.
    pub fn canonical_key(&self) -> Vec<(usize, usize)> {
        self.edges().into_iter().map(|e| (e.u, e.v)).collect()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("edges", &self.canonical_key())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_normalizes() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
        assert_eq!(Edge::new(1, 3).other(1), 3);
        assert_eq!(Edge::new(1, 3).other(3), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_loop() {
        Edge::new(2, 2);
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.neighbors(1), &[2]);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange { vertex: 3, .. })
        ));
        assert!(matches!(
            g.add_edge(1, 1),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        g.add_edge(0, 1).unwrap();
        assert!(matches!(
            g.add_edge(1, 0),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
    }

    #[test]
    fn connectivity_basics() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(g.is_connected());
        let h = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!h.is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn edges_sorted_and_canonical() {
        let g = Graph::from_edges(4, [(2, 3), (0, 1), (0, 3)]).unwrap();
        assert_eq!(g.canonical_key(), vec![(0, 1), (0, 3), (2, 3)]);
        let h = Graph::from_edges(4, [(0, 3), (2, 3), (1, 0)]).unwrap();
        assert_eq!(g, h);
    }
}
