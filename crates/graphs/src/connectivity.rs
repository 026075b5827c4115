//! Connected components and component labellings.
//!
//! These are the ground-truth oracles against which every `BCC(b)`
//! algorithm in the workspace is judged: `Connectivity` asks whether
//! [`connected_components`] reports one component, and
//! `ConnectedComponents` asks each node to output the label assigned
//! here (the minimum vertex of its component).

use crate::graph::Graph;
use crate::union_find::UnionFind;

/// The result of a connected-components computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `label[v]` = the minimum vertex in `v`'s component.
    pub label: Vec<usize>,
    /// Number of connected components.
    pub count: usize,
}

impl Components {
    /// Returns the components as sorted vertex lists, ordered by label.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut by: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (v, &l) in self.label.iter().enumerate() {
            by.entry(l).or_default().push(v);
        }
        by.into_values().collect()
    }
}

/// Computes connected components with canonical (minimum-vertex)
/// labels.
///
/// # Example
///
/// ```
/// use bcc_graphs::{Graph, connectivity::connected_components};
///
/// let g = Graph::from_edges(5, [(0, 1), (3, 4)]).unwrap();
/// let c = connected_components(&g);
/// assert_eq!(c.count, 3);
/// assert_eq!(c.label, vec![0, 0, 2, 3, 3]);
/// ```
pub fn connected_components(g: &Graph) -> Components {
    let mut uf = UnionFind::new(g.num_vertices());
    for e in g.edges() {
        uf.union(e.u, e.v);
    }
    Components {
        label: uf.canonical_labels(),
        count: uf.num_sets(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_disjoint_cycles() {
        let g = generators::two_cycles(3, 4);
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.groups(), vec![vec![0, 1, 2], vec![3, 4, 5, 6]]);
    }

    #[test]
    fn components_of_empty_graph() {
        let c = connected_components(&Graph::new(4));
        assert_eq!(c.count, 4);
        assert_eq!(c.label, vec![0, 1, 2, 3]);
    }
}
