//! The decision problems of the paper, and the local answer of
//! algorithms that learn the whole input graph.

use bcc_graphs::UnionFind;
use bcc_model::Decision;

/// The problems studied by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Is the input graph connected? (YES = connected.)
    Connectivity,
    /// Promise: one cycle or two disjoint cycles (each length ≥ 3);
    /// YES = one cycle (Section 3).
    TwoCycle,
    /// Promise: one cycle or ≥ 2 disjoint cycles, each length ≥ 4;
    /// YES = one cycle (Section 4.1).
    MultiCycle,
    /// Every vertex outputs the label of its connected component
    /// (Section 1.1); as a decision it coincides with `Connectivity`.
    ConnectedComponents,
}

impl Problem {
    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Problem::Connectivity => "Connectivity",
            Problem::TwoCycle => "TwoCycle",
            Problem::MultiCycle => "MultiCycle",
            Problem::ConnectedComponents => "ConnectedComponents",
        }
    }
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// YES if `yes`, else NO.
pub(crate) fn yes_if(yes: bool) -> Decision {
    if yes {
        Decision::Yes
    } else {
        Decision::No
    }
}

/// How many components a labelling names, and the minimum ID in
/// vertex `me`'s component: vertex `v` has label `labels[v]` and ID
/// `ids[v]`. The ID is `None` only if `me` is out of range.
pub(crate) fn components<L: Ord + Copy>(
    labels: &[L],
    ids: &[u64],
    me: usize,
) -> (usize, Option<u64>) {
    let mut distinct = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mine = labels.get(me).and_then(|&my_label| {
        (labels.iter().zip(ids))
            .filter(|&(&l, _)| l == my_label)
            .map(|(_, &id)| id)
            .min()
    });
    (distinct.len(), mine)
}

/// The vertex index of `id`: its rank in the sorted KT-1 ID list
/// `all_ids`, by binary search (what [`InitialKnowledge::rank_of`]
/// reads, for a program that keeps the list instead of the
/// knowledge). `None` for an ID no vertex has.
///
/// [`InitialKnowledge::rank_of`]: bcc_model::InitialKnowledge::rank_of
pub(crate) fn rank_of(all_ids: &[u64], id: u64) -> Option<usize> {
    all_ids.binary_search(&id).ok()
}

/// The answer of vertex `id` once it knows the whole input graph:
/// `edges` joins the endpoints (by rank in `all_ids`) of every edge
/// it heard of, and its own input edges, to `neighbor_ids`, are
/// joined here. Returns its decision on `problem` and its component
/// label, the minimum ID in its component; `None` if an ID is not in
/// `all_ids` (in KT-0, where the IDs are unknown, the list is empty),
/// which leaves the vertex undecided.
pub(crate) fn full_knowledge_answer(
    problem: Problem,
    mut edges: UnionFind,
    id: u64,
    neighbor_ids: &[u64],
    all_ids: &[u64],
) -> Option<(Decision, Option<u64>)> {
    let me = rank_of(all_ids, id)?;
    for &nid in neighbor_ids {
        edges.union(me, rank_of(all_ids, nid)?);
    }
    let roots: Vec<usize> = (0..edges.len()).map(|v| edges.find(v)).collect();
    let (count, label) = components(&roots, all_ids, me);
    // On a fully known graph all four problems reduce to
    // connectivity: one cycle is a connected 2-regular graph, two or
    // more disjoint cycles are disconnected, and a promise violation
    // is answered by connectivity.
    let decision = match problem {
        Problem::Connectivity
        | Problem::ConnectedComponents
        | Problem::TwoCycle
        | Problem::MultiCycle => yes_if(count == 1),
    };
    Some((decision, label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_count_labels_and_find_my_min_id() {
        let labels = [4usize, 1, 4, 4, 1];
        let ids = [50, 10, 30, 40, 20];
        assert_eq!(components(&labels, &ids, 0), (2, Some(30)));
        assert_eq!(components(&labels, &ids, 4), (2, Some(10)));
        assert_eq!(components(&labels, &ids, 5), (2, None));
        assert_eq!(components(&[7u64; 3], &[3, 2, 1], 0), (1, Some(1)));
    }

    #[test]
    fn full_knowledge_answers_by_connectivity_with_min_id_labels() {
        use bcc_graphs::Graph;
        use bcc_model::Instance;
        let problems = [
            Problem::Connectivity,
            Problem::TwoCycle,
            Problem::MultiCycle,
            Problem::ConnectedComponents,
        ];
        let ids = vec![50, 10, 30, 40, 20];
        // A path breaks the cycle promises and is connected; a forest
        // breaks them and is not.
        let cases = [
            (vec![(0, 1), (1, 2), (2, 3), (3, 4)], Decision::Yes, [10; 5]),
            (vec![(0, 1), (2, 3)], Decision::No, [10, 10, 30, 30, 20]),
        ];
        for (edges, decision, labels) in cases {
            let g = Graph::from_edges(5, edges.iter().copied()).unwrap();
            let inst = Instance::new_kt1_with_ids(g.clone(), ids.clone()).unwrap();
            for (v, &label) in labels.iter().enumerate() {
                let init = inst.initial_knowledge(v, 1, 0);
                let rank = |u: usize| init.rank_of(ids[u]).unwrap();
                let mut heard = UnionFind::new(5);
                for &(a, b) in &edges {
                    heard.union(rank(a), rank(b));
                }
                let all_ids = init.all_ids.unwrap();
                for problem in problems {
                    let answer = full_knowledge_answer(
                        problem,
                        heard.clone(),
                        init.id,
                        init.input_port_labels,
                        all_ids,
                    );
                    assert_eq!(answer, Some((decision, Some(label))), "{problem} v{v}");
                }
            }
            // Without the IDs (KT-0) nothing can be answered.
            let kt0_instance = Instance::new_kt0(g, 0).unwrap();
            let kt0 = kt0_instance.initial_knowledge(0, 1, 0);
            assert_eq!(kt0.all_ids, None);
            let answer = full_knowledge_answer(
                Problem::Connectivity,
                UnionFind::new(5),
                kt0.id,
                kt0.input_port_labels,
                &[],
            );
            assert_eq!(answer, None);
        }
    }

    #[test]
    fn names() {
        assert_eq!(Problem::TwoCycle.to_string(), "TwoCycle");
        assert_eq!(Problem::ConnectedComponents.name(), "ConnectedComponents");
    }
}
