//! The decision problems of the paper, and local oracles for
//! algorithms that reconstruct the whole input graph.

use bcc_graphs::connectivity::connected_components;
use bcc_graphs::cycles::{
    classify_multi_cycle, classify_two_cycle, MultiCycleClass, TwoCycleClass,
};
use bcc_graphs::Graph;
use bcc_model::{Decision, InitialKnowledge};

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

/// Decides `problem` on a fully known graph. Promise violations (for
/// the promise problems) fall back to the connectivity answer, so
/// truncated runs on non-promise inputs still produce a decision.
pub fn decide_problem(g: &Graph, problem: Problem) -> Decision {
    let connectivity = || yes_if(g.is_connected());
    match problem {
        Problem::Connectivity | Problem::ConnectedComponents => connectivity(),
        Problem::TwoCycle => match classify_two_cycle(g) {
            Ok(TwoCycleClass::OneCycle) => Decision::Yes,
            Ok(TwoCycleClass::TwoCycles) => Decision::No,
            Err(_) => connectivity(),
        },
        Problem::MultiCycle => match classify_multi_cycle(g) {
            Ok(MultiCycleClass::OneCycle) => Decision::Yes,
            Ok(MultiCycleClass::MultipleCycles) => Decision::No,
            Err(_) => connectivity(),
        },
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

/// Component labels on a fully known graph, mapped through the given
/// vertex-ID table (one ID per vertex): the label of `v`'s component
/// is the **minimum ID** among its members (the canonical
/// `ConnectedComponents` output).
pub fn local_component_labels(g: &Graph, ids: &[u64]) -> Vec<u64> {
    let comps = connected_components(g);
    // A component's label is one of its vertices, so a table indexed
    // by label holds every component's minimum ID.
    let mut min_id = vec![u64::MAX; g.num_vertices()];
    for (&label, &id) in comps.label.iter().zip(ids) {
        min_id[label] = min_id[label].min(id);
    }
    comps.label.iter().map(|&label| min_id[label]).collect()
}

/// The component label of the vertex `init` describes on its fully
/// known input graph (KT-1): the minimum ID in its component.
pub(crate) fn component_label_of(g: &Graph, init: &InitialKnowledge) -> Option<u64> {
    let labels = local_component_labels(g, init.all_ids.as_deref()?);
    labels.get(init.rank_of(init.id)?).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::generators;

    #[test]
    fn ground_truth_decisions() {
        let one = generators::cycle(6);
        let two = generators::two_cycles(3, 3);
        assert_eq!(decide_problem(&one, Problem::Connectivity), Decision::Yes);
        assert_eq!(decide_problem(&two, Problem::Connectivity), Decision::No);
        assert_eq!(decide_problem(&one, Problem::TwoCycle), Decision::Yes);
        assert_eq!(decide_problem(&two, Problem::TwoCycle), Decision::No);
        assert_eq!(
            decide_problem(&generators::cycle(8), Problem::MultiCycle),
            Decision::Yes
        );
        assert_eq!(
            decide_problem(&generators::multi_cycle(&[4, 5, 4]), Problem::MultiCycle),
            Decision::No
        );
    }

    #[test]
    fn promise_violation_falls_back_to_connectivity() {
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(decide_problem(&path, Problem::TwoCycle), Decision::Yes);
        let forest = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(decide_problem(&forest, Problem::MultiCycle), Decision::No);
    }

    #[test]
    fn component_labels_use_min_id() {
        let g = generators::two_cycles(3, 4);
        // IDs reversed: vertex v has id 10 - v.
        let ids: Vec<u64> = (0..7).map(|v| 10 - v as u64).collect();
        let labels = local_component_labels(&g, &ids);
        // First component {0,1,2} has ids {10,9,8} → min 8.
        assert_eq!(&labels[..3], &[8, 8, 8]);
        // Second component {3..6} has ids {7,6,5,4} → min 4.
        assert_eq!(&labels[3..], &[4, 4, 4, 4]);
    }

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
    fn names() {
        assert_eq!(Problem::TwoCycle.to_string(), "TwoCycle");
        assert_eq!(Problem::ConnectedComponents.name(), "ConnectedComponents");
    }
}
