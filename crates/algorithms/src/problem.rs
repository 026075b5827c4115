//! The decision problems of the paper, and local oracles for
//! algorithms that reconstruct the whole input graph.

use bcc_graphs::connectivity::connected_components;
use bcc_graphs::cycles::{
    classify_multi_cycle, classify_two_cycle, MultiCycleClass, TwoCycleClass,
};
use bcc_graphs::Graph;
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

/// Decides `problem` on a fully known graph. Promise violations (for
/// the promise problems) fall back to the connectivity answer, so
/// truncated runs on non-promise inputs still produce a decision.
pub fn decide_problem(g: &Graph, problem: Problem) -> Decision {
    match problem {
        Problem::Connectivity | Problem::ConnectedComponents => {
            if g.is_connected() {
                Decision::Yes
            } else {
                Decision::No
            }
        }
        Problem::TwoCycle => match classify_two_cycle(g) {
            Ok(TwoCycleClass::OneCycle) => Decision::Yes,
            Ok(TwoCycleClass::TwoCycles) => Decision::No,
            Err(_) => {
                if g.is_connected() {
                    Decision::Yes
                } else {
                    Decision::No
                }
            }
        },
        Problem::MultiCycle => match classify_multi_cycle(g) {
            Ok(MultiCycleClass::OneCycle) => Decision::Yes,
            Ok(MultiCycleClass::MultipleCycles) => Decision::No,
            Err(_) => {
                if g.is_connected() {
                    Decision::Yes
                } else {
                    Decision::No
                }
            }
        },
    }
}

/// Component labels on a fully known graph, mapped through the given
/// vertex-ID table: the label of `v`'s component is the **minimum ID**
/// among its members (the canonical `ConnectedComponents` output).
pub fn local_component_labels(g: &Graph, ids: &[u64]) -> Vec<u64> {
    let comps = connected_components(g);
    let n = g.num_vertices();
    let mut min_id_of_label: std::collections::BTreeMap<usize, u64> =
        std::collections::BTreeMap::new();
    for (&label, &id) in comps.label.iter().zip(ids) {
        let entry = min_id_of_label.entry(label).or_insert(u64::MAX);
        *entry = (*entry).min(id);
    }
    (0..n).map(|v| min_id_of_label[&comps.label[v]]).collect()
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
    fn names() {
        assert_eq!(Problem::TwoCycle.to_string(), "TwoCycle");
        assert_eq!(Problem::ConnectedComponents.name(), "ConnectedComponents");
    }
}
