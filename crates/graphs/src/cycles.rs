//! Recognition of disjoint-cycle graphs — the promise of the paper's
//! `TwoCycle` ("one cycle vs. two cycles", Section 3) and `MultiCycle`
//! ("one cycle vs. two or more cycles, each of length ≥ 4", Section 4)
//! problems.

use crate::error::GraphError;
use crate::graph::Graph;

/// The cycle structure of a graph that is a disjoint union of cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStructure {
    /// The vertex sequence of each cycle, starting at the cycle's
    /// minimum vertex and proceeding toward its smaller neighbor;
    /// cycles ordered by minimum vertex.
    pub cycles: Vec<Vec<usize>>,
}

impl CycleStructure {
    /// Number of disjoint cycles.
    pub fn count(&self) -> usize {
        self.cycles.len()
    }

    /// Lengths of the cycles, in the canonical order.
    pub fn lengths(&self) -> Vec<usize> {
        self.cycles.iter().map(Vec::len).collect()
    }

    /// Length of the shortest cycle.
    ///
    /// # Panics
    ///
    /// Panics if there are no cycles.
    pub fn min_length(&self) -> usize {
        self.lengths()
            .into_iter()
            .min()
            .expect("at least one cycle")
    }
}

/// Decomposes `g` into disjoint cycles.
///
/// # Errors
///
/// Returns [`GraphError::PromiseViolation`] if `g` is not 2-regular
/// (every disjoint union of cycles is exactly the class of 2-regular
/// graphs on its support; isolated vertices are rejected too).
pub fn cycle_structure(g: &Graph) -> Result<CycleStructure, GraphError> {
    let n = g.num_vertices();
    for v in 0..n {
        if g.degree(v) != 2 {
            return Err(GraphError::PromiseViolation {
                reason: format!(
                    "vertex {v} has degree {}, expected 2 (disjoint cycles)",
                    g.degree(v)
                ),
            });
        }
    }
    let mut seen = vec![false; n];
    let mut cycles = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // Walk the cycle starting toward the smaller neighbor.
        let mut cycle = vec![start];
        seen[start] = true;
        let mut prev = start;
        let mut cur = *g.neighbors(start).iter().min().expect("degree 2");
        while cur != start {
            seen[cur] = true;
            cycle.push(cur);
            let next = g
                .neighbors(cur)
                .iter()
                .copied()
                .find(|&w| w != prev)
                .expect("degree 2 so a non-prev neighbor exists");
            prev = cur;
            cur = next;
        }
        if cycle.len() < 3 {
            return Err(GraphError::PromiseViolation {
                reason: format!(
                    "cycle through vertex {start} has length {} < 3",
                    cycle.len()
                ),
            });
        }
        cycles.push(cycle);
    }
    Ok(CycleStructure { cycles })
}

/// Classification of an input under the `TwoCycle` promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoCycleClass {
    /// A single cycle spanning all vertices — the YES ("connected")
    /// instance.
    OneCycle,
    /// Exactly two disjoint cycles, each of length ≥ 3 — the NO
    /// instance.
    TwoCycles,
}

/// Classifies a `TwoCycle` input.
///
/// # Errors
///
/// Returns [`GraphError::PromiseViolation`] if the graph is not a
/// disjoint union of one or two cycles of length ≥ 3.
pub fn classify_two_cycle(g: &Graph) -> Result<TwoCycleClass, GraphError> {
    let s = cycle_structure(g)?;
    match s.count() {
        1 => Ok(TwoCycleClass::OneCycle),
        2 => Ok(TwoCycleClass::TwoCycles),
        k => Err(GraphError::PromiseViolation {
            reason: format!("TwoCycle promise requires 1 or 2 cycles, found {k}"),
        }),
    }
}

/// Classification of an input under the `MultiCycle` promise
/// (Section 4.1: one cycle, or two **or more** cycles each of length
/// ≥ 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiCycleClass {
    /// A single spanning cycle.
    OneCycle,
    /// Two or more disjoint cycles.
    MultipleCycles,
}

/// Classifies a `MultiCycle` input.
///
/// # Errors
///
/// Returns [`GraphError::PromiseViolation`] if the graph is not a
/// disjoint union of cycles, or any cycle is shorter than 4.
// bcc-lint: allow(U1): the MultiCycle promise oracle that the full-knowledge programs' answers are tested against
pub fn classify_multi_cycle(g: &Graph) -> Result<MultiCycleClass, GraphError> {
    let s = cycle_structure(g)?;
    if let Some(&short) = s.lengths().iter().find(|&&l| l < 4) {
        return Err(GraphError::PromiseViolation {
            reason: format!("MultiCycle promise requires all cycles of length >= 4, found {short}"),
        });
    }
    if s.count() == 1 {
        Ok(MultiCycleClass::OneCycle)
    } else {
        Ok(MultiCycleClass::MultipleCycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn one_cycle_structure() {
        let s = cycle_structure(&generators::cycle(5)).unwrap();
        assert_eq!(s.count(), 1);
        assert_eq!(s.lengths(), vec![5]);
        assert_eq!(s.cycles[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(s.min_length(), 5);
    }

    #[test]
    fn two_cycle_structure() {
        let s = cycle_structure(&generators::two_cycles(3, 5)).unwrap();
        assert_eq!(s.count(), 2);
        assert_eq!(s.lengths(), vec![3, 5]);
    }

    #[test]
    fn rejects_non_regular() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(cycle_structure(&g).is_err());
        assert!(cycle_structure(&Graph::new(3)).is_err());
    }

    #[test]
    fn classify_two_cycle_instances() {
        assert_eq!(
            classify_two_cycle(&generators::cycle(6)).unwrap(),
            TwoCycleClass::OneCycle
        );
        assert_eq!(
            classify_two_cycle(&generators::two_cycles(3, 3)).unwrap(),
            TwoCycleClass::TwoCycles
        );
        // Three cycles violate the TwoCycle promise.
        let g = generators::multi_cycle(&[3, 3, 3]);
        assert!(classify_two_cycle(&g).is_err());
    }

    #[test]
    fn classify_multi_cycle_instances() {
        assert_eq!(
            classify_multi_cycle(&generators::cycle(8)).unwrap(),
            MultiCycleClass::OneCycle
        );
        assert_eq!(
            classify_multi_cycle(&generators::multi_cycle(&[4, 4, 5])).unwrap(),
            MultiCycleClass::MultipleCycles
        );
        // A 3-cycle violates the MultiCycle length promise when disconnected...
        assert!(classify_multi_cycle(&generators::two_cycles(3, 5)).is_err());
        // ... and even standalone.
        assert!(classify_multi_cycle(&generators::cycle(3)).is_err());
    }

    #[test]
    fn canonical_walk_direction() {
        // Cycle 0-2-1-3-0: from 0 the smaller neighbor is 2... neighbors of 0
        // are {2, 3}, so the walk goes 0, 2, 1, 3.
        let g = Graph::from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]).unwrap();
        let s = cycle_structure(&g).unwrap();
        assert_eq!(s.cycles[0], vec![0, 2, 1, 3]);
    }
}
