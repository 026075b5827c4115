//! Instance-family generators.
//!
//! Deterministic families (cycles, disjoint cycles, paths, stars)
//! plus seeded random families (`G(n, m)`, random
//! 2-regular graphs, random spanning trees) used by the experiment
//! harness and benchmarks.

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// The cycle `0 - 1 - ... - (n-1) - 0`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices, got {n}");
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n).expect("cycle edges are valid");
    }
    g
}

/// Two disjoint cycles on `a` and `b` vertices (vertices `0..a` and
/// `a..a+b`).
///
/// # Panics
///
/// Panics if `a < 3` or `b < 3`.
pub fn two_cycles(a: usize, b: usize) -> Graph {
    multi_cycle(&[a, b])
}

/// A disjoint union of cycles with the given lengths, on consecutive
/// vertex ranges.
///
/// # Panics
///
/// Panics if any length is `< 3`.
pub fn multi_cycle(lengths: &[usize]) -> Graph {
    let n: usize = lengths.iter().sum();
    let mut g = Graph::new(n);
    let mut base = 0;
    for &len in lengths {
        assert!(len >= 3, "cycle length {len} < 3");
        for i in 0..len {
            g.add_edge(base + i, base + (i + 1) % len)
                .expect("multi-cycle edges are valid");
        }
        base += len;
    }
    g
}

/// The path `0 - 1 - ... - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 0..n.saturating_sub(1) {
        g.add_edge(v, v + 1).expect("path edges are valid");
    }
    g
}

/// The star with center `0` and leaves `1..n`.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v).expect("star edges are valid");
    }
    g
}

/// A one-cycle graph visiting the vertices in the order given by
/// `order` (a permutation of `0..n`).
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..order.len()` or has
/// fewer than 3 entries.
pub fn cycle_from_order(order: &[usize]) -> Graph {
    let n = order.len();
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut seen = vec![false; n];
    for &v in order {
        assert!(v < n && !seen[v], "order must be a permutation of 0..n");
        seen[v] = true;
    }
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(order[i], order[(i + 1) % n])
            .expect("cycle-from-order edges are valid");
    }
    g
}

/// A uniformly random graph with `n` vertices and `m` distinct edges
/// (the `G(n, m)` model).
///
/// # Panics
///
/// Panics if `m > n·(n−1)/2`.
pub fn gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max = n * n.saturating_sub(1) / 2;
    assert!(m <= max, "m = {m} exceeds max edges {max}");
    let mut g = Graph::new(n);
    // Rejection sampling is fine for the densities we use (m << n^2);
    // fall back to shuffling the full edge list when dense.
    if m * 3 >= max {
        let mut all: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        all.shuffle(rng);
        for &(u, v) in all.iter().take(m) {
            g.add_edge(u, v).expect("shuffled edges distinct");
        }
    } else {
        while g.num_edges() < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v).expect("checked distinct");
            }
        }
    }
    g
}

/// A random 2-regular graph: a uniformly random permutation is cut into
/// cycles of length ≥ 3 greedily. The result is a disjoint union of
/// cycles on all `n` vertices (a valid `TwoCycle`/`MultiCycle`-style
/// input, though the number of cycles varies).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn random_disjoint_cycles<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 3, "need at least 3 vertices");
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    // Split the shuffled order into runs of length >= 3.
    let mut lengths = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        if remaining < 6 {
            lengths.push(remaining);
            remaining = 0;
        } else {
            let len = rng.gen_range(3..=remaining - 3);
            lengths.push(len);
            remaining -= len;
        }
    }
    let mut g = Graph::new(n);
    let mut base = 0;
    for len in lengths {
        for i in 0..len {
            let a = order[base + i];
            let b = order[base + (i + 1) % len];
            g.add_edge(a, b).expect("disjoint cycle edges valid");
        }
        base += len;
    }
    g
}

/// A uniformly random labeled one-cycle graph on `n` vertices (a random
/// Hamiltonian cycle).
///
/// # Panics
///
/// Panics if `n < 3`.
// bcc-lint: allow(U1): the one-cycle sampler that the open sampled Theorem 3.1 item runs
pub fn random_one_cycle<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 3, "need at least 3 vertices");
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    cycle_from_order(&order)
}

/// A random spanning tree on `n` vertices (random attachment), plus
/// `extra` random non-tree edges; a connected graph with controllable
/// sparsity.
pub fn random_tree_plus<R: Rng + ?Sized>(n: usize, extra: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        g.add_edge(v, parent).expect("tree edges valid");
    }
    let max = n * n.saturating_sub(1) / 2;
    let target = (g.num_edges() + extra).min(max);
    while g.num_edges() < target {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v).expect("checked distinct");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::connected_components;
    use crate::cycles::cycle_structure;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_regular(g: &Graph) -> bool {
        (0..g.num_vertices()).all(|v| g.degree(v) == 2)
    }

    #[test]
    fn cycle_is_2_regular_connected() {
        for n in 3..10 {
            let g = cycle(n);
            assert!(two_regular(&g));
            assert!(g.is_connected());
            assert_eq!(g.num_edges(), n);
        }
    }

    #[test]
    fn multi_cycle_structure_matches() {
        let g = multi_cycle(&[3, 4, 6]);
        let s = cycle_structure(&g).unwrap();
        assert_eq!(s.lengths(), vec![3, 4, 6]);
        assert_eq!(connected_components(&g).count, 3);
    }

    #[test]
    fn path_and_star_shapes() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert!(p.is_connected());
        let s = star(5);
        assert_eq!(s.degree(0), 4);
        assert_eq!(s.degree(3), 1);
    }

    #[test]
    fn cycle_from_order_roundtrip() {
        let g = cycle_from_order(&[2, 0, 3, 1]);
        assert!(two_regular(&g));
        assert!(g.has_edge(2, 0));
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn cycle_from_order_rejects_repeats() {
        cycle_from_order(&[0, 1, 1, 2]);
    }

    #[test]
    fn gnm_has_exact_edges() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, m) in &[(10, 0), (10, 15), (10, 45), (20, 50)] {
            let g = gnm(n, m, &mut rng);
            assert_eq!(g.num_edges(), m);
            assert_eq!(g.num_vertices(), n);
        }
    }

    #[test]
    fn random_families_satisfy_promises() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let g = random_disjoint_cycles(17, &mut rng);
            assert!(two_regular(&g));
            cycle_structure(&g).unwrap();

            let one = random_one_cycle(9, &mut rng);
            assert_eq!(cycle_structure(&one).unwrap().count(), 1);
        }
    }

    #[test]
    fn random_tree_plus_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_tree_plus(30, 10, &mut rng);
        assert!(g.is_connected());
        assert_eq!(g.num_edges(), 39);
    }
}
