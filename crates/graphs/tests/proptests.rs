//! Property-based tests for the graph substrate.

use bcc_graphs::connectivity::connected_components;
use bcc_graphs::cycles::cycle_structure;
use bcc_graphs::matching::{hall_condition_brute_force, hopcroft_karp, k_matching, BipartiteGraph};
use bcc_graphs::{generators, Graph, UnionFind};
use proptest::prelude::*;

/// Strategy: a random graph on `n` vertices given by an edge-presence mask.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), max_edges).prop_map(move |mask| {
            let mut g = Graph::new(n);
            let mut idx = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    if mask[idx] {
                        g.add_edge(u, v).unwrap();
                    }
                    idx += 1;
                }
            }
            g
        })
    })
}

/// Strategy: a random bipartite graph with its side sizes `(|L|, |R|)`.
fn arb_bipartite(
    max_l: usize,
    max_r: usize,
) -> impl Strategy<Value = (BipartiteGraph, usize, usize)> {
    (1usize..=max_l, 1usize..=max_r).prop_flat_map(|(l, r)| {
        proptest::collection::vec(any::<bool>(), l * r).prop_map(move |mask| {
            let mut g = BipartiteGraph::new(l, r);
            for a in 0..l {
                for b in 0..r {
                    if mask[a * r + b] {
                        g.add_edge(a, b);
                    }
                }
            }
            (g, l, r)
        })
    })
}

/// Brute-force maximum matching by trying all subsets of edges.
fn brute_force_matching(g: &BipartiteGraph, left: usize, right: usize) -> usize {
    let edges: Vec<(usize, usize)> = (0..left)
        .flat_map(|l| g.neighbors(l).iter().map(move |&r| (l, r)))
        .collect();
    let m = edges.len();
    assert!(m <= 20, "brute force limited");
    let mut best = 0;
    for mask in 0u32..(1 << m) {
        let chosen: Vec<(usize, usize)> = (0..m)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| edges[i])
            .collect();
        let mut lused = vec![false; left];
        let mut rused = vec![false; right];
        let mut ok = true;
        for &(l, r) in &chosen {
            if lused[l] || rused[r] {
                ok = false;
                break;
            }
            lused[l] = true;
            rused[r] = true;
        }
        if ok {
            best = best.max(chosen.len());
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn union_find_agrees_with_components(g in arb_graph(12)) {
        let comps = connected_components(&g);
        let mut uf = UnionFind::new(g.num_vertices());
        for e in g.edges() {
            uf.union(e.u, e.v);
        }
        prop_assert_eq!(uf.num_sets(), comps.count);
        for u in 0..g.num_vertices() {
            for v in 0..g.num_vertices() {
                prop_assert_eq!(uf.connected(u, v), comps.label[u] == comps.label[v]);
            }
        }
    }

    #[test]
    fn hopcroft_karp_matches_brute_force((g, l, r) in arb_bipartite(4, 4)) {
        prop_assume!(g.num_edges() <= 16);
        let hk = hopcroft_karp(&g);
        prop_assert_eq!(hk.size(), brute_force_matching(&g, l, r));
        // Matching validity: mutual pointers, actual edges.
        for (l, pr) in hk.pair_left.iter().enumerate() {
            if let Some(r) = pr {
                prop_assert!(g.neighbors(l).contains(r));
                prop_assert_eq!(hk.pair_right[*r], Some(l));
            }
        }
    }

    #[test]
    fn k_matching_iff_hall((g, _, _) in arb_bipartite(4, 8), k in 1usize..3) {
        let hall = hall_condition_brute_force(&g, k);
        let km = k_matching(&g, k);
        prop_assert_eq!(hall, km.is_some());
        if let Some(km) = km {
            prop_assert!(km.is_valid(&g));
        }
    }

    #[test]
    fn random_disjoint_cycles_valid(seed in any::<u64>(), n in 3usize..40) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::random_disjoint_cycles(n, &mut rng);
        let s = cycle_structure(&g).unwrap();
        prop_assert_eq!(s.lengths().iter().sum::<usize>(), n);
        prop_assert!(s.min_length() >= 3);
    }

    #[test]
    fn degree_sum_is_twice_edges(g in arb_graph(12)) {
        let sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }
}
