//! Property-based tests of the graph substrate.

use gsgcn_graph::{builder::from_edges, induced_subgraph, BitSet, GraphBuilder};
use proptest::prelude::*;

/// Strategy: a random edge list over `n` vertices.
fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..n * 4))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder always yields a symmetric, self-loop-free, sorted CSR.
    #[test]
    fn builder_invariants((n, edges) in edges_strategy(60)) {
        let g = from_edges(n, &edges);
        prop_assert!(g.is_symmetric());
        prop_assert!(!g.has_self_loops());
        for v in 0..n as u32 {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicate adjacency");
        }
    }

    /// Building twice from the same (shuffled) edges gives the same graph.
    #[test]
    fn builder_order_independent((n, mut edges) in edges_strategy(40)) {
        let a = from_edges(n, &edges);
        edges.reverse();
        let b = from_edges(n, &edges);
        prop_assert_eq!(a, b);
    }

    /// Every undirected edge appears exactly twice in directed storage.
    #[test]
    fn edge_count_is_even((n, edges) in edges_strategy(40)) {
        let g = from_edges(n, &edges);
        prop_assert_eq!(g.num_edges() % 2, 0);
    }

    /// Induced subgraph equals the brute-force quadratic reference.
    #[test]
    fn induced_subgraph_matches_bruteforce(
        (n, edges) in edges_strategy(30),
        selector in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let g = from_edges(n, &edges);
        let verts: Vec<u32> = (0..n as u32)
            .filter(|&v| selector.get(v as usize).copied().unwrap_or(false))
            .collect();
        let sub = induced_subgraph(&g, &verts);
        // Reference edge count.
        let mut expect = 0usize;
        for &a in &verts {
            for &b in &verts {
                if g.has_edge(a, b) {
                    expect += 1;
                }
            }
        }
        prop_assert_eq!(sub.graph.num_edges(), expect);
        // Mapping is sorted.
        prop_assert!(sub.origin.windows(2).all(|w| w[0] < w[1]));
        // Every subgraph edge exists in the original.
        for (u, v) in sub.graph.edges() {
            prop_assert!(g.has_edge(sub.origin[u as usize], sub.origin[v as usize]));
        }
    }

    /// Subgraph degrees never exceed original degrees.
    #[test]
    fn subgraph_degrees_bounded((n, edges) in edges_strategy(30)) {
        let g = from_edges(n, &edges);
        let verts: Vec<u32> = (0..n as u32).step_by(2).collect();
        let sub = induced_subgraph(&g, &verts);
        for (local, &orig) in sub.origin.iter().enumerate() {
            prop_assert!(sub.graph.degree(local as u32) <= g.degree(orig));
        }
    }

    /// BitSet agrees with a HashSet model under arbitrary operations.
    #[test]
    fn bitset_matches_hashset_model(ops in proptest::collection::vec((0usize..200, any::<bool>()), 1..100)) {
        let mut bs = BitSet::new(200);
        let mut model = std::collections::HashSet::new();
        for (i, insert) in ops {
            if insert {
                let was_new = bs.insert(i);
                prop_assert_eq!(was_new, model.insert(i));
            } else {
                bs.remove(i);
                model.remove(&i);
            }
        }
        prop_assert_eq!(bs.count(), model.len());
        let mut from_iter: Vec<usize> = bs.iter().collect();
        let mut expect: Vec<usize> = model.into_iter().collect();
        from_iter.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(from_iter, expect);
    }

    /// Directed builder preserves exactly the deduplicated edge set.
    #[test]
    fn directed_builder_preserves_edges((n, edges) in edges_strategy(30)) {
        let g = GraphBuilder::new(n)
            .symmetric(false)
            .drop_self_loops(false)
            .add_edges(edges.iter().copied())
            .build();
        let mut expect: Vec<(u32, u32)> = edges.clone();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(got, expect);
    }
}
