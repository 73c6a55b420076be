//! Edge-list → CSR graph construction.
//!
//! The builder normalises arbitrary edge lists into the canonical CSR form
//! the rest of the system assumes: sorted adjacency lists, no duplicate
//! edges, optional symmetric closure (undirected semantics) and optional
//! self-loop removal. Construction is parallel (sort + segmented dedup).

use crate::csr::CsrGraph;
use rayon::prelude::*;

/// Builder accumulating directed edges before CSR finalisation.
///
/// By default the builder produces the *symmetric closure* (for every added
/// `(u,v)` the reverse `(v,u)` is also inserted) because the paper's
/// datasets are all undirected, and strips self-loops (mean aggregation
/// handles the self-feature through `W_self`, Alg. 1 line 8).
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
    symmetric: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// Start a builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            symmetric: true,
            drop_self_loops: true,
        }
    }

    /// Reserve capacity for `cap` edges up front.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(cap);
        b
    }

    /// Whether to insert the reverse of every edge (undirected semantics).
    /// Default: `true`.
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// Whether to drop self-loops `(v,v)`. Default: `true`.
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Add a single directed edge. Panics if an endpoint is out of range.
    pub fn add_edge(mut self, u: u32, v: u32) -> Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push((u, v));
        self
    }

    /// Add many edges at once.
    pub fn add_edges<I: IntoIterator<Item = (u32, u32)>>(mut self, it: I) -> Self {
        for (u, v) in it {
            assert!(
                (u as usize) < self.n && (v as usize) < self.n,
                "edge ({u},{v}) out of range for n={}",
                self.n
            );
            self.edges.push((u, v));
        }
        self
    }

    /// Finalise into a [`CsrGraph`]: closure, sort, dedup, CSR assembly.
    pub fn build(self) -> CsrGraph {
        let GraphBuilder {
            n,
            mut edges,
            symmetric,
            drop_self_loops,
        } = self;

        if drop_self_loops {
            edges.retain(|&(u, v)| u != v);
        }
        if symmetric {
            let rev: Vec<(u32, u32)> = edges.par_iter().map(|&(u, v)| (v, u)).collect();
            edges.extend(rev);
        }
        edges.par_sort_unstable();
        edges.dedup();

        // Counting pass → offsets, then a placement pass.
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let adj: Vec<u32> = edges.iter().map(|&(_, v)| v).collect();
        CsrGraph::from_raw(offsets, adj)
    }
}

/// Convenience: build an undirected graph straight from an edge slice.
pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    GraphBuilder::new(n)
        .add_edges(edges.iter().copied())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_closure_and_dedup() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1)
            .add_edge(1, 0) // duplicate after closure
            .add_edge(1, 2)
            .build();
        assert_eq!(g.num_edges(), 4); // (0,1),(1,0),(1,2),(2,1)
        assert!(g.is_symmetric());
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn directed_mode_keeps_orientation() {
        let g = GraphBuilder::new(3)
            .symmetric(false)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = GraphBuilder::new(2).add_edge(0, 0).add_edge(0, 1).build();
        assert!(!g.has_self_loops());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loops_kept_when_requested() {
        let g = GraphBuilder::new(2)
            .drop_self_loops(false)
            .symmetric(false)
            .add_edge(0, 0)
            .build();
        assert!(g.has_self_loops());
    }

    #[test]
    fn adjacency_lists_sorted() {
        let g = GraphBuilder::new(5)
            .add_edge(0, 4)
            .add_edge(0, 2)
            .add_edge(0, 3)
            .add_edge(0, 1)
            .build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn from_edges_helper() {
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn empty_builder_gives_isolated_vertices() {
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn parallel_duplicate_heavy_build() {
        // Many duplicates of the same few edges must collapse.
        let mut edges = Vec::new();
        for _ in 0..1000 {
            edges.push((0u32, 1u32));
            edges.push((1, 2));
        }
        let g = from_edges(3, &edges);
        assert_eq!(g.num_edges(), 4);
    }
}
