//! Parallel induced-subgraph extraction (Alg. 2, line 8: "Subgraph of G
//! induced by V_sub").
//!
//! Given the vertex set produced by a sampler, this module relabels the
//! vertices to `0..|V_sub|` and gathers every edge of the original graph
//! whose two endpoints both lie in the set. Extraction is embarrassingly
//! parallel over the (sorted) vertex set and runs every training iteration,
//! so it must be cheap: one bitset build + one counting pass + one fill
//! pass, all `O(Σ_{v∈V_sub} deg(v))`. The passes are the same for a
//! resident and a shard-backed topology: both read through one
//! [`TopoView`](crate::TopoView), which fetches each shard's topology
//! once, so scattered reads need no per-shard visiting order.

use crate::bitset::BitSet;
use crate::csr::CsrGraph;
use crate::store::Topology;
use rayon::prelude::*;

/// An induced subgraph plus the mapping back to original vertex ids.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph over relabelled vertices `0..k`.
    pub graph: CsrGraph,
    /// `origin[i]` is the original id of subgraph vertex `i` (sorted ascending).
    pub origin: Vec<u32>,
}

impl InducedSubgraph {
    /// Number of vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }
}

/// Extract the subgraph of `g` induced by `vertices`.
///
/// `vertices` may be unsorted and contain duplicates; the output vertex
/// order is the ascending original-id order, which keeps feature gathers
/// (`H[V_sub]`, Alg. 1 line 5) sequential in the original feature matrix.
///
/// Generic over [`Topology`] so the same extraction runs against a
/// resident `CsrGraph` or a shard-backed `GraphStore` (including via
/// `&dyn Topology`) — the output is bit-identical either way because both
/// expose the same neighbor order. Both passes read through one view.
pub fn induced_subgraph<T: Topology + ?Sized>(g: &T, vertices: &[u32]) -> InducedSubgraph {
    let g = g.view();
    let mut origin: Vec<u32> = vertices.to_vec();
    origin.sort_unstable();
    origin.dedup();

    let n = g.num_vertices();
    let member = BitSet::from_indices(n, origin.iter().copied());

    // Dense relabel table: original id -> local id (u32::MAX = absent).
    // For repeated per-iteration extraction on large graphs a scratch
    // buffer could be reused; the allocation is O(|V|) and in practice
    // dwarfed by edge gathering, so we keep the API stateless.
    let mut relabel = vec![u32::MAX; n];
    for (local, &orig) in origin.iter().enumerate() {
        relabel[orig as usize] = local as u32;
    }

    // Pass 1: count retained neighbors per subgraph vertex.
    let counts: Vec<usize> = origin
        .par_iter()
        .map(|&v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| member.contains(u as usize))
                .count()
        })
        .collect();

    let mut offsets = vec![0usize; origin.len() + 1];
    for (i, &c) in counts.iter().enumerate() {
        offsets[i + 1] = offsets[i] + c;
    }

    // Pass 2: fill adjacency — each local vertex owns a disjoint output
    // range, so the parallel writes are race-free.
    let total = offsets[origin.len()];
    let mut adj = vec![0u32; total];
    {
        // Split the output buffer into per-vertex slices.
        let mut slices: Vec<&mut [u32]> = Vec::with_capacity(origin.len());
        let mut rest: &mut [u32] = &mut adj;
        for &count in counts.iter().take(origin.len()) {
            let (head, tail) = rest.split_at_mut(count);
            slices.push(head);
            rest = tail;
        }
        slices
            .par_iter_mut()
            .zip(origin.par_iter())
            .for_each(|(out, &v)| {
                let mut k = 0;
                for &u in g.neighbors(v) {
                    if member.contains(u as usize) {
                        out[k] = relabel[u as usize];
                        k += 1;
                    }
                }
                debug_assert_eq!(k, out.len());
            });
    }

    InducedSubgraph {
        graph: CsrGraph::from_raw(offsets, adj),
        origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn sample_graph() -> CsrGraph {
        // 0-1, 1-2, 2-3, 3-0, 1-3 (a square with one diagonal), plus 4-5.
        from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (4, 5)])
    }

    #[test]
    fn induces_correct_edges() {
        let g = sample_graph();
        let sub = induced_subgraph(&g, &[0, 1, 3]);
        assert_eq!(sub.origin, vec![0, 1, 3]);
        // Local: 0<->1 (orig 0-1), 0<->2 (orig 0-3), 1<->2 (orig 1-3).
        assert_eq!(sub.graph.num_edges(), 6);
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(0, 2));
        assert!(sub.graph.has_edge(1, 2));
        assert!(sub.graph.is_symmetric());
    }

    #[test]
    fn duplicates_and_order_ignored() {
        let g = sample_graph();
        let a = induced_subgraph(&g, &[3, 1, 0, 1, 3]);
        let b = induced_subgraph(&g, &[0, 1, 3]);
        assert_eq!(a.origin, b.origin);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn isolated_selection() {
        let g = sample_graph();
        let sub = induced_subgraph(&g, &[0, 2]);
        // 0 and 2 are not adjacent.
        assert_eq!(sub.graph.num_edges(), 0);
        assert_eq!(sub.num_vertices(), 2);
    }

    #[test]
    fn full_selection_is_identity() {
        let g = sample_graph();
        let sub = induced_subgraph(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(sub.graph, g);
        assert_eq!(sub.origin, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_selection() {
        let g = sample_graph();
        let sub = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        assert_eq!(sub.graph.num_edges(), 0);
    }

    #[test]
    fn to_original_mapping() {
        let g = sample_graph();
        let sub = induced_subgraph(&g, &[5, 2]);
        assert_eq!(sub.origin, vec![2, 5]);
    }

    #[test]
    fn matches_bruteforce_on_random_sets() {
        // Cross-check against a quadratic reference implementation.
        let g = sample_graph();
        for mask in 0u32..64 {
            let verts: Vec<u32> = (0..6).filter(|i| mask & (1 << i) != 0).collect();
            let sub = induced_subgraph(&g, &verts);
            // Reference: edge (a,b) kept iff both in set.
            let mut expect = 0;
            for &a in &verts {
                for &b in &verts {
                    if g.has_edge(a, b) {
                        expect += 1;
                    }
                }
            }
            assert_eq!(sub.graph.num_edges(), expect, "mask={mask:06b}");
        }
    }
}
