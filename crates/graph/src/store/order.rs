//! Locality-aware vertex orders for shard layout.
//!
//! The shard writer places vertices into shards; *which* vertices share a
//! shard decides how many shards an L-hop ball touches and therefore what
//! an out-of-core gather costs under an undersized cache. This module
//! computes the placement permutation:
//!
//! * [`StoreOrder::Natural`] — identity. The writer keeps its historical
//!   behavior (BFS-grown partition, members ascending by id) and the
//!   manifest carries no ordering section, so natural stores are
//!   byte-identical to stores written before orders existed.
//! * [`StoreOrder::Bfs`] — breadth-first from a maximum-degree root per
//!   component. Neighbors get adjacent ranks, so the contiguous-rank
//!   shard cut keeps L-hop balls inside few shards.
//! * [`StoreOrder::Degree`] — degree-descending. Cheap (one sort), groups
//!   the hubs most gathers touch into the same few shards.
//!
//! The order is purely a *placement* permutation: vertex ids on disk
//! (members, adjacency, the CLI/serve protocol) stay in user numbering,
//! and the global → (shard, local) index resolves reads exactly as
//! before. `rank[v]` — the position of vertex `v` in the chosen order —
//! is recorded in the manifest so
//! [`GraphStore::to_internal`](super::GraphStore::to_internal) /
//! [`to_external`](super::GraphStore::to_external) can translate at the
//! store boundary; no read path depends on it, which is why loss/F1 are
//! bit-identical across orders by construction.

use crate::csr::CsrGraph;
use crate::partition::VertexPartition;

/// Which placement order the shard writer uses. See the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreOrder {
    /// Identity placement (the historical writer; no manifest section).
    #[default]
    Natural,
    /// BFS from a max-degree root per component.
    Bfs,
    /// Degree-descending.
    Degree,
}

impl StoreOrder {
    /// Stable name for flags, manifests and bench tags.
    pub fn name(self) -> &'static str {
        match self {
            StoreOrder::Natural => "natural",
            StoreOrder::Bfs => "bfs",
            StoreOrder::Degree => "degree",
        }
    }

    /// On-disk tag in the manifest ordering section.
    pub(crate) fn code(self) -> u32 {
        match self {
            StoreOrder::Natural => 0,
            StoreOrder::Bfs => 1,
            StoreOrder::Degree => 2,
        }
    }

    pub(crate) fn from_code(code: u32) -> Option<StoreOrder> {
        match code {
            0 => Some(StoreOrder::Natural),
            1 => Some(StoreOrder::Bfs),
            2 => Some(StoreOrder::Degree),
            _ => None,
        }
    }
}

impl std::str::FromStr for StoreOrder {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "natural" | "none" => Ok(StoreOrder::Natural),
            "bfs" => Ok(StoreOrder::Bfs),
            "degree" | "deg" => Ok(StoreOrder::Degree),
            other => Err(format!(
                "bad shard order {other:?}: expected natural|bfs|degree"
            )),
        }
    }
}

/// `rank[v]` = position of vertex `v` under `order`, or `None` for
/// [`StoreOrder::Natural`] (identity — the writer takes its historical
/// path and writes no ordering section).
pub fn order_rank(graph: &CsrGraph, order: StoreOrder) -> Option<Vec<u32>> {
    match order {
        StoreOrder::Natural => None,
        StoreOrder::Bfs => Some(bfs_rank(graph)),
        StoreOrder::Degree => Some(degree_rank(graph)),
    }
}

/// Vertices sorted degree-descending, ties broken by ascending id (both
/// deterministic, so the same graph always gets the same layout).
fn by_degree_desc(graph: &CsrGraph) -> Vec<u32> {
    let mut verts: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    verts.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    verts
}

fn degree_rank(graph: &CsrGraph) -> Vec<u32> {
    let mut rank = vec![0u32; graph.num_vertices()];
    for (r, &v) in by_degree_desc(graph).iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    rank
}

/// BFS order: each component is traversed breadth-first from its
/// max-degree vertex (ties by id); components are taken in that same
/// degree-descending seed order. Neighbors are visited in stored
/// adjacency order, so the result is deterministic.
fn bfs_rank(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut rank = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for seed in by_degree_desc(graph) {
        if rank[seed as usize] != u32::MAX {
            continue;
        }
        rank[seed as usize] = next;
        next += 1;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbors(v) {
                if rank[u as usize] == u32::MAX {
                    rank[u as usize] = next;
                    next += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    debug_assert_eq!(next as usize, n);
    rank
}

/// Cut a rank permutation into `p` contiguous rank ranges: part of `v` is
/// `rank[v] / ⌈n/p⌉`. Equal-sized parts (last may be short), and because
/// ranks of close-by vertices are close, each part is a locality cluster.
pub fn partition_by_rank(rank: &[u32], p: usize) -> VertexPartition {
    assert!(p >= 1);
    let n = rank.len();
    let target = n.div_ceil(p).max(1);
    let part = rank
        .iter()
        .map(|&r| ((r as usize / target) as u32).min(p as u32 - 1))
        .collect();
    VertexPartition { part, num_parts: p }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn star_plus_path() -> CsrGraph {
        // Vertex 3 is the hub (degree 4); 5-6-7 is a separate path
        // component whose max-degree vertex is 6.
        from_edges(8, &[(3, 0), (3, 1), (3, 2), (3, 4), (5, 6), (6, 7)])
    }

    fn is_permutation(rank: &[u32]) -> bool {
        let mut seen = vec![false; rank.len()];
        for &r in rank {
            if (r as usize) >= rank.len() || seen[r as usize] {
                return false;
            }
            seen[r as usize] = true;
        }
        true
    }

    #[test]
    fn parse_and_names() {
        assert_eq!("bfs".parse::<StoreOrder>().unwrap(), StoreOrder::Bfs);
        assert_eq!("DEGREE".parse::<StoreOrder>().unwrap(), StoreOrder::Degree);
        assert_eq!(
            "natural".parse::<StoreOrder>().unwrap(),
            StoreOrder::Natural
        );
        assert!("hilbert".parse::<StoreOrder>().is_err());
        for o in [StoreOrder::Natural, StoreOrder::Bfs, StoreOrder::Degree] {
            assert_eq!(o.name().parse::<StoreOrder>().unwrap(), o);
            assert_eq!(StoreOrder::from_code(o.code()), Some(o));
        }
        assert_eq!(StoreOrder::from_code(9), None);
    }

    #[test]
    fn natural_is_identity() {
        let g = star_plus_path();
        assert!(order_rank(&g, StoreOrder::Natural).is_none());
    }

    #[test]
    fn bfs_starts_at_max_degree_root_per_component() {
        let g = star_plus_path();
        let rank = order_rank(&g, StoreOrder::Bfs).unwrap();
        assert!(is_permutation(&rank));
        // Hub first, then its neighbors in adjacency order.
        assert_eq!(rank[3], 0);
        assert_eq!(rank[0], 1);
        assert_eq!(rank[1], 2);
        assert_eq!(rank[2], 3);
        assert_eq!(rank[4], 4);
        // Second component roots at 6 (degree 2 beats 5 and 7).
        assert_eq!(rank[6], 5);
    }

    #[test]
    fn degree_rank_is_degree_sorted() {
        let g = star_plus_path();
        let rank = order_rank(&g, StoreOrder::Degree).unwrap();
        assert!(is_permutation(&rank));
        assert_eq!(rank[3], 0); // degree 4
        assert_eq!(rank[6], 1); // degree 2
                                // Remaining vertices are degree 1, ties by id.
        assert!(rank[0] < rank[1] && rank[1] < rank[2]);
    }

    #[test]
    fn rank_partition_is_contiguous_and_balanced() {
        let g = from_edges(10, &[(0, 1), (2, 3)]);
        let rank: Vec<u32> = (0..10).rev().collect(); // reverse order
        let p = partition_by_rank(&rank, 3);
        assert_eq!(p.sizes(), vec![4, 4, 2]);
        // Part of v follows rank, not id.
        assert_eq!(p.part[9], 0);
        assert_eq!(p.part[0], 2);
        // More parts than vertices still yields a valid partition.
        let q = partition_by_rank(&rank, 20);
        assert_eq!(q.num_parts, 20);
        assert!(q.part.iter().all(|&x| (x as usize) < 20));
        let _ = g;
    }

    #[test]
    fn bfs_keeps_ring_neighbors_in_same_part() {
        let n = 64;
        let edges: Vec<_> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = from_edges(n, &edges);
        let rank = order_rank(&g, StoreOrder::Bfs).unwrap();
        let p = partition_by_rank(&rank, 4);
        // A BFS of a ring expands two arcs; each part is at most two
        // rank-contiguous arcs, so the cut is tiny compared to random.
        let cut = g
            .edges()
            .filter(|&(u, v)| p.part[u as usize] != p.part[v as usize])
            .count();
        assert!(cut <= 16, "ring cut {cut} too high for a BFS order");
    }
}
