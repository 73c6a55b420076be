//! Locality-aware vertex orders for shard layout.
//!
//! The shard writer places vertices into shards; *which* vertices share a
//! shard decides how many shards an L-hop ball touches and therefore what
//! an out-of-core gather costs under an undersized cache. This module
//! computes the placement permutation, `rank[v]` — the position of vertex
//! `v` in the chosen order:
//!
//! * [`StoreOrder::Natural`] — the position in the concatenated
//!   [`bfs_partition`] parts, members ascending by id within a part. Every
//!   part but the last holds exactly `⌈n/P⌉` vertices, so each part is one
//!   shard.
//! * [`StoreOrder::Bfs`] — breadth-first from a maximum-degree root per
//!   component. Neighbors get adjacent ranks, so the contiguous-rank
//!   shard cut keeps L-hop balls inside few shards.
//! * [`StoreOrder::Degree`] — degree-descending. Cheap (one sort), groups
//!   the hubs most gathers touch into the same few shards.
//!
//! The rank is the store's one placement map. Shard `sid` holds the rank
//! range `[sid·w, (sid+1)·w)`, `w = ⌈n/P⌉`, in rank order, and the
//! manifest records `rank`, so a read of `v` resolves its shard as
//! `rank[v] / w` and its slot in the shard as `rank[v] mod w`. Vertex ids
//! on disk (adjacency, the CLI/serve protocol) stay in user numbering;
//! [`GraphStore::to_internal`](super::GraphStore::to_internal) /
//! [`to_external`](super::GraphStore::to_external) translate at the store
//! boundary. No answer depends on the order, which is why loss/F1 are
//! bit-identical across orders by construction.

use crate::csr::CsrGraph;
use crate::partition::bfs_partition;

/// Which placement order the shard writer uses. See the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreOrder {
    /// [`bfs_partition`] parts in sequence, members ascending.
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

    /// On-disk tag in the manifest.
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

/// `rank[v]` = position of vertex `v` under `order`, for a store of `p`
/// shards (only `natural` depends on `p`).
pub fn order_rank(graph: &CsrGraph, order: StoreOrder, p: usize) -> Vec<u32> {
    match order {
        StoreOrder::Natural => natural_rank(graph, p),
        StoreOrder::Bfs => bfs_rank(graph),
        StoreOrder::Degree => degree_rank(graph),
    }
}

/// The inverse of a permutation: `inverse[perm[i]] = i`.
pub(crate) fn invert(perm: &[u32]) -> Vec<u32> {
    let mut inverse = vec![0u32; perm.len()];
    for (i, &x) in perm.iter().enumerate() {
        inverse[x as usize] = i as u32;
    }
    inverse
}

/// Position in the concatenated [`bfs_partition`] parts, members ascending
/// by id within a part.
fn natural_rank(graph: &CsrGraph, p: usize) -> Vec<u32> {
    let part = bfs_partition(graph, p).part;
    let mut verts: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    // Stable: ids stay ascending within a part.
    verts.sort_by_key(|&v| part[v as usize]);
    invert(&verts)
}

/// Vertices sorted degree-descending, ties broken by ascending id (both
/// deterministic, so the same graph always gets the same layout).
fn by_degree_desc(graph: &CsrGraph) -> Vec<u32> {
    let mut verts: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    verts.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    verts
}

fn degree_rank(graph: &CsrGraph) -> Vec<u32> {
    invert(&by_degree_desc(graph))
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
    fn natural_rank_concatenates_the_bfs_parts() {
        let g = star_plus_path();
        let rank = order_rank(&g, StoreOrder::Natural, 3);
        assert!(is_permutation(&rank));
        // Parts of 3: the BFS from 0 takes 0, its hub 3 and 1; then 2, 4
        // and the next component's seed 5; then 6 and 7.
        let part = bfs_partition(&g, 3).part;
        assert_eq!(part, vec![0, 0, 1, 0, 1, 1, 2, 2]);
        assert_eq!(rank, vec![0, 1, 3, 2, 4, 5, 6, 7]);
        // One part: the identity.
        let one = order_rank(&g, StoreOrder::Natural, 1);
        assert_eq!(one, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn bfs_starts_at_max_degree_root_per_component() {
        let g = star_plus_path();
        let rank = order_rank(&g, StoreOrder::Bfs, 1);
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
        let rank = order_rank(&g, StoreOrder::Degree, 1);
        assert!(is_permutation(&rank));
        assert_eq!(rank[3], 0); // degree 4
        assert_eq!(rank[6], 1); // degree 2
                                // Remaining vertices are degree 1, ties by id.
        assert!(rank[0] < rank[1] && rank[1] < rank[2]);
    }

    #[test]
    fn rank_partition_is_contiguous_and_balanced() {
        use crate::store::shard::shard_width;
        let rank: Vec<u32> = (0..10).rev().collect(); // reverse order
        let w = shard_width(rank.len(), 3);
        let part: Vec<u32> = rank.iter().map(|&r| r / w as u32).collect();
        let mut sizes = vec![0; 3];
        for &s in &part {
            sizes[s as usize] += 1;
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        // Part of v follows rank, not id.
        assert_eq!(part[9], 0);
        assert_eq!(part[0], 2);
        // More parts than vertices still yields a valid partition.
        let w = shard_width(rank.len(), 20);
        assert!(rank.iter().all(|&r| ((r as usize) / w) < 20));
        // The natural cut is the bfs_partition parts themselves.
        let g = star_plus_path();
        let rank = order_rank(&g, StoreOrder::Natural, 3);
        let w = shard_width(g.num_vertices(), 3) as u32;
        let cut: Vec<u32> = rank.iter().map(|&r| r / w).collect();
        assert_eq!(cut, bfs_partition(&g, 3).part);
    }

    #[test]
    fn bfs_keeps_ring_neighbors_in_same_part() {
        let n = 64;
        let edges: Vec<_> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = from_edges(n, &edges);
        let rank = order_rank(&g, StoreOrder::Bfs, 4);
        // Four shards of 16 contiguous ranks each.
        let part = |v: u32| rank[v as usize] / 16;
        // A BFS of a ring expands two arcs; each part is at most two
        // rank-contiguous arcs, so the cut is tiny compared to random.
        let cut = g.edges().filter(|&(u, v)| part(u) != part(v)).count();
        assert!(cut <= 16, "ring cut {cut} too high for a BFS order");
    }
}
