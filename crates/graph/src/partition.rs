//! Vertex partitioners.
//!
//! Theorem 2 of the paper argues that *feature-only* partitioning (P = 1)
//! is a 2-approximation of the communication-minimal 2-D scheme, so the
//! production propagation kernel never partitions the graph. These
//! partitioners exist to *implement the alternative* — the `P > 1` schemes
//! the theorem compares against — for the partitioning ablation bench.

use crate::csr::CsrGraph;

/// A disjoint vertex partitioning into `P` parts.
#[derive(Clone, Debug)]
pub struct VertexPartition {
    /// `part[v]` = partition id of vertex `v`.
    pub part: Vec<u32>,
    /// Number of partitions.
    pub num_parts: usize,
}

impl VertexPartition {
    /// The vertices of partition `i`, in ascending order.
    pub fn members(&self, i: u32) -> Vec<u32> {
        self.part
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == i)
            .map(|(v, _)| v as u32)
            .collect()
    }

    /// Sizes of all partitions.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.num_parts];
        for &p in &self.part {
            s[p as usize] += 1;
        }
        s
    }
}

/// Contiguous range partitioning: vertex `v` goes to part `v·P / n`.
/// Zero preprocessing cost; the scheme the paper's cost model assumes when
/// it bounds `1/P ≤ γ_P ≤ 1`.
pub fn range_partition(n: usize, p: usize) -> VertexPartition {
    assert!(p >= 1);
    let part = (0..n).map(|v| ((v * p) / n.max(1)) as u32).collect();
    VertexPartition { part, num_parts: p }
}

/// BFS-grown partitioning: grow each part from an unvisited seed until it
/// reaches `⌈n/P⌉` vertices, then go on in the next part; a component that
/// runs out continues the current part from the next unvisited seed. Every
/// part but the last holds exactly `⌈n/P⌉` vertices. Produces
/// locality-aware parts with lower edge cut than range partitioning on
/// community-structured graphs, at the cost of a sequential preprocessing
/// pass — exactly the preprocessing overhead Sec. V-B says feature-only
/// partitioning avoids.
pub fn bfs_partition(g: &CsrGraph, p: usize) -> VertexPartition {
    assert!(p >= 1);
    let n = g.num_vertices();
    let target = n.div_ceil(p);
    let mut part = vec![u32::MAX; n];
    let mut current = 0u32;
    let mut filled = 0usize;
    let mut assign = |v: u32, part: &mut [u32]| {
        if filled == target && (current as usize) < p - 1 {
            current += 1;
            filled = 0;
        }
        part[v as usize] = current;
        filled += 1;
    };
    let mut queue = std::collections::VecDeque::new();
    for seed in 0..n as u32 {
        if part[seed as usize] != u32::MAX {
            continue;
        }
        assign(seed, &mut part);
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if part[u as usize] == u32::MAX {
                    assign(u, &mut part);
                    queue.push_back(u);
                }
            }
        }
    }
    VertexPartition { part, num_parts: p }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<_> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        from_edges(n, &edges)
    }

    #[test]
    fn range_partition_balanced() {
        let p = range_partition(10, 3);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)));
    }

    #[test]
    fn range_partition_single_part() {
        let p = range_partition(5, 1);
        assert!(p.part.iter().all(|&x| x == 0));
    }

    #[test]
    fn members_ascending() {
        let p = range_partition(6, 2);
        assert_eq!(p.members(0), vec![0, 1, 2]);
        assert_eq!(p.members(1), vec![3, 4, 5]);
    }

    #[test]
    fn bfs_partition_covers_all() {
        let g = ring(12);
        let p = bfs_partition(&g, 3);
        assert!(p.part.iter().all(|&x| (x as usize) < 3));
        assert_eq!(p.sizes().iter().sum::<usize>(), 12);
    }

    /// A component boundary does not let a part grow past `⌈n/P⌉`: the
    /// seed of the next component is placed like any other vertex.
    #[test]
    fn bfs_partition_fills_parts_across_components() {
        let paths: Vec<(u32, u32)> = (0..9).filter(|&i| i != 4).map(|i| (i, i + 1)).collect();
        assert_eq!(
            bfs_partition(&from_edges(10, &paths), 2).sizes(),
            vec![5, 5]
        );
        let isolated = from_edges(8, &[]);
        assert_eq!(bfs_partition(&isolated, 4).sizes(), vec![2, 2, 2, 2]);
        // Three triangles on 0..9, then 9, 10 and 11 alone.
        let triangles: Vec<(u32, u32)> = (0..9).map(|i| (i, i / 3 * 3 + (i + 1) % 3)).collect();
        let triangles = from_edges(12, &triangles);
        assert_eq!(bfs_partition(&triangles, 4).sizes(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn bfs_partition_locality_on_ring() {
        // BFS grows each part as at most two arcs of the ring (the frontier
        // expands in both directions), so each part contributes at most 4
        // boundaries → ≤ 2·4·P directed cut edges; random assignment would
        // expect (1 − 1/P)·2n = 36.
        let g = ring(24);
        let p = bfs_partition(&g, 4);
        let cut = g
            .edges()
            .filter(|&(u, v)| p.part[u as usize] != p.part[v as usize]);
        assert!(cut.count() <= 32);
    }
}
