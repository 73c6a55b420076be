//! Graph statistics used to validate sampler quality.
//!
//! Section III-C of the paper requires the sampler to "preserve the
//! connectivity characteristics in the training graph". This module
//! provides the measures we compare between the training graph and sampled
//! subgraphs: degree distribution (histogram + moments), clustering
//! coefficient, and connected components. These back both unit tests and
//! the A3 subgraph statistics of `gsgcn reproduce a3`.

use crate::csr::CsrGraph;
use rayon::prelude::*;

/// Summary statistics of a graph's degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    pub std_dev: f64,
    /// Fraction of vertices with degree 0.
    pub isolated_fraction: f64,
}

/// Compute degree summary statistics.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
            isolated_fraction: 0.0,
        };
    }
    let degs: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    let min = *degs.iter().min().unwrap();
    let max = *degs.iter().max().unwrap();
    let mean = degs.iter().sum::<usize>() as f64 / n as f64;
    let var = degs
        .iter()
        .map(|&d| {
            let x = d as f64 - mean;
            x * x
        })
        .sum::<f64>()
        / n as f64;
    let isolated = degs.iter().filter(|&&d| d == 0).count();
    DegreeStats {
        min,
        max,
        mean,
        std_dev: var.sqrt(),
        isolated_fraction: isolated as f64 / n as f64,
    }
}

/// Degree histogram with log-2 buckets: bucket `i` counts vertices with
/// degree in `[2^i, 2^{i+1})`; bucket 0 additionally holds degree-0 and 1.
pub fn degree_histogram_log2(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; 33];
    for v in 0..g.num_vertices() as u32 {
        let d = g.degree(v);
        let b = if d <= 1 {
            0
        } else {
            (usize::BITS - d.leading_zeros()) as usize - 1
        };
        hist[b] += 1;
    }
    while hist.len() > 1 && *hist.last().unwrap() == 0 {
        hist.pop();
    }
    hist
}

/// Normalised degree-histogram distance between two graphs in [0, 1]
/// (total-variation distance over log-2 degree buckets). Small values mean
/// the subgraph preserves the degree shape of the original graph.
pub fn degree_distribution_distance(a: &CsrGraph, b: &CsrGraph) -> f64 {
    let (ha, hb) = (degree_histogram_log2(a), degree_histogram_log2(b));
    let (na, nb) = (
        a.num_vertices().max(1) as f64,
        b.num_vertices().max(1) as f64,
    );
    let len = ha.len().max(hb.len());
    let mut tv = 0.0;
    for i in 0..len {
        let pa = ha.get(i).copied().unwrap_or(0) as f64 / na;
        let pb = hb.get(i).copied().unwrap_or(0) as f64 / nb;
        tv += (pa - pb).abs();
    }
    tv / 2.0
}

/// Exact global clustering coefficient: `3·#triangles / #wedges`.
///
/// Counts each triangle via sorted-adjacency intersection; parallel over
/// vertices. Intended for the modest graph sizes used in tests/examples.
pub fn clustering_coefficient(g: &CsrGraph) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let (tri2, wedges): (usize, usize) = (0..n as u32)
        .into_par_iter()
        .map(|v| {
            let nv = g.neighbors(v);
            let d = nv.len();
            let wedge = if d >= 2 { d * (d - 1) / 2 } else { 0 };
            // Closed wedges centred at v: adjacent neighbor pairs.
            let mut closed = 0usize;
            for (i, &a) in nv.iter().enumerate() {
                for &b in &nv[i + 1..] {
                    if a != b && g.has_edge(a, b) {
                        closed += 1;
                    }
                }
            }
            (closed, wedge)
        })
        .reduce(|| (0, 0), |x, y| (x.0 + y.0, x.1 + y.1));
    if wedges == 0 {
        0.0
    } else {
        tri2 as f64 / wedges as f64
    }
}

/// Connected components by BFS; returns `(component_id per vertex, count)`.
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = Vec::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = count;
        queue.push(s as u32);
        while let Some(v) = queue.pop() {
            for &u in g.neighbors(v) {
                if comp[u as usize] == u32::MAX {
                    comp[u as usize] = count;
                    queue.push(u);
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

/// Size of the largest connected component.
pub fn largest_component_size(g: &CsrGraph) -> usize {
    let (comp, count) = connected_components(g);
    if count == 0 {
        return 0;
    }
    let mut sizes = vec![0usize; count];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn degree_stats_on_star() {
        // Star: center 0 with 4 leaves.
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.isolated_fraction, 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let h = degree_histogram_log2(&g);
        // Degrees: [4,1,1,1,1] → bucket0 (deg≤1): 4 vertices, bucket2 ([4,8)): 1.
        assert_eq!(h[0], 4);
        assert_eq!(h[2], 1);
    }

    #[test]
    fn distribution_distance_zero_for_same_graph() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(degree_distribution_distance(&g, &g), 0.0);
    }

    #[test]
    fn distribution_distance_positive_for_different() {
        let path = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let star = from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert!(degree_distribution_distance(&path, &star) > 0.0);
    }

    #[test]
    fn clustering_triangle_is_one() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_path_is_zero() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn clustering_mixed() {
        // Triangle 0-1-2 plus pendant 3 on vertex 0.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        // Wedges: v0 has deg3 → 3, v1 deg2 → 1, v2 deg2 → 1, v3 → 0. Total 5.
        // Closed: v0 1, v1 1, v2 1. Total 3 → coefficient 3/5.
        assert!((clustering_coefficient(&g) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn components_counts() {
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[5]);
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn empty_graph_stats() {
        let g = CsrGraph::empty(0);
        let s = degree_stats(&g);
        assert_eq!(s.mean, 0.0);
        assert_eq!(clustering_coefficient(&g), 0.0);
        assert_eq!(connected_components(&g).1, 0);
    }
}
