//! Compressed-sparse-row graph representation.
//!
//! The CSR layout stores all adjacency lists back to back in one `Vec<u32>`
//! with an offsets array delimiting per-vertex ranges. This is the layout
//! assumed by the paper's feature-propagation model (Sec. V-B): "using CSR
//! format, the neighbor lists of vertices can be streamed into the
//! processor, without the need to stay in cache".

/// An immutable graph in compressed-sparse-row form.
///
/// Vertex ids are `u32` (graphs up to ~4.2 B vertices); edge endpoints are
/// stored once per direction, so an undirected graph built through
/// [`crate::GraphBuilder::symmetric`] has `2·|E|` stored (directed) edges.
///
/// Serialisation goes through the explicit binary/text formats in
/// [`crate::io`] (the build environment has no serde; the derives the seed
/// carried were unused).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` delimits the adjacency list of `v`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists, each sorted ascending.
    adj: Vec<u32>,
}

impl CsrGraph {
    /// Build directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the offsets array is malformed (not monotone, wrong length,
    /// or last offset ≠ `adj.len()`) or any target id is out of range.
    pub fn from_raw(offsets: Vec<usize>, adj: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(
            *offsets.last().unwrap(),
            adj.len(),
            "last offset must equal adjacency length"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(
            adj.iter().all(|&t| (t as usize) < n),
            "adjacency target out of range"
        );
        CsrGraph { offsets, adj }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *directed* edges stored (an undirected edge counts twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Out-degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Average degree `d̄ = |E| / |V|` (directed-edge count over vertices).
    #[inline]
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// The sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `k`-th neighbor of `v` (0-based); used by samplers for O(1)
    /// uniform neighbor selection.
    #[inline]
    pub fn neighbor(&self, v: u32, k: usize) -> u32 {
        debug_assert!(k < self.degree(v));
        self.adj[self.offsets[v as usize] + k]
    }

    /// Whether the directed edge `(u, v)` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Raw offsets array (length `|V|+1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw concatenated adjacency array.
    #[inline]
    pub fn adjacency(&self) -> &[u32] {
        &self.adj
    }

    /// Iterate over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterate over vertex ids `0..|V|`.
    pub fn vertices(&self) -> impl Iterator<Item = u32> {
        0..self.num_vertices() as u32
    }

    /// True if every edge `(u,v)` has its reverse `(v,u)` — i.e. the graph
    /// is a valid undirected graph in symmetric-directed encoding.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// True if any vertex has a self-loop.
    pub fn has_self_loops(&self) -> bool {
        self.edges().any(|(u, v)| u == v)
    }

    /// Degrees of all vertices as a vector (parallel-friendly accessor).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .map(|v| (self.offsets[v + 1] - self.offsets[v]) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrGraph {
        // 0 - 1 - 2 undirected path
        CsrGraph::from_raw(vec![0, 1, 3, 4], vec![1, 0, 2, 1])
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbor(1, 1), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_queries() {
        let g = path3();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(g.is_symmetric());
        assert!(!g.has_self_loops());
    }

    #[test]
    fn edge_iterator_yields_all_directed_edges() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn degrees_vector_matches() {
        let g = path3();
        assert_eq!(g.degrees(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn malformed_offsets_rejected() {
        CsrGraph::from_raw(vec![0, 1, 2], vec![1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_offsets_rejected() {
        CsrGraph::from_raw(vec![0, 2, 1, 3], vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_rejected() {
        CsrGraph::from_raw(vec![0, 1], vec![5]);
    }

    #[test]
    fn detects_asymmetry_and_self_loops() {
        // Directed edge 0->1 only, self loop at 2.
        let g = CsrGraph::from_raw(vec![0, 1, 1, 2], vec![1, 2]);
        assert!(!g.is_symmetric());
        assert!(g.has_self_loops());
    }
}
