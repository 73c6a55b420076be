//! Neighborhood extraction for batched inference: one-hop frontier balls
//! (what serving and stored evaluation run on) and L-hop balls (the
//! reference they are checked against).
//!
//! An L-layer GCN's output at a vertex depends on the input features of
//! exactly the vertices within L hops. Inference over a store never
//! materialises that ball: it recurses level by level over closed
//! **one-hop** [`FrontierBall`]s — layer `ℓ` on a target list reads
//! `H^{ℓ-1}` on the targets' frontier ball, which the same step one level
//! down produces (`gsgcn_nn`'s level recursion; the row-capped tile
//! cutter [`FrontierScratch::capped`] is the only extraction it needs). A
//! ball keeps each root's full neighbor list in full-graph order, so every
//! computed row matches the full-graph forward bit for bit.
//!
//! The cutter relabels vertices through a dense `u32` table indexed by
//! vertex id, as [`crate::subgraph`] does, held in a reusable
//! [`FrontierScratch`]: the level driver and serving keep one per
//! inference workspace, so a warm cut costs `O(ball + Σ root degrees)`
//! (the table is cleared by walking the ball's own vertices, never all
//! `n` entries). [`one_hop_frontier`] is the same cut on a fresh scratch,
//! for one-off callers.
//!
//! The L-hop side — [`l_hop_ball`], [`l_hop_subgraph`] and the cone-pruned
//! [`NeighborhoodBatch::layer_graphs`] — is the older formulation of the
//! same fact: layer `k` activations of a vertex at distance `d` from the
//! query set are correct on the induced subgraph of the L-hop ball
//! whenever `d + k ≤ L` (induction on `k` — every neighbor of such a
//! vertex lies within distance `d + 1 ≤ L - (k-1)`, and its full neighbor
//! list is inside the ball, so both the aggregate and the `D⁻¹`
//! normalisation match the full graph). It pushes every ball row through
//! every layer, so nothing in production calls it any more; it stays as
//! the independent oracle of the equivalence and work-bound tests and for
//! the e2e harness's ladder.

use crate::bitset::BitSet;
use crate::csr::CsrGraph;
use crate::store::Topology;
use crate::subgraph::{induced_subgraph, InducedSubgraph};
use std::io;

/// The induced subgraph of an L-hop ball plus the query-root positions
/// and per-vertex root distances.
#[derive(Clone, Debug)]
pub struct NeighborhoodBatch {
    /// Induced subgraph of every vertex within `hops` of the roots
    /// (relabelled ids + mapping back to original ids).
    pub sub: InducedSubgraph,
    /// Subgraph-local id of each requested root, aligned with the order
    /// of the `roots` argument (duplicates map to the same local id).
    pub root_locals: Vec<u32>,
    /// Hops from the nearest root, indexed by subgraph-local id (roots
    /// are 0). Shortest paths from a root stay inside the ball, so this
    /// equals the full-graph distance.
    pub dist: Vec<u32>,
}

impl NeighborhoodBatch {
    /// Number of vertices in the extracted subgraph.
    pub fn num_vertices(&self) -> usize {
        self.sub.num_vertices()
    }

    /// Per-layer **cone-pruned** graphs for an exact L-layer GCN forward
    /// over this batch.
    ///
    /// Layer `k` (0-based) of an L-layer forward is only *consumed* at
    /// vertices within `L-k-1` hops of the roots: layer L-1 feeds the
    /// roots alone, layer L-2 the roots' 1-hop ball, and so on. The
    /// returned graphs share the ball's vertex set (so activation row
    /// indexing — and the fused `PackSource` pipeline — is untouched)
    /// but graph `k` keeps adjacency only for rows with
    /// `dist ≤ L-k-1`; every other row is isolated, making its (never
    /// consumed) aggregate free. Root-ward rows keep their full
    /// neighbor lists and degrees, so consumed values are **exactly**
    /// the full-graph forward's — the shrinking-frontier counterpart of
    /// the module-level induction argument, pinned by the
    /// batched-vs-full proptests in `gsgcn-serve`.
    ///
    /// The ball must have been extracted with `hops ≥ layers`.
    ///
    /// No production caller — kept for the e2e ladder and as the
    /// equivalence oracle.
    pub fn layer_graphs(&self, layers: usize) -> Vec<CsrGraph> {
        let n = self.num_vertices();
        let offsets = self.sub.graph.offsets();
        let adj = self.sub.graph.adjacency();
        (0..layers)
            .map(|k| {
                let keep_below = (layers - k - 1) as u32;
                let mut new_offsets = Vec::with_capacity(n + 1);
                new_offsets.push(0usize);
                let mut new_adj =
                    Vec::with_capacity(if k == 0 { adj.len() } else { adj.len() / 2 });
                for v in 0..n {
                    if self.dist[v] <= keep_below {
                        new_adj.extend_from_slice(&adj[offsets[v]..offsets[v + 1]]);
                    }
                    new_offsets.push(new_adj.len());
                }
                CsrGraph::from_raw(new_offsets, new_adj)
            })
            .collect()
    }
}

/// The closed 1-hop ball of a root set, laid out for **one GCN layer on
/// the root rows**: unique roots occupy local rows `0..num_roots` (in
/// first-appearance order), frontier-only vertices follow (grouped by
/// [`Topology::locality_group`], discovery order within a group), and
/// the ball graph keeps adjacency *only on the root rows* (frontier rows
/// are isolated — their aggregates are never consumed).
///
/// When the layer's inputs are known at every ball vertex — from the
/// level below, a feature gather, or an activation cache — the layer (and,
/// at the top, the classifier head) needs only this structure. Root rows
/// keep their full neighbor lists (and hence full degrees, the `D⁻¹`
/// exactness condition), so the fused layer over [`FrontierBall::graph`]
/// is bit-identical at the root rows to the same layer run over any
/// larger exact graph. This is the tile of layer-at-a-time inference, for
/// serving (one uncapped ball per level) and stored evaluation alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierBall {
    /// Input-graph id of each local row; the first
    /// [`FrontierBall::num_roots`] entries are the unique roots.
    pub origin: Vec<u32>,
    /// Ball graph over `origin.len()` vertices: full (relabelled)
    /// neighbor lists on root rows, isolated frontier rows.
    pub graph: CsrGraph,
    /// Number of unique roots (= the prefix of `origin` they occupy).
    pub num_roots: usize,
    /// Local id of each *requested* root, aligned with the `roots`
    /// argument (duplicates map to the same local id; all `< num_roots`).
    pub root_locals: Vec<u32>,
}

/// Extract the [`FrontierBall`] of `roots` in `g` (a fresh
/// [`FrontierScratch`]; see [`FrontierScratch::one_hop`]).
///
/// # Panics
/// Panics if any root id is out of range for `g`, or if a root's shard
/// cannot be read (a resident graph never fails).
pub fn one_hop_frontier<T: Topology + ?Sized>(g: &T, roots: &[u32]) -> FrontierBall {
    FrontierScratch::new()
        .one_hop(g, roots)
        .unwrap_or_else(|e| panic!("frontier ball: {e}"))
}

/// Reusable state of the frontier tile cutter: a dense relabel table
/// indexed by vertex id, as [`crate::subgraph`] relabels, plus the
/// per-cut lists. The table is sized to the graph on first use and
/// zeroed again after every cut by walking the ball's own vertices, so a
/// warm cut costs `O(ball + Σ root degrees)`, never `O(n)`. Cheap to
/// construct (empty); one scratch serves any sequence of graphs.
#[derive(Clone, Debug, Default)]
pub struct FrontierScratch {
    /// `slot[v]` is 1 + the provisional (discovery-order) id of `v` while
    /// `v` is in the ball under construction, 0 otherwise.
    slot: Vec<u32>,
    /// Input-graph id of each provisional id.
    disc: Vec<u32>,
    /// Per provisional id: the root rank, or `NOT_ROOT`; after the
    /// relabel, the final local id.
    rank: Vec<u32>,
    /// Per locality group: the frontier rows before it, for the counting
    /// sort.
    counts: Vec<usize>,
    /// Set while a cut runs: a cut that panicked (an out-of-range root) or
    /// failed (an unreadable shard) left `slot` dirty, and the next one
    /// clears it whole — the serving engine keeps its workspace across a
    /// caught panic.
    dirty: bool,
}

const NOT_ROOT: u32 = u32::MAX;

impl FrontierScratch {
    /// An empty scratch; the relabel table grows on the first cut.
    pub fn new() -> Self {
        Self::default()
    }

    /// The [`FrontierBall`] of every root in `roots`; fails as
    /// [`Self::capped`].
    ///
    /// # Panics
    /// Panics if any root id is out of range for `g`.
    pub fn one_hop<T: Topology + ?Sized>(
        &mut self,
        g: &T,
        roots: &[u32],
    ) -> io::Result<FrontierBall> {
        Ok(self.capped(g, roots, usize::MAX)?.0)
    }

    /// The [`FrontierBall`] of the longest prefix of `roots` whose closed
    /// one-hop frontier stays within `max_rows` rows, and the length of
    /// that prefix — the tile cutter of layer-at-a-time inference: walk a
    /// target list by calling this on the remaining suffix until nothing
    /// is left.
    ///
    /// The ball is grown root by root in a single pass over the neighbor
    /// lists (no size probe): a root whose frontier would push the ball
    /// past the cap is rolled back and left for the next tile. The first
    /// root is always taken, so a hub whose own frontier exceeds
    /// `max_rows` yields a one-root tile larger than the cap rather than
    /// no progress; duplicates of an already-taken root add no rows and
    /// are always consumed. Frontier rows follow the roots grouped by
    /// [`Topology::locality_group`] (a stable counting sort: discovery
    /// order within a group). The cut reads through one
    /// [`TopoView`](crate::TopoView).
    ///
    /// Fails when a root's shard cannot be read
    /// ([`TopoView::try_neighbors`](crate::TopoView::try_neighbors)); the
    /// scratch stays usable.
    ///
    /// # Panics
    /// Panics if a visited root id is out of range for `g`.
    pub fn capped<T: Topology + ?Sized>(
        &mut self,
        g: &T,
        roots: &[u32],
        max_rows: usize,
    ) -> io::Result<(FrontierBall, usize)> {
        let view = g.view();
        let n = g.num_vertices();
        if self.dirty || self.slot.len() < n {
            self.slot = vec![0; n.max(self.slot.len())];
        }
        self.dirty = true;
        self.disc.clear();
        self.rank.clear();
        // Vertices get provisional ids in discovery order (a root, then its
        // neighbors, then the next root …); `rank[id]` is the root's
        // position among the unique roots, or `NOT_ROOT`. The roots-first
        // layout is a relabelling at the end, so the topology is read
        // exactly once.
        let mut num_roots = 0usize;
        let mut root_locals = Vec::new();
        let mut offsets = vec![0usize];
        let mut adj: Vec<u32> = Vec::new();
        for &r in roots {
            assert!(
                (r as usize) < n,
                "root vertex {r} out of range for a {n}-vertex graph"
            );
            let (disc_mark, adj_mark) = (self.disc.len(), adj.len());
            let id = self.intern(r) as usize;
            self.rank.resize(self.disc.len(), NOT_ROOT);
            if self.rank[id] == NOT_ROOT {
                for &u in view.try_neighbors(r)? {
                    let local = self.intern(u);
                    adj.push(local);
                }
                if self.disc.len() > max_rows && num_roots > 0 {
                    for &v in &self.disc[disc_mark..] {
                        self.slot[v as usize] = 0;
                    }
                    self.disc.truncate(disc_mark);
                    self.rank.truncate(disc_mark);
                    adj.truncate(adj_mark);
                    break;
                }
                self.rank.resize(self.disc.len(), NOT_ROOT);
                self.rank[id] = num_roots as u32;
                num_roots += 1;
                offsets.push(adj.len());
            }
            root_locals.push(self.rank[id]);
        }
        let origin = self.relabel(g, num_roots);
        for a in &mut adj {
            *a = self.rank[*a as usize];
        }
        for &v in &self.disc {
            self.slot[v as usize] = 0;
        }
        self.dirty = false;
        // Frontier rows are isolated: empty adjacency, same offset.
        offsets.resize(origin.len() + 1, adj.len());
        let used = root_locals.len();
        let ball = FrontierBall {
            graph: CsrGraph::from_raw(offsets, adj),
            num_roots,
            root_locals,
            origin,
        };
        Ok((ball, used))
    }

    /// Provisional id of `v`, assigning the next one on first sight.
    #[inline]
    fn intern(&mut self, v: u32) -> u32 {
        let slot = &mut self.slot[v as usize];
        if *slot == 0 {
            self.disc.push(v);
            *slot = self.disc.len() as u32;
        }
        *slot - 1
    }

    /// Final layout: roots keep their rank; frontier-only vertices follow,
    /// grouped by locality group in discovery order within one (a stable
    /// counting sort), so whoever reads the ball's rows next walks each
    /// shard once. Turns `rank` into the provisional → final id map and
    /// returns the ball's `origin`.
    fn relabel<T: Topology + ?Sized>(&mut self, g: &T, num_roots: usize) -> Vec<u32> {
        let FrontierScratch {
            disc, rank, counts, ..
        } = self;
        let groups = g.num_locality_groups();
        let group = |id: usize| match groups {
            1 => 0,
            _ => g.locality_group(disc[id]) as usize,
        };
        counts.clear();
        counts.resize(groups + 1, 0);
        for id in (0..rank.len()).filter(|&id| rank[id] == NOT_ROOT) {
            counts[group(id) + 1] += 1;
        }
        for k in 1..counts.len() {
            counts[k] += counts[k - 1];
        }
        for id in 0..rank.len() {
            if rank[id] == NOT_ROOT {
                let at = &mut counts[group(id)];
                rank[id] = (num_roots + *at) as u32;
                *at += 1;
            }
        }
        let mut origin = vec![0u32; disc.len()];
        for (&v, &local) in disc.iter().zip(rank.iter()) {
            origin[local as usize] = v;
        }
        origin
    }
}

/// Multi-source BFS distances from `roots` over `g` (`u32::MAX` is
/// unreachable — cannot occur for ball-extracted subgraphs).
fn bfs_distances(g: &CsrGraph, roots: &[u32]) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut frontier: Vec<u32> = Vec::with_capacity(roots.len());
    for &r in roots {
        if dist[r as usize] != 0 {
            dist[r as usize] = 0;
            frontier.push(r);
        }
    }
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = d;
                    next.push(u);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dist
}

/// All vertices within `hops` of `roots` (the closed L-hop ball), as a
/// sorted, deduplicated original-id list.
///
/// # Panics
/// Panics if any root id is out of range for `g`.
pub fn l_hop_ball<T: Topology + ?Sized>(g: &T, roots: &[u32], hops: usize) -> Vec<u32> {
    let g = g.view();
    let n = g.num_vertices();
    let mut visited = BitSet::new(n);
    let mut frontier: Vec<u32> = Vec::with_capacity(roots.len());
    for &r in roots {
        assert!(
            (r as usize) < n,
            "root vertex {r} out of range for a {n}-vertex graph"
        );
        if visited.insert(r as usize) {
            frontier.push(r);
        }
    }
    let mut next = Vec::new();
    for _ in 0..hops {
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if visited.insert(u as usize) {
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    let mut ball: Vec<u32> = visited.iter().map(|i| i as u32).collect();
    ball.sort_unstable();
    ball
}

/// Extract the induced subgraph of the L-hop ball around `roots` and
/// locate each root inside it.
///
/// Running an L-layer GCN forward on `sub.graph` (features gathered by
/// `sub.origin`) yields, at rows `root_locals`, exactly the values the
/// same forward would produce on the full graph — see the module docs.
/// No production caller — kept for the e2e ladder and as the equivalence
/// oracle.
///
/// # Panics
/// Panics if any root id is out of range for `g`.
pub fn l_hop_subgraph<T: Topology + ?Sized>(
    g: &T,
    roots: &[u32],
    hops: usize,
) -> NeighborhoodBatch {
    let ball = l_hop_ball(g, roots, hops);
    let sub = induced_subgraph(g, &ball);
    // `origin` is sorted ascending, so each root resolves by binary search.
    let root_locals: Vec<u32> = roots
        .iter()
        .map(|r| {
            sub.origin
                .binary_search(r)
                .expect("root must be in its own ball") as u32
        })
        .collect();
    // Root distances via BFS *inside* the ball: a shortest root path
    // only visits closer-to-root vertices, all of which are in the
    // ball, so these equal the full-graph distances.
    let dist = bfs_distances(&sub.graph, &root_locals);
    NeighborhoodBatch {
        sub,
        root_locals,
        dist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    /// Path 0-1-2-3-4 plus an isolated pair 5-6.
    fn path_graph() -> CsrGraph {
        from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
    }

    #[test]
    fn zero_hops_is_the_root_set() {
        let g = path_graph();
        let ball = l_hop_ball(&g, &[2, 4], 0);
        assert_eq!(ball, vec![2, 4]);
    }

    #[test]
    fn one_hop_adds_direct_neighbors() {
        let g = path_graph();
        assert_eq!(l_hop_ball(&g, &[2], 1), vec![1, 2, 3]);
        assert_eq!(l_hop_ball(&g, &[0], 1), vec![0, 1]);
    }

    #[test]
    fn two_hops_expand_transitively() {
        let g = path_graph();
        assert_eq!(l_hop_ball(&g, &[2], 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(l_hop_ball(&g, &[5], 2), vec![5, 6]);
    }

    #[test]
    fn ball_saturates_on_connected_component() {
        let g = path_graph();
        // Hops beyond the component diameter change nothing.
        assert_eq!(l_hop_ball(&g, &[0], 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_and_unsorted_roots() {
        let g = path_graph();
        let ball = l_hop_ball(&g, &[3, 1, 3], 1);
        assert_eq!(ball, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn subgraph_locates_roots_in_request_order() {
        let g = path_graph();
        let batch = l_hop_subgraph(&g, &[3, 1, 3], 1);
        assert_eq!(batch.sub.origin, vec![0, 1, 2, 3, 4]);
        assert_eq!(batch.root_locals, vec![3, 1, 3]);
        for (&local, &orig) in batch.root_locals.iter().zip(&[3u32, 1, 3]) {
            assert_eq!(batch.sub.to_original(local), orig);
        }
    }

    #[test]
    fn interior_vertices_keep_full_degree() {
        // Vertices whose whole neighborhood is inside the ball must keep
        // their full-graph degree (the D⁻¹ normalisation the exactness
        // argument rests on).
        let g = path_graph();
        let batch = l_hop_subgraph(&g, &[2], 2);
        // Local id of original 2.
        let local = batch.root_locals[0];
        assert_eq!(batch.sub.graph.degree(local), g.degree(2));
        // 1 and 3 are at distance 1 ≤ L-1: full degree too.
        for orig in [1u32, 3] {
            let l = batch.sub.origin.binary_search(&orig).unwrap() as u32;
            assert_eq!(batch.sub.graph.degree(l), g.degree(orig));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_root_panics() {
        let g = path_graph();
        l_hop_ball(&g, &[99], 1);
    }

    #[test]
    fn distances_match_hops_from_nearest_root() {
        let g = path_graph();
        let batch = l_hop_subgraph(&g, &[2], 2);
        // origin = [0,1,2,3,4]; distances from 2 along the path.
        assert_eq!(batch.dist, vec![2, 1, 0, 1, 2]);
        // Multi-root: nearest root wins.
        let batch = l_hop_subgraph(&g, &[0, 4], 2);
        assert_eq!(batch.sub.origin, vec![0, 1, 2, 3, 4]);
        assert_eq!(batch.dist, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn layer_graphs_prune_outward_rows_only() {
        let g = path_graph();
        let batch = l_hop_subgraph(&g, &[2], 2);
        let layers = batch.layer_graphs(2);
        assert_eq!(layers.len(), 2);
        // Layer 0 keeps adjacency for dist ≤ 1 (locals of 1, 2, 3);
        // boundary rows (0, 4) are isolated.
        let l0 = &layers[0];
        assert_eq!(l0.num_vertices(), 5);
        for v in 0..5u32 {
            let expect = if batch.dist[v as usize] <= 1 {
                batch.sub.graph.neighbors(v)
            } else {
                &[][..]
            };
            assert_eq!(l0.neighbors(v), expect, "layer 0 row {v}");
        }
        // Layer 1 (the last) keeps only the root row.
        let l1 = &layers[1];
        for v in 0..5u32 {
            let expect = if batch.dist[v as usize] == 0 {
                batch.sub.graph.neighbors(v)
            } else {
                &[][..]
            };
            assert_eq!(l1.neighbors(v), expect, "layer 1 row {v}");
        }
        // Kept rows retain their full degrees (the D⁻¹ exactness
        // condition).
        let root_local = batch.root_locals[0];
        assert_eq!(l1.degree(root_local), g.degree(2));
    }

    #[test]
    fn frontier_ball_roots_first_with_full_root_adjacency() {
        let g = path_graph();
        // Duplicated + unsorted roots: 3 appears twice, maps once.
        let fb = one_hop_frontier(&g, &[3, 1, 3]);
        assert_eq!(fb.num_roots, 2);
        assert_eq!(&fb.origin[..2], &[3, 1]);
        assert_eq!(fb.root_locals, vec![0, 1, 0]);
        // Ball = {3,1} ∪ N(3) ∪ N(1) = {0,1,2,3,4}.
        let mut all = fb.origin.clone();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // Root rows keep full degree; frontier rows are isolated.
        for k in 0..fb.num_roots as u32 {
            assert_eq!(fb.graph.degree(k), g.degree(fb.origin[k as usize]));
        }
        for k in fb.num_roots as u32..fb.origin.len() as u32 {
            assert_eq!(fb.graph.degree(k), 0, "frontier row {k} not isolated");
        }
        // Adjacency maps back to the original neighbor lists, in order.
        for k in 0..fb.num_roots as u32 {
            let mapped: Vec<u32> = fb
                .graph
                .neighbors(k)
                .iter()
                .map(|&l| fb.origin[l as usize])
                .collect();
            assert_eq!(mapped, g.neighbors(fb.origin[k as usize]));
        }
    }

    #[test]
    fn frontier_ball_of_whole_vertex_set_is_the_graph() {
        let g = path_graph();
        let all: Vec<u32> = (0..7).collect();
        let fb = one_hop_frontier(&g, &all);
        assert_eq!(fb.num_roots, 7);
        assert_eq!(fb.origin, all);
        assert_eq!(fb.root_locals, all);
        assert_eq!(fb.graph, g);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frontier_ball_rejects_out_of_range_roots() {
        let g = path_graph();
        one_hop_frontier(&g, &[0, 99]);
    }

    /// Star 0–{1..5} plus the path 5-6-7 and an isolated vertex 8.
    fn star_graph() -> CsrGraph {
        from_edges(9, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7)])
    }

    #[test]
    fn capped_frontier_cuts_before_the_root_that_overflows() {
        let g = path_graph();
        // Roots 0, 1, 2 grow the ball {0,1} → {0,1,2} → {0,1,2,3}: a cap
        // of 3 rows takes two roots and leaves the third for the next tile.
        let (fb, used) = FrontierScratch::new().capped(&g, &[0, 1, 2, 5], 3).unwrap();
        assert_eq!(used, 2);
        assert_eq!(fb, one_hop_frontier(&g, &[0, 1]));
        // The rolled-back root left nothing behind: the next tile starts
        // clean and is again a plain frontier ball of its prefix.
        let (fb, used) = FrontierScratch::new().capped(&g, &[2, 5], 3).unwrap();
        assert_eq!(used, 1);
        assert_eq!(fb, one_hop_frontier(&g, &[2]));
    }

    #[test]
    fn capped_frontier_always_takes_one_root() {
        let g = star_graph();
        // The hub's own frontier (6 rows) exceeds the cap: a one-root
        // tile larger than the cap, not an empty one.
        let (fb, used) = FrontierScratch::new().capped(&g, &[0, 6], 2).unwrap();
        assert_eq!((used, fb.num_roots, fb.origin.len()), (1, 1, 6));
        // A degree-0 root is a one-row tile.
        let (fb, used) = FrontierScratch::new().capped(&g, &[8], 1).unwrap();
        assert_eq!((used, fb.origin.as_slice()), (1, &[8u32][..]));
        assert_eq!(fb.graph.num_edges(), 0);
    }

    #[test]
    fn capped_frontier_consumes_duplicates_and_promotes_frontier_roots() {
        let g = star_graph();
        // 5 is first seen as a neighbor of 0, then becomes a root; the
        // duplicate 0 costs no rows. Ball = {0..=6}: exactly the cap.
        let (fb, used) = FrontierScratch::new().capped(&g, &[0, 5, 0, 7], 7).unwrap();
        assert_eq!(used, 3);
        assert_eq!(fb.num_roots, 2);
        assert_eq!(&fb.origin[..2], &[0, 5]);
        assert_eq!(fb.root_locals, vec![0, 1, 0]);
        assert_eq!(fb, one_hop_frontier(&g, &[0, 5, 0]));
        // An uncapped call is the plain frontier ball of every root.
        let (all, used) = FrontierScratch::new()
            .capped(&g, &[0, 5, 0, 7], usize::MAX)
            .unwrap();
        assert_eq!(used, 4);
        assert_eq!(all, one_hop_frontier(&g, &[0, 5, 0, 7]));
    }

    #[test]
    fn a_scratch_recovers_from_a_panicked_cut() {
        let g = star_graph();
        let mut scratch = FrontierScratch::new();
        // Root 0 interns its whole star before the bad root panics.
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scratch.one_hop(&g, &[0, 99]).unwrap();
        }));
        assert!(bad.is_err());
        assert_eq!(
            scratch.one_hop(&g, &[6, 0]).unwrap(),
            one_hop_frontier(&g, &[6, 0])
        );
    }

    #[test]
    fn layer_graphs_for_whole_set_batch_are_unpruned() {
        let g = path_graph();
        let batch = l_hop_subgraph(&g, &[0, 1, 2, 3, 4, 5, 6], 2);
        for lg in batch.layer_graphs(2) {
            assert_eq!(lg, batch.sub.graph);
        }
    }
}
