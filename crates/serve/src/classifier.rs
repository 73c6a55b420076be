//! The immutable serving artifact: one trained model + one graph +
//! features, shared by every worker thread, queried over node batches.
//!
//! A query for K nodes does **not** run the full-graph forward, and it
//! never materialises the K-rooted L-hop ball either: it runs the
//! layer-at-a-time level recursion of `gsgcn_nn`
//! (`GcnModel::infer_hidden_by_level`) — layer `ℓ` only on the rows
//! within `L-ℓ` hops of the roots, every feature row gathered once — the
//! inference-side counterpart of the paper's work-efficient layer
//! propagation. Each computed row is the same float operations in the
//! same order as in the full-graph forward, so the values read off at the
//! roots are bit-identical to it.
//!
//! On a `mem` store (a deeper-than-one model with a fused f32 layer 1)
//! layer 1 reads the store's resident graph and feature matrix in place:
//! a cold request cuts no level-1 tile and gathers no feature row
//! (`LevelStats::rows_gathered` is 0). A bf16 or unfused layer 1 and every
//! mmap store without `Â·X` still gather the level-0 ball.
//!
//! # One path, at whatever hit rate the cache gives
//!
//! Every classification is: extract the roots' closed 1-hop
//! [`FrontierBall`](gsgcn_graph::FrontierBall), make `acts^{L-1}` present
//! on its rows, then run the last GCN layer fused over the ball followed
//! by a root-row-limited classifier head (frontier rows never reach the
//! dense GEMM). The middle step is a row-granular probe of the
//! [`ActivationCache`] followed by the level recursion **on the rows the
//! probe did not find**; those rows are inserted under their store ids on
//! the way out. There is no cold and no warm branch, only three shapes of
//! the same buffer traffic:
//!
//! * *everything resident* — the probe filled the buffer the final hop
//!   reads; the recursion is not entered. A depth-L query costs ~1 hop.
//! * *nothing resident* (no cache attached, a 1-layer model — whose
//!   `acts^{L-1}` is the feature matrix, level 0 of the recursion — or a
//!   cold ball) — the recursion writes the ball's rows directly into that
//!   buffer; no row is copied.
//! * *partial hit* — the missing rows are computed compactly and those
//!   rows alone are copied into place, so the cost follows the miss count.
//!
//! With f32 cache rows all three produce bit-identical root rows (a cached
//! row *is* a recursion output); bf16 cache rows add one rounding per
//! cached element, inside the serving tolerance band. Pinned by
//! `tests/cache_equivalence.rs` and, as exact row counts,
//! `tests/cold_work_bounds.rs`.

use crate::cache::ActivationCache;
use gsgcn_graph::{CsrGraph, GraphStore, Topology};
use gsgcn_nn::model::{GcnModel, LevelStats, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_tensor::DMatrix;
use std::sync::Arc;

/// Per-node classification result.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// The queried node (original graph id).
    pub node: u32,
    /// Decided labels: the argmax class for single-label (softmax)
    /// models, every class with probability ≥ 0.5 for multi-label
    /// (sigmoid) models — possibly empty then.
    pub labels: Vec<u32>,
    /// Full class-probability row for the node.
    pub probs: Vec<f32>,
}

impl Prediction {
    /// Decided labels joined with commas, `-` when empty — the single
    /// presentation shared by the TCP protocol and the `predict` CLI.
    pub fn labels_display(&self) -> String {
        if self.labels.is_empty() {
            "-".to_string()
        } else {
            self.labels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
    }

    /// The highest class probability of the row.
    pub fn max_prob(&self) -> f32 {
        self.probs.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }
}

/// Reusable per-thread scratch for [`NodeClassifier::classify_into`]:
/// the inference workspace plus the hidden-row / probability buffers.
/// Calls with bounded batch sizes allocate no matrices once warm.
#[derive(Debug)]
pub struct ClassifyWorkspace {
    infer: InferenceWorkspace,
    /// `acts^{L-1}` on the current frontier ball — the buffer the final
    /// hop reads, filled by the cache probe and / or the level recursion.
    hidden: DMatrix,
    /// Partial hits only: the missing rows, computed compactly before
    /// they are copied into `hidden`.
    computed: DMatrix,
    probs: DMatrix,
    level_stats: Option<LevelStats>,
}

impl Default for ClassifyWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassifyWorkspace {
    /// Fresh (empty) scratch; buffers grow on first use.
    pub fn new() -> Self {
        ClassifyWorkspace {
            infer: InferenceWorkspace::new(),
            hidden: DMatrix::zeros(0, 0),
            computed: DMatrix::zeros(0, 0),
            probs: DMatrix::zeros(0, 0),
            level_stats: None,
        }
    }

    /// Work counts of the level recursion in the last
    /// [`NodeClassifier::classify_into`] through this workspace; `None`
    /// when that call never entered it (every frontier row was cached).
    pub fn last_level_stats(&self) -> Option<&LevelStats> {
        self.level_stats.as_ref()
    }
}

/// The engine-facing batch-classification interface.
///
/// [`NodeClassifier`] is the production implementation; the engine is
/// generic over this trait (the PR-4 `GraphSampler` idiom) so tests can
/// substitute failure-injecting stubs.
pub trait BatchClassify: Send + Sync + 'static {
    /// Classify `nodes`, appending one [`Prediction`] per requested node
    /// in request order to `out`.
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String>;

    /// Number of servable vertices (valid ids are `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Check every node is servable — called by the engine *before*
    /// queueing, so one bad request never poisons the unrelated
    /// requests it would have been coalesced with. The default checks
    /// the id range; [`NodeClassifier`] overrides with shard-aware
    /// validation (a node whose shard is not loaded is rejected with a
    /// message naming the shard).
    fn validate_nodes(&self, nodes: &[u32]) -> Result<(), String> {
        let n = self.num_nodes() as u32;
        match nodes.iter().find(|&&v| v >= n) {
            Some(&bad) => Err(format!("node {bad} out of range (graph has {n} vertices)")),
            None => Ok(()),
        }
    }
}

/// One trained model plus the graph it serves, immutable and `Sync`:
/// clone the `Arc`s in, share the classifier across worker threads.
///
/// Topology and feature rows are read through a [`GraphStore`], so the
/// same classifier serves a fully resident graph (`mem` backend) or a
/// sharded on-disk one (`mmap` backend) whose working set is bounded by
/// the shard-cache budget.
pub struct NodeClassifier {
    model: Arc<GcnModel>,
    store: Arc<GraphStore>,
    /// Shared `(node, version)` → `acts^{L-1}` row cache; `None` computes
    /// every frontier row of every query. Single-layer models never
    /// attach one — their "hidden" state is the feature matrix, already
    /// resident.
    cache: Option<Arc<ActivationCache>>,
}

impl NodeClassifier {
    /// Assemble a classifier over a resident graph ([`GraphStore::mem`]),
    /// with no activation cache (attach one with
    /// [`NodeClassifier::with_cache`]). Fails if the feature matrix does
    /// not match the graph or the model's input width.
    pub fn new(
        model: Arc<GcnModel>,
        graph: Arc<CsrGraph>,
        features: Arc<DMatrix>,
    ) -> Result<Self, String> {
        if features.rows() != graph.num_vertices() {
            return Err(format!(
                "features have {} rows but the graph has {} vertices",
                features.rows(),
                graph.num_vertices()
            ));
        }
        let store = GraphStore::mem(graph, Some(features), None);
        Self::from_store(model, Arc::new(store))
    }

    /// Assemble a classifier over an existing [`GraphStore`] (e.g. a
    /// pre-sharded on-disk graph opened with
    /// `GraphStore::open_with_budget`), with no activation cache. Fails
    /// if the store has no feature matrix or its width does not match the
    /// model's input.
    pub fn from_store(model: Arc<GcnModel>, store: Arc<GraphStore>) -> Result<Self, String> {
        if store.feature_dim() == 0 {
            return Err("graph store holds no feature matrix".into());
        }
        if store.feature_dim() != model.config().in_dim {
            return Err(format!(
                "features are {}-dimensional but the model expects {}",
                store.feature_dim(),
                model.config().in_dim
            ));
        }
        Ok(NodeClassifier {
            model,
            store,
            cache: None,
        })
    }

    /// Replace the activation cache (`None` disables caching). A
    /// single-layer model stays uncached whatever is passed — its final
    /// hop already reads the feature matrix directly, so there are no
    /// hidden rows to cache — and [`Self::cache`] then returns `None`;
    /// nothing is printed, a caller that wants to warn checks
    /// [`Self::hops`].
    pub fn with_cache(mut self, cache: Option<Arc<ActivationCache>>) -> Self {
        self.cache = cache.filter(|_| self.model.num_layers() >= 2);
        self
    }

    /// The attached activation cache, if any.
    pub fn cache(&self) -> Option<&Arc<ActivationCache>> {
        self.cache.as_ref()
    }

    /// Number of vertices servable (valid node ids are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.store.num_vertices()
    }

    /// The graph store backing this classifier.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.store
    }

    /// Check every requested node is servable. Distinguishes ids beyond
    /// the graph from ids whose **shard is not loaded** (a partial
    /// store deployment): either way the request fails cleanly with a
    /// per-node message instead of poisoning a coalesced batch.
    pub fn validate_nodes(&self, nodes: &[u32]) -> Result<(), String> {
        let n = self.store.num_vertices() as u32;
        for &v in nodes {
            if v >= n {
                return Err(format!("node {v} out of range (graph has {n} vertices)"));
            }
            if !self.store.contains(v) {
                let shard = self
                    .store
                    .shard_of(v)
                    .map(|s| format!(" (shard {s})"))
                    .unwrap_or_default();
                return Err(format!(
                    "node {v} is not servable: its shard{shard} is not loaded in this store"
                ));
            }
        }
        Ok(())
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.model.config().num_classes
    }

    /// The neighborhood depth a query depends on (= model layer count).
    pub fn hops(&self) -> usize {
        self.model.num_layers()
    }

    /// Classify a batch of nodes, appending one [`Prediction`] per
    /// requested node (request order, duplicates included) to `out`.
    /// Fails — rather than panics — on out-of-range ids, so
    /// network-facing callers can reject bad requests cheaply, and on a
    /// shard the store cannot read (its topology or its rows).
    ///
    /// See the module docs: `acts^{L-1}` on the roots' 1-hop frontier
    /// ball comes from the activation cache where it is resident and from
    /// the level recursion where it is not (those rows are then cached).
    pub fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        if nodes.is_empty() {
            return Ok(());
        }
        self.validate_nodes(nodes)?;
        let fb = ws
            .infer
            .frontier()
            .one_hop(&*self.store, nodes)
            .map_err(|e| format!("topology read from graph store failed: {e}"))?;
        // Positions in `fb.origin` whose row the cache did not supply.
        let missing = match &self.cache {
            Some(cache) => cache.probe_rows(&fb.origin, self.model.hidden_width(), &mut ws.hidden),
            None => Vec::new(),
        };
        ws.level_stats = if self.cache.is_none() || missing.len() == fb.origin.len() {
            // Nothing resident: the recursion fills the final hop's buffer.
            Some(self.compute_hidden(&fb.origin, &mut ws.infer, &mut ws.hidden)?)
        } else if missing.is_empty() {
            None
        } else {
            // Partial hit: the missing rows are computed compactly and
            // only they move.
            let targets: Vec<u32> = missing.iter().map(|&i| fb.origin[i as usize]).collect();
            let stats = self.compute_hidden(&targets, &mut ws.infer, &mut ws.computed)?;
            for (k, &i) in missing.iter().enumerate() {
                ws.hidden
                    .row_mut(i as usize)
                    .copy_from_slice(ws.computed.row(k));
            }
            Some(stats)
        };
        self.model.infer_probs_final_hop_into(
            &fb.graph,
            &ws.hidden,
            fb.num_roots,
            &mut ws.infer,
            &mut ws.probs,
        );
        self.emit(nodes, &fb.root_locals, ws, out);
        Ok(())
    }

    /// `acts^{L-1}` on `ids` (distinct) into `rows` through the level
    /// recursion, inserted into the cache on the way out.
    fn compute_hidden(
        &self,
        ids: &[u32],
        infer: &mut InferenceWorkspace,
        rows: &mut DMatrix,
    ) -> Result<LevelStats, String> {
        let stats = self
            .model
            .infer_hidden_by_level(&self.store, ids, infer, rows)
            .map_err(|e| format!("feature read from graph store failed: {e}"))?;
        if let Some(cache) = &self.cache {
            cache.insert_rows(ids, rows);
        }
        Ok(stats)
    }

    /// Append one prediction per requested node, reading probability
    /// row `root_locals[i]` for request `i`.
    fn emit(
        &self,
        nodes: &[u32],
        root_locals: &[u32],
        ws: &ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) {
        let single = self.model.config().loss == LossKind::SoftmaxCe;
        out.reserve(nodes.len());
        for (&node, &local) in nodes.iter().zip(root_locals) {
            let row = ws.probs.row(local as usize);
            out.push(Prediction {
                node,
                // The exact decision rule the trainer's F1 evaluation
                // uses — serving must never diverge from it.
                labels: gsgcn_metrics::f1::decide_labels(row, single),
                probs: row.to_vec(),
            });
        }
    }

    /// Allocating convenience wrapper around
    /// [`NodeClassifier::classify_into`].
    pub fn classify(&self, nodes: &[u32]) -> Result<Vec<Prediction>, String> {
        let mut out = Vec::new();
        self.classify_into(nodes, &mut ClassifyWorkspace::new(), &mut out)?;
        Ok(out)
    }

    /// Probabilities from a full-graph forward (every vertex) — the
    /// reference the batched path is tested and benchmarked against.
    /// Materialises the store (cheap `Arc` clones on the `mem` backend;
    /// a full read on `mmap` — reference/diagnostic use only there).
    pub fn full_graph_probs(&self) -> DMatrix {
        let (graph, features, _) = self
            .store
            .materialize()
            .expect("graph store materialize failed");
        let features = features.expect("classifier store always holds features");
        self.model.infer_probs(&graph, &features)
    }

    /// In-place variant of [`NodeClassifier::full_graph_probs`] for
    /// benchmark loops.
    pub fn full_graph_probs_into(&self, ws: &mut ClassifyWorkspace) {
        let (graph, features, _) = self
            .store
            .materialize()
            .expect("graph store materialize failed");
        let features = features.expect("classifier store always holds features");
        self.model
            .infer_probs_into(&graph, &features, &mut ws.infer, &mut ws.probs);
    }
}

impl BatchClassify for NodeClassifier {
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        NodeClassifier::classify_into(self, nodes, ws, out)
    }

    fn num_nodes(&self) -> usize {
        NodeClassifier::num_nodes(self)
    }

    fn validate_nodes(&self, nodes: &[u32]) -> Result<(), String> {
        NodeClassifier::validate_nodes(self, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::GraphBuilder;
    use gsgcn_nn::model::GcnConfig;

    fn fixture_parts(loss: LossKind) -> (Arc<GcnModel>, Arc<CsrGraph>, Arc<DMatrix>) {
        fixture_parts_depth(loss, 2)
    }

    fn fixture_parts_depth(
        loss: LossKind,
        depth: usize,
    ) -> (Arc<GcnModel>, Arc<CsrGraph>, Arc<DMatrix>) {
        // Ring of 12 with chords.
        let n = 12;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| (i, (i + 1) % n as u32))
            .chain((0..n as u32 / 2).map(|i| (i, i + n as u32 / 2)))
            .collect();
        let g = GraphBuilder::new(n).add_edges(edges).build();
        let x = DMatrix::from_fn(n, 5, |i, j| ((i * 3 + j) % 7) as f32 * 0.2 - 0.5);
        let cfg = GcnConfig {
            in_dim: 5,
            hidden_dims: vec![8; depth],
            num_classes: 3,
            loss,
            ..GcnConfig::default()
        };
        let model = GcnModel::new(cfg, 17);
        (Arc::new(model), Arc::new(g), Arc::new(x))
    }

    fn fixture(loss: LossKind) -> NodeClassifier {
        let (model, g, x) = fixture_parts(loss);
        NodeClassifier::new(model, g, x).unwrap()
    }

    #[test]
    fn batched_matches_full_graph_forward() {
        for loss in [LossKind::SoftmaxCe, LossKind::SigmoidBce] {
            let c = fixture(loss);
            let full = c.full_graph_probs();
            let preds = c.classify(&[3, 7, 7, 0]).unwrap();
            assert_eq!(preds.len(), 4);
            for p in &preds {
                let want = full.row(p.node as usize);
                for (a, b) in p.probs.iter().zip(want) {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "node {}: batched {a} vs full {b}",
                        p.node
                    );
                }
            }
        }
    }

    #[test]
    fn whole_node_set_is_bit_identical() {
        let c = fixture(LossKind::SoftmaxCe);
        let full = c.full_graph_probs();
        let all: Vec<u32> = (0..c.num_nodes() as u32).collect();
        let preds = c.classify(&all).unwrap();
        for p in &preds {
            assert_eq!(
                p.probs.as_slice(),
                full.row(p.node as usize),
                "node {} diverged on the identity batch",
                p.node
            );
        }
    }

    #[test]
    fn single_label_decision_is_argmax() {
        let c = fixture(LossKind::SoftmaxCe);
        let preds = c.classify(&[2]).unwrap();
        let p = &preds[0];
        assert_eq!(p.labels.len(), 1);
        let best = p
            .probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0 as u32;
        assert_eq!(p.labels[0], best);
    }

    #[test]
    fn out_of_range_node_is_an_error() {
        let c = fixture(LossKind::SoftmaxCe);
        let err = c.classify(&[0, 99]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// A cold batch whose roots' topology section cannot be mapped fails
    /// with an error, not a panic, and so does the next one on the same
    /// workspace.
    #[test]
    fn unreadable_topology_fails_the_batch() {
        use gsgcn_graph::store::shard::shard_file_name;
        use gsgcn_graph::StoreOrder;
        let (model, g, x) = fixture_parts(LossKind::SoftmaxCe);
        let store = GraphStore::spill_to_temp(&g, Some(&x), None, StoreOrder::Natural, 1 << 20);
        let store = Arc::new(store.unwrap());
        let c = NodeClassifier::from_store(model, Arc::clone(&store)).unwrap();
        let m = store.as_mmap().unwrap();
        let shard = m.dir().join(shard_file_name(m.shard_of(3) as usize));
        let len = std::fs::metadata(&shard).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&shard)
            .unwrap();
        file.set_len(len - 8).unwrap();
        let mut ws = ClassifyWorkspace::new();
        for _ in 0..2 {
            let err = c.classify_into(&[3], &mut ws, &mut Vec::new()).unwrap_err();
            assert!(
                err.contains("topology read") && err.contains("truncated"),
                "{err}"
            );
        }
    }

    #[test]
    fn mismatched_features_rejected() {
        let (model, g, _) = fixture_parts(LossKind::SoftmaxCe);
        let bad = DMatrix::zeros(5, 5);
        assert!(NodeClassifier::new(model, g, Arc::new(bad)).is_err());
    }

    /// Once the workspace is warm a repeated batch allocates no matrix —
    /// at whatever hit rate: a roomy cache (all resident from the second
    /// call on), no cache at depth 2 and 3 (the whole level recursion
    /// every call), and a depth-1 model.
    #[test]
    fn warm_classify_is_allocation_free() {
        let uncached = |depth| {
            let (model, g, x) = fixture_parts_depth(LossKind::SoftmaxCe, depth);
            NodeClassifier::new(model, g, x).unwrap()
        };
        let cached =
            fixture(LossKind::SoftmaxCe).with_cache(Some(Arc::new(ActivationCache::new(64 << 20))));
        let cases = [
            ("roomy cache", cached),
            ("no cache, depth 2", uncached(2)),
            ("no cache, depth 3", uncached(3)),
            ("depth 1", uncached(1)),
        ];
        for (what, c) in cases {
            let mut ws = ClassifyWorkspace::new();
            let mut out = Vec::new();
            c.classify_into(&[1, 5, 9], &mut ws, &mut out).unwrap();
            // The matrix side must be quiet once warm (Vec growth in the
            // response payload is expected and cheap).
            let before = gsgcn_tensor::alloc::matrix_allocations();
            for _ in 0..5 {
                out.clear();
                c.classify_into(&[1, 5, 9], &mut ws, &mut out).unwrap();
            }
            let steady = gsgcn_tensor::alloc::matrix_allocations() - before;
            assert_eq!(
                steady, 0,
                "{what}: classify allocated {steady} matrices when warm"
            );
        }
    }
}
