//! The end-to-end L-layer GCN model (Algorithm 1, lines 5–13).
//!
//! A [`GcnModel`] owns the GCN layers, the dense classifier head and the
//! Adam state, and runs one complete training step on *any* graph it is
//! handed — a sampled subgraph during training (the paper's design) or the
//! full graph for inference. Keeping the model graph-agnostic is exactly
//! what makes graph-sampling GCN work: "we first sample a small induced
//! subgraph and then construct a complete GCN on it" (Sec. III-A).

use crate::adam::AdamHyper;
use crate::dense::DenseLayer;
use crate::gcn_layer::{with_bf16_rows, GcnLayer, KernelTimings};
use crate::loss;
use crate::workspace::InferenceWorkspace;
use gsgcn_graph::{CsrGraph, FrontierBall, FrontierScratch, GraphStore};
use gsgcn_prop::fused::{AggregatedRows, KeptRows};
use gsgcn_prop::propagator::FeaturePropagator;
use gsgcn_tensor::{ops, precision, Bf16, DMatrix, MatMut, Precision};
use std::io;
use std::time::Instant;

/// Which loss (and implied output activation) the task uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// Multi-label: sigmoid + binary cross-entropy (PPI, Yelp, Amazon).
    SigmoidBce,
    /// Single-label: softmax + cross-entropy (Reddit).
    SoftmaxCe,
}

/// Model architecture + optimisation configuration.
#[derive(Clone, Debug)]
pub struct GcnConfig {
    /// Input feature width `f^{(0)}` (the dataset's attribute size).
    pub in_dim: usize,
    /// Output width of each hidden GCN layer (must be even — it is the
    /// concat of the neighbor and self halves). Length = `L`.
    pub hidden_dims: Vec<usize>,
    /// Number of target classes.
    pub num_classes: usize,
    /// Loss/activation pairing.
    pub loss: LossKind,
    /// Adam hyperparameters.
    pub adam: AdamHyper,
    /// Dropout probability on layer inputs (0 disables).
    pub dropout: f32,
    /// Run GCN layers on the fused aggregate→GEMM pipeline (default).
    /// `false` selects the unfused aggregate-then-GEMM reference path,
    /// kept for equivalence tests and benches.
    pub fused: bool,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig {
            in_dim: 0,
            hidden_dims: vec![256, 256],
            num_classes: 2,
            loss: LossKind::SigmoidBce,
            adam: AdamHyper::default(),
            dropout: 0.0,
            fused: true,
        }
    }
}

impl GcnConfig {
    /// Validate dimensions; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.in_dim == 0 {
            return Err("in_dim must be > 0".into());
        }
        if self.hidden_dims.is_empty() {
            return Err("at least one GCN layer is required".into());
        }
        if let Some(d) = self.hidden_dims.iter().find(|&&d| d == 0 || d % 2 != 0) {
            return Err(format!(
                "hidden dims must be positive and even (concat halves); got {d}"
            ));
        }
        if self.num_classes == 0 {
            return Err("num_classes must be > 0".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout must be in [0,1); got {}", self.dropout));
        }
        Ok(())
    }
}

/// Result of one training step.
#[derive(Clone, Copy, Debug)]
pub struct StepResult {
    /// Mini-batch loss value.
    pub loss: f32,
    /// Kernel timing split of this step (forward + backward).
    pub timings: KernelTimings,
}

/// Work and time of one sweep of the level recursion
/// ([`GcnModel::infer_probs_by_level`] / [`GcnModel::infer_hidden_by_level`]).
/// Index `ℓ-1` of the per-layer vectors is GCN layer `ℓ`. The counts are exact
/// and repeat across runs; when every level's needed set fits the row cap
/// they are the work-efficient minimum — `rows_computed[ℓ-1] =
/// |N_{L-ℓ}[roots]|` and `rows_gathered = |N_L[roots]|`, each (vertex,
/// layer) pair computed once. On a store that holds `Â·X` (and a fused
/// f32 layer 1) layer 1 cuts no tile and reads two rows per vertex it
/// computes: `tiles[0] = 0` and `rows_gathered = agg_rows_gathered =
/// rows_computed[0]`. Where layer 1 reads a resident `X` in place
/// ([`LevelSource::Resident`]) it cuts no tile and gathers nothing:
/// `tiles[0] = 0` and `rows_gathered = 0`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Frontier tiles cut per layer.
    pub tiles: Vec<usize>,
    /// Output rows computed per layer.
    pub rows_computed: Vec<usize>,
    /// Feature rows gathered from the source: the level-0 ball, or one
    /// row per layer-1 row on the stored-`Â·X` path; 0 when layer 1 reads
    /// a resident `X` in place.
    pub rows_gathered: usize,
    /// Rows of `Â·X` read from the store's `agg` section: one per layer-1
    /// row computed when layer 1 runs from the stored aggregate, 0 when
    /// it aggregates (a resident source, a store without the section, a
    /// bf16 or unfused layer 1, a depth-1 model).
    pub agg_rows_gathered: usize,
    /// Rows of the input aggregate `Â·X` computed and kept for this sweep
    /// ([`InputAggregate::kept_rows`]): all of them on the resident
    /// evaluation that fills a trainer's cache, 0 on every later one.
    pub input_rows_aggregated: usize,
    /// Seconds ordering targets and extracting frontier tiles.
    pub frontier_secs: f64,
    /// Seconds gathering feature rows.
    pub gather_secs: f64,
    /// Seconds in the GCN layers, the head and the output activation
    /// (with a resident evaluation's `Â·X` fill, which is layer-1 work).
    pub infer_secs: f64,
    /// Seconds in the level recursion's sink (a stored evaluation's label
    /// gather and F1 scoring).
    pub score_secs: f64,
    /// Seconds a stored evaluation spent taking and handing back its turn
    /// at the store: pausing the sampler's gathers and releasing the
    /// training and full stores' rows (0 elsewhere).
    pub turn_secs: f64,
}

impl LevelStats {
    /// No work yet, over `layers` GCN layers.
    pub fn zero(layers: usize) -> Self {
        LevelStats {
            tiles: vec![0; layers],
            rows_computed: vec![0; layers],
            ..LevelStats::default()
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "tiles/layer {:?}, rows computed/layer {:?}, {} feature rows gathered, \
             {} agg rows gathered, {} input rows aggregated, frontier {:.3}s gather {:.3}s \
             infer {:.3}s score {:.3}s turn {:.3}s",
            self.tiles,
            self.rows_computed,
            self.rows_gathered,
            self.agg_rows_gathered,
            self.input_rows_aggregated,
            self.frontier_secs,
            self.gather_secs,
            self.infer_secs,
            self.score_secs,
            self.turn_secs
        )
    }
}

/// Layer-1 rows one step of the stored-aggregate path computes
/// ([`GcnModel::fill_level`] on a store with `Â·X`): it gathers this many
/// targets' `Â·X` and `X` rows (2 × 1.2 MB at 300 features) and runs both
/// GEMMs on them, so layer 1's input never exists for the whole level.
const AGG_BLOCK_ROWS: usize = 1024;

/// Where the level recursion reads the graph and layer 1's input.
#[derive(Clone, Copy, Debug)]
pub enum LevelSource<'a> {
    /// A store, read through its topology and row gathers.
    Store(&'a GraphStore),
    /// A borrowed resident graph and its features, which layer 1 reads in
    /// place: with `input` ([`GcnModel::aggregate_input`] of these, in
    /// the model's current precision) at any layer 1, without it only
    /// under a fused f32 one (any other would round all of `X` per call).
    Resident {
        graph: &'a CsrGraph,
        features: &'a DMatrix,
        input: Option<&'a InputAggregate>,
    },
}

/// A mem store that holds features is read as [`LevelSource::Resident`]
/// (without `Â·X`); every other store as [`LevelSource::Store`].
impl<'a> From<&'a GraphStore> for LevelSource<'a> {
    fn from(store: &'a GraphStore) -> Self {
        match store.as_mem().map(|m| (m.graph(), m.features())) {
            Some((graph, Some(features))) => LevelSource::Resident {
                graph,
                features,
                input: None,
            },
            _ => LevelSource::Store(store),
        }
    }
}

impl LevelSource<'_> {
    /// The placement id roots are ordered by.
    fn to_internal(self, v: u32) -> u32 {
        match self {
            LevelSource::Store(store) => store.to_internal(v),
            LevelSource::Resident { .. } => v,
        }
    }

    /// The next tile off the front of `targets` ([`FrontierScratch::capped`]).
    fn cut(
        self,
        frontier: &mut FrontierScratch,
        targets: &[u32],
        max_rows: usize,
    ) -> io::Result<(FrontierBall, usize)> {
        match self {
            LevelSource::Store(store) => frontier.capped(store, targets, max_rows),
            LevelSource::Resident { graph, .. } => frontier.capped(graph, targets, max_rows),
        }
    }

    /// The feature rows of `targets` into `out`, rows aligned.
    fn gather_features_into(self, targets: &[u32], out: &mut DMatrix) -> io::Result<()> {
        match self {
            LevelSource::Store(store) => store.par_gather_features_into(targets, out),
            LevelSource::Resident { features, .. } => {
                features.gather_rows_into(targets, out);
                Ok(())
            }
        }
    }
}

/// What one sweep of the level recursion threads through every step.
struct Sweep<'a> {
    source: LevelSource<'a>,
    /// Row cap of a frontier tile.
    max_rows: usize,
    /// The unfused layers' aggregate scratch, and the block's `Â·X` rows
    /// on the stored-aggregate path.
    agg: &'a mut DMatrix,
    frontier: &'a mut FrontierScratch,
    stats: LevelStats,
}

impl<'a> Sweep<'a> {
    /// A sweep that runs GCN layers `1..=layers`.
    fn new(
        source: LevelSource<'a>,
        max_rows: usize,
        agg: &'a mut DMatrix,
        frontier: &'a mut FrontierScratch,
        layers: usize,
    ) -> Self {
        Sweep {
            source,
            max_rows,
            agg,
            frontier,
            stats: LevelStats::zero(layers),
        }
    }
}

/// Kept rows of `Â·X`, layer 1's neighbor aggregate of one graph and
/// feature matrix ([`GcnModel::aggregate_input`]), stored in the element
/// layer 1 packs its input in ([`GcnModel::input_precision`]) — f32, or
/// under bf16 the values the fused pack rounds to. `Â·X` depends on the
/// graph and the features only, never on the weights, so a caller that
/// scores the same graph again and again computes these rows once and
/// every later sweep over a [`LevelSource::Resident`] holding them packs
/// them into layer 1's neighbor GEMM instead of re-gathering their
/// neighbors' feature rows.
#[derive(Clone, Debug)]
pub struct InputAggregate {
    data: AggregateData,
}

#[derive(Clone, Debug)]
enum AggregateData {
    F32(KeptRows<f32>),
    Bf16(KeptRows<Bf16>),
}

impl InputAggregate {
    /// Number of vertices whose row is kept.
    pub fn kept_rows(&self) -> usize {
        match &self.data {
            AggregateData::F32(k) => k.len(),
            AggregateData::Bf16(k) => k.len(),
        }
    }
}

/// The L-layer GCN plus classifier head.
///
/// The model owns the training workspace: per-layer activation buffers,
/// the gradient ping-pong pair, the logits/`dLogits` buffers and the
/// dropout masks all persist across [`GcnModel::train_step`] calls.
/// Sampled-subgraph shapes are bounded by the pool's largest subgraph, so
/// after warm-up every step runs with **zero matrix allocations** (pinned
/// by the allocation-regression test in `tests/alloc_regression.rs`).
pub struct GcnModel {
    layers: Vec<GcnLayer>,
    head: DenseLayer,
    cfg: GcnConfig,
    prop: FeaturePropagator,
    /// Adam step counter (shared by all parameters).
    t: u64,
    /// RNG stream counter for dropout masks.
    dropout_stream: u64,
    /// `acts[0]` = dropout-masked input copy (unused without dropout,
    /// when layer 1 reads the features directly); `acts[i+1]` = layer `i`
    /// output. Length `L + 1`.
    acts: Vec<DMatrix>,
    /// Classifier logits.
    logits: DMatrix,
    /// Gradient ping-pong buffers for the backward sweep.
    d_cur: DMatrix,
    d_next: DMatrix,
    /// Per-layer dropout masks (empty when dropout is disabled).
    masks: Vec<Vec<bool>>,
}

impl GcnModel {
    /// Build a model from `cfg` with Xavier-initialised weights.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`GcnConfig::validate`]).
    pub fn new(cfg: GcnConfig, seed: u64) -> Self {
        Self::with_propagator(cfg, seed, FeaturePropagator::default())
    }

    /// Build with an explicit propagation kernel (used by benches to
    /// compare `PropMode`s inside full training). The layers start in
    /// [`precision::pinned`] — f32 unless the `e2e` benchmark harness,
    /// its one setter, pinned another; [`Self::set_precision`] changes it.
    pub fn with_propagator(cfg: GcnConfig, seed: u64, prop: FeaturePropagator) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid GcnConfig: {e}");
        }
        let mut layers = Vec::with_capacity(cfg.hidden_dims.len());
        let mut in_dim = cfg.in_dim;
        for (i, &h) in cfg.hidden_dims.iter().enumerate() {
            layers.push(
                GcnLayer::new(in_dim, h / 2, true, seed ^ ((i as u64 + 1) * 0x9E37))
                    .with_fused(cfg.fused)
                    .with_precision(precision::pinned()),
            );
            in_dim = h;
        }
        let head = DenseLayer::new(in_dim, cfg.num_classes, seed ^ 0xDEAD_4EAD);
        let num_layers = layers.len();
        GcnModel {
            layers,
            head,
            cfg,
            prop,
            t: 0,
            dropout_stream: seed,
            acts: (0..=num_layers).map(|_| DMatrix::zeros(0, 0)).collect(),
            logits: DMatrix::zeros(0, 0),
            d_cur: DMatrix::zeros(0, 0),
            d_next: DMatrix::zeros(0, 0),
            masks: vec![Vec::new(); num_layers],
        }
    }

    /// Number of GCN layers `L`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum::<usize>() + self.head.num_params()
    }

    /// The model configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.cfg
    }

    /// The precision the GCN layers store activations in (the unfused
    /// reference stores f32 whatever it is set to).
    pub fn precision(&self) -> Precision {
        self.layers[0].precision
    }

    /// Store activations in `precision` from the next forward on.
    pub fn set_precision(&mut self, precision: Precision) {
        for layer in &mut self.layers {
            layer.precision = precision;
        }
    }

    /// Adam steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Read access to the GCN layers (checkpointing).
    pub(crate) fn layers_ref(&self) -> &[GcnLayer] {
        &self.layers
    }

    /// Mutable access to the GCN layers (checkpointing).
    pub(crate) fn layers_mut(&mut self) -> &mut [GcnLayer] {
        &mut self.layers
    }

    /// Read access to the classifier head (checkpointing).
    pub(crate) fn head_ref(&self) -> &DenseLayer {
        &self.head
    }

    /// Mutable access to the classifier head (checkpointing).
    pub(crate) fn head_mut(&mut self) -> &mut DenseLayer {
        &mut self.head
    }

    /// One full training step on graph `g` with features `x` and targets
    /// `y` (rows = vertices of `g`): forward, loss, backward, Adam update.
    ///
    /// Runs entirely on the model's persistent buffers — see the struct
    /// docs; no matrix is allocated once the workspace is warm.
    pub fn train_step(&mut self, g: &CsrGraph, x: &DMatrix, y: &DMatrix) -> StepResult {
        assert_eq!(x.rows(), g.num_vertices(), "feature/vertex mismatch");
        assert_eq!(y.rows(), g.num_vertices(), "label/vertex mismatch");
        let mut timings = KernelTimings::default();
        let num_layers = self.layers.len();
        let hyper = self.cfg.adam;
        let dropout = self.cfg.dropout > 0.0;

        // ---- Forward (Alg. 1 lines 6–9) ----
        // Layer 1 reads `x` itself unless dropout needs a masked copy.
        if dropout {
            self.acts[0].copy_from(x);
        }
        for i in 0..num_layers {
            if dropout {
                self.dropout_stream = self.dropout_stream.wrapping_add(0x9E3779B97F4A7C15);
                ops::dropout_inplace_with(
                    &mut self.acts[i],
                    self.cfg.dropout,
                    self.dropout_stream,
                    &mut self.masks[i],
                );
            }
            // Split-borrow: `acts[i]` is the input, `acts[i+1]` the output.
            let (lo, hi) = self.acts.split_at_mut(i + 1);
            let input = if i == 0 && !dropout { x } else { &lo[i] };
            let t = self.layers[i].forward_into(g, input, &mut hi[0], &self.prop);
            timings.add(t);
        }
        let t0 = Instant::now();
        self.head
            .forward_into(&self.acts[num_layers], &mut self.logits);
        timings.weight_app_secs += t0.elapsed().as_secs_f64();

        // ---- Loss (Alg. 1 lines 11–12); d_cur receives dLogits ----
        let loss_val = match self.cfg.loss {
            LossKind::SigmoidBce => loss::sigmoid_bce_into(&self.logits, y, &mut self.d_cur),
            LossKind::SoftmaxCe => loss::softmax_ce_into(&self.logits, y, &mut self.d_cur),
        };

        // ---- Backward + Adam (Alg. 1 line 13) ----
        self.t += 1;
        let t0 = Instant::now();
        self.head
            .backward_into(&self.acts[num_layers], &self.d_cur, &mut self.d_next);
        timings.weight_app_secs += t0.elapsed().as_secs_f64();
        self.head.apply_own_grads(&hyper, self.t);
        std::mem::swap(&mut self.d_cur, &mut self.d_next);
        for i in (0..num_layers).rev() {
            // d_cur = dOut for layer i (consumed in place); d_next = dIn,
            // which layer 1 does not compute: nothing reads it.
            let input = if i == 0 && !dropout { x } else { &self.acts[i] };
            let d_in = (i > 0).then_some(&mut self.d_next);
            let t = self.layers[i].backward_into(
                g,
                input,
                &self.acts[i + 1],
                &mut self.d_cur,
                d_in,
                &self.prop,
            );
            timings.add(t);
            self.layers[i].apply_own_grads(&hyper, self.t);
            if i > 0 {
                std::mem::swap(&mut self.d_cur, &mut self.d_next);
                if dropout {
                    ops::dropout_backward_inplace(
                        &mut self.d_cur,
                        &self.masks[i],
                        self.cfg.dropout,
                    );
                }
            }
        }

        StepResult {
            loss: loss_val,
            timings,
        }
    }

    /// In-place inference on caller-owned scratch: logits for every
    /// vertex of `g` land in `out` (buffer reused, reshaped as needed).
    ///
    /// The forward pass is `&self` — the model is immutable, so one
    /// `Arc<GcnModel>` can serve many threads, each bringing its own
    /// [`InferenceWorkspace`] (activation ping-pong buffers, lazily
    /// sized). With bounded input shapes a warm call performs **zero
    /// matrix allocations** (pinned by `tests/alloc_regression.rs`).
    /// No dropout is applied (inference semantics).
    pub fn infer_logits_into(
        &self,
        g: &CsrGraph,
        x: &DMatrix,
        ws: &mut InferenceWorkspace,
        out: &mut DMatrix,
    ) {
        let last = self.run_gcn_layers(&mut |_| g, self.layers.len(), x, ws);
        self.head.forward_into(last, out);
    }

    /// Run the first `count` GCN layers (layer `i` on `graph_for(i)`)
    /// and return the final activation, which lives in one of the
    /// workspace's ping-pong buffers.
    fn run_gcn_layers<'g, 'w>(
        &self,
        graph_for: &mut dyn FnMut(usize) -> &'g CsrGraph,
        count: usize,
        x: &DMatrix,
        ws: &'w mut InferenceWorkspace,
    ) -> &'w DMatrix {
        assert!(
            (1..=self.layers.len()).contains(&count),
            "layer count {count} outside 1..={}",
            self.layers.len()
        );
        assert_eq!(
            x.rows(),
            graph_for(0).num_vertices(),
            "feature/vertex mismatch"
        );
        let InferenceWorkspace {
            ping, pong, agg, ..
        } = ws;
        // Layer 0 reads `x` directly; afterwards activations ping-pong
        // between the two workspace buffers (layer i reads one, writes
        // the other), so depth costs no extra buffers.
        let mut src_is_ping = false;
        for (i, layer) in self.layers.iter().take(count).enumerate() {
            let (src, dst): (&DMatrix, &mut DMatrix) = if i == 0 {
                (x, &mut *ping)
            } else if src_is_ping {
                (&*ping, &mut *pong)
            } else {
                (&*pong, &mut *ping)
            };
            let g = graph_for(i);
            assert_eq!(g.num_vertices(), x.rows(), "layer graph vertex mismatch");
            layer.infer_into(g, src, dst, agg, &self.prop);
            src_is_ping = i % 2 == 0;
        }
        if src_is_ping {
            ping
        } else {
            pong
        }
    }

    /// Run the first `layer_graphs.len()` GCN layers, layer `i` on
    /// `layer_graphs[i]` (all over `x`'s vertex set), and return the
    /// resulting activation. With the cone-pruned graphs of
    /// `gsgcn_graph::NeighborhoodBatch::layer_graphs` the returned rows
    /// are full-graph-exact at every vertex within distance
    /// `L - layer_graphs.len()` of the batch roots. No production caller —
    /// kept for the e2e ladder and as the equivalence oracle.
    ///
    /// Panics if `layer_graphs` is empty or longer than the layer stack.
    pub fn infer_hidden_pruned_into<'w>(
        &self,
        layer_graphs: &[CsrGraph],
        x: &DMatrix,
        ws: &'w mut InferenceWorkspace,
    ) -> &'w DMatrix {
        self.run_gcn_layers(&mut |i| &layer_graphs[i], layer_graphs.len(), x, ws)
    }

    /// The serving **final hop**: the last GCN layer on the root rows of
    /// a frontier-ball graph, the classifier head and the output
    /// activation.
    ///
    /// `hidden` holds `acts^{L-1}` for every vertex of `g`
    /// (`gsgcn_graph::neighborhood::FrontierBall` layout: the roots are
    /// rows `0..num_roots`, frontier rows follow and are isolated in
    /// `g`). Writes `num_roots` probability rows into `out`; frontier
    /// rows are gathered from, never computed
    /// ([`GcnLayer::infer_rows_into`]). Because the fused layer and the
    /// packed GEMM accumulate each row independently, the root rows are
    /// bit-identical to a full forward whenever `hidden`'s rows are.
    pub fn infer_probs_final_hop_into(
        &self,
        g: &CsrGraph,
        hidden: &DMatrix,
        num_roots: usize,
        ws: &mut InferenceWorkspace,
        out: &mut DMatrix,
    ) {
        assert_eq!(hidden.rows(), g.num_vertices(), "hidden/vertex mismatch");
        let last = self.layers.last().expect("validated: ≥ 1 layer");
        let InferenceWorkspace { ping, agg, .. } = ws;
        ping.ensure_shape(num_roots, last.out_dim());
        last.infer_rows_into(g, hidden, ping.view_mut(), agg, &self.prop);
        self.head.forward_into(ping, out);
        self.apply_output_activation(out);
    }

    /// **Layer-at-a-time inference**: probabilities for `roots` from a
    /// store or a resident graph ([`LevelSource`]) without materialising
    /// the graph, any n-row matrix, or an L-hop ball.
    ///
    /// `H^ℓ` on a target list is computed one **tile** at a time: a tile
    /// is the longest run of targets whose closed one-hop frontier stays
    /// within `max_rows` rows ([`FrontierScratch::capped`]); `H^{ℓ-1}` on
    /// the tile's frontier comes from the same procedure one level down
    /// (level 0 is a feature gather, on a store
    /// [`GraphStore::par_gather_features_into`] over the pool this runs
    /// in), and layer `ℓ` then runs for the tile's root rows only. Targets
    /// are walked in placement order — the roots sorted by internal id,
    /// every tile's frontier grouped by shard, in id order — so reads are
    /// shard-sequential. The top
    /// level streams each tile through the head into `sink(roots, probs)`:
    /// external ids of the tile's roots and their probability rows, every
    /// distinct root exactly once, in placement order.
    ///
    /// * **Layer 1's three input sources**: below the top level, level 1
    ///   cuts no tile and gathers no level-0 ball wherever the source lets
    ///   it read its input directly.
    ///   - *Stored `Â·X`*: under a fused f32 layer 1, a store holding the
    ///     `agg` section ([`GraphStore::has_agg`]) is walked in placement
    ///     order in blocks of 1024 rows: one parallel gather of the block's
    ///     `Â·X` and `X` rows ([`GraphStore::par_gather_agg_into`]), then
    ///     layer 1's neighbour and self GEMMs on them.
    ///   - *Resident `X` in place*: layer 1's producer restricted to the
    ///     targets reads a [`LevelSource::Resident`]'s own CSR and feature
    ///     matrix, packing its kept `Â·X` rows (under bf16 it rounds `X`
    ///     whole once per call): no feature row is copied.
    ///   - *A level-0 ball*: everywhere else level 1 is cut into tiles
    ///     like any level, and each tile's frontier rows of `X` are
    ///     gathered into the level-0 buffer.
    ///
    ///   All three give the same bits.
    /// * **Work**: when a level's needed set fits `max_rows` it is one
    ///   tile, so every (vertex, layer) pair is computed once and every
    ///   feature row gathered once ([`LevelStats`]); otherwise only the
    ///   one-hop overlap between neighbouring tiles is recomputed, per
    ///   level — never an L-hop ball per root chunk. On the stored-`Â·X`
    ///   path layer 1 reads one `agg` and one feature row per row it
    ///   computes and aggregates nothing; in place it gathers nothing.
    /// * **Memory**: one buffer per level of at most `max_rows` rows (a
    ///   single root whose own frontier is larger overshoots — it is
    ///   irreducible), i.e. `≤ L · max_rows · max width` floats, plus the
    ///   cutter's relabel table of one `u32` per source vertex, all held
    ///   in `ws` and reused by the next call (the table is cleared per tile
    ///   by walking the tile's own rows, so a warm call never touches all
    ///   `n` entries). On the stored-`Â·X` path the level-0 buffer and the
    ///   `Â·X` scratch hold one block each (`2 · AGG_BLOCK_ROWS · f`
    ///   floats) instead of a level-0 ball; in place the level-0 buffer is
    ///   not touched at all.
    /// * **Exactness**: a frontier tile keeps each root's full neighbor
    ///   list in full-graph order, so a root row's aggregate, `D⁻¹`
    ///   scale and GEMM row are the same float operations in the same
    ///   order as in [`GcnModel::infer_probs_into`] on the whole graph;
    ///   by induction over the levels the output is **bit-identical**,
    ///   for any tiling, source, store order, backend and [`Precision`]
    ///   storage.
    ///
    /// Fails only on a store read error (a topology section or a row
    /// section that cannot be mapped) or a `sink` error.
    ///
    /// [`Precision`]: gsgcn_tensor::Precision
    pub fn infer_probs_by_level(
        &self,
        source: LevelSource<'_>,
        roots: &[u32],
        max_rows: usize,
        ws: &mut InferenceWorkspace,
        sink: &mut dyn FnMut(&[u32], &DMatrix) -> io::Result<()>,
    ) -> io::Result<LevelStats> {
        let depth = self.layers.len();
        let InferenceWorkspace {
            ping,
            pong,
            agg,
            levels,
            frontier,
        } = ws;
        if levels.len() < depth {
            levels.resize_with(depth, || DMatrix::zeros(0, 0));
        }
        let mut sweep = Sweep::new(source, max_rows, agg, frontier, depth);
        let t0 = Instant::now();
        let mut sorted = roots.to_vec();
        sorted.sort_by_cached_key(|&v| source.to_internal(v));
        sorted.dedup();
        sweep.stats.frontier_secs += t0.elapsed().as_secs_f64();

        let mut rest = &sorted[..];
        while !rest.is_empty() {
            let ball = self.next_tile(&mut sweep, depth, rest, levels)?;
            let t0 = Instant::now();
            ping.ensure_shape(ball.num_roots, self.layers[depth - 1].out_dim());
            self.run_layer(&mut sweep, depth, &ball, levels, ping.view_mut());
            self.head.forward_into(ping, pong);
            self.apply_output_activation(pong);
            sweep.stats.infer_secs += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            sink(&ball.origin[..ball.num_roots], pong)?;
            sweep.stats.score_secs += t0.elapsed().as_secs_f64();
            rest = &rest[ball.num_roots..];
        }
        Ok(sweep.stats)
    }

    /// Cut the next frontier tile of GCN layer `level` (1-based) off the
    /// front of `targets` (distinct, placement-ordered) and fill
    /// `levels[level-1]` with `H^{level-1}` on its `origin`. The tile
    /// consumes `targets[..ball.num_roots]`.
    fn next_tile(
        &self,
        sweep: &mut Sweep<'_>,
        level: usize,
        targets: &[u32],
        levels: &mut [DMatrix],
    ) -> io::Result<FrontierBall> {
        let t0 = Instant::now();
        let (ball, used) = sweep.source.cut(sweep.frontier, targets, sweep.max_rows)?;
        assert_eq!(used, ball.num_roots, "tile targets must be distinct");
        sweep.stats.frontier_secs += t0.elapsed().as_secs_f64();
        sweep.stats.tiles[level - 1] += 1;
        let (lower, out) = levels.split_at_mut(level - 1);
        self.fill_level(sweep, level - 1, &ball.origin, lower, &mut out[0])?;
        Ok(ball)
    }

    /// GCN layer `level` for the root rows of `ball`, reading
    /// `levels[level-1]` (filled by [`Self::next_tile`]) into `out`.
    fn run_layer(
        &self,
        sweep: &mut Sweep<'_>,
        level: usize,
        ball: &FrontierBall,
        levels: &[DMatrix],
        out: MatMut<'_>,
    ) {
        sweep.stats.rows_computed[level - 1] += out.rows();
        self.layers[level - 1].infer_rows_into(
            &ball.graph,
            &levels[level - 1],
            out,
            sweep.agg,
            &self.prop,
        );
    }

    /// Fill `out` with `H^level`, rows aligned with `targets` (distinct,
    /// placement-ordered): a feature gather at level 0; at level 1 from a
    /// store's `Â·X` blocks or a resident source's graph and features in
    /// place, where layer 1 can; otherwise one tile after another, each
    /// writing its roots' run of rows. `lower` is `levels[..level]`, the
    /// buffers of the levels beneath.
    fn fill_level(
        &self,
        sweep: &mut Sweep<'_>,
        level: usize,
        targets: &[u32],
        lower: &mut [DMatrix],
        out: &mut DMatrix,
    ) -> io::Result<()> {
        // Only a fused f32 layer 1 packs the stored `Â·X` rows as they are
        // and reads `X` unrounded (the unfused one is the reference path).
        let fused_f32 = || {
            let first = &self.layers[0];
            first.fused() && first.precision() == Precision::F32
        };
        match sweep.source {
            LevelSource::Store(store) if level == 1 && store.has_agg() && fused_f32() => {
                return self.fill_from_stored_aggregate(sweep, store, targets, &mut lower[0], out);
            }
            LevelSource::Resident {
                graph,
                features,
                input,
            } if level == 1 && (input.is_some() || fused_f32()) => {
                self.fill_in_place(sweep, graph, features, input, targets, out);
                return Ok(());
            }
            _ => {}
        }
        if level == 0 {
            let t0 = Instant::now();
            sweep.source.gather_features_into(targets, out)?;
            sweep.stats.gather_secs += t0.elapsed().as_secs_f64();
            sweep.stats.rows_gathered += targets.len();
            return Ok(());
        }
        out.ensure_shape(targets.len(), self.layers[level - 1].out_dim());
        let mut pos = 0;
        while pos < targets.len() {
            let ball = self.next_tile(sweep, level, &targets[pos..], lower)?;
            let t0 = Instant::now();
            let rows = out.view_rows_mut(pos, pos + ball.num_roots);
            self.run_layer(sweep, level, &ball, lower, rows);
            sweep.stats.infer_secs += t0.elapsed().as_secs_f64();
            pos += ball.num_roots;
        }
        Ok(())
    }

    /// `H^1` on `targets` into `out` straight from a resident CSR `g` and
    /// features `x`: layer 1's producer restricted to the targets
    /// ([`GcnLayer::infer_selected_into`]) packs the rows `input` keeps,
    /// sums each other target's neighbour rows where they lie in `x` (in
    /// `input`'s precision) and packs its own row from there too, so no
    /// tile is cut and no feature row is copied. Each row is the
    /// full-graph forward's, bit for bit.
    fn fill_in_place(
        &self,
        sweep: &mut Sweep<'_>,
        g: &CsrGraph,
        x: &DMatrix,
        input: Option<&InputAggregate>,
        targets: &[u32],
        out: &mut DMatrix,
    ) {
        let t0 = Instant::now();
        let first = &self.layers[0];
        out.ensure_shape(targets.len(), first.out_dim());
        let rows = out.view_mut();
        match input.map(|ax| &ax.data) {
            None => first.infer_selected_into(g, x.view(), None, Some(targets), rows),
            Some(AggregateData::F32(kept)) => {
                first.infer_selected_into(g, x.view(), Some(kept), Some(targets), rows)
            }
            Some(AggregateData::Bf16(kept)) => with_bf16_rows(x, |qx| {
                first.infer_selected_into(g, qx, Some(kept), Some(targets), rows)
            }),
        }
        sweep.stats.rows_computed[0] += targets.len();
        sweep.stats.infer_secs += t0.elapsed().as_secs_f64();
    }

    /// `H^1` on `targets` into `out` from the store's `Â·X` and `X` rows,
    /// [`AGG_BLOCK_ROWS`] targets at a time: gather both rows of a block
    /// (`x` and the sweep's `agg` scratch hold them), then layer 1's two
    /// GEMMs write the block's rows of `out`. No tile is cut and no
    /// neighbour row is read.
    fn fill_from_stored_aggregate(
        &self,
        sweep: &mut Sweep<'_>,
        store: &GraphStore,
        targets: &[u32],
        x: &mut DMatrix,
        out: &mut DMatrix,
    ) -> io::Result<()> {
        let first = &self.layers[0];
        out.ensure_shape(targets.len(), first.out_dim());
        let mut pos = 0;
        for block in targets.chunks(AGG_BLOCK_ROWS) {
            let t0 = Instant::now();
            store.par_gather_agg_into(block, sweep.agg, x)?;
            sweep.stats.gather_secs += t0.elapsed().as_secs_f64();
            sweep.stats.rows_gathered += block.len();
            sweep.stats.agg_rows_gathered += block.len();
            let t0 = Instant::now();
            let rows = out.view_rows_mut(pos, pos + block.len());
            first.apply_weights(sweep.agg.view(), x.view(), rows);
            sweep.stats.rows_computed[0] += block.len();
            sweep.stats.infer_secs += t0.elapsed().as_secs_f64();
            pos += block.len();
        }
        Ok(())
    }

    /// **The serving entry point of the level recursion**: `H^{L-1}` —
    /// the last GCN layer's input — on `targets` (distinct store ids),
    /// written to `out` with rows aligned to `targets`. The caller runs
    /// layer `L` itself ([`GcnModel::infer_probs_final_hop_into`] over the
    /// frontier ball whose `origin` the targets come from), so whatever
    /// rows it already holds — an activation cache — never enter here.
    ///
    /// This is [`GcnModel::infer_probs_by_level`] started one level down
    /// with one uncapped tile per level (a serving batch is bounded by the
    /// engine's batcher): layer `ℓ < L` runs once on every vertex within
    /// `L-1-ℓ` hops of `targets` and each feature row within `L-1` hops is
    /// gathered once — `Σ_ℓ |N_{L-1-ℓ}[targets]|` rows computed,
    /// `|N_{L-1}[targets]|` rows gathered, over `targets` only, never an
    /// L-hop ball pushed through every layer. Where layer 1 reads its
    /// input directly (as in `infer_probs_by_level`) it gathers only its
    /// own rows' `Â·X` and `X` on a store with `Â·X`, and nothing on a
    /// resident source, whose `X` it reads in place. For a 1-layer model
    /// it is the feature gather. Rows are bit-identical to the full-graph
    /// forward's (the exactness argument on `infer_probs_by_level`). The
    /// returned [`LevelStats`] per-layer vectors cover layers `1..L`.
    pub fn infer_hidden_by_level(
        &self,
        source: LevelSource<'_>,
        targets: &[u32],
        ws: &mut InferenceWorkspace,
        out: &mut DMatrix,
    ) -> io::Result<LevelStats> {
        let below = self.layers.len() - 1;
        let InferenceWorkspace {
            agg,
            levels,
            frontier,
            ..
        } = ws;
        if levels.len() < below {
            levels.resize_with(below, || DMatrix::zeros(0, 0));
        }
        let mut sweep = Sweep::new(source, usize::MAX, agg, frontier, below);
        self.fill_level(&mut sweep, below, targets, &mut levels[..below], out)?;
        Ok(sweep.stats)
    }

    /// Input width of the last GCN layer (= `acts^{L-1}` row width): the
    /// row size an activation cache stores. Equals `in_dim` for a
    /// single-layer model.
    pub fn hidden_width(&self) -> usize {
        match self.layers.len() {
            1 => self.cfg.in_dim,
            l => self.cfg.hidden_dims[l - 2],
        }
    }

    /// In-place inference with the task's output activation applied
    /// (sigmoid probabilities or softmax distribution); see
    /// [`GcnModel::infer_logits_into`].
    pub fn infer_probs_into(
        &self,
        g: &CsrGraph,
        x: &DMatrix,
        ws: &mut InferenceWorkspace,
        out: &mut DMatrix,
    ) {
        self.infer_logits_into(g, x, ws, out);
        self.apply_output_activation(out);
    }

    /// The element layer 1 stores its input in: bf16 when the fused
    /// layer runs under [`Precision::Bf16`], f32 otherwise (the unfused
    /// reference has no bf16 path): the precision an [`InputAggregate`]
    /// is stored in.
    pub fn input_precision(&self) -> Precision {
        self.layers[0].precision()
    }

    /// The kept rows of `Â·X` for `(g, x)`, in [`Self::input_precision`],
    /// for a [`LevelSource::Resident`] over `(g, x)`. Layer 1's own
    /// aggregation producer computes them in one row-parallel pass
    /// ([`AggregatedRows::keep`]), so they are exactly the elements layer
    /// 1's pack places; under bf16 it aggregates `x` rounded to bf16
    /// (pooled scratch) with no f32 `n × f` temporary.
    ///
    /// Which rows: at most the bytes of the `n`-row last-layer activation
    /// and probability matrix that a full-graph forward allocates and the
    /// level recursion does not — so a resident evaluation holds no more
    /// memory than that forward would — taken from the highest-degree
    /// vertices down, because a row's aggregation gathers `deg(v)` feature
    /// rows and those rows save the most gathers per byte. Features
    /// narrower than that budget are kept whole.
    pub fn aggregate_input(&self, g: &CsrGraph, x: &DMatrix) -> InputAggregate {
        let (n, f) = x.shape();
        assert_eq!(n, g.num_vertices(), "feature/vertex mismatch");
        let precision = self.input_precision();
        let elem_bytes = match precision {
            Precision::F32 => std::mem::size_of::<f32>(),
            Precision::Bf16 => std::mem::size_of::<Bf16>(),
        };
        let last_width = self.layers[self.layers.len() - 1].out_dim();
        let budget = n * (last_width + self.cfg.num_classes) * std::mem::size_of::<f32>();
        let keep = budget
            .checked_div(f * elem_bytes)
            .map_or(n, |rows| rows.min(n));
        let mut vertices: Vec<u32> = (0..n as u32).collect();
        // Highest degree first (a stable sort: ties stay in id order), then
        // back to id order, the order the pack visits vertices in.
        vertices.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        vertices.truncate(keep);
        vertices.sort_unstable();
        let data = match precision {
            Precision::F32 => AggregateData::F32(AggregatedRows::mean(g, x.view()).keep(&vertices)),
            Precision::Bf16 => AggregateData::Bf16(with_bf16_rows(x, |qx| {
                AggregatedRows::mean(g, qx).keep(&vertices)
            })),
        };
        InputAggregate { data }
    }

    fn apply_output_activation(&self, out: &mut DMatrix) {
        match self.cfg.loss {
            LossKind::SigmoidBce => ops::sigmoid_inplace(out),
            LossKind::SoftmaxCe => ops::softmax_rows_inplace(out),
        }
    }

    /// Inference with the task's output activation applied (sigmoid
    /// probabilities or softmax distribution). Allocating wrapper around
    /// [`GcnModel::infer_probs_into`].
    pub fn infer_probs(&self, g: &CsrGraph, x: &DMatrix) -> DMatrix {
        let mut out = DMatrix::zeros(0, 0);
        self.infer_probs_into(g, x, &mut InferenceWorkspace::new(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::GraphBuilder;

    fn two_cluster_graph() -> (CsrGraph, DMatrix, DMatrix) {
        // Two 4-cliques joined by one edge; features correlate with the
        // cluster, labels = cluster id (2 classes, one-hot).
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 4));
        let g = GraphBuilder::new(8).add_edges(edges).build();
        let x = DMatrix::from_fn(8, 4, |i, j| {
            let cluster = (i / 4) as f32;
            (cluster * 2.0 - 1.0) * 0.5 + ((i * 4 + j) % 3) as f32 * 0.05
        });
        let y = DMatrix::from_fn(8, 2, |i, j| if j == i / 4 { 1.0 } else { 0.0 });
        (g, x, y)
    }

    fn small_cfg(loss: LossKind) -> GcnConfig {
        GcnConfig {
            in_dim: 4,
            hidden_dims: vec![8, 8],
            num_classes: 2,
            loss,
            adam: AdamHyper {
                lr: 0.02,
                ..AdamHyper::default()
            },
            dropout: 0.0,
            fused: true,
        }
    }

    /// The loss of `m` on `(g, x, y)` from a full-graph forward.
    fn eval_loss(m: &GcnModel, g: &CsrGraph, x: &DMatrix, y: &DMatrix) -> f32 {
        let mut logits = DMatrix::zeros(0, 0);
        m.infer_logits_into(g, x, &mut InferenceWorkspace::new(), &mut logits);
        match m.cfg.loss {
            LossKind::SigmoidBce => loss::sigmoid_bce(&logits, y).0,
            LossKind::SoftmaxCe => loss::softmax_ce(&logits, y).0,
        }
    }

    #[test]
    fn config_validation() {
        assert!(small_cfg(LossKind::SigmoidBce).validate().is_ok());
        let mut c = small_cfg(LossKind::SigmoidBce);
        c.hidden_dims = vec![7]; // odd
        assert!(c.validate().is_err());
        let mut c = small_cfg(LossKind::SigmoidBce);
        c.in_dim = 0;
        assert!(c.validate().is_err());
        let mut c = small_cfg(LossKind::SigmoidBce);
        c.hidden_dims.clear();
        assert!(c.validate().is_err());
        let mut c = small_cfg(LossKind::SigmoidBce);
        c.dropout = 1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn shapes_and_param_count() {
        let m = GcnModel::new(small_cfg(LossKind::SigmoidBce), 1);
        assert_eq!(m.num_layers(), 2);
        // Layer 1: 2 × (4×4); layer 2: 2 × (8×4); head: 8×2 + 2.
        assert_eq!(m.num_params(), 32 + 64 + 18);
    }

    #[test]
    fn training_fits_two_clusters_bce() {
        let (g, x, y) = two_cluster_graph();
        let mut m = GcnModel::new(small_cfg(LossKind::SigmoidBce), 7);
        let before = eval_loss(&m, &g, &x, &y);
        for _ in 0..150 {
            m.train_step(&g, &x, &y);
        }
        let after = eval_loss(&m, &g, &x, &y);
        assert!(after < before * 0.5, "loss {before} → {after}");
        // Predictions should match cluster labels.
        let probs = m.infer_probs(&g, &x);
        for v in 0..8 {
            let want = v / 4;
            assert!(
                probs.get(v, want) > probs.get(v, 1 - want),
                "vertex {v}: probs {:?}",
                probs.row(v)
            );
        }
    }

    #[test]
    fn training_fits_two_clusters_softmax() {
        let (g, x, y) = two_cluster_graph();
        let mut m = GcnModel::new(small_cfg(LossKind::SoftmaxCe), 8);
        for _ in 0..150 {
            m.train_step(&g, &x, &y);
        }
        let probs = m.infer_probs(&g, &x);
        for v in 0..8 {
            let want = v / 4;
            assert!(probs.get(v, want) > 0.5, "vertex {v}");
        }
    }

    #[test]
    fn dropout_training_still_learns() {
        let (g, x, y) = two_cluster_graph();
        let mut cfg = small_cfg(LossKind::SigmoidBce);
        cfg.dropout = 0.2;
        let mut m = GcnModel::new(cfg, 9);
        let before = eval_loss(&m, &g, &x, &y);
        for _ in 0..200 {
            m.train_step(&g, &x, &y);
        }
        let after = eval_loss(&m, &g, &x, &y);
        assert!(after < before, "dropout run: {before} → {after}");
    }

    #[test]
    fn timings_are_recorded() {
        let (g, x, y) = two_cluster_graph();
        let mut m = GcnModel::new(small_cfg(LossKind::SigmoidBce), 10);
        let r = m.train_step(&g, &x, &y);
        assert!(r.timings.feature_prop_secs > 0.0);
        assert!(r.timings.weight_app_secs > 0.0);
        assert!(r.loss.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, x, y) = two_cluster_graph();
        let run = |seed: u64| {
            let mut m = GcnModel::new(small_cfg(LossKind::SigmoidBce), seed);
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(m.train_step(&g, &x, &y).loss);
            }
            losses
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn model_transfers_across_graphs() {
        // Train on one graph, infer on a different-sized graph — the
        // property the graph-sampling design relies on.
        let (g, x, y) = two_cluster_graph();
        let mut m = GcnModel::new(small_cfg(LossKind::SigmoidBce), 11);
        for _ in 0..20 {
            m.train_step(&g, &x, &y);
        }
        let g2 = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
        let x2 = DMatrix::from_fn(3, 4, |i, j| (i + j) as f32 * 0.1);
        let probs = m.infer_probs(&g2, &x2);
        assert_eq!(probs.shape(), (3, 2));
        assert!(probs.all_finite());
    }

    /// The workspace ping-pong forward must agree exactly with the
    /// layer-by-layer allocating path at every depth (odd depths end on
    /// the other buffer of the pair), and a reused workspace must not
    /// leak state between calls on different graphs.
    #[test]
    fn workspace_inference_matches_allocating_path() {
        let (g, x, _) = two_cluster_graph();
        for depth in 1..=3 {
            let mut cfg = small_cfg(LossKind::SigmoidBce);
            cfg.hidden_dims = vec![8; depth];
            let m = GcnModel::new(cfg, 21 + depth as u64);
            let reference = m.infer_probs(&g, &x);
            let mut ws = crate::workspace::InferenceWorkspace::new();
            let mut probs = DMatrix::zeros(0, 0);
            m.infer_probs_into(&g, &x, &mut ws, &mut probs);
            assert_eq!(
                probs.data(),
                reference.data(),
                "depth {depth}: workspace forward diverged"
            );
            // Second call through the warm workspace: bit-identical.
            let mut probs2 = DMatrix::zeros(0, 0);
            m.infer_probs_into(&g, &x, &mut ws, &mut probs2);
            assert_eq!(
                probs.data(),
                probs2.data(),
                "depth {depth}: warm call diverged"
            );
        }
    }

    /// Splitting the forward as "first L-1 layers, then the final hop
    /// over a frontier ball" must reproduce the monolithic forward
    /// bit-for-bit at the root rows — the property the serving
    /// activation cache rests on.
    #[test]
    fn final_hop_split_matches_monolithic_forward() {
        let (g, x, _) = two_cluster_graph();
        for depth in 2..=3 {
            let mut cfg = small_cfg(LossKind::SoftmaxCe);
            cfg.hidden_dims = vec![8; depth];
            let m = GcnModel::new(cfg, 31 + depth as u64);
            let reference = m.infer_probs(&g, &x);
            let mut ws = InferenceWorkspace::new();
            // Full-graph hidden state (every row exact).
            let graphs = vec![g.clone(); depth - 1];
            let mut hidden_all = DMatrix::zeros(0, 0);
            hidden_all.copy_from(m.infer_hidden_pruned_into(&graphs, &x, &mut ws));
            assert_eq!(hidden_all.cols(), m.hidden_width());
            for roots in [vec![0u32], vec![5, 2, 5], (0..8).collect::<Vec<u32>>()] {
                let fb = gsgcn_graph::one_hop_frontier(&g, &roots);
                let mut hidden = DMatrix::zeros(0, 0);
                hidden_all.gather_rows_into(&fb.origin, &mut hidden);
                let mut probs = DMatrix::zeros(0, 0);
                m.infer_probs_final_hop_into(&fb.graph, &hidden, fb.num_roots, &mut ws, &mut probs);
                assert_eq!(probs.rows(), fb.num_roots);
                for (&req, &local) in roots.iter().zip(&fb.root_locals) {
                    assert_eq!(
                        probs.row(local as usize),
                        reference.row(req as usize),
                        "depth {depth}: root {req} diverged on the final hop"
                    );
                }
            }
        }
    }

    /// One immutable model shared across threads, each with its own
    /// workspace — the serving access pattern `infer_logits_into`'s
    /// `&self` signature exists for.
    #[test]
    fn shared_model_serves_concurrent_workspaces() {
        let (g, x, y) = two_cluster_graph();
        let mut m = GcnModel::new(small_cfg(LossKind::SoftmaxCe), 13);
        for _ in 0..10 {
            m.train_step(&g, &x, &y);
        }
        let reference = m.infer_probs(&g, &x);
        let model = std::sync::Arc::new(m);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let model = std::sync::Arc::clone(&model);
                let g = g.clone();
                let x = x.clone();
                std::thread::spawn(move || {
                    let mut ws = crate::workspace::InferenceWorkspace::new();
                    let mut out = DMatrix::zeros(0, 0);
                    model.infer_probs_into(&g, &x, &mut ws, &mut out);
                    out
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            assert_eq!(out.data(), reference.data());
        }
    }

    #[test]
    #[should_panic(expected = "feature/vertex mismatch")]
    fn wrong_feature_rows_panics() {
        let (g, _, y) = two_cluster_graph();
        let mut m = GcnModel::new(small_cfg(LossKind::SigmoidBce), 12);
        let bad_x = DMatrix::zeros(3, 4);
        m.train_step(&g, &bad_x, &y);
    }
}
