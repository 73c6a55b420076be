//! The graph-sampling GCN trainer — Algorithm 5 end to end.
//!
//! # Dataflow
//!
//! Per iteration the trainer pops the next ticketed subgraph with its
//! feature/label rows from its one [`SamplerPipeline`] and runs
//! forward/backward/Adam on them. [`TrainerConfig::sampler_threads`] sets
//! only where the pipeline samples and gathers:
//!
//! ```text
//! sampler workers (sampler_threads = N ≥ 1, dedicated OS threads):
//!   claim ticket → sample → gather rows → reorder buffer ──────────────┐
//!        (one subgraph ahead each, recycled row buffers)               │
//! no workers (sampler_threads = 0):                                    │
//!   pop finds its ticket missing → sample its seed batch: p_inter ─────┤
//!        parallel instances on the compute pool (compute stalls)       │
//!                                                                      │
//! consumer: pop(next in ticket order) ◄─────────────────────────────────┘
//!        → rows (swapped in; with no workers gathered here) → train_step
//! ```
//!
//! Every worker count draws the same `(batch, instance)` ticket stream
//! with the same seeds, gathers rows with the same routine
//! ([`SubgraphRows::gather`]) and consumes them in ticket order, so the
//! loss trajectory is bit-identical for a fixed seed — pinned by
//! `tests/pipeline_equivalence.rs`. The per-phase [`Breakdown`] accounts
//! the difference instead: `Phase::Sampling` is the time spent in the pop
//! (the queue stall; with no workers, the inline sampling),
//! `Phase::Other` holds the consumer's inline gathers (none with
//! workers), and the workers' sampling and gather wall-clock that ran
//! hidden behind compute accumulates in
//! [`Breakdown::sampling_hidden_secs`].
//!
//! # Threads
//!
//! A trainer's thread budget is [`TrainerConfig::threads`] compute threads
//! (`0`: one per core) plus [`TrainerConfig::sampler_threads`] sampler
//! workers, and each phase runs on its share of it:
//!
//! ```text
//! phase                           runs on
//! training step (Alg. 1 6–13)     compute pool: `threads`
//! sampling + gathers, workers     the `sampler_threads` worker threads
//! sampling, no workers            compute pool (gathers: training thread)
//! evaluation, both set            evaluation pool: `threads + sampler_threads`
//! evaluation, otherwise           compute pool
//! ```
//!
//! Evaluation may take the workers' cores because the workers are idle
//! while it runs: a stored evaluation pauses their gathers, and on either
//! source each worker stops once it is one subgraph ahead. The GEMM and the
//! fused aggregation give the same bits at every thread count, so the
//! width changes no probability and no F1. The evaluation pool is not
//! clamped to the machine's cores: its threads are the ones the trainer
//! already keeps busy during training. With `threads = 0` the compute
//! pool already spans every core, and with no workers no core is idle, so
//! neither builds the second pool.

use crate::config::TrainerConfig;
use crate::report::{EpochStats, EvalStats, TrainReport};
use gsgcn_data::dataset::{Dataset, Split, TaskKind};
use gsgcn_data::store_dataset::StoreDataset;
use gsgcn_graph::{GraphStore, Topology};
use gsgcn_metrics::convergence::Curve;
use gsgcn_metrics::f1;
use gsgcn_metrics::timing::{Breakdown, Phase};
use gsgcn_nn::model::{GcnConfig, GcnModel, InputAggregate, LevelSource, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_prop::propagator::FeaturePropagator;
use gsgcn_sampler::dashboard::DashboardSampler;
use gsgcn_sampler::pipeline::{GatherPause, PipelineConfig, SamplerPipeline, SubgraphRows};
use gsgcn_tensor::{DMatrix, Precision};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Which split to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalSplit {
    Train,
    Val,
    Test,
}

/// Where the evaluation graph lives: fully resident ([`Dataset`]) or in
/// a sharded on-disk store ([`StoreDataset`]), read as a [`LevelSource`].
enum EvalSource<'a> {
    Resident(&'a Dataset),
    Stored(&'a StoreDataset),
}

impl EvalSource<'_> {
    /// The dataset's name, task and split.
    fn meta(&self) -> (&str, TaskKind, &Split) {
        match self {
            EvalSource::Resident(d) => (&d.name, d.task, &d.split),
            EvalSource::Stored(sd) => (&sd.name, sd.task, &sd.split),
        }
    }

    /// The level recursion's source and row cap. Resident data runs
    /// uncapped with `input`, the trainer's kept `Â·X`: the cap bounds
    /// stored memory only, and resident data already holds every row.
    fn level_source<'s>(&'s self, input: Option<&'s InputAggregate>) -> (LevelSource<'s>, usize) {
        match self {
            EvalSource::Resident(d) => {
                let (graph, features) = (&d.graph, &d.features);
                (
                    LevelSource::Resident {
                        graph,
                        features,
                        input,
                    },
                    usize::MAX,
                )
            }
            EvalSource::Stored(sd) => (LevelSource::Store(&sd.full), EVAL_MAX_BALL_ROWS),
        }
    }

    /// Fill `inputs` with `model`'s kept rows of `Â·X` on the first
    /// resident evaluation of a model deeper than one layer (a depth-1
    /// model's only layer is the top level, which never reads them).
    /// Returns the rows kept by this call.
    fn fill_input(&self, model: &GcnModel, inputs: &mut Option<InputAggregate>) -> usize {
        match self {
            EvalSource::Resident(d) if inputs.is_none() && model.num_layers() > 1 => inputs
                .insert(model.aggregate_input(&d.graph, &d.features))
                .kept_rows(),
            _ => 0,
        }
    }

    /// The label rows of `roots` into `out`, rows aligned.
    fn gather_labels_into(&self, roots: &[u32], out: &mut DMatrix) -> io::Result<()> {
        match self {
            EvalSource::Resident(d) => {
                d.labels.gather_rows_into(roots, out);
                Ok(())
            }
            EvalSource::Stored(sd) => sd.full.par_gather_labels_into(roots, out),
        }
    }
}

/// Rows per level buffer of a stored evaluation: the cap on one frontier
/// tile (a tile's roots plus their one-hop frontier) in
/// [`GcnModel::infer_probs_by_level`]. Stored eval holds one such buffer
/// per level, so its memory is `levels × cap rows × width` however large
/// the graph or the split — 32 Ki rows ≈ 38 MiB of 300-dim f32 features
/// at level 0, on a store without `Â·X` (with it, level 0 holds one
/// block of layer 1's rows instead). A single root whose own frontier
/// exceeds the cap still gets a (larger) tile: one root's frontier is
/// irreducible. Resident evaluation runs uncapped: its data already holds
/// all `n` rows.
const EVAL_MAX_BALL_ROWS: usize = 32 * 1024;

/// Stored evaluation's turn at reading: while it lives, the pipeline's
/// workers start no gather and the training store's rows are released;
/// dropping it — on every exit, errors included — releases the full
/// store's rows, then lets gathers resume. So the two stores are read in
/// turns, never together: a resident peak of heap + one row budget
/// instead of heap + two.
struct EvalTurn<'t> {
    full: &'t GraphStore,
    /// Dropped after [`Drop::drop`] has released `full`'s rows.
    _gathers: GatherPause<'t>,
}

impl<'t> EvalTurn<'t> {
    /// The turn of a stored evaluation; a resident one takes none.
    fn take(pipe: &'t SamplerPipeline, train: &GraphStore, on: &EvalSource<'t>) -> Option<Self> {
        let EvalSource::Stored(sd) = on else {
            return None;
        };
        // Pause first: a gather still running would map training rows
        // again after the release.
        let gathers = pipe.pause_gathers();
        train.release_rows();
        Some(EvalTurn {
            full: &sd.full,
            _gathers: gathers,
        })
    }
}

impl Drop for EvalTurn<'_> {
    fn drop(&mut self) {
        self.full.release_rows();
    }
}

/// Whether `store` has no row (feature, label, `agg`) section mapped (a
/// mem store maps none).
fn rows_released(store: &GraphStore) -> bool {
    store
        .cache_stats()
        .is_none_or(|s| s.features.resident + s.labels.resident + s.agg.resident == 0)
}

/// Trainer state: dataset view, model, sampler pipeline, timers.
pub struct GsGcnTrainer<'a> {
    source: EvalSource<'a>,
    /// Store over the training-induced subgraph: a [`GraphStore::mem`]
    /// aliasing the view's matrices on the resident path, the
    /// [`StoreDataset`]'s training store on the stored one.
    train_store: Arc<GraphStore>,
    model: GcnModel,
    /// The sampling pipeline: samples the ticket stream and gathers each
    /// subgraph's rows from the training store, on
    /// `sampler_threads` workers or inline. Holds its own `Arc` clones of
    /// the sampler and training store, so drop order is irrelevant;
    /// dropping the trainer joins the worker threads.
    pipeline: SamplerPipeline,
    cfg: TrainerConfig,
    /// The compute pool: `threads` wide (`0`: one thread per core).
    thread_pool: rayon::ThreadPool,
    /// The evaluation pool, `threads + sampler_threads` wide, when both
    /// are set: evaluation also takes the cores of the workers it leaves
    /// idle. `None` evaluates on `thread_pool`.
    eval_pool: Option<rayon::ThreadPool>,
    breakdown: Breakdown,
    train_secs: f64,
    epochs_run: usize,
    /// The rows of the subgraph being trained on. With workers each
    /// delivered buffer is swapped in and the previous one goes back to
    /// them; without, the pipeline gathers into it. Subgraph sizes are
    /// bounded by the sampling budget, so every buffer reaches a steady
    /// capacity (with workers: is allocated at it) and the loop stops
    /// allocating.
    rows: SubgraphRows,
    /// Persistent evaluation state: the inference workspace (level
    /// buffers and the frontier cutter's table) plus a tile's label rows.
    /// Validation runs every `eval_every` epochs, so without reuse it
    /// dominated the allocation churn of a training run; with it,
    /// [`GsGcnTrainer::evaluate`] performs zero matrix allocations once
    /// warm on either source (pinned by `tests/eval_alloc.rs`).
    eval_ws: InferenceWorkspace,
    eval_labels_split: DMatrix,
    /// Resident datasets of models deeper than one layer only: the kept
    /// rows of `Â·X` of the evaluation graph
    /// ([`GcnModel::aggregate_input`]), computed by the first evaluation.
    /// It cannot go stale: `Â·X` does not depend on the weights, and the
    /// trainer borrows its [`Dataset`] immutably for its whole life. It is
    /// stored in the model's precision, fixed when the trainer is built
    /// ([`Self::with_precision`] drops it).
    eval_inputs: Option<InputAggregate>,
    /// Work and phase times of the last evaluation, either source (zero
    /// work for an empty split; `None` before the first evaluation).
    eval_stats: Option<EvalStats>,
    /// Declared last, so it drops after every buffer above has been freed.
    _release: ReleaseFreePages,
}

/// Hands the heap's free pages back to the kernel when dropped.
///
/// A trainer's workspaces (the training view's rows, the sampler's
/// subgraph buffers, `Â·X`) are the largest short-lived heap blocks in the
/// workspace. Once glibc has freed one mapped block, its sliding mmap
/// threshold puts blocks of that size on the `brk` heap, and one small
/// allocation made above them while the trainer lived (a copy of the
/// model's weights, say) keeps all of them resident after the trainer is
/// gone. Whether a process carries the trainer's peak into what it does
/// next then depends on where that allocation landed. `malloc_trim(0)`
/// releases the free pages wherever they lie.
struct ReleaseFreePages;

impl Drop for ReleaseFreePages {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> i32;
            }
            // SAFETY: `malloc_trim` takes the allocator's own locks and
            // only returns free pages; no live allocation is touched.
            unsafe {
                malloc_trim(0);
            }
        }
    }
}

impl<'a> GsGcnTrainer<'a> {
    /// Build a trainer for `dataset` with configuration `cfg`.
    ///
    /// Fails (rather than panics) on invalid configuration or an
    /// inconsistent dataset, so experiment binaries can surface errors.
    pub fn new(dataset: &'a Dataset, cfg: TrainerConfig) -> Result<Self, String> {
        cfg.validate()?;
        dataset.validate()?;

        let tv = dataset.train_view();
        let train_store = GraphStore::mem(tv.graph, Some(tv.features), Some(tv.labels));
        Self::build(EvalSource::Resident(dataset), Arc::new(train_store), cfg)
    }

    /// Build a trainer over a sharded on-disk [`StoreDataset`] (see
    /// `gsgcn shard`). Training samples from the store's training
    /// subgraph; evaluation runs layer at a time over frontier tiles read
    /// through the shard cache instead of materialising the full graph,
    /// so peak RSS stays bounded by the cache budget plus the level
    /// buffers (see [`Self::try_evaluate`]).
    pub fn from_store(sd: &'a StoreDataset, cfg: TrainerConfig) -> Result<Self, String> {
        cfg.validate()?;
        if sd.full.feature_dim() == 0 {
            return Err("graph store has no feature matrix".into());
        }
        if sd.full.label_dim() == 0 {
            return Err("graph store has no label matrix".into());
        }
        Self::build(EvalSource::Stored(sd), Arc::clone(&sd.train), cfg)
    }

    fn build(
        source: EvalSource<'a>,
        train_store: Arc<GraphStore>,
        mut cfg: TrainerConfig,
    ) -> Result<Self, String> {
        // Clamp the sampling budget to the training-graph size so tiny
        // datasets work with default sampler settings.
        let t = train_store.num_vertices();
        if t == 0 {
            return Err("training split is empty".into());
        }
        if cfg.sampler.budget > t {
            cfg.sampler.budget = t;
        }
        if cfg.sampler.frontier_size > cfg.sampler.budget {
            cfg.sampler.frontier_size = (cfg.sampler.budget / 2).max(1);
        }

        let loss = match source.meta().1 {
            TaskKind::MultiLabel => LossKind::SigmoidBce,
            TaskKind::SingleLabel => LossKind::SoftmaxCe,
        };
        let model_cfg = GcnConfig {
            in_dim: train_store.feature_dim(),
            hidden_dims: cfg.hidden_dims.clone(),
            num_classes: train_store.label_dim(),
            loss,
            adam: cfg.adam,
            dropout: cfg.dropout,
            fused: cfg.fused,
        };
        model_cfg.validate()?;
        let model = GcnModel::with_propagator(
            model_cfg,
            cfg.seed,
            FeaturePropagator::new(cfg.prop_mode.clone()),
        );

        let pipeline = SamplerPipeline::spawn_gathering(
            Arc::new(DashboardSampler::new(cfg.sampler.clone())),
            Arc::clone(&train_store),
            cfg.sampler.budget,
            PipelineConfig {
                workers: cfg.sampler_threads,
                p_inter: cfg.p_inter,
                base_seed: cfg.seed ^ 0x5A4B,
                capacity: 0, // one subgraph ahead per worker
            },
        );

        // With workers this buffer joins their rotation at the first pop,
        // so it is sized like theirs. Without, it grows on first use:
        // sized here, it raised the peak RSS of a process that trains and
        // then serves by up to 20 MiB in a third of the runs.
        let rows_now = if cfg.sampler_threads > 0 {
            cfg.sampler.budget
        } else {
            0
        };
        let rows = SubgraphRows::with_capacity(&train_store, rows_now);
        let pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads) // 0 = default
                .build()
                .map_err(|e| format!("failed to build thread pool: {e}"))
        };
        let thread_pool = pool(cfg.threads)?;
        // Not clamped to the machine's cores: these threads already run
        // during training, as compute threads and sampler workers.
        let eval_pool = if cfg.threads > 0 && cfg.sampler_threads > 0 {
            Some(pool(cfg.threads + cfg.sampler_threads)?)
        } else {
            None
        };

        Ok(GsGcnTrainer {
            source,
            train_store,
            model,
            pipeline,
            cfg,
            thread_pool,
            eval_pool,
            breakdown: Breakdown::default(),
            train_secs: 0.0,
            epochs_run: 0,
            rows,
            eval_ws: InferenceWorkspace::new(),
            eval_labels_split: DMatrix::zeros(0, 0),
            eval_inputs: None,
            eval_stats: None,
            _release: ReleaseFreePages,
        })
    }

    /// Train and evaluate with activations stored in `precision` (the
    /// model's initial precision otherwise; see
    /// [`GcnModel::with_propagator`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.model.set_precision(precision);
        self.eval_inputs = None;
        self
    }

    /// The effective configuration (after dataset-dependent clamping).
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// The model under training.
    pub fn model(&self) -> &GcnModel {
        &self.model
    }

    /// Restore model parameters from a checkpoint (e.g. for evaluation of
    /// a previously trained model). Optimiser state resets.
    pub fn import_weights(
        &mut self,
        weights: &gsgcn_nn::checkpoint::ModelWeights,
    ) -> Result<(), String> {
        self.model.import_weights(weights)
    }

    /// Cumulative per-phase breakdown.
    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// The sampling pipeline. Exposes stall, overlap and gather
    /// counters.
    pub fn sampler_pipeline(&self) -> &SamplerPipeline {
        &self.pipeline
    }

    /// Tiles and rows computed per layer, feature rows gathered, input
    /// rows aggregated and phase seconds of the last evaluation, on
    /// either source (see [`Self::try_evaluate`]); all-zero work after an
    /// empty split, `None` before the first evaluation.
    pub fn last_eval_stats(&self) -> Option<&EvalStats> {
        self.eval_stats.as_ref()
    }

    /// Threads an evaluation runs on: `threads + sampler_threads` when
    /// both are set, otherwise the compute pool's width (see the module
    /// docs' *Threads*).
    pub fn eval_threads(&self) -> usize {
        self.eval_pool
            .as_ref()
            .unwrap_or(&self.thread_pool)
            .current_num_threads()
    }

    /// Cumulative training seconds.
    pub fn train_secs(&self) -> f64 {
        self.train_secs
    }

    /// Iterations per epoch: `⌈|V_train| / budget⌉` (one epoch ≈ one full
    /// traversal of the training vertices, Sec. III-B).
    pub fn iterations_per_epoch(&self) -> usize {
        self.train_store
            .num_vertices()
            .div_ceil(self.cfg.sampler.budget)
            .max(1)
    }

    /// Run one training epoch; returns its statistics.
    ///
    /// The only sampling cost paid here is the time in the pop
    /// (`Phase::Sampling`): the queue stall, or with no workers the
    /// inline sampling. With workers the rows arrive gathered, and the
    /// workers' wall-clock that overlapped compute is added to the
    /// breakdown's hidden-sampling account afterwards; without, the
    /// inline gather counts as `Phase::Other`. Fails if a gather fails
    /// (in its ticket's place) or a sampler worker panicked.
    pub fn train_epoch(&mut self) -> Result<EpochStats, String> {
        let iters = self.iterations_per_epoch();
        let mut loss_sum = 0.0f64;
        let mut vert_sum = 0usize;
        let mut edge_sum = 0usize;
        let epoch_start = Instant::now();

        // The pipeline's clocks, whose deltas over this epoch are its
        // sampling and gather accounts below.
        let stall_before = self.pipeline.consumer_stall_secs();
        let gather_before = self.pipeline.consumer_gather_secs();
        let producer_before = producer_secs(&self.pipeline);

        // Borrow-splitting: move fields we need inside the closure out of
        // `self` references explicitly.
        let pipeline = &mut self.pipeline;
        let model = &mut self.model;
        let breakdown = &mut self.breakdown;
        let rows = &mut self.rows;

        let run: Result<(), String> = self.thread_pool.install(|| {
            for _ in 0..iters {
                // --- Next subgraph in ticket order with its rows (Alg. 1
                // line 5) in reused buffers: from a worker, or sampled
                // (Alg. 5 lines 3–5, every p_inter iterations) and
                // gathered inline — on the mmap backend the out-of-core
                // read through the shard cache.
                let sub = pipeline.pop_gathered(rows)?;

                // --- Forward/backward/update (Alg. 1 lines 6–13) ---
                let t0 = Instant::now();
                let step = model.train_step(&sub.graph, &rows.features, &rows.labels);
                let step_secs = t0.elapsed().as_secs_f64();

                breakdown.add(Phase::FeatureProp, step.timings.feature_prop_secs);
                breakdown.add(Phase::WeightApp, step.timings.weight_app_secs);
                breakdown.add(
                    Phase::Other,
                    (step_secs - step.timings.feature_prop_secs - step.timings.weight_app_secs)
                        .max(0.0),
                );

                loss_sum += step.loss as f64;
                vert_sum += sub.graph.num_vertices();
                edge_sum += sub.graph.num_edges();
            }
            Ok(())
        });

        // Time in the pops is sampling (a worker stall, or the inline
        // sampling); inline gathers are the consumer's `Other`. Worker
        // wall-clock (sampling and gathers) minus what the consumer
        // waited is the time the pipeline hid behind compute: none
        // without workers. (Clamped: workers may still be mid-sample at
        // the epoch boundary.)
        let pipe = &self.pipeline;
        let stalled = pipe.consumer_stall_secs() - stall_before;
        let produced = producer_secs(pipe) - producer_before;
        self.breakdown.add(Phase::Sampling, stalled);
        let gathered = pipe.consumer_gather_secs() - gather_before;
        self.breakdown.add(Phase::Other, gathered);
        self.breakdown
            .add_hidden_sampling((produced - stalled).max(0.0));
        run?;

        let secs = epoch_start.elapsed().as_secs_f64();
        self.train_secs += secs;
        let stats = EpochStats {
            epoch: self.epochs_run,
            batches: iters,
            mean_loss: (loss_sum / iters as f64) as f32,
            mean_subgraph_vertices: vert_sum as f64 / iters as f64,
            mean_subgraph_edges: edge_sum as f64 / iters as f64,
            secs,
        };
        self.epochs_run += 1;
        Ok(stats)
    }

    /// [`Self::try_evaluate`], panicking when a stored evaluation cannot
    /// read the graph store.
    pub fn evaluate(&mut self, split: EvalSplit) -> f64 {
        self.try_evaluate(split).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Inference + F1-micro on the chosen split. Both sources run the
    /// level recursion ([`GcnModel::infer_probs_by_level`]), layer at a
    /// time over one-hop frontier tiles, so the split's probabilities are
    /// bit-identical to the full-graph forward
    /// ([`GcnModel::infer_probs_into`]) and the F1 is the same bits on
    /// either source; each tile's rows feed a tile-order-free
    /// [`f1::F1Accumulator`] over the source's labels, and the work lands
    /// in [`Self::last_eval_stats`]. An empty split scores 0 and records
    /// zero work.
    ///
    /// * Resident datasets: one uncapped tile per level, and layer 1 reads
    ///   the graph and features in place ([`LevelSource::Resident`]),
    ///   packing rows of `Â·X` from a per-trainer cache that the first
    ///   evaluation fills in one row-parallel pass
    ///   (`input_rows_aggregated`). It never goes stale: `Â·X` does not
    ///   depend on the weights and the dataset is borrowed immutably.
    /// * Stored datasets: tiles of at most [`EVAL_MAX_BALL_ROWS`] rows,
    ///   read through the shard cache in placement order, so memory is
    ///   `levels × cap rows × width`; nothing is cached across calls. An
    ///   f32 spill's full store holds `Â·X`, which a fused f32 layer 1
    ///   reads in blocks instead of cutting level-1 tiles. The two stores
    ///   are read in turns: the pipeline's gathers pause and the training
    ///   store's rows are released first, and the full store's rows are
    ///   released on every exit, an error's included (`turn_secs`).
    ///
    /// Evaluation runs on [`Self::eval_threads`] threads: the sampler
    /// workers idle meanwhile (paused, or one subgraph ahead), so their
    /// cores join the compute threads, also for a store's row gathers,
    /// split by shard sets; the frontier cuts run on the calling thread.
    /// The thread count changes no bit of the result.
    ///
    /// Allocation-free once warm. Fails only when a stored evaluation
    /// cannot read the graph store: a topology section its frontier cut
    /// needs or a row section it gathers.
    pub fn try_evaluate(&mut self, split: EvalSplit) -> Result<f64, String> {
        let (_, task, s) = self.source.meta();
        let idx: &[u32] = match split {
            EvalSplit::Train => &s.train,
            EvalSplit::Val => &s.val,
            EvalSplit::Test => &s.test,
        };
        if idx.is_empty() {
            self.eval_stats = Some(EvalStats::zero(self.model.num_layers()));
            return Ok(0.0);
        }
        let single = task == TaskKind::SingleLabel;
        let pool = self.eval_pool.as_ref().unwrap_or(&self.thread_pool);
        let (source, model) = (&self.source, &self.model);
        let (eval_ws, labels) = (&mut self.eval_ws, &mut self.eval_labels_split);
        let train_store = &*self.train_store;
        let t0 = Instant::now();
        let turn = EvalTurn::take(&self.pipeline, train_store, source);
        let take_secs = t0.elapsed().as_secs_f64();
        let mut acc = f1::F1Accumulator::new(single);
        let mut score_tile = |roots: &[u32], probs: &DMatrix| {
            debug_assert!(
                rows_released(train_store),
                "training rows mapped during stored evaluation"
            );
            source.gather_labels_into(roots, labels)?;
            for i in 0..roots.len() {
                acc.push_row(probs.row(i), labels.row(i));
            }
            Ok(())
        };
        let inputs = &mut self.eval_inputs;
        let mut stats = pool
            .install(|| {
                let t0 = Instant::now();
                let filled = source.fill_input(model, inputs);
                let fill_secs = t0.elapsed().as_secs_f64();
                let (level_source, cap) = source.level_source(inputs.as_ref());
                let mut stats =
                    model.infer_probs_by_level(level_source, idx, cap, eval_ws, &mut score_tile)?;
                stats.input_rows_aggregated = filled;
                stats.infer_secs += fill_secs;
                io::Result::Ok(stats)
            })
            .map_err(|e| format!("evaluation could not read the graph store: {e}"))?;
        if let Some(turn) = turn {
            let t0 = Instant::now();
            drop(turn);
            stats.turn_secs = take_secs + t0.elapsed().as_secs_f64();
        }
        self.eval_stats = Some(stats);
        Ok(acc.f1())
    }

    /// Run the configured number of epochs, recording the Fig. 2 curve
    /// and Fig. 3 breakdown, with optional early stopping. Can be called
    /// again to continue training.
    pub fn train(&mut self) -> Result<TrainReport, String> {
        let mut epochs = Vec::with_capacity(self.cfg.epochs);
        let mut curve = Curve::new(format!("gsgcn-{}", self.source.meta().0));
        let mut best_f1 = f64::NEG_INFINITY;
        let mut evals_since_best = 0usize;
        // (model step count, val F1) of the latest in-loop validation.
        let mut last_val = None;
        for e in 0..self.cfg.epochs {
            let stats = self.train_epoch()?;
            epochs.push(stats);
            let do_eval = self.cfg.eval_every > 0 && (e + 1) % self.cfg.eval_every == 0;
            if do_eval {
                let f1 = self.try_evaluate(EvalSplit::Val)?;
                last_val = Some((self.model.steps(), f1));
                curve.push(self.train_secs, f1);
                if f1 > best_f1 {
                    best_f1 = f1;
                    evals_since_best = 0;
                } else {
                    evals_since_best += 1;
                }
                if let Some(patience) = self.cfg.patience {
                    if evals_since_best >= patience {
                        break; // early stop: no val improvement
                    }
                }
            }
        }
        // A validation the last epoch already ran is still current: no
        // step has moved the weights since.
        let final_val_f1 = match last_val {
            Some((steps, f1)) if steps == self.model.steps() => f1,
            _ => self.try_evaluate(EvalSplit::Val)?,
        };
        if curve.points.is_empty() || self.cfg.eval_every == 0 {
            curve.push(self.train_secs, final_val_f1);
        }
        let test_f1 = self.try_evaluate(EvalSplit::Test)?;
        Ok(TrainReport {
            epochs,
            final_val_f1,
            test_f1,
            curve,
            breakdown: self.breakdown,
            total_train_secs: self.train_secs,
            shard_cache: self.train_store.cache_stats(),
            eval: self.eval_stats.clone(),
        })
    }
}

/// Seconds a pipeline's workers have spent sampling and gathering.
fn producer_secs(pipe: &SamplerPipeline) -> f64 {
    pipe.producer_sampling_secs() + pipe.producer_gather_secs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_data::presets;
    use gsgcn_graph::StoreOrder;

    fn quick_dataset() -> Dataset {
        // Small PPI-shaped dataset for fast trainer tests.
        presets::scale_spec(&presets::ppi_spec(), 600).generate(11)
    }

    /// A dataset spilled to a fresh temp dir, removed on drop.
    struct Spilled {
        dir: std::path::PathBuf,
    }

    impl Spilled {
        fn new(d: &Dataset, tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "gsgcn-trainer-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            d.spill_to_dir_ordered(&dir, 4, StoreOrder::Natural)
                .unwrap();
            Spilled { dir }
        }

        /// Open on the mmap backend, `budget` mapped bytes per store.
        fn open(&self, budget: usize) -> StoreDataset {
            StoreDataset::open_with(&self.dir, gsgcn_graph::StoreBackend::Mmap, budget).unwrap()
        }
    }

    impl Drop for Spilled {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    #[test]
    fn trainer_builds_and_clamps_budget() {
        let d = quick_dataset();
        let mut cfg = TrainerConfig::quick_test();
        cfg.sampler.budget = 100_000; // larger than the training graph
        let t = GsGcnTrainer::new(&d, cfg).unwrap();
        assert!(t.config().sampler.budget <= d.split.train.len());
        assert!(t.iterations_per_epoch() >= 1);
    }

    #[test]
    fn invalid_config_is_err_not_panic() {
        let d = quick_dataset();
        let mut cfg = TrainerConfig::quick_test();
        cfg.epochs = 0;
        assert!(GsGcnTrainer::new(&d, cfg).is_err());
    }

    #[test]
    fn single_epoch_updates_model_and_timers() {
        let d = quick_dataset();
        let mut t = GsGcnTrainer::new(&d, TrainerConfig::quick_test()).unwrap();
        let stats = t.train_epoch().unwrap();
        assert!(stats.batches >= 1);
        assert!(stats.mean_loss.is_finite());
        assert!(stats.mean_subgraph_vertices > 0.0);
        assert!(t.breakdown().sampling_secs > 0.0);
        assert!(t.breakdown().feature_prop_secs > 0.0);
        assert!(t.breakdown().weight_app_secs > 0.0);
        assert!(t.model().steps() as usize >= stats.batches);
        // No workers: nothing hidden, and the consumer's inline gathers
        // are its `Other` time.
        let (b, pipe) = (t.breakdown(), t.sampler_pipeline());
        assert_eq!(b.sampling_hidden_secs, 0.0);
        assert_eq!(pipe.producer_sampling_secs(), 0.0);
        assert_eq!(pipe.producer_gather_secs(), 0.0);
        assert!(pipe.consumer_gather_secs() > 0.0);
        assert!(b.other_secs >= pipe.consumer_gather_secs(), "{b:?}");
    }

    #[test]
    fn training_learns_ppi_shaped_data() {
        let d = quick_dataset();
        let mut cfg = TrainerConfig::quick_test();
        cfg.epochs = 40;
        cfg.sampler.budget = 150;
        cfg.sampler.frontier_size = 30;
        let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
        let early_f1 = t.evaluate(EvalSplit::Val);
        let report = t.train().unwrap();
        assert!(
            report.final_val_f1 > early_f1,
            "F1 should improve: {early_f1} → {}",
            report.final_val_f1
        );
        assert!(report.final_val_f1 > 0.3, "F1 {}", report.final_val_f1);
        // Loss decreases over epochs.
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.epochs.last().unwrap().mean_loss;
        assert!(last < first, "loss {first} → {last}");
        // Curve recorded.
        assert!(!report.curve.points.is_empty());
    }

    #[test]
    fn deterministic_given_seed_and_parallelism() {
        let d = quick_dataset();
        let run = |threads: usize| {
            let mut cfg = TrainerConfig::quick_test();
            cfg.epochs = 2;
            cfg.threads = threads;
            let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
            let r = t.train().unwrap();
            (r.final_loss(), r.final_val_f1)
        };
        let (l1, f1a) = run(1);
        let (l2, f1b) = run(4);
        // Same seed, same pool contents (instance-seeded) → identical
        // training trajectory regardless of thread count, up to f32
        // non-associativity in parallel reductions. Our kernels do
        // per-row sequential accumulation, so results are bit-equal.
        assert_eq!(l1, l2);
        assert_eq!(f1a, f1b);
    }

    #[test]
    fn early_stopping_halts_training() {
        let d = quick_dataset();
        let mut cfg = TrainerConfig::quick_test();
        cfg.epochs = 100;
        cfg.eval_every = 1;
        cfg.patience = Some(2);
        cfg.adam.lr = 0.0; // frozen weights → F1 never improves after eval 1
        let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
        let report = t.train().unwrap();
        assert!(
            report.epochs.len() <= 4,
            "patience 2 with flat F1 should stop after ~3 epochs, ran {}",
            report.epochs.len()
        );
    }

    #[test]
    fn patience_config_validation() {
        let d = quick_dataset();
        let mut cfg = TrainerConfig::quick_test();
        cfg.patience = Some(0);
        assert!(GsGcnTrainer::new(&d, cfg).is_err());
        let mut cfg = TrainerConfig::quick_test();
        cfg.patience = Some(3);
        cfg.eval_every = 0;
        assert!(GsGcnTrainer::new(&d, cfg).is_err());
    }

    #[test]
    fn from_store_matches_resident_training() {
        let d = quick_dataset();
        let dir = std::env::temp_dir().join(format!(
            "gsgcn-trainer-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        d.spill_to_dir_ordered(&dir, 4, StoreOrder::Natural)
            .unwrap();
        let sd = gsgcn_data::StoreDataset::open_with(
            &dir,
            gsgcn_graph::StoreBackend::Mmap,
            gsgcn_graph::store::DEFAULT_SHARD_CACHE_BYTES,
        )
        .unwrap();

        let mut cfg = TrainerConfig::quick_test();
        cfg.epochs = 2;
        let splits = [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test];
        let run = |mut t: GsGcnTrainer<'_>| {
            let mut losses = Vec::new();
            for _ in 0..2 {
                losses.push(t.train_epoch().unwrap().mean_loss);
            }
            let f1s = splits.map(|s| t.evaluate(s));
            (losses, f1s, t.last_eval_stats().cloned())
        };
        let (loss_res, f1_res, stats_res) = run(GsGcnTrainer::new(&d, cfg.clone()).unwrap());
        let (loss_st, f1_st, stats_st) = run(GsGcnTrainer::from_store(&sd, cfg).unwrap());

        // The train store holds the same induced topology and gathered
        // rows as the resident TrainView, and sampling is seeded — so
        // the loss trajectory is bit-identical.
        assert_eq!(loss_res, loss_st);
        // Stored eval runs layer at a time over frontier tiles whose
        // root rows repeat the full-graph float operations exactly.
        assert_eq!(f1_res, f1_st);
        // Both sources report the same recursion's work: the test split
        // fits one tile at level 2, so the last layer ran once per test
        // vertex and layer 1 once per vertex of its one-hop ball, with no
        // level-1 tile. The resident dataset's layer 1 read `X` in place,
        // gathering nothing; the spilled full store holds `Â·X`, so its
        // layer 1 read one `agg` and one feature row per row it computed.
        let res = stats_res.expect("resident evaluation records its work");
        let stats = stats_st.expect("stored evaluation records its work");
        let layer1 = gsgcn_graph::l_hop_ball(&d.graph, &d.split.test, 1).len();
        for s in [&res, &stats] {
            assert_eq!(s.tiles, vec![0, 1]);
            assert_eq!(s.rows_computed, vec![layer1, d.split.test.len()]);
        }
        assert_eq!((res.rows_gathered, res.agg_rows_gathered), (0, 0));
        assert_eq!(
            (stats.rows_gathered, stats.agg_rows_gathered),
            (layer1, layer1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every part of a stored evaluation is timed and nonzero, the turn
    /// at the store included, and the parts sum to no more than the
    /// wall-clock of the call around them.
    #[test]
    fn stored_evaluation_parts_add_up_to_at_most_the_wall() {
        let d = quick_dataset();
        let spilled = Spilled::new(&d, "parts");
        let sd = spilled.open(1 << 20);
        let mut cfg = TrainerConfig::quick_test();
        cfg.threads = 1;
        cfg.sampler_threads = 1;
        let mut t = GsGcnTrainer::from_store(&sd, cfg).unwrap();
        t.train_epoch().unwrap();
        for split in [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test] {
            let t0 = Instant::now();
            t.try_evaluate(split).unwrap();
            let wall = t0.elapsed().as_secs_f64();
            let s = t.last_eval_stats().unwrap();
            let parts = [
                s.frontier_secs,
                s.gather_secs,
                s.infer_secs,
                s.score_secs,
                s.turn_secs,
            ];
            assert!(parts.iter().all(|&p| p > 0.0), "{split:?}: {parts:?}");
            let sum: f64 = parts.iter().sum();
            assert!(sum <= wall, "{split:?}: {parts:?} sum past the wall {wall}");
        }
    }

    #[test]
    fn try_evaluate_reports_unreadable_rows_as_an_error() {
        use gsgcn_graph::store::shard::shard_file_name;
        let d = quick_dataset();
        let dir = std::env::temp_dir().join(format!(
            "gsgcn-trainer-lost-shard-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        d.spill_to_dir_ordered(&dir, 4, StoreOrder::Natural)
            .unwrap();
        let open = || {
            gsgcn_data::StoreDataset::open_with(&dir, gsgcn_graph::StoreBackend::Mmap, 1 << 20)
                .unwrap()
        };
        // Lose the last shard, then validate only on vertices of other
        // shards with a neighbor in it: a one-layer model reads their
        // neighbor lists fine and fails gathering the lost rows — after
        // the rows of the shards before it are mapped.
        let probe = open();
        let lost = probe.full.num_shards() as u32 - 1;
        let in_lost = |v: u32| probe.full.shard_of(v) == Some(lost);
        let val: Vec<u32> = (0..d.graph.num_vertices() as u32)
            .filter(|&v| !in_lost(v) && d.graph.neighbors(v).iter().any(|&u| in_lost(u)))
            .collect();
        assert!(!val.is_empty(), "fixture has no edge into the lost shard");
        drop(probe);
        let lost_file = shard_file_name(lost as usize);
        std::fs::remove_file(
            dir.join(gsgcn_data::store_dataset::FULL_SUBDIR)
                .join(lost_file),
        )
        .unwrap();
        let mut sd = open();
        sd.split.val = val;

        let mut cfg = TrainerConfig::quick_test();
        cfg.hidden_dims = vec![16];
        let mut t = GsGcnTrainer::from_store(&sd, cfg).unwrap();
        let err = t.try_evaluate(EvalSplit::Val).unwrap_err();
        assert!(err.contains("could not read the graph store"), "{err}");
        // The failed evaluation released the full store's rows anyway.
        let full = sd.full.cache_stats().expect("an mmap store");
        assert_eq!((full.features.resident, full.labels.resident), (0, 0));
        drop(t);
        drop(sd);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Stored evaluation never finds a training row section mapped (the
    /// debug assertion in its tile callback), at a starved and a roomy
    /// budget, however many producers gather beside it: their gathers
    /// pause while it reads the full store. The first evaluation starts
    /// while the fresh producers are still sampling their first tickets,
    /// so their gathers are due mid-evaluation.
    #[test]
    fn stored_evaluation_reads_the_stores_in_turns() {
        let d = quick_dataset();
        let spill = Spilled::new(&d, "turns");
        for budget in [1 << 12, gsgcn_graph::store::DEFAULT_SHARD_CACHE_BYTES] {
            let sd = spill.open(budget);
            for workers in [1, 2] {
                let mut cfg = TrainerConfig::quick_test();
                cfg.threads = 1;
                cfg.epochs = 8;
                cfg.eval_every = 1;
                cfg.sampler_threads = workers;
                let mut t = GsGcnTrainer::from_store(&sd, cfg).unwrap();
                t.try_evaluate(EvalSplit::Val).unwrap();
                t.train().unwrap();
            }
        }
    }

    /// Evaluation runs on the compute threads plus the sampler workers it
    /// leaves idle, and that width changes no bit of any split's F1: on a
    /// resident dataset, and on a store at a starved and at the default
    /// budget, 0, 1 and 2 workers score alike.
    #[test]
    fn evaluation_width_changes_no_f1_bit() {
        let d = quick_dataset();
        let spill = Spilled::new(&d, "eval-width");
        let stores =
            [1 << 12, gsgcn_graph::store::DEFAULT_SHARD_CACHE_BYTES].map(|b| spill.open(b));
        let splits = [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test];
        let score = |mut t: GsGcnTrainer<'_>, workers: usize| {
            assert_eq!(t.eval_threads(), 1 + workers);
            // At the initial weights many probabilities sit near the
            // threshold, so a changed bit would likely move the F1.
            let initial = splits.map(|s| t.evaluate(s).to_bits());
            t.train_epoch().unwrap();
            (initial, splits.map(|s| t.evaluate(s).to_bits()))
        };
        let mut want = None;
        for workers in [0, 1, 2] {
            let mut cfg = TrainerConfig::quick_test();
            cfg.threads = 1;
            cfg.sampler_threads = workers;
            let mut got = vec![score(GsGcnTrainer::new(&d, cfg.clone()).unwrap(), workers)];
            for sd in &stores {
                got.push(score(
                    GsGcnTrainer::from_store(sd, cfg.clone()).unwrap(),
                    workers,
                ));
            }
            assert_eq!(
                &got,
                want.get_or_insert_with(|| got.clone()),
                "{workers} workers"
            );
        }
        // With one compute thread per core the compute pool already spans
        // the machine: evaluation stays on it.
        let mut cfg = TrainerConfig::quick_test();
        cfg.sampler_threads = 1;
        let t = GsGcnTrainer::new(&d, cfg).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(t.eval_threads(), cores);
    }

    /// A training gather that fails surfaces as an `Err` naming the
    /// gather — in its ticket's place, so within the tickets already
    /// gathered ahead — at every worker count, and the trainer still drops.
    #[test]
    fn training_gather_errors_surface_without_a_hang() {
        use gsgcn_graph::store::shard::shard_file_name;
        let d = quick_dataset();
        for workers in [0, 1, 2] {
            let spill = Spilled::new(&d, &format!("gather-error-{workers}"));
            let sd = spill.open(gsgcn_graph::store::DEFAULT_SHARD_CACHE_BYTES);
            let mut cfg = TrainerConfig::quick_test();
            cfg.sampler.budget = 100;
            cfg.sampler.frontier_size = 20;
            cfg.sampler_threads = workers;
            let mut t = GsGcnTrainer::from_store(&sd, cfg).unwrap();
            t.train_epoch().unwrap();
            {
                // Topology stays mapped, so sampling goes on; every later
                // map of the shortened shard's rows fails. (Paused, so no
                // gather maps the intact file in between.)
                let _paused = t.sampler_pipeline().pause_gathers();
                sd.train.release_rows();
                let shard = spill
                    .dir
                    .join(gsgcn_data::store_dataset::TRAIN_SUBDIR)
                    .join(shard_file_name(0));
                let len = std::fs::metadata(&shard).unwrap().len();
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&shard)
                    .unwrap();
                file.set_len(len - 8).unwrap();
            }
            let err = (0..2)
                .find_map(|_| t.train_epoch().err())
                .unwrap_or_else(|| panic!("{workers} workers: no gather error in two epochs"));
            assert!(err.contains("gather from graph store failed"), "{err}");
            drop(t);
        }
    }

    /// A topology section that cannot be mapped fails a stored
    /// evaluation with an `Err` from the level driver's cut, not a panic:
    /// the full store's shard holding the first validation root is
    /// shortened after `open`, before anything of it was mapped.
    #[test]
    fn stored_evaluation_reports_unreadable_topology_as_an_error() {
        use gsgcn_graph::store::shard::shard_file_name;
        let d = quick_dataset();
        let spill = Spilled::new(&d, "topology-error");
        let sd = spill.open(gsgcn_graph::store::DEFAULT_SHARD_CACHE_BYTES);
        let mut t = GsGcnTrainer::from_store(&sd, TrainerConfig::quick_test()).unwrap();
        let sid = sd.full.shard_of(sd.split.val[0]).unwrap() as usize;
        assert_eq!(sd.full.cache_stats().unwrap().topology.resident, 0);
        let shard = spill
            .dir
            .join(gsgcn_data::store_dataset::FULL_SUBDIR)
            .join(shard_file_name(sid));
        let len = std::fs::metadata(&shard).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&shard)
            .unwrap();
        file.set_len(len - 8).unwrap();
        for _ in 0..2 {
            let err = t.try_evaluate(EvalSplit::Val).unwrap_err();
            assert!(err.contains("could not read the graph store"), "{err}");
            assert!(err.contains("truncated"), "{err}");
        }
        drop(t);
    }

    /// The pipelined breakdown counts the producers' gathers as hidden
    /// producer time, never as the consumer's `Other`.
    #[test]
    fn pipelined_gathers_are_producer_time() {
        let d = quick_dataset();
        let mut cfg = TrainerConfig::quick_test();
        cfg.sampler_threads = 1;
        let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
        for _ in 0..2 {
            t.train_epoch().unwrap();
        }
        let pipe = t.sampler_pipeline();
        let (sampled, gathered) = (pipe.producer_sampling_secs(), pipe.producer_gather_secs());
        assert!(gathered > 0.0, "producers gathered nothing");
        assert_eq!(pipe.consumer_gather_secs(), 0.0, "the consumer gathered");
        let b = t.breakdown();
        assert!(b.sampling_hidden_secs <= sampled + gathered, "{b:?}");
    }

    /// An empty split scores 0 and replaces the previous evaluation's
    /// work report with zero work, so no caller prints one split's work
    /// under another.
    #[test]
    fn empty_split_resets_the_work_report() {
        let mut d = quick_dataset();
        let test = std::mem::take(&mut d.split.test);
        d.split.val.extend(test);
        let mut t = GsGcnTrainer::new(&d, TrainerConfig::quick_test()).unwrap();
        t.evaluate(EvalSplit::Val);
        let val = t.last_eval_stats().cloned().unwrap();
        assert_eq!(val.rows_computed.last(), Some(&d.split.val.len()));
        assert_eq!(t.evaluate(EvalSplit::Test), 0.0);
        let empty = t.last_eval_stats().unwrap();
        assert_eq!(empty.rows_computed, vec![0; val.rows_computed.len()]);
        assert_eq!(empty.tiles, vec![0; val.tiles.len()]);
        assert_eq!((empty.rows_gathered, empty.input_rows_aggregated), (0, 0));
    }

    #[test]
    fn evaluate_all_splits() {
        let d = quick_dataset();
        let mut t = GsGcnTrainer::new(&d, TrainerConfig::quick_test()).unwrap();
        t.train_epoch().unwrap();
        for s in [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test] {
            let f = t.evaluate(s);
            assert!((0.0..=1.0).contains(&f), "{s:?}: {f}");
        }
    }
}
