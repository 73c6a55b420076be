//! Training workloads (`train_dense`, `train_bf16`, `train_ooc`).
//!
//! The untraced pass drives `GsGcnTrainer` exactly as `gsgcn train` does
//! and produces the end-to-end metrics. The traced pass rebuilds the same
//! epoch loop from the public pieces the trainer is made of (sampler →
//! pool or pipeline → store gather → `GcnModel::train_step`) with the same
//! configuration, so each layer's share can be timed from outside it.

use crate::inputs::{permutation, Rng};
use crate::probe;
use crate::report::Report;
use crate::spec::{Shape, TrainSpec, SETUP_REPEATS};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::{totals_by_name, Tracer, NO_PARENT};
use gsgcn_core::trainer::EvalSplit;
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::dataset::TaskKind;
use gsgcn_data::presets::{self, DatasetSpec};
use gsgcn_data::store_dataset::{FULL_SUBDIR, TRAIN_SUBDIR};
use gsgcn_data::{Dataset, StoreDataset};
use gsgcn_graph::store::MmapStore;
use gsgcn_graph::{
    induced_subgraph, l_hop_ball, l_hop_subgraph, GraphStore, InducedSubgraph, StoreBackend,
    StoreCacheStats, StoreOrder, Topology,
};
use gsgcn_metrics::convergence::Curve;
use gsgcn_metrics::f1;
use gsgcn_nn::adam::AdamHyper;
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_prop::propagator::{FeaturePropagator, PropMode};
use gsgcn_sampler::dashboard::{DashboardSampler, FrontierConfig};
use gsgcn_sampler::pipeline::{PipelineConfig, SamplerPipeline};
use gsgcn_sampler::pool::SubgraphPool;
use gsgcn_sampler::GraphSampler;
use gsgcn_tensor::DMatrix;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The trainer XORs this into its seed for the sampler ticket stream; the
/// rebuilt loop must draw the same subgraphs.
const SAMPLER_SEED_XOR: u64 = 0x5A4B;

pub fn dataset_spec(shape: Shape, vertices: usize) -> DatasetSpec {
    let base = match shape {
        Shape::Reddit => presets::reddit_spec(),
        Shape::Yelp => presets::yelp_spec(),
    };
    presets::scale_spec(&base, vertices)
}

/// A generated dataset: resident, or spilled to shards and reopened.
pub enum Data {
    Resident(Box<Dataset>),
    Stored(StoreDataset),
}

#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    generate_s: f64,
    spill_s: f64,
    open_s: f64,
}

/// `e2e spill` child mode: generate the out-of-core dataset, scramble its
/// vertex ids (the generator lays communities out as contiguous id blocks,
/// which would hand natural placement the locality BFS order has to
/// recover), spill it to `dir`, and print the two timings. Runs in its own
/// process so the measuring process's `VmHWM` never includes the resident
/// copy of a graph it is supposed to read out of core.
pub fn spill_child(spec: &TrainSpec, seed: u64, dir: &Path) -> Result<(), String> {
    let ooc = spec.ooc.ok_or("workload has no out-of-core store")?;
    let t0 = Instant::now();
    let d = dataset_spec(spec.shape, spec.vertices)
        .generate(seed)
        .relabeled(&permutation(spec.vertices, seed ^ 0xC0FFEE));
    let generate_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    d.spill_to_dir_ordered(dir, ooc.shards, StoreOrder::Bfs)
        .map_err(|e| format!("spill to {} failed: {e}", dir.display()))?;
    println!("{generate_s} {}", t0.elapsed().as_secs_f64());
    Ok(())
}

fn setup(
    name: &str,
    spec: &TrainSpec,
    seed: u64,
    work: &Path,
) -> Result<(Data, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let data = match spec.ooc {
        None => {
            let t0 = Instant::now();
            let d = dataset_spec(spec.shape, spec.vertices).generate(seed);
            times.generate_s = t0.elapsed().as_secs_f64();
            Data::Resident(Box::new(d))
        }
        Some(ooc) => {
            let dir = work.join("store");
            let _ = std::fs::remove_dir_all(&dir);
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let out = std::process::Command::new(exe)
                .args([
                    "spill",
                    "--workload",
                    name,
                    "--seed",
                    &seed.to_string(),
                    "--dir",
                ])
                .arg(&dir)
                .output()
                .map_err(|e| format!("cannot start the spill child: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "spill child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            let mut parts = text.split_whitespace().map(str::parse::<f64>);
            match (parts.next(), parts.next()) {
                (Some(Ok(g)), Some(Ok(s))) => (times.generate_s, times.spill_s) = (g, s),
                _ => return Err(format!("spill child printed {text:?}")),
            }
            let t0 = Instant::now();
            let mut sd = StoreDataset::open_with(&dir, StoreBackend::Mmap, ooc.cache_bytes)
                .map_err(|e| format!("open store failed: {e}"))?;
            // `open_with` takes prefetch from the (scrubbed) environment;
            // the explicit constructor turns it on through the API.
            for (slot, sub) in [(&mut sd.full, FULL_SUBDIR), (&mut sd.train, TRAIN_SUBDIR)] {
                let store = MmapStore::open_with_prefetch(&dir.join(sub), ooc.cache_bytes, true)
                    .map_err(|e| format!("open {sub} store failed: {e}"))?;
                *slot = Arc::new(GraphStore::Mmap(store));
            }
            times.open_s = t0.elapsed().as_secs_f64();
            Data::Stored(sd)
        }
    };
    // Building a trainer (model init, sampler, pools) is set-up too.
    drop(new_trainer(&data, trainer_config(spec, seed))?);
    Ok((data, times))
}

/// Run set-up [`SETUP_REPEATS`] times (dropping each result before the
/// next); returns the last result and the median wall-clock seconds.
fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS ≥ 1"), median(&secs)))
}

fn frontier_config(spec: &TrainSpec) -> FrontierConfig {
    FrontierConfig {
        frontier_size: spec.frontier,
        budget: spec.budget,
        ..FrontierConfig::default()
    }
}

fn adam(spec: &TrainSpec) -> AdamHyper {
    AdamHyper {
        lr: spec.lr,
        ..AdamHyper::default()
    }
}

/// Every field spelled out: nothing is left to an environment default.
fn trainer_config(spec: &TrainSpec, seed: u64) -> TrainerConfig {
    TrainerConfig {
        sampler: frontier_config(spec),
        hidden_dims: spec.hidden.to_vec(),
        adam: adam(spec),
        dropout: 0.0,
        epochs: spec.epochs,
        p_inter: spec.p_inter,
        threads: spec.threads,
        sampler_threads: spec.sampler_threads,
        eval_every: spec.eval_every,
        prop_mode: PropMode::default(),
        fused: true,
        patience: None,
        seed,
    }
}

fn new_trainer(data: &Data, cfg: TrainerConfig) -> Result<GsGcnTrainer<'_>, String> {
    match data {
        Data::Resident(d) => GsGcnTrainer::new(d, cfg),
        Data::Stored(sd) => GsGcnTrainer::from_store(sd, cfg),
    }
}

/// Seed of the `j`-th training of a run: same dataset, fresh weights and
/// sampler stream.
fn training_seed(seed: u64, j: u64) -> u64 {
    let mut rng = Rng::new(seed);
    (0..=j)
        .map(|_| rng.next_u64())
        .last()
        .expect("j + 1 ≥ 1 draws")
}

/// Untraced pass: whole trainings back to back until the window is used.
pub fn run(
    name: &str,
    spec: &TrainSpec,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Report, String> {
    let mut out = Report::default();
    let ((data, _), setup_s) = repeat_setup(|| setup(name, spec, seed, work))?;
    out.set("setup_s", setup_s);

    let window = Instant::now();
    let mut epoch_secs = Vec::new();
    let mut eval_secs = Vec::new();
    let mut to_target = Vec::new();
    let mut final_f1 = Vec::new();
    let mut longest = 0.0f64;
    let mut trainings = 0u64;
    // Another training starts only if one more of the longest seen so far
    // still ends inside the window; the first always runs.
    while trainings == 0 || window.elapsed().as_secs_f64() + longest <= seconds {
        let started = Instant::now();
        let mut trainer = new_trainer(&data, trainer_config(spec, training_seed(seed, trainings)))?;
        let mut curve = Curve::new(name);
        let mut f1_now = 0.0;
        let mut line = String::new();
        for e in 0..spec.epochs {
            let stats = trainer.train_epoch()?;
            out.attempted += 1;
            if !stats.mean_loss.is_finite() {
                out.failed += 1;
                out.error(format!(
                    "training {trainings} epoch {e}: loss {}",
                    stats.mean_loss
                ));
            }
            if e > 0 {
                // Epoch 0 of a fresh trainer sizes every buffer: warm-up.
                epoch_secs.push(stats.secs);
            }
            if (e + 1) % spec.eval_every == 0 {
                let t0 = Instant::now();
                f1_now = trainer.evaluate(EvalSplit::Val);
                eval_secs.push(t0.elapsed().as_secs_f64());
                curve.push(trainer.train_secs(), f1_now);
                line.push_str(&format!(" {f1_now:.4}"));
            }
        }
        out.note(format!("training {trainings}: val F1 by eval{line}"));
        out.attempted += 1;
        match curve.time_to_reach(spec.f1_threshold) {
            Some(t) => to_target.push(t),
            None => {
                out.failed += 1;
                out.error(format!(
                    "training {trainings} never reached val F1 {}",
                    spec.f1_threshold
                ));
            }
        }
        if f1_now < spec.f1_threshold {
            out.error(format!(
                "training {trainings} ended at val F1 {f1_now:.4} < {}",
                spec.f1_threshold
            ));
        }
        final_f1.push(f1_now);
        trainings += 1;
        longest = longest.max(started.elapsed().as_secs_f64());
    }

    let s = sorted(&epoch_secs);
    let p = highest_supported_percentile(s.len());
    out.note(format!(
        "{trainings} trainings; epoch_s median {:.4} p{} {:.4} (n = {}); eval_s median {:.4} (n = {})",
        median(&s),
        p * 100.0,
        percentile(&s, p),
        s.len(),
        median(&eval_secs),
        eval_secs.len()
    ));
    // A training that never got there is charged its whole training time.
    out.set(
        "to_target_s",
        if to_target.is_empty() {
            longest
        } else {
            median(&to_target)
        },
    );
    out.set("op_ms", 1e3 * median(&epoch_secs));
    out.set("slow_op_ms", 1e3 * median(&eval_secs));
    out.set("quality", median(&final_f1));
    Ok(out)
}

/// Wraps the frontier sampler so the pool and the pipeline record a span
/// around each public call they make into it.
struct TracingSampler {
    inner: DashboardSampler,
    tracer: Arc<Tracer>,
    /// Span the synchronous refill runs under (`NO_PARENT` on pipeline
    /// worker threads, which run beside the epoch, not inside it).
    parent: AtomicU32,
    pops: AtomicU64,
    probes: AtomicU64,
    subgraphs: AtomicU64,
    vertices: AtomicU64,
}

impl GraphSampler for TracingSampler {
    fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
        let id = self.tracer.open(
            "sampler.frontier",
            self.parent.load(Ordering::Relaxed),
            seed,
        );
        let (verts, stats) = self.inner.sample_with_stats(g, seed);
        self.tracer.close(id);
        self.pops.fetch_add(stats.pops as u64, Ordering::Relaxed);
        self.probes
            .fetch_add(stats.probes as u64, Ordering::Relaxed);
        verts
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sample_subgraph(&self, g: &dyn Topology, seed: u64) -> InducedSubgraph {
        let verts = self.sample_vertices(g, seed);
        let id = self
            .tracer
            .open("graph.induce", self.parent.load(Ordering::Relaxed), seed);
        let sub = induced_subgraph(g, &verts);
        self.tracer.close(id);
        self.subgraphs.fetch_add(1, Ordering::Relaxed);
        self.vertices
            .fetch_add(sub.num_vertices() as u64, Ordering::Relaxed);
        sub
    }
}

fn cache_stats(stores: &[&GraphStore]) -> StoreCacheStats {
    let mut sum = StoreCacheStats::default();
    for s in stores.iter().filter_map(|s| s.cache_stats()) {
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.evictions += s.evictions;
        sum.prefetch_issued += s.prefetch_issued;
        sum.prefetch_hits += s.prefetch_hits;
        sum.prefetch_wasted += s.prefetch_wasted;
    }
    sum
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A stock trainer's first-epoch mean loss, and its median `train_epoch()`
/// seconds over the `epochs` after that warm-up epoch.
fn stock_trainer(data: &Data, cfg: TrainerConfig, epochs: usize) -> Result<(f32, f64), String> {
    let mut trainer = new_trainer(data, cfg)?;
    let first_loss = trainer.train_epoch()?.mean_loss;
    let secs: Result<Vec<f64>, String> = (0..epochs)
        .map(|_| trainer.train_epoch().map(|s| s.secs))
        .collect();
    Ok((first_loss, median(&secs?)))
}

/// One traced validation pass rebuilt from public pieces: the resident
/// path is one full-graph forward; the stored path streams L-hop balls
/// through the shard cache with the trainer's chunking rule.
fn traced_eval(
    tr: &Tracer,
    data: &Data,
    model: &GcnModel,
    ws: &mut InferenceWorkspace,
    op: u64,
    ball_rows: &mut u64,
) -> f64 {
    let eval = tr.open("core.eval", NO_PARENT, op);
    let mut probs = DMatrix::zeros(0, 0);
    let f1 = match data {
        Data::Resident(d) => {
            tr.span("core.eval_infer", eval, op, || {
                model.infer_probs_into(&d.graph, &d.features, ws, &mut probs)
            });
            let single = d.task == TaskKind::SingleLabel;
            let p = probs.gather_rows(&d.split.val);
            f1::f1_micro_from_probs(&p, &d.labels.gather_rows(&d.split.val), single)
        }
        Data::Stored(sd) => {
            // Same constants as `GsGcnTrainer::evaluate`.
            const CHUNK_ROOTS: usize = 256;
            const MAX_BALL_ROWS: usize = 32 * 1024;
            let full: &GraphStore = &sd.full;
            let hops = model.num_layers();
            let idx = &sd.split.val;
            let mut acc = f1::F1Accumulator::new(sd.task == TaskKind::SingleLabel);
            let (mut x, mut y) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
            let (mut start, mut chunk) = (0usize, CHUNK_ROOTS);
            while start < idx.len() {
                let roots = &idx[start..(start + chunk).min(idx.len())];
                let ball = tr.open("core.eval_ball", eval, op);
                let rows = l_hop_ball(full, roots, hops).len();
                if rows > MAX_BALL_ROWS && roots.len() > 1 {
                    tr.close(ball);
                    chunk = (chunk / 2).max(1);
                    continue;
                }
                let next = start + roots.len();
                if next < idx.len() {
                    full.prefetch_nodes(&idx[next..(next + chunk).min(idx.len())]);
                }
                let batch = l_hop_subgraph(full, roots, hops);
                tr.close(ball);
                *ball_rows += batch.num_vertices() as u64;
                tr.span("core.eval_gather", eval, op, || {
                    full.gather_features_into(&batch.sub.origin, &mut x)
                        .and_then(|()| full.gather_labels_into(roots, &mut y))
                        .expect("eval gather from the graph store");
                });
                tr.span("core.eval_infer", eval, op, || {
                    model.infer_probs_into(&batch.sub.graph, &x, ws, &mut probs)
                });
                for (i, &local) in batch.root_locals.iter().enumerate() {
                    acc.push_row(probs.row(local as usize), y.row(i));
                }
                start = next;
                if rows * 2 <= MAX_BALL_ROWS {
                    chunk = (chunk * 2).min(CHUNK_ROOTS);
                }
            }
            acc.f1()
        }
    };
    tr.close(eval);
    f1
}

/// Traced pass: machine and kernel probes, a stock-trainer reference, the
/// rebuilt epoch loop under spans, and (two-thread workloads) the
/// single-thread baseline.
pub fn run_traced(
    name: &str,
    spec: &TrainSpec,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &Arc<Tracer>,
) -> Result<Report, String> {
    let mut out = Report::default();
    let (data, times) = setup(name, spec, seed, work)?;
    out.set("data.generate_s", times.generate_s);
    out.set("data.spill_s", times.spill_s);
    out.set("graph.store.open_s", times.open_s);

    let (store, full, task): (Arc<GraphStore>, Option<&GraphStore>, TaskKind) = match &data {
        Data::Resident(d) => {
            let tv = d.train_view();
            let store = GraphStore::mem(tv.graph, Some(tv.features), Some(tv.labels));
            (Arc::new(store), None, d.task)
        }
        Data::Stored(sd) => (Arc::clone(&sd.train), Some(&sd.full), sd.task),
    };
    let (f, classes) = (store.feature_dim(), store.label_dim());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(spec.threads)
        .build()
        .map_err(|e| e.to_string())?;
    let sampler_seed = seed ^ SAMPLER_SEED_XOR;

    // Denominators first, then the kernels at this workload's shape on one
    // subgraph of its own sampler.
    probe::machine(spec.threads, &mut out);
    let sample =
        DashboardSampler::new(frontier_config(spec)).sample_subgraph(&*store, sampler_seed);
    pool.install(|| probe::kernels(&sample.graph, f, spec.hidden[0], spec.precision, &mut out));

    const REFERENCE_EPOCHS: usize = 4;
    let (stock_loss, untraced) =
        stock_trainer(&data, trainer_config(spec, seed), REFERENCE_EPOCHS)?;
    if spec.threads == 2 {
        let mut serial = trainer_config(spec, seed);
        serial.threads = 1;
        let (_, one) = stock_trainer(&data, serial, REFERENCE_EPOCHS)?;
        out.set("core.par_speedup_2t", ratio(one, untraced));
    }

    // The trainer's own construction, piece by piece.
    let mut model = GcnModel::with_propagator(
        GcnConfig {
            in_dim: f,
            hidden_dims: spec.hidden.to_vec(),
            num_classes: classes,
            loss: match task {
                TaskKind::MultiLabel => LossKind::SigmoidBce,
                TaskKind::SingleLabel => LossKind::SoftmaxCe,
            },
            adam: adam(spec),
            dropout: 0.0,
            fused: true,
        },
        seed,
        FeaturePropagator::new(PropMode::default()),
    );
    let sampler = Arc::new(TracingSampler {
        inner: DashboardSampler::new(frontier_config(spec)),
        tracer: Arc::clone(tracer),
        parent: AtomicU32::new(NO_PARENT),
        pops: AtomicU64::new(0),
        probes: AtomicU64::new(0),
        subgraphs: AtomicU64::new(0),
        vertices: AtomicU64::new(0),
    });
    let mut subgraphs = SubgraphPool::new(spec.p_inter, sampler_seed);
    let mut pipeline = (spec.sampler_threads > 0).then(|| {
        let pipe = SamplerPipeline::spawn(
            Arc::clone(&sampler),
            Arc::clone(&store),
            PipelineConfig {
                workers: spec.sampler_threads,
                p_inter: spec.p_inter,
                base_seed: sampler_seed,
                capacity: 0,
            },
        );
        if store.prefetch_enabled() {
            let hinted = Arc::clone(&store);
            pipe.set_on_ready(Some(Arc::new(move |origin: &[u32]| {
                hinted.prefetch_nodes(origin);
            })));
        }
        pipe
    });
    let iters = store.num_vertices().div_ceil(spec.budget).max(1);
    let (mut x, mut y) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
    let mut ws = InferenceWorkspace::new();

    let stores: Vec<&GraphStore> = std::iter::once(&*store).chain(full).collect();
    let mut cache_before = StoreCacheStats::default();
    let (mut stall_before, mut produced_before) = (0.0, 0.0);
    let (mut fused_s, mut gemm_s) = (0.0f64, 0.0f64);
    let (mut gather_rows, mut ball_rows) = (0u64, 0u64);
    let (mut epochs, mut evals) = (0u64, 0u64);
    let mut epoch_secs = Vec::new();
    let mut warm_end_ns = 0u64;
    let mut traced_f1 = 0.0;

    // Epoch 0 is warm-up (buffers size themselves); counters and spans
    // restart after it. Then traced epochs fill the rest of the window,
    // validating on the workload's own schedule.
    const MIN_TRACED_EPOCHS: u64 = 3;
    let window = Instant::now();
    let mut e = 0u64;
    while e == 0 || epochs < MIN_TRACED_EPOCHS || window.elapsed().as_secs_f64() < seconds {
        let warm_up = e == 0;
        let mut loss_sum = 0.0f64;
        let epoch = tracer.open("core.epoch", NO_PARENT, e);
        pool.install(|| -> Result<(), String> {
            for i in 0..iters {
                let op = e * iters as u64 + i as u64;
                let pop = tracer.open("sampler.pop", epoch, op);
                let sub = match pipeline.as_mut() {
                    // Producers run beside the epoch (their spans have no
                    // parent); only the stall is on the blocking path.
                    Some(pipe) => pipe.pop().map_err(|e| e.to_string())?,
                    None => {
                        sampler.parent.store(pop, Ordering::Relaxed);
                        subgraphs.pop_or_refill(&*sampler, &*store)
                    }
                };
                tracer.close(pop);
                tracer
                    .span("graph.store.gather", epoch, op, || {
                        store
                            .gather_features_into(&sub.origin, &mut x)
                            .and_then(|()| store.gather_labels_into(&sub.origin, &mut y))
                    })
                    .map_err(|e| format!("gather from the graph store failed: {e}"))?;
                let step = tracer.span("nn.train_step", epoch, op, || {
                    model.train_step(&sub.graph, &x, &y)
                });
                if !warm_up {
                    fused_s += step.timings.feature_prop_secs;
                    gemm_s += step.timings.weight_app_secs;
                    gather_rows += sub.origin.len() as u64;
                }
                loss_sum += step.loss as f64;
                out.attempted += 1;
                if !step.loss.is_finite() {
                    out.failed += 1;
                    out.error(format!(
                        "traced epoch {e} iteration {i}: loss {}",
                        step.loss
                    ));
                }
            }
            Ok(())
        })?;
        let secs = tracer.close(epoch);
        if warm_up {
            // The rebuilt loop is the trainer's loop only if it draws the
            // same subgraphs and takes the same steps: this pins the copied
            // seed derivation and loop structure against drift.
            let loss = (loss_sum / iters as f64) as f32;
            if loss != stock_loss {
                out.error(format!(
                    "rebuilt loop's first-epoch loss {loss} differs from the stock trainer's {stock_loss}"
                ));
            }
            warm_end_ns = tracer.now_ns();
            cache_before = cache_stats(&stores);
            if let Some(pipe) = &pipeline {
                stall_before = pipe.consumer_stall_secs();
                produced_before = pipe.producer_sampling_secs();
            }
            for counter in [
                &sampler.pops,
                &sampler.probes,
                &sampler.subgraphs,
                &sampler.vertices,
            ] {
                counter.store(0, Ordering::Relaxed);
            }
        } else {
            epochs += 1;
            epoch_secs.push(secs);
            if epochs % spec.eval_every as u64 == 0 || epochs == MIN_TRACED_EPOCHS && evals == 0 {
                traced_f1 =
                    pool.install(|| traced_eval(tracer, &data, &model, &mut ws, e, &mut ball_rows));
                evals += 1;
            }
        }
        e += 1;
    }
    let cache = cache_stats(&stores);
    let (stall, produced) = pipeline.as_ref().map_or((0.0, 0.0), |p| {
        (
            p.consumer_stall_secs() - stall_before,
            p.producer_sampling_secs() - produced_before,
        )
    });
    drop(pipeline); // joins the sampler workers before spans are read

    // Everything before the end of the warm-up epoch is left out of the sums.
    let totals = totals_by_name(&tracer.spans(), warm_end_ns);
    let total = |n: &str| totals.get(n).map_or(0.0, |t| t.0);
    let per_epoch = |v: f64| v / epochs as f64;
    let per_eval = |v: f64| ratio(v, evals as f64);
    let traced = median(&epoch_secs);
    out.set("core.epoch_s", traced);
    out.set("core.trace_overhead_ratio", ratio(traced, untraced));
    let (epoch_total, epoch_self, _) = totals["core.epoch"];
    out.set("core.trace_sum_ratio", 1.0 - ratio(epoch_self, epoch_total));
    out.set("sampler.frontier_s", per_epoch(total("sampler.frontier")));
    out.set("graph.induce_s", per_epoch(total("graph.induce")));
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    out.set("sampler.subgraphs", per_epoch(count(&sampler.subgraphs)));
    out.set("sampler.vertices", per_epoch(count(&sampler.vertices)));
    out.set(
        "sampler.probes_per_pop",
        ratio(count(&sampler.probes), count(&sampler.pops)),
    );
    out.set("sampler.pipeline_stall_s", per_epoch(stall));
    out.set(
        "sampler.pipeline_hidden_ratio",
        ratio((produced - stall).max(0.0), produced),
    );
    let gather = total("graph.store.gather");
    out.set("graph.store.gather_s", per_epoch(gather));
    out.set("graph.store.gather_rows", per_epoch(gather_rows as f64));
    // Computed bytes: every gathered row's features and labels as f32.
    out.set(
        "graph.store.gather_gbps",
        ratio(
            (gather_rows as usize * (f + classes) * 4) as f64 / 1e9,
            gather,
        ),
    );
    let delta = |now: u64, before: u64| (now - before) as f64;
    let (hits, misses) = (
        delta(cache.hits, cache_before.hits),
        delta(cache.misses, cache_before.misses),
    );
    let issued = delta(cache.prefetch_issued, cache_before.prefetch_issued);
    out.set("graph.store.cache_hit_ratio", ratio(hits, hits + misses));
    out.set("graph.store.cache_misses", misses);
    out.set(
        "graph.store.cache_evictions",
        delta(cache.evictions, cache_before.evictions),
    );
    out.set("graph.store.prefetch_issued", issued);
    out.set(
        "graph.store.prefetch_useful_ratio",
        ratio(
            delta(cache.prefetch_hits, cache_before.prefetch_hits),
            issued,
        ),
    );
    out.set(
        "graph.store.prefetch_wasted",
        delta(cache.prefetch_wasted, cache_before.prefetch_wasted),
    );
    out.set("prop.fused_s", per_epoch(fused_s));
    out.set("tensor.gemm_s", per_epoch(gemm_s));
    out.set(
        "nn.step_self_s",
        per_epoch(total("nn.train_step") - fused_s - gemm_s),
    );
    out.set("core.eval_s", per_eval(total("core.eval")));
    out.set("core.eval_ball_s", per_eval(total("core.eval_ball")));
    out.set("core.eval_gather_s", per_eval(total("core.eval_gather")));
    out.set("core.eval_infer_s", per_eval(total("core.eval_infer")));
    out.set("nn.infer_s", per_eval(total("core.eval_infer")));
    out.set("graph.ball_s", per_eval(total("core.eval_ball")));
    out.set("graph.ball_rows", per_eval(ball_rows as f64));
    out.note(format!(
        "{epochs} traced epochs, {evals} traced evals (last val F1 {traced_f1:.4}); untraced epoch_s {untraced:.4}"
    ));
    Ok(out)
}
