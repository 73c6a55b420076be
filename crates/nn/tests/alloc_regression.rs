//! Allocation-regression tests for the training *and inference* hot
//! paths.
//!
//! `GcnModel::train_step` must perform **zero matrix allocations** once
//! its persistent workspace is warm — the property the packed-GEMM /
//! buffer-reuse refactor exists to guarantee — and the workspace-driven
//! inference pair `infer_logits_into`/`infer_probs_into` must match it
//! once the caller-owned [`InferenceWorkspace`] is warm (this is what
//! makes the serving hot path and the trainer's per-epoch `evaluate`
//! allocation-free). These tests pin both with the thread-local
//! allocation counter in `gsgcn_tensor::alloc`, running the measured
//! region inside a 1-thread rayon pool so every allocation is attributed
//! to the measuring thread.

use gsgcn_graph::{CsrGraph, GraphBuilder};
use gsgcn_nn::adam::AdamHyper;
use gsgcn_nn::model::{GcnConfig, GcnModel, LevelSource, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_tensor::{alloc, DMatrix};

fn ring_graph(n: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .map(|i| (i, (i + 1) % n as u32))
        .chain((0..n as u32 / 2).map(|i| (i, i + n as u32 / 2)))
        .collect();
    GraphBuilder::new(n).add_edges(edges).build()
}

fn cfg(in_dim: usize, dropout: f32) -> GcnConfig {
    GcnConfig {
        in_dim,
        hidden_dims: vec![16, 16],
        num_classes: 4,
        loss: LossKind::SigmoidBce,
        adam: AdamHyper::default(),
        dropout,
        fused: true,
    }
}

/// Run `steps` training steps and return the allocation-counter delta.
fn allocs_during(
    model: &mut GcnModel,
    g: &CsrGraph,
    x: &DMatrix,
    y: &DMatrix,
    steps: usize,
) -> u64 {
    let before = alloc::matrix_allocations();
    for _ in 0..steps {
        model.train_step(g, x, y);
    }
    alloc::matrix_allocations() - before
}

/// The fused (default) train_step must perform zero matrix allocations
/// after warm-up: fused GEMM packs, the aggregation producer's
/// accumulator and the spilled `Z` buffer all come from persistent or
/// pooled storage.
#[test]
fn train_step_is_allocation_free_after_first_iteration() {
    let n = 64;
    let g = ring_graph(n);
    let x = DMatrix::from_fn(n, 8, |i, j| ((i * 7 + j) % 13) as f32 * 0.1 - 0.6);
    let y = DMatrix::from_fn(n, 4, |i, j| ((i + j) % 2) as f32);
    let mut model = GcnModel::new(cfg(8, 0.0), 42);
    assert!(model.config().fused, "default model must be fused");

    // All parallel work inline on this thread so the thread-local counter
    // sees every allocation.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        // Warm-up: first iteration builds the persistent workspace.
        let warmup = allocs_during(&mut model, &g, &x, &y, 1);
        assert!(warmup > 0, "warm-up should build the workspace");
        // Steady state: strictly zero matrix allocations.
        let steady = allocs_during(&mut model, &g, &x, &y, 10);
        assert_eq!(
            steady, 0,
            "fused train_step allocated {steady} matrices after warm-up"
        );
    });
}

/// The unfused reference path keeps the same guarantee.
#[test]
fn unfused_train_step_is_allocation_free_after_first_iteration() {
    let n = 64;
    let g = ring_graph(n);
    let x = DMatrix::from_fn(n, 8, |i, j| ((i * 5 + j) % 11) as f32 * 0.1 - 0.5);
    let y = DMatrix::from_fn(n, 4, |i, j| ((i + j) % 2) as f32);
    let mut c = cfg(8, 0.0);
    c.fused = false;
    let mut model = GcnModel::new(c, 42);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        allocs_during(&mut model, &g, &x, &y, 1);
        let steady = allocs_during(&mut model, &g, &x, &y, 10);
        assert_eq!(
            steady, 0,
            "unfused train_step allocated {steady} matrices after warm-up"
        );
    });
}

#[test]
fn train_step_with_dropout_is_allocation_free_after_first_iteration() {
    let n = 48;
    let g = ring_graph(n);
    let x = DMatrix::from_fn(n, 6, |i, j| ((i * 3 + j) % 11) as f32 * 0.1 - 0.5);
    let y = DMatrix::from_fn(n, 4, |i, j| ((i * 2 + j) % 2) as f32);
    let mut model = GcnModel::new(cfg(6, 0.3), 7);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        allocs_during(&mut model, &g, &x, &y, 2);
        let steady = allocs_during(&mut model, &g, &x, &y, 10);
        assert_eq!(
            steady, 0,
            "dropout path allocated {steady} matrices after warm-up"
        );
    });
}

/// A bf16 train_step — the layer-owned quantised input, bf16 panels in
/// both passes, the spill-only `Z` of layer 1 — is allocation-free after
/// warm-up too, with and without dropout.
#[test]
fn bf16_train_step_is_allocation_free_after_first_iteration() {
    use gsgcn_tensor::Precision;
    let n = 64;
    let g = ring_graph(n);
    let x = DMatrix::from_fn(n, 8, |i, j| ((i * 7 + j) % 13) as f32 * 0.1 - 0.6);
    let y = DMatrix::from_fn(n, 4, |i, j| ((i + j) % 2) as f32);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        for dropout in [0.0, 0.3] {
            let mut model = GcnModel::new(cfg(8, dropout), 5);
            model.set_precision(Precision::Bf16);
            let warmup = allocs_during(&mut model, &g, &x, &y, 2);
            assert!(warmup > 0, "warm-up should build the workspace");
            let steady = allocs_during(&mut model, &g, &x, &y, 10);
            assert_eq!(
                steady, 0,
                "bf16 train_step (dropout {dropout}) allocated {steady} matrices after warm-up"
            );
        }
    });
}

/// Workspace-driven inference must be allocation-free once the
/// ping-pong buffers are warm — for the fused default and the unfused
/// reference, and for both output activations.
#[test]
fn infer_into_is_allocation_free_after_warmup() {
    let n = 64;
    let g = ring_graph(n);
    let x = DMatrix::from_fn(n, 8, |i, j| ((i * 7 + j) % 13) as f32 * 0.1 - 0.6);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        for fused in [true, false] {
            for loss in [LossKind::SigmoidBce, LossKind::SoftmaxCe] {
                let mut c = cfg(8, 0.0);
                c.fused = fused;
                c.loss = loss;
                let model = GcnModel::new(c, 42);
                let mut ws = InferenceWorkspace::new();
                let mut probs = DMatrix::zeros(0, 0);
                // Warm-up sizes the workspace and output buffer.
                model.infer_probs_into(&g, &x, &mut ws, &mut probs);
                let before = alloc::matrix_allocations();
                for _ in 0..10 {
                    model.infer_probs_into(&g, &x, &mut ws, &mut probs);
                }
                let steady = alloc::matrix_allocations() - before;
                assert_eq!(
                    steady, 0,
                    "infer_probs_into (fused={fused}, {loss:?}) allocated \
                     {steady} matrices after warm-up"
                );
            }
        }
    });
}

/// Resident evaluation (the level recursion over a resident source with
/// a precomputed `Â·X`, uncapped) is allocation-free once the workspace
/// is warm — in both layer-1 input precisions, fused and unfused,
/// whichever target set (up to the largest seen) a call scores.
#[test]
fn resident_level_inference_is_allocation_free_after_warmup() {
    use gsgcn_tensor::precision::ALL_PRECISIONS;
    let n = 64;
    let g = ring_graph(n);
    let x = DMatrix::from_fn(n, 8, |i, j| ((i * 7 + j) % 13) as f32 * 0.1 - 0.6);
    let splits: [Vec<u32>; 2] = [(0..n as u32).step_by(3).collect(), vec![5, 1, 5, 60]];

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        for precision in ALL_PRECISIONS {
            for fused in [true, false] {
                let mut c = cfg(8, 0.0);
                c.fused = fused;
                let mut model = GcnModel::new(c, 42);
                model.set_precision(precision);
                let ax = model.aggregate_input(&g, &x);
                let source = LevelSource::Resident {
                    graph: &g,
                    features: &x,
                    input: Some(&ax),
                };
                let mut ws = InferenceWorkspace::new();
                let mut score = |targets: &[u32]| {
                    let mut sink = |_: &[u32], _: &DMatrix| Ok(());
                    model
                        .infer_probs_by_level(source, targets, usize::MAX, &mut ws, &mut sink)
                        .unwrap();
                };
                for targets in &splits {
                    score(targets);
                }
                let before = alloc::matrix_allocations();
                for _ in 0..5 {
                    for targets in &splits {
                        score(targets);
                    }
                }
                let steady = alloc::matrix_allocations() - before;
                assert_eq!(
                    steady, 0,
                    "resident level inference ({precision}, fused={fused}) allocated \
                     {steady} matrices after warm-up"
                );
            }
        }
    });
}

/// A warm workspace absorbs *bounded* shape variation — the batched
/// serving case, where L-hop subgraph sizes vary per request but stay
/// under a cap.
#[test]
fn infer_into_reuses_buffers_across_bounded_graph_sizes() {
    let sizes = [40usize, 64, 52, 48];
    let graphs: Vec<CsrGraph> = sizes.iter().map(|&n| ring_graph(n)).collect();
    let xs: Vec<DMatrix> = sizes
        .iter()
        .map(|&n| DMatrix::from_fn(n, 8, |i, j| ((i + j) % 5) as f32 * 0.2 - 0.4))
        .collect();
    let model = GcnModel::new(cfg(8, 0.0), 3);
    let mut ws = InferenceWorkspace::new();
    let mut out = DMatrix::zeros(0, 0);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        for i in 0..sizes.len() {
            model.infer_probs_into(&graphs[i], &xs[i], &mut ws, &mut out);
        }
        let before = alloc::matrix_allocations();
        for _ in 0..3 {
            for i in 0..sizes.len() {
                model.infer_probs_into(&graphs[i], &xs[i], &mut ws, &mut out);
            }
        }
        let steady = alloc::matrix_allocations() - before;
        assert_eq!(
            steady, 0,
            "bounded-shape inference allocated {steady} matrices after warm-up"
        );
    });
}

#[test]
fn train_step_reuses_buffers_across_bounded_subgraph_sizes() {
    // Shapes vary (as sampled subgraphs do) but stay within a bound:
    // after one pass over the size range, further passes must be free.
    let sizes = [40usize, 64, 52, 48];
    let graphs: Vec<CsrGraph> = sizes.iter().map(|&n| ring_graph(n)).collect();
    let xs: Vec<DMatrix> = sizes
        .iter()
        .map(|&n| DMatrix::from_fn(n, 8, |i, j| ((i + j) % 5) as f32 * 0.2 - 0.4))
        .collect();
    let ys: Vec<DMatrix> = sizes
        .iter()
        .map(|&n| DMatrix::from_fn(n, 4, |i, j| ((i * j) % 2) as f32))
        .collect();
    let mut model = GcnModel::new(cfg(8, 0.0), 3);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        // Warm-up pass over every size (the largest fixes the capacity).
        for i in 0..sizes.len() {
            model.train_step(&graphs[i], &xs[i], &ys[i]);
        }
        let before = alloc::matrix_allocations();
        for _ in 0..3 {
            for i in 0..sizes.len() {
                model.train_step(&graphs[i], &xs[i], &ys[i]);
            }
        }
        let steady = alloc::matrix_allocations() - before;
        assert_eq!(
            steady, 0,
            "bounded-shape training allocated {steady} matrices after warm-up"
        );
    });
}
