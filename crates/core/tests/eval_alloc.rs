//! Allocation regression for the trainer's evaluation path.
//!
//! `GsGcnTrainer::evaluate` used to rebuild full-graph logits/probs
//! matrices (plus per-split gathers) on every validation epoch. It now
//! runs on the trainer's persistent `InferenceWorkspace` and gather
//! buffers with a streaming F1, so once warm it must perform **zero**
//! matrix allocations — measured with the thread-local counter in
//! `gsgcn_tensor::alloc`, on a 1-thread trainer so every allocation is
//! attributed to the measuring thread. The same holds for the stored
//! (out-of-core) arm and its level buffers.

use gsgcn_core::trainer::EvalSplit;
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::presets;
use gsgcn_tensor::alloc;

#[test]
fn evaluate_is_allocation_free_after_warmup() {
    let d = presets::scale_spec(&presets::ppi_spec(), 600).generate(11);
    let mut cfg = TrainerConfig::quick_test().serial();
    cfg.epochs = 1;
    let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
    t.train_epoch().unwrap();

    // Warm-up: size the workspace and the per-split gather buffers (the
    // largest split fixes each buffer's steady capacity).
    for split in [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test] {
        t.evaluate(split);
    }

    let before = alloc::matrix_allocations();
    for _ in 0..3 {
        for split in [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test] {
            let f1 = t.evaluate(split);
            assert!((0.0..=1.0).contains(&f1));
        }
    }
    let steady = alloc::matrix_allocations() - before;
    assert_eq!(
        steady, 0,
        "evaluate allocated {steady} matrices after warm-up"
    );
}

/// The stored arm — layer-at-a-time inference over frontier tiles read
/// through mmap shards — runs on the same workspace (its level buffers
/// included): zero matrix allocations once every split has sized them.
#[test]
fn stored_evaluate_is_allocation_free_after_warmup() {
    let d = presets::scale_spec(&presets::ppi_spec(), 600).generate(11);
    let dir = std::env::temp_dir().join(format!("gsgcn-eval-alloc-{}", std::process::id()));
    d.spill_to_dir(&dir, 4).unwrap();
    let sd = gsgcn_data::StoreDataset::open_with(&dir, gsgcn_graph::StoreBackend::Mmap, 1 << 20)
        .unwrap();
    let mut cfg = TrainerConfig::quick_test().serial();
    cfg.epochs = 1;
    let mut t = GsGcnTrainer::from_store(&sd, cfg).unwrap();
    t.train_epoch().unwrap();

    let splits = [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test];
    let warm: Vec<f64> = splits.iter().map(|&s| t.evaluate(s)).collect();
    let before = alloc::matrix_allocations();
    for _ in 0..3 {
        let again: Vec<f64> = splits.iter().map(|&s| t.evaluate(s)).collect();
        assert_eq!(again, warm);
    }
    let steady = alloc::matrix_allocations() - before;
    assert_eq!(
        steady, 0,
        "stored evaluate allocated {steady} matrices after warm-up"
    );
    drop(t);
    drop(sd);
    std::fs::remove_dir_all(&dir).ok();
}

/// Routing evaluate through the workspace must not change its result:
/// pin against the allocating model path.
#[test]
fn evaluate_matches_allocating_inference() {
    let d = presets::scale_spec(&presets::ppi_spec(), 600).generate(7);
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 2;
    let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
    t.train().unwrap();

    let probs = t.model().infer_probs(&d.graph, &d.features);
    let idx = &d.split.val;
    let reference = gsgcn_metrics::f1::f1_micro(
        &gsgcn_metrics::f1::binarize(&probs.gather_rows(idx), 0.5),
        &d.labels.gather_rows(idx),
    );
    let got = t.evaluate(EvalSplit::Val);
    assert_eq!(got, reference);
}
