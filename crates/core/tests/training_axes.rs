//! One training trajectory, wherever the graph lives and whoever samples
//! it. Sampler instances are seeded by `(batch, instance)` (Alg. 5), so
//! every epoch's loss bits and the final validation F1 are a function of
//! the seed alone: the same on the resident dataset and on a spilled
//! store — materialised in memory or memory-mapped, in natural and BFS
//! placement, behind a starved and a roomy shard cache — and with 0 and 2
//! sampler workers, in both activation precisions.
//!
//! The starved budget forces eviction churn on every epoch. The store's
//! other consumers state the backend and order axes themselves:
//! `graph/tests/proptest_store.rs` (section cache at the budget boundary,
//! zero-width sections, held references, two readers),
//! `sampler/tests/store_work_bounds.rs`, `serve/tests/cold_work_bounds.rs`,
//! `serve/tests/proptest_store_serving.rs` and `level_inference.rs`
//! (stored evaluation bit-identical to the full-graph forward).

use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::{presets, StoreDataset};
use gsgcn_graph::{StoreBackend, StoreOrder};
use gsgcn_tensor::precision::ALL_PRECISIONS;
use gsgcn_tensor::Precision;

/// Far below one shard's feature bytes (600 × 602 f32 over 4 shards ≈
/// 350 KiB each): every epoch maps and evicts row sections.
const STARVED: usize = 16 << 10;
const ROOMY: usize = 64 << 20;

fn config(sampler_threads: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 2;
    cfg.sampler_threads = sampler_threads;
    cfg
}

/// Per-epoch mean-loss bits and the final validation F1's bits, trained
/// in `p`.
fn trajectory(t: GsGcnTrainer<'_>, p: Precision) -> (Vec<u32>, u64) {
    let mut t = t.with_precision(p);
    let report = t.train().unwrap();
    let losses = report
        .epochs
        .iter()
        .map(|e| e.mean_loss.to_bits())
        .collect();
    (losses, report.final_val_f1.to_bits())
}

#[test]
fn trajectory_is_invariant_to_store_order_budget_and_sampler_workers() {
    let d = presets::scale_spec(&presets::reddit_spec(), 600).generate(11);
    let references =
        ALL_PRECISIONS.map(|p| trajectory(GsGcnTrainer::new(&d, config(0)).unwrap(), p));
    assert_ne!(references[0], references[1], "bf16 trains like f32");
    for (p, reference) in ALL_PRECISIONS.into_iter().zip(&references) {
        // Two epochs of the single-label fixture land mid-range, so equal
        // F1 bits say something.
        let f1 = f64::from_bits(reference.1);
        assert!(f1 > 0.0 && f1 < 1.0, "{p}: reference val F1 {f1}");
        assert_eq!(
            &trajectory(GsGcnTrainer::new(&d, config(2)).unwrap(), p),
            reference,
            "{p}: resident, 2 sampler workers"
        );
    }

    let root = std::env::temp_dir().join(format!("gsgcn-training-axes-{}", std::process::id()));
    let cases = [
        (StoreOrder::Natural, StoreBackend::Mem, ROOMY),
        (StoreOrder::Natural, StoreBackend::Mmap, STARVED),
        (StoreOrder::Natural, StoreBackend::Mmap, ROOMY),
        (StoreOrder::Bfs, StoreBackend::Mmap, STARVED),
        (StoreOrder::Bfs, StoreBackend::Mmap, ROOMY),
    ];
    for (order, backend, budget) in cases {
        let dir = root.join(order.name());
        if !dir.exists() {
            d.spill_to_dir_ordered(&dir, 4, order).unwrap();
        }
        let sd = StoreDataset::open_with(&dir, backend, budget).unwrap();
        for (workers, (p, reference)) in [0, 2].into_iter().flat_map(|w| {
            ALL_PRECISIONS
                .into_iter()
                .zip(&references)
                .map(move |r| (w, r))
        }) {
            let got = trajectory(GsGcnTrainer::from_store(&sd, config(workers)).unwrap(), p);
            assert_eq!(
                &got, reference,
                "{p}: {backend:?} store, {order:?} order, {budget}-byte cache, \
                 {workers} sampler workers"
            );
        }
        if budget == STARVED {
            let stats = sd.train.cache_stats().unwrap();
            assert!(
                stats.evictions > 0,
                "the starved cache never evicted: {stats:?}"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
