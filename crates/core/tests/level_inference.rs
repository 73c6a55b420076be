//! Layer-at-a-time inference over frontier tiles
//! (`GcnModel::infer_probs_by_level`, the stored arm of
//! `GsGcnTrainer::evaluate`) must reproduce the full-graph forward **bit
//! for bit** — for every tiling the row cap can force, every store
//! backend and placement order, and both activation
//! precisions — and must do no more work than the needed sets when the
//! cap covers them.

use gsgcn_graph::store::mmap::MmapStore;
use gsgcn_graph::store::shard::write_store_ordered;
use gsgcn_graph::{l_hop_ball, CsrGraph, GraphBuilder, GraphStore, StoreOrder};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_tensor::precision::ALL_PRECISIONS;
use gsgcn_tensor::DMatrix;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FEATURES: usize = 5;

/// Ring + chords over `0..n-2`, vertex `n-2` a hub adjacent to every
/// third ring vertex (its frontier exceeds any small cap), vertex `n-1`
/// isolated (a degree-0 root).
fn graph_with_hub(n: usize, chords: &[(u32, u32)]) -> CsrGraph {
    let ring = (n - 2) as u32;
    let mut edges: Vec<(u32, u32)> = (0..ring).map(|i| (i, (i + 1) % ring)).collect();
    edges.extend(
        chords
            .iter()
            .map(|&(a, b)| (a % ring, b % ring))
            .filter(|(a, b)| a != b),
    );
    edges.extend((0..ring).step_by(3).map(|v| (ring, v)));
    GraphBuilder::new(n).add_edges(edges).build()
}

fn features(n: usize, seed: u64) -> DMatrix {
    DMatrix::from_fn(n, FEATURES, |i, j| {
        ((seed as usize).wrapping_add(i * 131 + j * 37) % 29) as f32 * 0.11 - 1.5
    })
}

fn model(depth: usize, loss: LossKind, seed: u64) -> GcnModel {
    GcnModel::new(
        GcnConfig {
            in_dim: FEATURES,
            hidden_dims: vec![8; depth],
            num_classes: 3,
            loss,
            ..GcnConfig::default()
        },
        seed,
    )
}

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gsgcn-level-inference-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every store the driver can sit on: resident, and an mmap spill for
/// each placement order, behind a cache small enough that tiles evict
/// each other's shards.
fn stores(g: &Arc<CsrGraph>, x: &Arc<DMatrix>, shards: usize) -> (Vec<GraphStore>, Vec<PathBuf>) {
    let mut stores = vec![GraphStore::mem(Arc::clone(g), Some(Arc::clone(x)), None)];
    let mut dirs = Vec::new();
    for order in [StoreOrder::Natural, StoreOrder::Bfs, StoreOrder::Degree] {
        let dir = fresh_dir();
        write_store_ordered(&dir, g, Some(x), None, shards, order).unwrap();
        stores.push(GraphStore::Mmap(MmapStore::open(&dir, 4096).unwrap()));
        dirs.push(dir);
    }
    (stores, dirs)
}

/// Run the level driver and collect `root → probability row`, checking
/// that no root is reported twice.
fn by_level(
    m: &GcnModel,
    store: &GraphStore,
    roots: &[u32],
    cap: usize,
    ws: &mut InferenceWorkspace,
) -> (HashMap<u32, Vec<f32>>, gsgcn_nn::model::LevelStats) {
    let mut rows = HashMap::new();
    let stats = m
        .infer_probs_by_level(store, roots, cap, ws, &mut |tile, probs| {
            assert_eq!(probs.rows(), tile.len());
            for (i, &v) in tile.iter().enumerate() {
                let fresh = rows.insert(v, probs.row(i).to_vec()).is_none();
                assert!(fresh, "root {v} reported twice");
            }
            Ok(())
        })
        .unwrap();
    (rows, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn level_driver_is_bit_identical_to_the_full_graph_forward(
        n in 8usize..40,
        chords in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        depth in 1usize..4,
        softmax in any::<bool>(),
        shards in 1usize..7,
        small_cap in 2usize..9,
        picks in proptest::collection::vec(any::<u32>(), 1..24),
        seed in any::<u64>(),
    ) {
        let g = Arc::new(graph_with_hub(n, &chords));
        let x = Arc::new(features(n, seed));
        let loss = if softmax { LossKind::SoftmaxCe } else { LossKind::SigmoidBce };
        let mut m = model(depth, loss, seed ^ 0xBEEF);
        // Random roots with duplicates, plus the hub and the isolated vertex.
        let mut roots: Vec<u32> = picks.iter().map(|&p| p % n as u32).collect();
        roots.extend([n as u32 - 2, n as u32 - 1, roots[0]]);
        let mut distinct = roots.clone();
        distinct.sort_unstable();
        distinct.dedup();

        let (stores, dirs) = stores(&g, &x, shards);
        let mut ws = InferenceWorkspace::new();
        for precision in ALL_PRECISIONS {
            m.set_precision(precision);
            let mut full = DMatrix::zeros(0, 0);
            m.infer_probs_into(&g, &x, &mut ws, &mut full);
            for store in &stores {
                for cap in [1, small_cap, usize::MAX] {
                    let (rows, stats) = by_level(&m, store, &roots, cap, &mut ws);
                    prop_assert_eq!(rows.len(), distinct.len());
                    for &v in &distinct {
                        prop_assert_eq!(
                            &rows[&v][..],
                            full.row(v as usize),
                            "{} root {} cap {} on {:?}/{:?}",
                            precision, v, cap, store.backend(), store.order()
                        );
                    }
                    prop_assert_eq!(stats.rows_computed[depth - 1], distinct.len());
                    if cap == 1 {
                        // One root per tile, at every level.
                        prop_assert_eq!(&stats.tiles, &stats.rows_computed);
                    }
                }
            }
        }
        drop(stores);
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// When the cap covers every level's needed set the sweep is
/// work-efficient: one tile per level, layer `ℓ` computes exactly the
/// `(L-ℓ)`-hop ball of the roots, and every feature row of the L-hop
/// ball is gathered once — counts that repeat run to run, on either
/// backend and in either placement order.
#[test]
fn work_is_the_needed_sets_when_the_cap_covers_them() {
    let n = 600;
    let chords: Vec<(u32, u32)> = (0..900u32).map(|i| (i * 7919, i * 104_729 + 13)).collect();
    let g = Arc::new(graph_with_hub(n, &chords));
    let x = Arc::new(features(n, 3));
    let spill = |order| GraphStore::spill_to_temp(&g, Some(&x), None, order, 1 << 20).unwrap();
    let stores = [
        GraphStore::mem(Arc::clone(&g), Some(Arc::clone(&x)), None),
        spill(StoreOrder::Natural),
        spill(StoreOrder::Bfs),
    ];
    let roots: Vec<u32> = (0..40u32).map(|i| i * 11).collect();
    let mut ws = InferenceWorkspace::new();
    for (store, depth) in stores.iter().flat_map(|s| (1..=3).map(move |d| (s, d))) {
        let m = model(depth, LossKind::SigmoidBce, 17);
        let (_, stats) = by_level(&m, store, &roots, n, &mut ws);
        assert_eq!(stats.tiles, vec![1; depth]);
        for layer in 1..=depth {
            assert_eq!(
                stats.rows_computed[layer - 1],
                l_hop_ball(&*g, &roots, depth - layer).len(),
                "{:?}/{:?} depth {depth} layer {layer}",
                store.backend(),
                store.order()
            );
        }
        assert_eq!(stats.rows_gathered, l_hop_ball(&*g, &roots, depth).len());
        let (_, again) = by_level(&m, store, &roots, n, &mut ws);
        assert_eq!(
            (again.tiles, again.rows_computed, again.rows_gathered),
            (stats.tiles, stats.rows_computed, stats.rows_gathered)
        );
    }
}
