//! Layer-at-a-time inference over frontier tiles
//! (`GcnModel::infer_probs_by_level`, the stored arm of
//! `GsGcnTrainer::evaluate`) must reproduce the full-graph forward **bit
//! for bit** — for every tiling the row cap can force, every store
//! backend and placement order, with and without the store's `Â·X`
//! section, and both activation precisions — and must do no more work
//! than the needed sets when the cap covers them.

use gsgcn_core::trainer::EvalSplit;
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::store_dataset::{write_full_store, FULL_SUBDIR};
use gsgcn_data::{presets, StoreDataset};
use gsgcn_graph::store::mmap::MmapStore;
use gsgcn_graph::store::shard::write_store_ordered;
use gsgcn_graph::StoreBackend;
use gsgcn_graph::{l_hop_ball, CsrGraph, GraphBuilder, GraphStore, StoreOrder};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_tensor::precision::ALL_PRECISIONS;
use gsgcn_tensor::{DMatrix, Precision};
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

/// Whether layer 1 reads the resident store's graph and features in
/// place — no level-1 tile, no level-0 gather: a mem store under a
/// deeper-than-one model whose fused layer 1 runs in f32 (every model
/// here is fused).
fn reads_x_in_place(store: &GraphStore, depth: usize, precision: Precision) -> bool {
    store.backend() == StoreBackend::Mem && depth > 1 && precision == Precision::F32
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
                        // One root per tile, at every level — but layer 1
                        // on a mem store, which reads `X` in place.
                        let in_place = reads_x_in_place(store, depth, precision);
                        let tiled = usize::from(in_place);
                        prop_assert_eq!(&stats.tiles[tiled..], &stats.rows_computed[tiled..]);
                        if in_place {
                            prop_assert_eq!((stats.tiles[0], stats.rows_gathered), (0, 0));
                        }
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
/// backend and in either placement order. On the mem store a deeper
/// model's layer 1 reads `X` in place: no level-1 tile, no rows gathered.
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
        let in_place = reads_x_in_place(store, depth, m.precision());
        let mut tiles = vec![1; depth];
        if in_place {
            tiles[0] = 0;
        }
        assert_eq!(stats.tiles, tiles);
        for layer in 1..=depth {
            assert_eq!(
                stats.rows_computed[layer - 1],
                l_hop_ball(&*g, &roots, depth - layer).len(),
                "{:?}/{:?} depth {depth} layer {layer}",
                store.backend(),
                store.order()
            );
        }
        let gathered = if in_place {
            0
        } else {
            l_hop_ball(&*g, &roots, depth).len()
        };
        assert_eq!(stats.rows_gathered, gathered);
        let (_, again) = by_level(&m, store, &roots, n, &mut ws);
        assert_eq!(
            (again.tiles, again.rows_computed, again.rows_gathered),
            (stats.tiles, stats.rows_computed, stats.rows_gathered)
        );
    }
}

/// A cap well below the needed sets forces several tiles per level; the
/// counts are pinned so that a change to how the cutter interns, groups
/// or rolls back vertices cannot move a tile boundary unnoticed. Each
/// store places vertices differently, so each has its own tiling. The mem
/// store's layer 1 reads `X` in place, so it cuts level 2 only and
/// gathers nothing.
#[test]
fn capped_tiles_are_pinned() {
    let n = 300;
    let chords: Vec<(u32, u32)> = (0..400u32).map(|i| (i * 7919, i * 104_729 + 13)).collect();
    let g = Arc::new(graph_with_hub(n, &chords));
    let x = Arc::new(features(n, 5));
    let spill = |order| GraphStore::spill_to_temp(&g, Some(&x), None, order, 1 << 20).unwrap();
    // (store, tiles per layer, rows computed per layer, rows gathered)
    let pinned = [
        (
            GraphStore::mem(Arc::clone(&g), Some(Arc::clone(&x)), None),
            [0, 7],
            [291, 60],
            0,
        ),
        (spill(StoreOrder::Natural), [40, 7], [291, 60], 1852),
        (spill(StoreOrder::Bfs), [34, 7], [288, 60], 1537),
    ];
    let roots: Vec<u32> = (0..60u32).map(|i| (i * 37) % n as u32).collect();
    let m = model(2, LossKind::SigmoidBce, 23);
    let mut ws = InferenceWorkspace::new();
    for (store, tiles, rows_computed, rows_gathered) in &pinned {
        for _ in 0..2 {
            let (rows, stats) = by_level(&m, store, &roots, 48, &mut ws);
            assert_eq!(rows.len(), roots.len());
            let got = (stats.tiles, stats.rows_computed, stats.rows_gathered);
            let want = (tiles.to_vec(), rows_computed.to_vec(), *rows_gathered);
            assert_eq!(got, want, "{:?}/{:?}", store.backend(), store.order());
        }
    }
}

/// The store-section axis: the same graph on mem and on mmap spills in
/// natural and BFS order, each spill with and without `Â·X`.
fn section_stores(
    g: &Arc<CsrGraph>,
    x: &Arc<DMatrix>,
    shards: usize,
) -> (Vec<GraphStore>, Vec<PathBuf>) {
    let mut stores = vec![GraphStore::mem(Arc::clone(g), Some(Arc::clone(x)), None)];
    let mut dirs = Vec::new();
    for order in [StoreOrder::Natural, StoreOrder::Bfs] {
        for with_agg in [false, true] {
            let dir = fresh_dir();
            if with_agg {
                write_full_store(&dir, g, x, None, shards, order).unwrap();
            } else {
                write_store_ordered(&dir, g, Some(x), None, shards, order).unwrap();
            }
            stores.push(GraphStore::Mmap(MmapStore::open(&dir, 4096).unwrap()));
            dirs.push(dir);
        }
    }
    (stores, dirs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With or without the store's `Â·X` section, on every backend and
    /// order, at a cap that cuts the top level into several tiles and at
    /// none: the level driver gives the full-graph forward's bits. On a
    /// store with the section an f32 layer 1 cuts no tile and reads one
    /// `agg` and one feature row per row it computes; on the mem store it
    /// reads `X` in place, cutting no tile and gathering nothing;
    /// everywhere else it reads no `agg` row and cuts level-1 tiles.
    #[test]
    fn stored_aggregate_is_bit_identical_to_the_full_graph_forward(
        n in 8usize..40,
        chords in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        depth in 1usize..4,
        shards in 1usize..7,
        small_cap in 2usize..9,
        picks in proptest::collection::vec(any::<u32>(), 1..24),
        seed in any::<u64>(),
    ) {
        let g = Arc::new(graph_with_hub(n, &chords));
        let x = Arc::new(features(n, seed));
        let mut m = model(depth, LossKind::SigmoidBce, seed ^ 0xA66);
        let mut roots: Vec<u32> = picks.iter().map(|&p| p % n as u32).collect();
        roots.extend([n as u32 - 2, n as u32 - 1]);
        let mut distinct = roots.clone();
        distinct.sort_unstable();
        distinct.dedup();

        let (stores, dirs) = section_stores(&g, &x, shards);
        let mut ws = InferenceWorkspace::new();
        for precision in ALL_PRECISIONS {
            m.set_precision(precision);
            let mut full = DMatrix::zeros(0, 0);
            m.infer_probs_into(&g, &x, &mut ws, &mut full);
            // The serving entry point runs the same levels: its `H^{L-1}`
            // rows on every store are the mem store's.
            let mut want_hidden = DMatrix::zeros(0, 0);
            m.infer_hidden_by_level(&stores[0], &distinct, &mut ws, &mut want_hidden).unwrap();
            for store in &stores {
                let at = format!("{precision} on {:?}/{:?} agg {}", store.backend(), store.order(), store.has_agg());
                let mut hidden = DMatrix::zeros(0, 0);
                m.infer_hidden_by_level(store, &distinct, &mut ws, &mut hidden).unwrap();
                prop_assert_eq!(&hidden, &want_hidden, "{} serving rows", at);
                for cap in [small_cap, usize::MAX] {
                    let (rows, stats) = by_level(&m, store, &roots, cap, &mut ws);
                    prop_assert_eq!(rows.len(), distinct.len());
                    for &v in &distinct {
                        prop_assert_eq!(&rows[&v][..], full.row(v as usize), "{} root {} cap {}", at, v, cap);
                    }
                    if cap == small_cap && distinct.len() > small_cap {
                        prop_assert!(stats.tiles[depth - 1] > 1, "{} {:?}", at, stats);
                    }
                    let reads_agg = store.has_agg() && depth > 1 && precision == Precision::F32;
                    if reads_agg {
                        let layer1 = stats.rows_computed[0];
                        prop_assert_eq!(stats.tiles[0], 0, "{}", at);
                        prop_assert_eq!((stats.rows_gathered, stats.agg_rows_gathered), (layer1, layer1), "{}", at);
                    } else if reads_x_in_place(store, depth, precision) {
                        prop_assert_eq!(stats.agg_rows_gathered, 0, "{}", at);
                        prop_assert_eq!((stats.tiles[0], stats.rows_gathered), (0, 0), "{}", at);
                    } else {
                        prop_assert_eq!(stats.agg_rows_gathered, 0, "{}", at);
                        prop_assert!(stats.tiles[0] > 0, "{} {:?}", at, stats);
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

/// A spilled dataset's stored evaluation, counted: on the full store as
/// written (with `Â·X`) layer 1 cuts no tile, gathers no level-0 ball and
/// reads one `agg` row and one feature row per level-1 vertex — the
/// one-hop ball of the split, since the split's level-2 tile fits the
/// cap. The same full store rewritten without the section evaluates as
/// before: the same F1 bits and rows per layer, with the level-1 tile cut
/// and the level-0 ball gathered.
#[test]
fn stored_evaluation_reads_layer_one_from_the_stored_aggregate() {
    let d = presets::scale_spec(&presets::ppi_spec(), 600).generate(29);
    let spill = |tag: &str| {
        let dir = fresh_dir().join(tag);
        d.spill_to_dir_ordered(&dir, 4, StoreOrder::Bfs).unwrap();
        dir
    };
    let (with, without) = (spill("agg"), spill("plain"));
    // The section-less store: the same full graph, rows and placement.
    write_store_ordered(
        &without.join(FULL_SUBDIR),
        &d.graph,
        Some(&d.features),
        Some(&d.labels),
        4,
        StoreOrder::Bfs,
    )
    .unwrap();
    let open = |dir: &PathBuf| StoreDataset::open_with(dir, StoreBackend::Mmap, 1 << 20).unwrap();
    let (sd_with, sd_without) = (open(&with), open(&without));
    assert!(sd_with.full.has_agg() && !sd_without.full.has_agg());
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 1;
    let evaluate = |sd: &StoreDataset| {
        let mut t = GsGcnTrainer::from_store(sd, cfg.clone()).unwrap();
        t.train_epoch().unwrap();
        [EvalSplit::Val, EvalSplit::Test].map(|split| {
            let f1 = t.try_evaluate(split).unwrap();
            (f1.to_bits(), t.last_eval_stats().unwrap().clone())
        })
    };
    let (got, before) = (evaluate(&sd_with), evaluate(&sd_without));
    for (split, ((f1, stats), (f1_before, stats_before))) in [&d.split.val, &d.split.test]
        .iter()
        .zip(got.iter().zip(&before))
    {
        assert_eq!(f1, f1_before, "F1 bits");
        assert_eq!(stats.rows_computed, stats_before.rows_computed);
        let layer1 = l_hop_ball(&d.graph, split, 1).len();
        assert_eq!(stats.tiles, vec![0, 1], "{}", stats.summary());
        assert_eq!(
            (
                stats.rows_computed[0],
                stats.rows_gathered,
                stats.agg_rows_gathered
            ),
            (layer1, layer1, layer1),
            "{}",
            stats.summary()
        );
        assert!(stats
            .summary()
            .contains(&format!(", {layer1} agg rows gathered, ")));
        assert_eq!(stats_before.tiles, vec![1, 1], "{}", stats_before.summary());
        assert_eq!(stats_before.agg_rows_gathered, 0);
        assert_eq!(
            stats_before.rows_gathered,
            l_hop_ball(&d.graph, split, 2).len()
        );
    }
    drop((sd_with, sd_without));
    std::fs::remove_dir_all(with.parent().unwrap()).ok();
    std::fs::remove_dir_all(without.parent().unwrap()).ok();
}
