//! `GsGcnTrainer` evaluates on a pool as wide as its compute threads plus
//! its sampler workers. That is sound only if the evaluation forwards give
//! the same bits at every pool width: the level recursion at a row cap
//! that cuts several tiles per level (the stored arm) and the resident
//! forward over a kept `Â·X` (the resident arm), with wide features
//! (Reddit: a few rows of `Â·X` kept) and narrow ones (PPI: all kept), in
//! both activation precisions.
//! The pools are explicit, so the widths differ under `taskset -c 0` too.

use gsgcn_data::{presets, Dataset};
use gsgcn_graph::GraphStore;
use gsgcn_nn::model::{GcnConfig, GcnModel, LevelStats, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_tensor::precision::ALL_PRECISIONS;
use gsgcn_tensor::{DMatrix, Precision};
use std::sync::Arc;

/// Rows per level buffer: small enough that every level of these graphs
/// takes several tiles.
const CAP: usize = 96;

fn model(d: &Dataset, p: Precision) -> GcnModel {
    let mut m = GcnModel::new(
        GcnConfig {
            in_dim: d.feature_dim(),
            hidden_dims: vec![32, 32],
            num_classes: d.num_classes(),
            loss: LossKind::SigmoidBce,
            ..GcnConfig::default()
        },
        5,
    );
    m.set_precision(p);
    m
}

/// The work counts of a sweep; its seconds differ run to run.
fn counts(s: &LevelStats) -> (Vec<usize>, Vec<usize>, usize, usize) {
    let rows = s.rows_computed.clone();
    (
        s.tiles.clone(),
        rows,
        s.rows_gathered,
        s.input_rows_aggregated,
    )
}

fn bits(m: &DMatrix) -> Vec<u32> {
    (0..m.rows())
        .flat_map(|i| m.row(i).iter().map(|p| p.to_bits()))
        .collect()
}

type Sweep = (Vec<(Vec<u32>, Vec<u32>)>, LevelStats);

/// The level recursion over `store` at `roots`: each tile's roots and
/// probability bits, in sink order, and the work.
fn by_level(model: &GcnModel, store: &GraphStore, roots: &[u32]) -> Sweep {
    let mut ws = InferenceWorkspace::new();
    let mut tiles = Vec::new();
    let mut sink = |r: &[u32], p: &DMatrix| {
        tiles.push((r.to_vec(), bits(p)));
        Ok(())
    };
    let stats = model
        .infer_probs_by_level(store, roots, CAP, &mut ws, &mut sink)
        .unwrap();
    (tiles, stats)
}

/// The resident forward at `targets`, `Â·X` included: probability bits
/// and work.
fn at(model: &GcnModel, d: &Dataset, targets: &[u32]) -> (Vec<u32>, LevelStats) {
    let (g, x) = (&d.graph, &d.features);
    let ax = model.aggregate_input(g, x);
    let mut ws = InferenceWorkspace::new();
    let mut probs = DMatrix::zeros(0, 0);
    let mut stats = model.infer_probs_at_into(g, x, &ax, targets, &mut ws, &mut probs);
    stats.input_rows_aggregated = ax.kept_rows();
    (bits(&probs), stats)
}

#[test]
fn evaluation_forwards_are_pool_width_invariant() {
    for (spec, p) in [presets::ppi_spec(), presets::reddit_spec()]
        .into_iter()
        .flat_map(|s| ALL_PRECISIONS.map(|p| (s.clone(), p)))
    {
        let d = presets::scale_spec(&spec, 600).generate(17);
        let model = model(&d, p);
        let store = GraphStore::mem(
            Arc::new(d.graph.clone()),
            Some(Arc::new(d.features.clone())),
            None,
        );
        let roots = &d.split.val;
        let mut want: Option<(Sweep, (Vec<u32>, LevelStats))> = None;
        for width in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let got = pool.install(|| (by_level(&model, &store, roots), at(&model, &d, roots)));
            let ((tiles, level), (probs, resident)) = &got;
            let what = format!("{} {p} at {width} threads", d.name);
            assert!(level.tiles.iter().all(|&t| t > 1), "{what}: {level:?}");
            assert!(resident.input_rows_aggregated > 0, "{what}: {resident:?}");
            let ((want_tiles, want_level), (want_probs, want_resident)) =
                want.get_or_insert_with(|| got.clone());
            assert!(tiles == want_tiles, "{what}: level probabilities differ");
            assert_eq!(counts(level), counts(want_level), "{what}");
            assert!(probs == want_probs, "{what}: resident probabilities differ");
            assert_eq!(counts(resident), counts(want_resident), "{what}");
        }
    }
}
