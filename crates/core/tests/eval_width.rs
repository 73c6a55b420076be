//! `GsGcnTrainer` evaluates on a pool as wide as its compute threads plus
//! its sampler workers. That is sound only if the level recursion gives
//! the same bits at every pool width: on a store at a row cap that cuts
//! several tiles per level (as stored evaluation does), and uncapped over
//! a resident source with its kept `Â·X` (as resident evaluation does),
//! with wide features (Reddit: a few rows of `Â·X` kept) and narrow ones
//! (PPI: all kept), in both activation precisions.
//! The pools are explicit, so the widths differ under `taskset -c 0` too.

use gsgcn_data::{presets, Dataset};
use gsgcn_graph::GraphStore;
use gsgcn_nn::model::{GcnConfig, GcnModel, LevelSource, LevelStats, LossKind};
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

/// The level recursion over `source` at `roots` with row cap `cap`: each
/// tile's roots and probability bits, in sink order, and the work.
fn by_level(model: &GcnModel, source: LevelSource<'_>, roots: &[u32], cap: usize) -> Sweep {
    let mut ws = InferenceWorkspace::new();
    let mut tiles = Vec::new();
    let mut sink = |r: &[u32], p: &DMatrix| {
        tiles.push((r.to_vec(), bits(p)));
        Ok(())
    };
    let stats = model
        .infer_probs_by_level(source, roots, cap, &mut ws, &mut sink)
        .unwrap();
    (tiles, stats)
}

/// Resident evaluation's sweep at `roots`, its `Â·X` fill included.
fn resident(model: &GcnModel, d: &Dataset, roots: &[u32]) -> Sweep {
    let (graph, features) = (&d.graph, &d.features);
    let ax = model.aggregate_input(graph, features);
    let input = Some(&ax);
    let source = LevelSource::Resident {
        graph,
        features,
        input,
    };
    let (tiles, mut stats) = by_level(model, source, roots, usize::MAX);
    stats.input_rows_aggregated = ax.kept_rows();
    (tiles, stats)
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
        let mut want: Option<(Sweep, Sweep)> = None;
        for width in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let got = pool.install(|| {
                let stored = by_level(&model, (&store).into(), roots, CAP);
                (stored, resident(&model, &d, roots))
            });
            let ((tiles, level), (probs, resident)) = &got;
            let what = format!("{} {p} at {width} threads", d.name);
            // An f32 layer 1 reads the mem store's `X` in place and cuts
            // no tile; every other level is cut into several.
            let in_place = usize::from(p == Precision::F32);
            let (untiled, tiled) = level.tiles.split_at(in_place);
            let cut = untiled.iter().all(|&t| t == 0) && tiled.iter().all(|&t| t > 1);
            assert!(cut, "{what}: {level:?}");
            // Resident evaluation reads `X` in place with its kept `Â·X`
            // at either precision: one uncapped tile, at the top level.
            assert_eq!(resident.tiles, vec![0, 1], "{what}");
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
