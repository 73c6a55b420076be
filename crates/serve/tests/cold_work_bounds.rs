//! Work bounds of `NodeClassifier::classify_into`, as exact counts.
//!
//! A request computes GCN layer `ℓ < L` only on the rows within `L-ℓ`
//! hops of its roots and gathers each feature row within `L` hops once —
//! and both only over the frontier rows the activation cache does not
//! already hold. The counts come from the level recursion's own
//! `LevelStats` (`ClassifyWorkspace::last_level_stats`) and are compared
//! with independently extracted `l_hop_ball`s, on both store backends.
//! On a mem store a fused f32 layer 1 reads the store's graph and
//! features in place: it cuts no level-1 tile and gathers no feature row.

use gsgcn_graph::{
    l_hop_ball, one_hop_frontier, CsrGraph, GraphBuilder, GraphStore, StoreBackend, StoreOrder,
};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_serve::{ActivationCache, ClassifyWorkspace, NodeClassifier};
use gsgcn_tensor::{DMatrix, Precision};
use std::sync::Arc;

const N: usize = 240;
/// Duplicates included: a repeated root adds no work.
const ROOTS: [u32; 5] = [7, 120, 7, 201, 64];

/// Ring with sparse chords (average degree ≈ 3, so a 3-hop ball of the
/// roots stays well inside the graph) and vertex 64 cut loose: a
/// degree-0 root.
fn fixture_graph() -> CsrGraph {
    let ring = (0..N as u32).map(|i| (i, (i + 1) % N as u32));
    let chords = (0..N as u32 / 2).map(|i| (i * 2, (i * 37 + 11) % N as u32));
    let edges: Vec<(u32, u32)> = ring
        .chain(chords)
        .filter(|&(a, b)| a != b && a != 64 && b != 64)
        .collect();
    GraphBuilder::new(N).add_edges(edges).build()
}

struct Fixture {
    graph: Arc<CsrGraph>,
    model: Arc<GcnModel>,
    store: Arc<GraphStore>,
}

fn config(depth: usize) -> GcnConfig {
    GcnConfig {
        in_dim: 6,
        hidden_dims: vec![8; depth],
        num_classes: 3,
        loss: LossKind::SoftmaxCe,
        ..GcnConfig::default()
    }
}

fn fixture(depth: usize, backend: StoreBackend) -> Fixture {
    fixture_for(Arc::new(GcnModel::new(config(depth), 29)), backend)
}

fn fixture_for(model: Arc<GcnModel>, backend: StoreBackend) -> Fixture {
    let graph = Arc::new(fixture_graph());
    let x = Arc::new(DMatrix::from_fn(N, 6, |i, j| {
        ((i * 131 + j * 37) % 17) as f32 * 0.13 - 1.0
    }));
    let store = match backend {
        StoreBackend::Mem => GraphStore::mem(Arc::clone(&graph), Some(x), None),
        StoreBackend::Mmap => {
            GraphStore::spill_to_temp(&graph, Some(&x), None, StoreOrder::Natural, 64 << 20)
                .unwrap()
        }
    };
    Fixture {
        graph,
        model,
        store: Arc::new(store),
    }
}

impl Fixture {
    fn classifier(&self, cache: Option<Arc<ActivationCache>>) -> NodeClassifier {
        NodeClassifier::from_store(Arc::clone(&self.model), Arc::clone(&self.store))
            .unwrap()
            .with_cache(cache)
    }

    fn ball(&self, ids: &[u32], hops: usize) -> usize {
        l_hop_ball(&*self.graph, ids, hops).len()
    }

    /// Whether layer 1 reads the mem store's `X` in place: a model deeper
    /// than one whose layer 1 is fused f32, on a mem store.
    fn reads_x_in_place(&self) -> bool {
        self.store.backend() == StoreBackend::Mem
            && self.model.num_layers() > 1
            && self.model.config().fused
            && self.model.input_precision() == Precision::F32
    }
}

/// Assert that the last classify through `ws` computed `H^{L-1}` on
/// exactly the closed `reach`-hop ball of `ids` and nothing it did not
/// need below that: layer `ℓ < L` on the rows `L-1-ℓ` hops further out,
/// feature rows `L-1` hops further out, one tile per level — or, where
/// layer 1 reads `X` in place ([`Fixture::reads_x_in_place`]), no level-1
/// tile and no feature row gathered.
fn assert_minimal_work(f: &Fixture, ws: &ClassifyWorkspace, ids: &[u32], reach: usize, what: &str) {
    let depth = f.model.num_layers();
    let stats = ws
        .last_level_stats()
        .unwrap_or_else(|| panic!("{what}: the level recursion was not entered"));
    let in_place = f.reads_x_in_place();
    let mut tiles = vec![1; depth - 1];
    if in_place {
        tiles[0] = 0;
    }
    assert_eq!(stats.tiles, tiles, "{what}: tiles per layer");
    for layer in 1..depth {
        let hops = reach + depth - 1 - layer;
        let (got, want) = (stats.rows_computed[layer - 1], f.ball(ids, hops));
        assert_eq!(
            got,
            want,
            "{what}: layer {layer} of {depth} computed {got} rows, the closed {hops}-hop \
             ball of the {} ids has {want}",
            ids.len()
        );
    }
    let hops = reach + depth - 1;
    let want = if in_place { 0 } else { f.ball(ids, hops) };
    let got = stats.rows_gathered;
    assert_eq!(
        got,
        want,
        "{what}: level 0 gathered {got} feature rows, the closed {hops}-hop ball of the \
         {} ids has {want}",
        ids.len()
    );
}

#[test]
fn uncached_request_computes_each_ball_once() {
    for backend in [StoreBackend::Mem, StoreBackend::Mmap] {
        for depth in 1..=3 {
            let f = fixture(depth, backend);
            let c = f.classifier(None);
            let mut ws = ClassifyWorkspace::new();
            c.classify_into(&ROOTS, &mut ws, &mut Vec::new()).unwrap();
            // `H^{L-1}` is needed on the roots' closed one-hop ball, so
            // layer ℓ runs on |ball(roots, L-ℓ)| rows and |ball(roots, L)|
            // feature rows are gathered.
            let what = format!("{} depth {depth}, no cache", backend.name());
            assert_minimal_work(&f, &ws, &ROOTS, 1, &what);
        }
    }
}

#[test]
fn partial_hit_computes_only_the_missing_rows() {
    for backend in [StoreBackend::Mem, StoreBackend::Mmap] {
        for depth in 2..=3 {
            let f = fixture(depth, backend);
            let origin = one_hop_frontier(&*f.store, &ROOTS).origin;
            // An arbitrary subset of the frontier is resident (roots and
            // frontier-only rows alike); the rest is missing.
            let (resident, missing): (Vec<u32>, Vec<u32>) =
                origin.iter().partition(|&&v| v % 3 == 1 || v == 7);
            assert!(resident.len() > 2 && missing.len() > 2);
            let cache = Arc::new(ActivationCache::new(8 << 20));
            let mut rows = DMatrix::zeros(0, 0);
            f.model
                .infer_hidden_by_level(
                    &f.store,
                    &resident,
                    &mut InferenceWorkspace::new(),
                    &mut rows,
                )
                .unwrap();
            cache.insert_rows(&resident, &rows);

            let c = f.classifier(Some(Arc::clone(&cache)));
            let mut ws = ClassifyWorkspace::new();
            let before = cache.stats();
            let mut got = Vec::new();
            c.classify_into(&ROOTS, &mut ws, &mut got).unwrap();
            let what = format!("{} depth {depth}, partial hit", backend.name());
            assert_eq!(
                got,
                f.classifier(None).classify(&ROOTS).unwrap(),
                "{what}: answers differ from the cache-less classifier's"
            );
            let probed = cache.stats();
            assert_eq!(
                (probed.hits - before.hits, probed.misses - before.misses),
                (resident.len() as u64, missing.len() as u64),
                "{what}: (hits, misses) of the probe"
            );
            let top = ws.last_level_stats().unwrap().rows_computed[depth - 2];
            assert_eq!(
                top,
                missing.len(),
                "{what}: layer {} computed {top} rows, {} frontier rows were missing",
                depth - 1,
                missing.len()
            );
            assert_minimal_work(&f, &ws, &missing, 0, &what);

            // The request left the whole frontier resident: the same
            // request again never enters the recursion.
            c.classify_into(&ROOTS, &mut ws, &mut Vec::new()).unwrap();
            assert!(
                ws.last_level_stats().is_none(),
                "{what}: a fully resident request entered the level recursion: {:?}",
                ws.last_level_stats()
            );
            let warm = cache.stats();
            assert_eq!(
                (warm.hits - probed.hits, warm.misses - probed.misses),
                (origin.len() as u64, 0),
                "{what}: (hits, misses) of the fully resident probe"
            );
        }
    }
}

/// The probability rows of `preds`, as bits.
fn prob_bits(preds: &[gsgcn_serve::Prediction]) -> Vec<(u32, Vec<u32>)> {
    preds
        .iter()
        .map(|p| (p.node, p.probs.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

/// Layer 1's routing on a mem store. A fused f32 layer 1 reads the
/// store's graph and features in place — no level-1 tile, no feature row
/// gathered — and answers bit-identically to the same model on an mmap
/// spill (which holds no `Â·X`, so its layer 1 cuts a tile and gathers
/// the ball) and to the full-graph forward. A bf16 or an unfused layer 1
/// on the same mem store still cuts its level-1 tile and gathers the
/// ball.
#[test]
fn mem_store_layer_one_reads_features_in_place() {
    for depth in 2..=3 {
        let mut bf16 = GcnModel::new(config(depth), 29);
        bf16.set_precision(Precision::Bf16);
        let unfused = GcnModel::new(
            GcnConfig {
                fused: false,
                ..config(depth)
            },
            29,
        );
        let models = [
            ("f32 fused", GcnModel::new(config(depth), 29)),
            ("bf16", bf16),
            ("unfused", unfused),
        ];
        for (name, model) in models {
            let model = Arc::new(model);
            let f = fixture_for(Arc::clone(&model), StoreBackend::Mem);
            let what = format!("mem depth {depth}, {name}");
            let c = f.classifier(None);
            let mut ws = ClassifyWorkspace::new();
            let mut got = Vec::new();
            c.classify_into(&ROOTS, &mut ws, &mut got).unwrap();
            assert_eq!(f.reads_x_in_place(), name == "f32 fused", "{what}");
            // Pins the routing: no level-1 tile and nothing gathered for
            // the f32 fused model, one tile and the whole ball otherwise.
            assert_minimal_work(&f, &ws, &ROOTS, 1, &what);

            let full = c.full_graph_probs();
            let want: Vec<(u32, Vec<u32>)> = got
                .iter()
                .map(|p| {
                    let row = full.row(p.node as usize);
                    (p.node, row.iter().map(|x| x.to_bits()).collect())
                })
                .collect();
            assert_eq!(
                prob_bits(&got),
                want,
                "{what}: against the full-graph forward"
            );

            let spill = fixture_for(model, StoreBackend::Mmap);
            assert!(!spill.store.has_agg());
            let mut spill_ws = ClassifyWorkspace::new();
            let mut spilled = Vec::new();
            spill
                .classifier(None)
                .classify_into(&ROOTS, &mut spill_ws, &mut spilled)
                .unwrap();
            assert_minimal_work(&spill, &spill_ws, &ROOTS, 1, &format!("{what}, spilled"));
            assert_eq!(
                prob_bits(&got),
                prob_bits(&spilled),
                "{what}: against the mmap spill"
            );
        }
    }
}
