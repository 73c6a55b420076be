//! Work bounds of `NodeClassifier::classify_into`, as exact counts.
//!
//! A request computes GCN layer `ℓ < L` only on the rows within `L-ℓ`
//! hops of its roots and gathers each feature row within `L` hops once —
//! and both only over the frontier rows the activation cache does not
//! already hold. The counts come from the level recursion's own
//! `LevelStats` (`ClassifyWorkspace::last_level_stats`) and are compared
//! with independently extracted `l_hop_ball`s, on both store backends.

use gsgcn_graph::{
    l_hop_ball, one_hop_frontier, CsrGraph, GraphBuilder, GraphStore, StoreBackend, StoreOrder,
};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_serve::{ActivationCache, ClassifyWorkspace, NodeClassifier};
use gsgcn_tensor::DMatrix;
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

fn fixture(depth: usize, backend: StoreBackend) -> Fixture {
    let graph = Arc::new(fixture_graph());
    let x = Arc::new(DMatrix::from_fn(N, 6, |i, j| {
        ((i * 131 + j * 37) % 17) as f32 * 0.13 - 1.0
    }));
    let model = Arc::new(GcnModel::new(
        GcnConfig {
            in_dim: 6,
            hidden_dims: vec![8; depth],
            num_classes: 3,
            loss: LossKind::SoftmaxCe,
            ..GcnConfig::default()
        },
        29,
    ));
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
}

/// Assert that the last classify through `ws` computed `H^{L-1}` on
/// exactly the closed `reach`-hop ball of `ids` and nothing it did not
/// need below that: layer `ℓ < L` on the rows `L-1-ℓ` hops further out,
/// feature rows `L-1` hops further out, one tile per level.
fn assert_minimal_work(f: &Fixture, ws: &ClassifyWorkspace, ids: &[u32], reach: usize, what: &str) {
    let depth = f.model.num_layers();
    let stats = ws
        .last_level_stats()
        .unwrap_or_else(|| panic!("{what}: the level recursion was not entered"));
    assert_eq!(stats.tiles, vec![1; depth - 1], "{what}: tiles per layer");
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
    let (got, want) = (stats.rows_gathered, f.ball(ids, hops));
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
