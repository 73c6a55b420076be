//! Serving-side mem-vs-mmap equivalence: the probabilities a classifier
//! reports must not depend on which `GraphStore` backend sits under it.
//! The forward is floating-point over identical inputs (the mmap store
//! round-trips rows bit-exactly), so the tolerance is the serving
//! contract's 1e-4 — and the shard-aware request validation must reject
//! the same out-of-range ids either way.
//!
//! The last property is the strong one: whatever store the classifier
//! sits on (resident, natural-order shards, BFS-order shards) and whether
//! or not an activation cache is attached, its answers are the full-graph
//! forward's **bit for bit** — including for duplicate roots, a degree-0
//! root and a root whose only neighbour is itself.

use gsgcn_graph::store::mmap::MmapStore;
use gsgcn_graph::store::shard::write_store_ordered;
use gsgcn_graph::{CsrGraph, GraphBuilder, GraphStore, StoreOrder};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_serve::{ActivationCache, ClassifyWorkspace, NodeClassifier};
use gsgcn_tensor::DMatrix;
use proptest::prelude::*;
use std::sync::Arc;

fn rand_graph(n: usize, extra: usize, seed: u64) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    let mut s = seed | 1;
    for _ in 0..extra {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((s >> 33) as usize) % n;
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = ((s >> 33) as usize) % n;
        if a != b {
            edges.push((a as u32, b as u32));
        }
    }
    GraphBuilder::new(n).add_edges(edges).build()
}

fn both_backends(
    n: usize,
    depth: usize,
    loss: LossKind,
    seed: u64,
) -> (NodeClassifier, NodeClassifier) {
    let g = Arc::new(rand_graph(n, 3 * n, seed));
    let x = Arc::new(DMatrix::from_fn(n, 5, |i, j| {
        ((seed as usize)
            .wrapping_mul(41)
            .wrapping_add(i * 131 + j * 37)
            % 17) as f32
            * 0.13
            - 1.0
    }));
    let model = Arc::new(GcnModel::new(
        GcnConfig {
            in_dim: 5,
            hidden_dims: vec![8; depth],
            num_classes: 4,
            loss,
            ..GcnConfig::default()
        },
        seed ^ 0xBEEF,
    ));
    let mk = |store| NodeClassifier::from_store(Arc::clone(&model), Arc::new(store)).unwrap();
    let mmap = GraphStore::spill_to_temp(&g, Some(&x), None, StoreOrder::Natural, 64 << 20);
    (
        mk(GraphStore::mem(Arc::clone(&g), Some(Arc::clone(&x)), None)),
        mk(mmap.unwrap()),
    )
}

/// Ring + chords over `0..n-2`; vertex `n-2` is isolated (a degree-0
/// root) and vertex `n-1`'s only neighbour is itself.
fn graph_with_odd_roots(n: usize, chords: &[(u32, u32)]) -> CsrGraph {
    let ring = (n - 2) as u32;
    let edges = (0..ring)
        .map(|i| (i, (i + 1) % ring))
        .chain(chords.iter().map(|&(a, b)| (a % ring, b % ring)))
        .filter(|(a, b)| a != b)
        .chain([(n as u32 - 1, n as u32 - 1)]);
    GraphBuilder::new(n)
        .drop_self_loops(false)
        .add_edges(edges)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every way into `classify_into` — depth 1 / 2 / 3, resident ×
    /// natural-order shards × BFS-order shards (behind a shard cache small
    /// enough to evict), no activation cache / cold cache / warm cache —
    /// gives the full-graph forward's probabilities bit for bit.
    #[test]
    fn classify_is_bit_identical_to_the_full_graph_forward(
        n in 8usize..40,
        chords in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        depth in 1usize..4,
        softmax in any::<bool>(),
        shards in 1usize..6,
        picks in proptest::collection::vec(any::<u32>(), 1..12),
        seed in any::<u64>(),
    ) {
        let g = Arc::new(graph_with_odd_roots(n, &chords));
        let x = Arc::new(DMatrix::from_fn(n, 5, |i, j| {
            ((seed as usize).wrapping_add(i * 131 + j * 37) % 29) as f32 * 0.11 - 1.5
        }));
        let model = Arc::new(GcnModel::new(
            GcnConfig {
                in_dim: 5,
                hidden_dims: vec![8; depth],
                num_classes: 4,
                loss: if softmax { LossKind::SoftmaxCe } else { LossKind::SigmoidBce },
                ..GcnConfig::default()
            },
            seed ^ 0xBEEF,
        ));
        // Requested roots: the picks, the first of them again, and the two
        // odd vertices.
        let mut roots: Vec<u32> = picks.iter().map(|&p| p % n as u32).collect();
        roots.extend([roots[0], n as u32 - 2, n as u32 - 1]);

        let mem = GraphStore::mem(Arc::clone(&g), Some(Arc::clone(&x)), None);
        let mut stores = vec![("mem", mem)];
        let mut dirs = Vec::new();
        for (name, order) in [("mmap natural", StoreOrder::Natural), ("mmap bfs", StoreOrder::Bfs)] {
            let dir = std::env::temp_dir().join(format!(
                "gsgcn-serve-proptest-{}-{seed:x}-{}", std::process::id(), dirs.len()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            write_store_ordered(&dir, &g, Some(&x), None, shards, order).unwrap();
            let store = MmapStore::open(&dir, 4096).unwrap();
            stores.push((name, GraphStore::Mmap(store)));
            dirs.push(dir);
        }

        let mut full: Option<DMatrix> = None;
        for (name, store) in stores {
            let store = Arc::new(store);
            let plain = NodeClassifier::from_store(Arc::clone(&model), Arc::clone(&store)).unwrap();
            let full = full.get_or_insert_with(|| plain.full_graph_probs());
            // (A 1-layer model has nothing to cache: three uncached passes.)
            let cache = (depth >= 2).then(|| Arc::new(ActivationCache::new(1 << 20)));
            let cached = NodeClassifier::from_store(Arc::clone(&model), store)
                .unwrap()
                .with_cache(cache);
            let passes = [
                ("no cache", plain.classify(&roots).unwrap()),
                ("cold cache", cached.classify(&roots).unwrap()),
                ("warm cache", cached.classify(&roots).unwrap()),
            ];
            for (pass, preds) in passes {
                prop_assert_eq!(preds.len(), roots.len());
                for (p, &want) in preds.iter().zip(&roots) {
                    prop_assert_eq!(p.node, want);
                    prop_assert!(
                        p.probs.as_slice() == full.row(want as usize),
                        "{name}, {pass}, depth {depth}: node {want} differs from the \
                         full-graph forward"
                    );
                }
            }
        }
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Classified probabilities agree within 1e-4 between backends, for
    /// random graphs, depths, losses and query batches — and the decided
    /// label sets match exactly.
    #[test]
    fn serving_probs_backend_invariant(
        n in 6usize..40,
        depth in 1usize..4,
        softmax in any::<bool>(),
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        let loss = if softmax { LossKind::SoftmaxCe } else { LossKind::SigmoidBce };
        let (mem, mmap) = both_backends(n, depth, loss, seed);
        let nodes: Vec<u32> = picks.iter().map(|&p| p % n as u32).collect();
        let (mut ws_a, mut ws_b) = (ClassifyWorkspace::new(), ClassifyWorkspace::new());
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        mem.classify_into(&nodes, &mut ws_a, &mut out_a).unwrap();
        mmap.classify_into(&nodes, &mut ws_b, &mut out_b).unwrap();
        prop_assert_eq!(out_a.len(), out_b.len());
        for (a, b) in out_a.iter().zip(&out_b) {
            prop_assert_eq!(a.node, b.node);
            prop_assert_eq!(&a.labels, &b.labels, "node {}", a.node);
            prop_assert_eq!(a.probs.len(), b.probs.len());
            for (pa, pb) in a.probs.iter().zip(&b.probs) {
                prop_assert!((pa - pb).abs() <= 1e-4, "node {}: {} vs {}", a.node, pa, pb);
            }
        }
    }

    /// Both backends reject the same out-of-range ids, and a bad id in a
    /// batch fails that request without classifying anything.
    #[test]
    fn bad_ids_rejected_identically(n in 6usize..40, seed in any::<u64>(), over in 0u32..1000) {
        let (mem, mmap) = both_backends(n, 1, LossKind::SoftmaxCe, seed);
        let bad = n as u32 + over;
        let nodes = vec![0, bad, 1];
        let mut ws = ClassifyWorkspace::new();
        let mut out = Vec::new();
        let e_mem = mem.classify_into(&nodes, &mut ws, &mut out).unwrap_err();
        prop_assert!(out.is_empty());
        let e_mmap = mmap.classify_into(&nodes, &mut ws, &mut out).unwrap_err();
        prop_assert!(out.is_empty());
        prop_assert!(e_mem.contains(&bad.to_string()), "{}", e_mem);
        prop_assert!(e_mmap.contains(&bad.to_string()), "{}", e_mmap);
    }
}
