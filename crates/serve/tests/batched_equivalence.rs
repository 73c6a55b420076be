//! Batched-vs-full inference equivalence: the probabilities a K-node
//! batch gets from the level recursion over its frontier balls must match
//! the full-graph forward within 1e-4 on random graphs and batches,
//! across GEMM kernel tiers and thread counts (the reference is computed
//! once, on the default tier) — and be **bit-identical** when the batch
//! is the whole node set. Within one tier every batch is bit-identical to
//! the full forward; `proptest_store_serving.rs` pins that.
//!
//! This is the correctness contract of the serving path: the engine may
//! coalesce, re-batch and parallelise however it likes, but a query's
//! answer never depends on how it was batched — or on what an activation
//! cache holds (every property runs on each of `common::CACHE_AXES`).

mod common;

use common::CACHE_AXES;
use gsgcn_graph::{CsrGraph, GraphBuilder};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_serve::NodeClassifier;
use gsgcn_tensor::{gemm, DMatrix, Precision};
use proptest::prelude::*;
use std::sync::Arc;

const N_DIMS: [usize; 5] = [3, 9, 17, 40, 65];
const THREADS: [usize; 3] = [1, 2, 4];
const DEPTHS: [usize; 3] = [1, 2, 3];

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

fn mat(rows: usize, cols: usize, seed: u64) -> DMatrix {
    DMatrix::from_fn(rows, cols, |i, j| {
        let x = (seed as usize)
            .wrapping_mul(41)
            .wrapping_add(i * 131 + j * 37)
            % 17;
        x as f32 * 0.13 - 1.0
    })
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

fn classifier_for(
    n: usize,
    depth: usize,
    loss: LossKind,
    seed: u64,
    p: Precision,
) -> NodeClassifier {
    let g = rand_graph(n, 3 * n, seed);
    let x = mat(n, 5, seed ^ 0xF00D);
    let mut model = GcnModel::new(
        GcnConfig {
            in_dim: 5,
            hidden_dims: vec![8; depth],
            num_classes: 4,
            loss,
            ..GcnConfig::default()
        },
        seed ^ 0xBEEF,
    );
    model.set_precision(p);
    NodeClassifier::new(Arc::new(model), Arc::new(g), Arc::new(x)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batch on a random graph: batched probs ≈ full-graph probs
    /// (1e-4), for every available kernel tier, across thread counts and
    /// in every cache regime (each tier's batch runs twice, so a cache is
    /// probed cold and warm).
    #[test]
    fn batched_matches_full_graph(
        ni in 0..N_DIMS.len(),
        di in 0..DEPTHS.len(),
        ti in 0..THREADS.len(),
        single in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = N_DIMS[ni];
        let loss = if single { LossKind::SoftmaxCe } else { LossKind::SigmoidBce };
        // Batch: a pseudo-random subset (~1/3) of the nodes, never empty.
        let batch: Vec<u32> = (0..n as u32)
            .filter(|v| (v.wrapping_mul(2654435761).wrapping_add(seed as u32)) % 3 == 0)
            .chain([(seed % n as u64) as u32])
            .collect();

        for axis in CACHE_AXES {
            let c = axis.attach(classifier_for(n, DEPTHS[di], loss, seed, axis.precision()));
            let full = c.full_graph_probs();
            for tier in gemm::available_tiers() {
                for pass in ["cold", "warm"] {
                    let preds = gemm::with_tier(tier, || {
                        in_pool(THREADS[ti], || c.classify(&batch).unwrap())
                    });
                    for p in &preds {
                        let want = full.row(p.node as usize);
                        for (k, (a, b)) in p.probs.iter().zip(want).enumerate() {
                            prop_assert!(
                                (a - b).abs() < 1e-4,
                                "{axis:?} tier {} {pass} node {} class {k}: \
                                 batched {a} vs full {b}",
                                tier.name(), p.node
                            );
                        }
                    }
                }
            }
        }
    }

    /// The identity batch (every node) is bit-identical to the full
    /// forward: every level's frontier ball is the graph itself — also
    /// when it is asked again and a cache answers.
    #[test]
    fn whole_node_set_is_bit_identical(
        ni in 0..N_DIMS.len(),
        di in 0..DEPTHS.len(),
        single in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = N_DIMS[ni];
        let loss = if single { LossKind::SoftmaxCe } else { LossKind::SigmoidBce };
        let all: Vec<u32> = (0..n as u32).collect();
        for axis in CACHE_AXES {
            let c = axis.attach(classifier_for(n, DEPTHS[di], loss, seed, axis.precision()));
            let full = c.full_graph_probs();
            for pass in ["cold", "warm"] {
                for p in &c.classify(&all).unwrap() {
                    prop_assert!(
                        p.probs.as_slice() == full.row(p.node as usize),
                        "{axis:?} {pass}: node {} not bit-identical on the identity batch",
                        p.node
                    );
                }
            }
        }
    }

    /// Batching is invisible: splitting a query set across separate
    /// batches gives the same answers as one batch, in every cache regime.
    #[test]
    fn batch_partitioning_is_invisible(
        ni in 0..N_DIMS.len(),
        seed in any::<u64>(),
    ) {
        let n = N_DIMS[ni];
        let nodes: Vec<u32> = (0..n as u32).step_by(2).collect();
        let mid = nodes.len() / 2;
        for axis in CACHE_AXES {
            let c = axis.attach(classifier_for(n, 2, LossKind::SoftmaxCe, seed, axis.precision()));
            let together = c.classify(&nodes).unwrap();
            let mut split = c.classify(&nodes[..mid.max(1)]).unwrap();
            split.extend(c.classify(&nodes[mid.max(1)..]).unwrap());
            for (a, b) in together.iter().zip(&split) {
                prop_assert_eq!(a.node, b.node);
                for (x, y) in a.probs.iter().zip(&b.probs) {
                    prop_assert!((x - y).abs() < 1e-4, "{axis:?} node {}: {x} vs {y}", a.node);
                }
            }
        }
    }
}
