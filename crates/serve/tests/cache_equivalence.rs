//! Cached-vs-uncached serving equivalence: attaching an
//! [`ActivationCache`] must never change an answer.
//!
//! The contract (see `gsgcn_serve::cache`): a cached `acts^{L-1}` row is
//! a row the level recursion itself computed, and that row does not
//! depend on what else was in the batch — so with f32 cache rows every
//! answer is **bit-identical** to the cache-less classifier's at any hit
//! rate (cold, partial under eviction, warm), per kernel tier; bf16 cache
//! rows add one rounding per cached element and stay inside the serving
//! tolerance band. (The older cases below still assert the looser 1e-4
//! they were written with.)

mod common;

use common::CACHE_AXES;
use gsgcn_graph::{CsrGraph, GraphBuilder};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_serve::{ActivationCache, NodeClassifier};
use gsgcn_tensor::{gemm, precision, DMatrix, Precision};
use proptest::prelude::*;
use std::sync::Arc;

const N_DIMS: [usize; 4] = [9, 17, 40, 65];
/// Cache depths start at 2: a 1-layer model has no hidden activations
/// to cache (the classifier refuses the attachment).
const DEPTHS: [usize; 2] = [2, 3];

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

fn classifier_for(n: usize, depth: usize, loss: LossKind, seed: u64) -> NodeClassifier {
    let g = rand_graph(n, 3 * n, seed);
    let x = DMatrix::from_fn(n, 5, |i, j| {
        ((seed as usize)
            .wrapping_mul(41)
            .wrapping_add(i * 131 + j * 37)
            % 17) as f32
            * 0.13
            - 1.0
    });
    let model = GcnModel::new(
        GcnConfig {
            in_dim: 5,
            hidden_dims: vec![8; depth],
            num_classes: 4,
            loss,
            ..GcnConfig::default()
        },
        seed ^ 0xBEEF,
    );
    NodeClassifier::new(Arc::new(model), Arc::new(g), Arc::new(x)).unwrap()
}

fn batch_of(n: usize, seed: u64) -> Vec<u32> {
    (0..n as u32)
        .filter(|v| (v.wrapping_mul(2654435761).wrapping_add(seed as u32)) % 3 == 0)
        .chain([(seed % n as u64) as u32])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cold pass bit-identical, warm pass ≤ 1e-4, on every available
    /// kernel tier and in every cache regime of `common::CACHE_AXES` —
    /// and the warm pass must actually hit the cache. The uncached
    /// baseline is computed **per tier**, at the regime's precision: the
    /// contract is that attaching a cache never changes that tier's
    /// answer, not that tiers agree with each other (under bf16 storage a
    /// top tier that runs on the AMX tile unit is tolerance-banded, not
    /// bit-identical, against the widen tiers).
    #[test]
    fn cached_matches_uncached_across_tiers(
        ni in 0..N_DIMS.len(),
        di in 0..DEPTHS.len(),
        single in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = N_DIMS[ni];
        let loss = if single { LossKind::SoftmaxCe } else { LossKind::SigmoidBce };
        let uncached = classifier_for(n, DEPTHS[di], loss, seed);
        let batch = batch_of(n, seed);

        for (axis, tier) in CACHE_AXES
            .into_iter()
            .flat_map(|axis| gemm::available_tiers().into_iter().map(move |tier| (axis, tier)))
        {
            let cached = axis.attach(classifier_for(n, DEPTHS[di], loss, seed));
            let (baseline, cold, warm) = axis.run(|| {
                gemm::with_tier(tier, || {
                    (
                        uncached.classify(&batch).unwrap(),
                        cached.classify(&batch).unwrap(),
                        cached.classify(&batch).unwrap(),
                    )
                })
            });
            if let Some(cache) = cached.cache() {
                let probed = cache.stats();
                prop_assert!(
                    probed.hits > 0,
                    "{axis:?} tier {}: warm pass never hit the cache ({probed:?})",
                    tier.name()
                );
            }
            for (p, b) in cold.iter().zip(&baseline) {
                prop_assert_eq!(p.node, b.node);
                prop_assert!(
                    p.probs.as_slice() == b.probs.as_slice(),
                    "{axis:?} tier {} node {}: cold cache not bit-identical",
                    tier.name(), p.node
                );
            }
            for (p, b) in warm.iter().zip(&baseline) {
                prop_assert_eq!(p.node, b.node);
                prop_assert_eq!(p.labels.clone(), b.labels.clone());
                for (k, (a, v)) in p.probs.iter().zip(&b.probs).enumerate() {
                    prop_assert!(
                        (a - v).abs() < 1e-4,
                        "{axis:?} tier {} node {} class {k}: warm {a} vs uncached {v}",
                        tier.name(), p.node
                    );
                }
            }
        }
    }

    /// A starved cache (room for a handful of rows) thrashes through
    /// evictions but never changes an answer.
    #[test]
    fn eviction_pressure_preserves_equivalence(
        ni in 0..N_DIMS.len(),
        seed in any::<u64>(),
    ) {
        let n = N_DIMS[ni];
        let uncached = classifier_for(n, 2, LossKind::SoftmaxCe, seed);
        // ~6 rows of 8 f32 across 1 shard: constant eviction churn.
        let cache = Arc::new(ActivationCache::with_shards(6 * (8 * 4 + 64), 1));
        let cached = classifier_for(n, 2, LossKind::SoftmaxCe, seed)
            .with_cache(Some(Arc::clone(&cache)));
        for round in 0..6u64 {
            let batch = batch_of(n, seed.wrapping_add(round * 7919));
            let want = uncached.classify(&batch).unwrap();
            let got = cached.classify(&batch).unwrap();
            for (p, b) in got.iter().zip(&want) {
                prop_assert_eq!(p.node, b.node);
                for (a, v) in p.probs.iter().zip(&b.probs) {
                    prop_assert!((a - v).abs() < 1e-4, "node {} under eviction", p.node);
                }
            }
        }
        prop_assert!(
            cache.stats().resident_bytes <= cache.budget_bytes(),
            "budget violated: {:?}", cache.stats()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partial hits: an arbitrary part of a request's frontier is
    /// resident — pre-inserted by an arbitrary earlier request, then
    /// thinned by CLOCK evictions when the cache is smaller than one
    /// frontier — and the rest is computed. f32 rows: bit-identical to the
    /// cache-less classifier. bf16 rows: inside the tolerance band.
    #[test]
    fn partial_hits_match_uncached(
        ni in 0..N_DIMS.len(),
        di in 0..DEPTHS.len(),
        single in any::<bool>(),
        seed in any::<u64>(),
        pre_mask in any::<u64>(),
        bf16 in any::<bool>(),
        starved in any::<bool>(),
    ) {
        let n = N_DIMS[ni];
        let loss = if single { LossKind::SoftmaxCe } else { LossKind::SigmoidBce };
        let uncached = classifier_for(n, DEPTHS[di], loss, seed);
        let storage = if bf16 { Precision::Bf16 } else { Precision::F32 };
        // Starved: room for about n/4 rows of 8 floats in one shard, less
        // than the frontier of a third of the vertices.
        let budget = if starved { (n / 4 + 1) * (8 * 4 + 64) } else { 8 << 20 };
        let cache = Arc::new(ActivationCache::with_shards_precision(budget, 1, storage));
        let cached = classifier_for(n, DEPTHS[di], loss, seed)
            .with_cache(Some(Arc::clone(&cache)));
        let band = precision::rel_tolerance(Precision::Bf16, 1, 8);

        let pre: Vec<u32> = (0..n as u32).filter(|v| (pre_mask >> (v % 64)) & 1 == 1).collect();
        cached.classify(&pre).unwrap();
        for round in 0..4u64 {
            let batch = batch_of(n, seed.wrapping_add(round * 7919));
            let want = uncached.classify(&batch).unwrap();
            let got = cached.classify(&batch).unwrap();
            for (p, b) in got.iter().zip(&want) {
                prop_assert_eq!(p.node, b.node);
                if bf16 {
                    for (a, v) in p.probs.iter().zip(&b.probs) {
                        prop_assert!(
                            (a - v).abs() <= band,
                            "round {round} node {}: {a} vs {v} outside the bf16 band {band}",
                            p.node
                        );
                    }
                } else {
                    prop_assert!(
                        p.probs.as_slice() == b.probs.as_slice(),
                        "round {round} node {}: f32-cached answer not bit-identical \
                         ({:?})", p.node, cache.stats()
                    );
                }
            }
        }
        prop_assert!(cache.stats().resident_bytes <= cache.budget_bytes());
    }
}

/// Bumping the model version invalidates every cached row: the next
/// query recomputes (misses), re-warms, and stays correct.
#[test]
fn version_bump_invalidates_and_rewarms() {
    let n = 40;
    let uncached = classifier_for(n, 2, LossKind::SigmoidBce, 11);
    let cache = Arc::new(ActivationCache::new(8 << 20));
    let cached =
        classifier_for(n, 2, LossKind::SigmoidBce, 11).with_cache(Some(Arc::clone(&cache)));
    let batch = batch_of(n, 11);
    let want = uncached.classify(&batch).unwrap();

    cached.classify(&batch).unwrap(); // cold: warms the cache
    cached.classify(&batch).unwrap(); // warm
    let warm_hits = cache.stats().hits;
    assert!(warm_hits > 0, "warm pass never hit: {:?}", cache.stats());

    cache.bump_version();
    let after = cached.classify(&batch).unwrap(); // stale: must recompute
    let s = cache.stats();
    assert_eq!(
        s.hits, warm_hits,
        "a stale-version probe counted as a hit: {s:?}"
    );
    assert!(s.misses > 0, "version bump produced no misses: {s:?}");
    for (p, b) in after.iter().zip(&want) {
        assert_eq!(p.node, b.node);
        assert!(
            p.probs.as_slice() == b.probs.as_slice(),
            "post-bump recompute not bit-identical at node {}",
            p.node
        );
    }
    // And the recompute re-warmed the cache for the next round.
    cached.classify(&batch).unwrap();
    assert!(cache.stats().hits > warm_hits, "cache never re-warmed");
}
