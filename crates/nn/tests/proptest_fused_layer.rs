//! Property tests pinning the fused GCN layer (aggregate→GEMM pipeline)
//! to the unfused aggregate-then-GEMM reference layer: forward
//! activations, input gradients and both weight gradients must agree
//! within 1e-4 on random graphs, blocking-boundary shapes and 1/2/4
//! thread counts, for both whole-model train steps and single layers.

use gsgcn_graph::{CsrGraph, GraphBuilder};
use gsgcn_nn::gcn_layer::GcnLayer;
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_prop::propagator::FeaturePropagator;
use gsgcn_tensor::{precision, DMatrix, Precision};
use proptest::prelude::*;

const N_DIMS: [usize; 6] = [2, 7, 9, 33, 65, 80];
const F_DIMS: [usize; 4] = [1, 3, 9, 33];
const HALF_DIMS: [usize; 3] = [1, 8, 17];
const THREADS: [usize; 3] = [1, 2, 4];

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
            .wrapping_mul(37)
            .wrapping_add(i * 113 + j * 29)
            % 19;
        x as f32 * 0.12 - 1.0
    })
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// One layer, forward + backward, fused vs unfused reference.
    #[test]
    fn fused_layer_matches_unfused(
        ni in 0..N_DIMS.len(), fi in 0..F_DIMS.len(), hi in 0..HALF_DIMS.len(),
        ti in 0..THREADS.len(), seed in any::<u64>(),
    ) {
        let (n, f_in, half) = (N_DIMS[ni], F_DIMS[fi], HALF_DIMS[hi]);
        let g = rand_graph(n, 2 * n, seed);
        let h = mat(n, f_in, seed ^ 0xA);
        let d_out = mat(n, 2 * half, seed ^ 0xB);
        let prop = FeaturePropagator::default();

        // On f32 storage (a new layer's default): the unfused reference
        // has no bf16 path, so this equivalence is exact only at full
        // precision.
        let run = |fused: bool, threads: usize| {
            let mut layer = GcnLayer::new(f_in, half, true, seed ^ 0xC).with_fused(fused);
            in_pool(threads, || {
                let (out, _) = layer.forward(&g, &h, &prop);
                let (d_in, grads, _) = layer.backward(&g, &d_out, &prop);
                (out, d_in, grads.d_w_neigh.clone(), grads.d_w_self.clone())
            })
        };
        let (of, df, wnf, wsf) = run(true, THREADS[ti]);
        let (ou, du, wnu, wsu) = run(false, 1);
        prop_assert!(of.max_abs_diff(&ou) < 1e-4, "forward n={n} f={f_in} half={half}");
        prop_assert!(df.max_abs_diff(&du) < 1e-4, "d_in n={n} f={f_in} half={half}");
        prop_assert!(wnf.max_abs_diff(&wnu) < 1e-4, "dW_neigh");
        prop_assert!(wsf.max_abs_diff(&wsu) < 1e-4, "dW_self");

        // Fused results must not depend on the thread count.
        let (of1, df1, _, _) = run(true, 1);
        prop_assert!(of.max_abs_diff(&of1) == 0.0, "fused forward thread variance");
        prop_assert!(df.max_abs_diff(&df1) == 0.0, "fused backward thread variance");
    }

    /// Whole-model train steps: fused and unfused models starting from
    /// identical weights follow the same loss trajectory.
    #[test]
    fn fused_model_trajectory_matches_unfused(
        ni in 0..N_DIMS.len(), ti in 0..THREADS.len(), seed in any::<u64>(),
    ) {
        let n = N_DIMS[ni].max(4);
        let g = rand_graph(n, 3 * n, seed);
        let x = mat(n, 6, seed ^ 0xD);
        let y = DMatrix::from_fn(n, 3, |i, j| ((i + j + seed as usize) % 2) as f32);
        let run = |fused: bool| {
            let cfg = GcnConfig {
                in_dim: 6,
                hidden_dims: vec![8, 8],
                num_classes: 3,
                loss: LossKind::SigmoidBce,
                fused,
                ..GcnConfig::default()
            };
            let mut m = GcnModel::new(cfg, seed ^ 0xE);
            // On f32 storage — same rationale as the layer test.
            in_pool(THREADS[ti], || {
                (0..4).map(|_| m.train_step(&g, &x, &y).loss).collect::<Vec<f32>>()
            })
        };
        let lf = run(true);
        let lu = run(false);
        for (a, b) in lf.iter().zip(&lu) {
            prop_assert!((a - b).abs() < 1e-4, "loss trajectory diverged: {lf:?} vs {lu:?}");
        }
    }

    /// Mixed-precision trajectory band: a model trained with bf16
    /// activation storage must track the f32 trajectory within the
    /// composed tolerance model (`precision::rel_tolerance` at the
    /// model's depth), across kernel tiers and 1/2/4 threads. Weight
    /// updates compound the storage rounding, so the band widens per
    /// step — but it must stay far inside the <0.5% F1 budget.
    #[test]
    fn bf16_model_trajectory_within_band(
        ni in 0..N_DIMS.len(), ti in 0..THREADS.len(), seed in any::<u64>(),
    ) {
        use gsgcn_tensor::gemm;
        let n = N_DIMS[ni].max(4);
        let g = rand_graph(n, 3 * n, seed);
        let x = mat(n, 6, seed ^ 0xD);
        let y = DMatrix::from_fn(n, 3, |i, j| ((i + j + seed as usize) % 2) as f32);
        let run = |p: Precision, tier: gemm::Tier| {
            let cfg = GcnConfig {
                in_dim: 6,
                hidden_dims: vec![8, 8],
                num_classes: 3,
                loss: LossKind::SigmoidBce,
                ..GcnConfig::default()
            };
            let mut m = GcnModel::new(cfg, seed ^ 0x10);
            m.set_precision(p);
            in_pool(THREADS[ti], || {
                gemm::with_tier(tier, || {
                    (0..4).map(|_| m.train_step(&g, &x, &y).loss).collect::<Vec<f32>>()
                })
            })
        };
        let reference = run(Precision::F32, gemm::Tier::Scalar);
        // Depth 3 (two hidden layers + classifier), fan-in = widest input.
        let tol = precision::rel_tolerance(Precision::Bf16, 3, 8);
        for tier in gemm::available_tiers() {
            let losses = run(Precision::Bf16, tier);
            for (step, (a, b)) in losses.iter().zip(&reference).enumerate() {
                // The rounding compounds through the optimiser: widen the
                // band per completed update.
                let band = tol * (step + 1) as f32 * (1.0 + b.abs());
                prop_assert!(
                    (a - b).abs() <= band,
                    "tier {} step {step}: bf16 loss {a} vs f32 {b} outside {band}",
                    tier.name()
                );
            }
        }
    }

    /// Whole-model tier equivalence: the training loss trajectory (fused
    /// path, the default) is within 1e-4 of the scalar tier's for every
    /// microkernel tier this CPU can run — the end-to-end guarantee that
    /// kernel dispatch never changes what the model learns.
    #[test]
    fn model_trajectory_tier_equivalence(
        ni in 0..N_DIMS.len(), ti in 0..THREADS.len(), seed in any::<u64>(),
    ) {
        use gsgcn_tensor::gemm;
        let n = N_DIMS[ni].max(4);
        let g = rand_graph(n, 3 * n, seed);
        let x = mat(n, 6, seed ^ 0xD);
        let y = DMatrix::from_fn(n, 3, |i, j| ((i + j + seed as usize) % 2) as f32);
        let run = |tier: gemm::Tier| {
            let cfg = GcnConfig {
                in_dim: 6,
                hidden_dims: vec![8, 8],
                num_classes: 3,
                loss: LossKind::SigmoidBce,
                ..GcnConfig::default()
            };
            let mut m = GcnModel::new(cfg, seed ^ 0xF);
            in_pool(THREADS[ti], || {
                gemm::with_tier(tier, || {
                    (0..4).map(|_| m.train_step(&g, &x, &y).loss).collect::<Vec<f32>>()
                })
            })
        };
        let reference = run(gemm::Tier::Scalar);
        // Scalar produced the reference trajectory; check the SIMD tiers.
        for tier in gemm::available_tiers()
            .into_iter()
            .filter(|&t| t != gemm::Tier::Scalar)
        {
            let losses = run(tier);
            for (a, b) in losses.iter().zip(&reference) {
                prop_assert!(
                    (a - b).abs() < 1e-4,
                    "tier {} trajectory diverged: {losses:?} vs scalar {reference:?}",
                    tier.name()
                );
            }
        }
    }
}
