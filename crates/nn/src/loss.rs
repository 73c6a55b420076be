//! Loss functions (Alg. 1 line 12) with analytic gradients.
//!
//! Both losses consume raw logits and return `(loss, dLogits)` — fusing
//! the activation into the loss keeps the gradient numerically exact
//! (`σ(x) − y` / `softmax(x) − y`) instead of chaining two lossy steps.
//!
//! Reduction: mean over rows (vertices), sum over classes within a row —
//! the convention of the GraphSAGE reference implementation, so learning
//! rates transfer.
//!
//! **One `exp` per logit.** Both losses run on the branch-free
//! [`ops::exp_nonpos`] / [`ops::log1p_unit`] pair, so the per-element
//! loops vectorise. The sigmoid loss takes `e = e^{−|x|}` once per
//! element and derives both the loss term `max(x,0) − x·y + log1p(e)` and
//! `σ(x)` from it; the softmax loss takes one `exp` per element and one
//! `ln` per row (log-sum-exp: the term is `y·(lse − x)`).
//!
//! **Reduction order and determinism.** A row's terms sum in
//! [`ops::lane_sum`]'s fixed-width lane accumulators (f32), and the row
//! sums add up in f64, row by row in order. Nothing here runs on the
//! thread pool and every operation is correctly rounded, so the loss and
//! the gradient are bit-identical at any thread count and on any ISA.
//!
//! **Non-finite logits.** A NaN logit gives a NaN loss and a NaN
//! gradient element (a whole NaN gradient row under softmax). An infinite
//! logit keeps the gradient finite — `(σ(±∞) − y)/n` — but makes the
//! sigmoid loss non-finite (`max(x,0) − x·y` meets `∞ − ∞` or `∞·0`),
//! which the training loop's finite-loss checks report.

use gsgcn_tensor::{ops, DMatrix};

/// Multi-label sigmoid binary cross-entropy.
///
/// `loss = (1/n) Σ_v Σ_c [ −y·log σ(x) − (1−y)·log(1−σ(x)) ]`
pub fn sigmoid_bce(logits: &DMatrix, targets: &DMatrix) -> (f32, DMatrix) {
    let mut grad = DMatrix::zeros(0, 0);
    let loss = sigmoid_bce_into(logits, targets, &mut grad);
    (loss, grad)
}

/// In-place variant of [`sigmoid_bce`]: writes `dLogits` into `grad`
/// (buffer reused) and returns the loss.
pub fn sigmoid_bce_into(logits: &DMatrix, targets: &DMatrix, grad: &mut DMatrix) -> f32 {
    assert_eq!(
        logits.shape(),
        targets.shape(),
        "logits/targets shape mismatch"
    );
    let n = logits.rows().max(1) as f32;
    let mut loss = 0.0f64;
    grad.ensure_shape(logits.rows(), logits.cols());
    for i in 0..logits.rows() {
        let (xr, yr) = (logits.row(i), targets.row(i));
        let gr = grad.row_mut(i);
        // gr holds e = e^{−|x|} until the gradient overwrites it.
        for (e, &x) in gr.iter_mut().zip(xr) {
            *e = ops::exp_nonpos(-x.abs());
        }
        // Numerically stable: log(1+e^{-|x|}) + max(x,0) − x·y.
        loss += ops::lane_sum([xr, yr, gr], |[x, y, e]| {
            x.max(0.0) - x * y + ops::log1p_unit(e)
        }) as f64;
        for ((g, &x), &y) in gr.iter_mut().zip(xr).zip(yr) {
            *g = (ops::sigmoid_given_exp(x, *g) - y) / n;
        }
    }
    (loss / n as f64) as f32
}

/// Single-label softmax cross-entropy with one-hot (or distribution)
/// targets.
///
/// `loss = −(1/n) Σ_v Σ_c y·log softmax(x)`
pub fn softmax_ce(logits: &DMatrix, targets: &DMatrix) -> (f32, DMatrix) {
    let mut grad = DMatrix::zeros(0, 0);
    let loss = softmax_ce_into(logits, targets, &mut grad);
    (loss, grad)
}

/// In-place variant of [`softmax_ce`]: `grad` doubles as the softmax
/// workspace, so no temporary is allocated.
pub fn softmax_ce_into(logits: &DMatrix, targets: &DMatrix, grad: &mut DMatrix) -> f32 {
    assert_eq!(
        logits.shape(),
        targets.shape(),
        "logits/targets shape mismatch"
    );
    let n = logits.rows().max(1) as f32;
    grad.copy_from(logits);
    let mut loss = 0.0f64;
    for i in 0..logits.rows() {
        let (xr, yr) = (logits.row(i), targets.row(i));
        let gr = grad.row_mut(i);
        let lse = ops::softmax_row_inplace(gr);
        // −y·ln softmax(x) = y·(lse − x); a zero target adds exactly 0.
        loss += ops::lane_sum([xr, yr], |[x, y]| if y > 0.0 { y * (lse - x) } else { 0.0 }) as f64;
        for (g, &y) in gr.iter_mut().zip(yr) {
            *g = (*g - y) / n;
        }
    }
    (loss / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of an analytic gradient.
    fn check_grad<F: Fn(&DMatrix) -> (f32, DMatrix)>(f: F, x0: &DMatrix, tol: f32) {
        let (_, grad) = f(x0);
        let eps = 1e-3f32;
        for i in 0..x0.rows() {
            for j in 0..x0.cols() {
                let mut xp = x0.clone();
                xp.set(i, j, x0.get(i, j) + eps);
                let mut xm = x0.clone();
                xm.set(i, j, x0.get(i, j) - eps);
                let num = (f(&xp).0 - f(&xm).0) / (2.0 * eps);
                let ana = grad.get(i, j);
                assert!(
                    (num - ana).abs() < tol,
                    "grad[{i},{j}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn bce_zero_loss_on_perfect_confidence() {
        let logits = DMatrix::from_vec(1, 2, vec![30.0, -30.0]);
        let y = DMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let (loss, grad) = sigmoid_bce(&logits, &y);
        assert!(loss < 1e-6);
        assert!(grad.data().iter().map(|g| g * g).sum::<f32>().sqrt() < 1e-6);
    }

    #[test]
    fn bce_known_value_at_zero_logits() {
        // σ(0) = 0.5 → per-element loss = ln 2 regardless of target.
        let logits = DMatrix::zeros(2, 3);
        let y = DMatrix::from_fn(2, 3, |i, j| ((i + j) % 2) as f32);
        let (loss, _) = sigmoid_bce(&logits, &y);
        // Sum over 3 classes, mean over 2 rows: 3·ln2.
        assert!((loss - 3.0 * std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let x = DMatrix::from_fn(3, 4, |i, j| (i as f32 - 1.0) * 0.7 + j as f32 * 0.3 - 0.5);
        let y = DMatrix::from_fn(3, 4, |i, j| ((i * 2 + j) % 2) as f32);
        check_grad(|x| sigmoid_bce(x, &y), &x, 1e-3);
    }

    #[test]
    fn bce_stable_for_extreme_logits() {
        let x = DMatrix::from_vec(1, 2, vec![1e4, -1e4]);
        let y = DMatrix::from_vec(1, 2, vec![0.0, 1.0]);
        let (loss, grad) = sigmoid_bce(&x, &y);
        assert!(loss.is_finite());
        assert!(grad.all_finite());
        // Completely wrong confident predictions: loss ≈ 2·1e4 / 1 row.
        assert!(loss > 1e4);
    }

    #[test]
    fn ce_zero_loss_on_perfect_prediction() {
        let logits = DMatrix::from_vec(1, 3, vec![30.0, 0.0, 0.0]);
        let y = DMatrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]);
        let (loss, _) = softmax_ce(&logits, &y);
        assert!(loss < 1e-5);
    }

    #[test]
    fn ce_uniform_logits_give_log_k() {
        let logits = DMatrix::zeros(4, 5);
        let y = DMatrix::from_fn(4, 5, |i, j| if j == i % 5 { 1.0 } else { 0.0 });
        let (loss, _) = softmax_ce(&logits, &y);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let x = DMatrix::from_fn(3, 4, |i, j| (i as f32 * 0.5 - j as f32 * 0.4) * 0.8);
        let y = DMatrix::from_fn(3, 4, |i, j| if j == (i + 1) % 4 { 1.0 } else { 0.0 });
        check_grad(|x| softmax_ce(x, &y), &x, 1e-3);
    }

    #[test]
    fn ce_gradient_rows_sum_to_zero() {
        // softmax − onehot sums to zero per row.
        let x = DMatrix::from_fn(2, 3, |i, j| (i + j) as f32);
        let y = DMatrix::from_fn(2, 3, |_, j| if j == 0 { 1.0 } else { 0.0 });
        let (_, g) = softmax_ce(&x, &y);
        for i in 0..2 {
            let s: f32 = g.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    /// Logits and multi-label / one-hot targets of a width that leaves a
    /// short last lane chunk.
    fn fixture(rows: usize, cols: usize) -> (DMatrix, DMatrix, DMatrix) {
        let x = DMatrix::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 17) % 23) as f32 * 0.9 - 10.0
        });
        let multi = DMatrix::from_fn(rows, cols, |i, j| ((i + 2 * j) % 5 == 0) as u8 as f32);
        let onehot = DMatrix::from_fn(rows, cols, |i, j| (j == i % cols) as u8 as f32);
        (x, multi, onehot)
    }

    #[test]
    fn losses_match_an_f64_reference() {
        let (x, multi, onehot) = fixture(9, 37);
        let (mut bce_ref, mut ce_ref) = (0.0f64, 0.0f64);
        for i in 0..x.rows() {
            let row: Vec<f64> = x.row(i).iter().map(|&v| v as f64).collect();
            let lse = row.iter().map(|v| v.exp()).sum::<f64>().ln();
            for (j, &v) in row.iter().enumerate() {
                let y = multi.get(i, j) as f64;
                bce_ref += v.max(0.0) - v * y + (-v.abs()).exp().ln_1p();
                ce_ref += onehot.get(i, j) as f64 * (lse - v);
            }
        }
        let n = x.rows() as f64;
        let (bce, g) = sigmoid_bce(&x, &multi);
        assert!(
            ((bce as f64) - bce_ref / n).abs() < 1e-6 * bce_ref / n,
            "{bce} vs {}",
            bce_ref / n
        );
        let (ce, _) = softmax_ce(&x, &onehot);
        assert!(
            ((ce as f64) - ce_ref / n).abs() < 1e-6 * ce_ref / n,
            "{ce} vs {}",
            ce_ref / n
        );
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let sig = 1.0 / (1.0 + (-(x.get(i, j) as f64)).exp());
                let want = (sig - multi.get(i, j) as f64) / n;
                assert!(((g.get(i, j) as f64) - want).abs() < 1e-7, "grad[{i},{j}]");
            }
        }
    }

    #[test]
    fn loss_and_gradient_are_bit_identical_at_any_thread_count() {
        let (x, multi, onehot) = fixture(67, 41);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| (sigmoid_bce(&x, &multi), softmax_ce(&x, &onehot)))
        };
        let ((bce1, gb1), (ce1, gc1)) = run(1);
        for threads in [2, 4] {
            let ((bce, gb), (ce, gc)) = run(threads);
            assert_eq!(bce.to_bits(), bce1.to_bits(), "bce at {threads} threads");
            assert_eq!(ce.to_bits(), ce1.to_bits(), "ce at {threads} threads");
            let bits = |m: &DMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&gb), bits(&gb1), "bce grad at {threads} threads");
            assert_eq!(bits(&gc), bits(&gc1), "ce grad at {threads} threads");
        }
    }

    #[test]
    fn nan_logit_gives_nan_loss_and_nan_gradient() {
        // A clamp such as `x.max(-87.0)` would turn the NaN finite; the
        // training loop's finite-loss checks rely on it staying NaN.
        let (mut x, multi, onehot) = fixture(3, 20);
        x.set(1, 18, f32::NAN);
        let (loss, g) = sigmoid_bce(&x, &multi);
        assert!(loss.is_nan());
        assert!(g.get(1, 18).is_nan());
        assert_eq!(g.data().iter().filter(|v| v.is_nan()).count(), 1);
        let (loss, g) = softmax_ce(&x, &onehot);
        assert!(loss.is_nan());
        assert!(g.row(1).iter().all(|v| v.is_nan()));
        assert!(g.row(0).iter().chain(g.row(2)).all(|v| v.is_finite()));
    }

    #[test]
    fn infinite_logits_keep_the_gradient_finite() {
        let inf = f32::INFINITY;
        // Sigmoid: σ(±∞) ∈ {0, 1} gives the limit gradient, while the
        // loss term meets ∞ − ∞ or ∞·0 whatever the target.
        for (x, y) in [(inf, 0.0), (inf, 1.0), (-inf, 0.0), (-inf, 1.0)] {
            let (loss, g) = sigmoid_bce(
                &DMatrix::from_vec(1, 1, vec![x]),
                &DMatrix::from_vec(1, 1, vec![y]),
            );
            let sig = if x > 0.0 { 1.0 } else { 0.0 };
            assert_eq!(g.get(0, 0), sig - y, "grad at x = {x}, y = {y}");
            assert!(!loss.is_finite(), "loss at x = {x}, y = {y}");
        }
        // Softmax: −∞ on a zero target is a zero probability and adds
        // nothing; +∞ makes the row NaN.
        let y = DMatrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]);
        let (loss, g) = softmax_ce(&DMatrix::from_vec(1, 3, vec![-inf, 0.0, 0.0]), &y);
        assert_eq!(loss, std::f32::consts::LN_2);
        assert_eq!(g.data(), &[0.0, -0.5, 0.5]);
        let (loss, g) = softmax_ce(&DMatrix::from_vec(1, 3, vec![inf, 0.0, 0.0]), &y);
        assert!(loss.is_nan() && g.data().iter().all(|v| v.is_nan()));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        sigmoid_bce(&DMatrix::zeros(2, 2), &DMatrix::zeros(2, 3));
    }
}
