//! Elementwise and structural kernels used by GCN training.
//!
//! All in-place kernels parallelise over rows on the current rayon pool;
//! callers that need single-threaded execution install a 1-thread pool.

use crate::matrix::DMatrix;
use crate::view::MatMut;
use rayon::prelude::*;

/// In-place ReLU: `x = max(x, 0)`.
pub fn relu_inplace(m: &mut DMatrix) {
    relu_inplace_v(m.view_mut());
}

/// In-place ReLU over a full-width view (a whole matrix or a row range
/// of one).
pub fn relu_inplace_v(m: MatMut<'_>) {
    m.into_contiguous().par_iter_mut().for_each(|x| {
        if *x < 0.0 {
            *x = 0.0;
        }
    });
}

/// ReLU backward: zero `grad` wherever the forward *output* was zero.
/// (`act` is the post-ReLU activation, so `act > 0 ⇔ input > 0`.)
pub fn relu_backward_inplace(grad: &mut DMatrix, act: &DMatrix) {
    assert_eq!(grad.shape(), act.shape());
    grad.data_mut()
        .par_iter_mut()
        .zip(act.data().par_iter())
        .for_each(|(g, &a)| {
            if a <= 0.0 {
                *g = 0.0;
            }
        });
}

// ---- Output activations and their transcendental kernels ----
//
// The loss and the output activations need `exp` of a non-positive
// argument and `log1p` on [0, 1] once per logit. libm's `expf` / `logf`
// are opaque scalar calls that keep these loops serial; the two functions
// below are straight-line polynomials — no branch, no table, no call — so
// the `target-cpu=native` build vectorises every loop that calls them.
// Every operation in them is correctly rounded IEEE arithmetic (`mul_add`
// is a fused multiply-add on every target), so their bits do not depend
// on the ISA. Both stay within 2 ulp of the exact result
// (`tests/elementwise_accuracy.rs` sweeps them against f64).

const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// ln 2 to 16 significant bits (`n·LN2_HI` is exact for |n| < 2⁸) and
/// the rest of it.
const LN2_HI: f32 = 0.693_145_75;
const LN2_LO: f32 = 1.428_606_8e-6;
/// 1.5·2²³: adding it rounds a float of magnitude < 2²² to an integer,
/// which the sum then holds in its low mantissa bits.
const ROUND_SHIFT: f32 = 12_582_912.0;
/// `e^x` rounds to 0 below this (e^−104 < 2⁻¹⁵⁰, half the smallest
/// subnormal), so clamping there changes no result.
const EXP_MIN_ARG: f32 = -104.0;

/// `e^x` for `x ≤ 0` (and `e^−∞ = 0`, NaN → NaN), subnormal results
/// included. Positive arguments are outside the contract.
///
/// `x = n·ln 2 + r` with `|r| ≤ ln 2 / 2`; `e^r` is Cephes' degree-7
/// `expf` polynomial, and `2ⁿ` is applied as two normal factors so the
/// result rounds once even where it is subnormal.
#[inline]
pub fn exp_nonpos(x: f32) -> f32 {
    // Clamp from below; a NaN compares false and passes through.
    let x = if x < EXP_MIN_ARG { EXP_MIN_ARG } else { x };
    let shifted = x.mul_add(LOG2_E, ROUND_SHIFT);
    let nf = shifted - ROUND_SHIFT;
    let r = nf.mul_add(-LN2_HI, x);
    let r = nf.mul_add(-LN2_LO, r);
    let p = 1.987_569_2e-4_f32
        .mul_add(r, 1.398_199_9e-3)
        .mul_add(r, 8.333_452e-3)
        .mul_add(r, 4.166_579_6e-2)
        .mul_add(r, 0.166_666_65)
        .mul_add(r, 0.5);
    let er = p.mul_add(r * r, r) + 1.0;
    // n ∈ [−150, 0] sits in `shifted`'s low bits (same binade as the
    // shift, one unit per ulp).
    let n = (shifted.to_bits() as i32).wrapping_sub(ROUND_SHIFT.to_bits() as i32);
    let half = n >> 1;
    er * pow2(half) * pow2(n.wrapping_sub(half))
}

/// `2ⁿ` for `n ∈ [−126, 127]`, built in the exponent field.
#[inline]
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32) << 23)
}

/// `ln(1 + x)` for `x ∈ [0, 1]` (NaN → NaN), accurate in relative terms
/// down to the smallest `x`.
///
/// `ln(1 + x) = 2·atanh(s)` with `s = x / (2 + x) ∈ [0, 1/3]`, i.e.
/// `2s·(1 + s²/3 + s⁴/5 + …)`; the series stops after `s¹²/13`, where
/// the rest is below 2⁻²⁶ of the sum.
#[inline]
pub fn log1p_unit(x: f32) -> f32 {
    let s = x / (2.0 + x);
    let z = s * s;
    let p = (1.0f32 / 13.0)
        .mul_add(z, 1.0 / 11.0)
        .mul_add(z, 1.0 / 9.0)
        .mul_add(z, 1.0 / 7.0)
        .mul_add(z, 1.0 / 5.0)
        .mul_add(z, 1.0 / 3.0);
    let two_s = s + s;
    (two_s * z).mul_add(p, two_s)
}

/// `ln x` for `x ≥ 1` (NaN → NaN): the exponent times ln 2 plus
/// [`log1p_unit`] of the mantissa's fraction.
fn ln_at_least_one(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let bits = x.to_bits();
    let k = ((bits >> 23) as i32 - 127) as f32;
    let mantissa = f32::from_bits((bits & 0x007f_ffff) | 1.0f32.to_bits());
    k.mul_add(LN2_HI, log1p_unit(mantissa - 1.0)) + k * LN2_LO
}

/// Logistic sigmoid `σ(x)`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    sigmoid_given_exp(x, exp_nonpos(-x.abs()))
}

/// `σ(x)` from `e = e^{−|x|}`: `1/(1+e)` for `x ≥ 0`, `e/(1+e)` below —
/// neither can overflow, and the loss reuses the `e` it needs anyway.
#[inline]
pub fn sigmoid_given_exp(x: f32, e: f32) -> f32 {
    let num = if x >= 0.0 { 1.0 } else { e };
    (num as f64 / (1.0 + e as f64)) as f32
}

/// Number of accumulators the row reductions below sum into (element `i`
/// goes to lane `i mod LANES`); the lanes then add pairwise. The order of
/// every sum is fixed by this, not by the ISA or the thread count.
const LANES: usize = 16;

/// `Σ_j term([ins[0][j], ins[1][j], …])` over equal-length rows, element
/// `j` into accumulator `j mod LANES`, the lanes then added pairwise —
/// the fixed-order sum the softmax and loss rows use.
///
/// The rows run as whole `LANES`-wide chunks so the terms vectorise; a
/// short last chunk is padded with zeros and the padding lanes' terms are
/// dropped.
#[inline(always)]
pub fn lane_sum<const K: usize>(ins: [&[f32]; K], term: impl Fn([f32; K]) -> f32) -> f32 {
    let len = ins.first().map_or(0, |s| s.len());
    assert!(ins.iter().all(|s| s.len() == len), "row length mismatch");
    let chunk_terms = |chunk: [&[f32; LANES]; K]| -> [f32; LANES] {
        std::array::from_fn(|l| term(chunk.map(|s| s[l])))
    };
    let mut acc = [0.0f32; LANES];
    let full = len - len % LANES;
    for at in (0..full).step_by(LANES) {
        let chunk =
            ins.map(|s| -> &[f32; LANES] { s[at..at + LANES].try_into().expect("whole chunk") });
        for (a, t) in acc.iter_mut().zip(chunk_terms(chunk)) {
            *a += t;
        }
    }
    let rest = len - full;
    if rest > 0 {
        let padded = ins.map(|s| {
            let mut p = [0.0f32; LANES];
            p[..rest].copy_from_slice(&s[full..]);
            p
        });
        for (a, t) in acc.iter_mut().zip(&chunk_terms(padded.each_ref())[..rest]) {
            *a += t;
        }
    }
    reduce_lanes(acc, |a, b| a + b)
}

/// The lanes folded pairwise (lane `l` with lane `l + w/2`, halving `w`).
#[inline(always)]
fn reduce_lanes(mut acc: [f32; LANES], op: impl Fn(f32, f32) -> f32) -> f32 {
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] = op(acc[l], acc[l + width]);
        }
    }
    acc[0]
}

/// In-place logistic sigmoid.
pub fn sigmoid_inplace(m: &mut DMatrix) {
    m.par_rows_mut().for_each(|row| {
        for x in row.iter_mut() {
            *x = sigmoid(*x);
        }
    });
}

/// Softmax of one row in place (stabilised by the row max); returns the
/// row's log-sum-exp `ln Σ_j e^{x_j}`. A NaN anywhere in the row makes
/// the whole row and the result NaN.
pub fn softmax_row_inplace(row: &mut [f32]) -> f32 {
    // Row max in lanes; NaN compares false and is skipped here, then
    // poisons the sum below.
    let greater = |a: f32, b: f32| if b > a { b } else { a };
    let mut lanes = [f32::NEG_INFINITY; LANES];
    for chunk in row.chunks(LANES) {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            *m = greater(*m, x);
        }
    }
    let max = reduce_lanes(lanes, greater);
    for x in row.iter_mut() {
        *x = exp_nonpos(*x - max);
    }
    let sum = lane_sum([row], |[e]| e);
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
    max + ln_at_least_one(sum)
}

/// Row-wise softmax (numerically stabilised by the row max).
pub fn softmax_rows_inplace(m: &mut DMatrix) {
    m.par_rows_mut().for_each(|row| {
        softmax_row_inplace(row);
    });
}

/// `a += b` elementwise.
pub fn add_assign(a: &mut DMatrix, b: &DMatrix) {
    assert_eq!(a.shape(), b.shape());
    a.data_mut()
        .par_iter_mut()
        .zip(b.data().par_iter())
        .for_each(|(x, &y)| *x += y);
}

/// `a += alpha * b` (axpy).
pub fn axpy(a: &mut DMatrix, alpha: f32, b: &DMatrix) {
    assert_eq!(a.shape(), b.shape());
    a.data_mut()
        .par_iter_mut()
        .zip(b.data().par_iter())
        .for_each(|(x, &y)| *x = y.mul_add(alpha, *x));
}

/// `a *= alpha`.
pub fn scale(a: &mut DMatrix, alpha: f32) {
    a.data_mut().par_iter_mut().for_each(|x| *x *= alpha);
}

/// Column-wise concatenation `[left | right]` — the neighbor‖self concat
/// of Alg. 1 line 9.
pub fn concat_cols(left: &DMatrix, right: &DMatrix) -> DMatrix {
    assert_eq!(left.rows(), right.rows(), "row counts must match");
    let (n, fl, fr) = (left.rows(), left.cols(), right.cols());
    let mut out = DMatrix::zeros(n, fl + fr);
    out.par_rows_mut().enumerate().for_each(|(i, row)| {
        row[..fl].copy_from_slice(left.row(i));
        row[fl..].copy_from_slice(right.row(i));
    });
    out
}

/// Split a concatenated matrix back into `(left, right)` with `fl` /
/// remaining columns — the backward of [`concat_cols`].
pub fn split_cols(m: &DMatrix, fl: usize) -> (DMatrix, DMatrix) {
    assert!(fl <= m.cols());
    let (n, fr) = (m.rows(), m.cols() - fl);
    let mut left = DMatrix::zeros(n, fl);
    let mut right = DMatrix::zeros(n, fr);
    if fl == 0 || fr == 0 {
        // One side is zero-width: the other is a plain copy.
        if fl > 0 {
            left.data_mut().copy_from_slice(m.data());
        }
        if fr > 0 {
            right.data_mut().copy_from_slice(m.data());
        }
        return (left, right);
    }
    left.data_mut()
        .par_chunks_exact_mut(fl)
        .zip(right.data_mut().par_chunks_exact_mut(fr))
        .enumerate()
        .for_each(|(i, (l, r))| {
            let row = m.row(i);
            l.copy_from_slice(&row[..fl]);
            r.copy_from_slice(&row[fl..]);
        });
    (left, right)
}

/// Inverted-dropout forward: zero each element with probability `p` and
/// scale survivors by `1/(1-p)`. The mask is returned for the backward
/// pass. `rng_stream` seeds a counter-based generator so the mask is
/// deterministic per call site.
pub fn dropout_inplace(m: &mut DMatrix, p: f32, rng_stream: u64) -> Vec<bool> {
    let mut mask = Vec::new();
    dropout_inplace_with(m, p, rng_stream, &mut mask);
    mask
}

/// Buffer-reusing variant of [`dropout_inplace`]: the mask is written into
/// `mask` (resized as needed), so a warm training loop reuses one mask
/// buffer per layer instead of allocating each step.
pub fn dropout_inplace_with(m: &mut DMatrix, p: f32, rng_stream: u64, mask: &mut Vec<bool>) {
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
    if p == 0.0 {
        mask.clear();
        mask.resize(m.data().len(), true);
        return;
    }
    let scale = 1.0 / (1.0 - p);
    let threshold = (p as f64 * (u32::MAX as f64 + 1.0)) as u64;
    mask.clear();
    mask.resize(m.data().len(), false);
    m.data_mut()
        .par_iter_mut()
        .zip(mask.par_iter_mut())
        .enumerate()
        .for_each(|(i, (x, keep))| {
            // SplitMix64 on (stream, index): deterministic, parallel-safe.
            let mut z = rng_stream
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            if (z & 0xFFFF_FFFF) < threshold {
                *x = 0.0;
            } else {
                *x *= scale;
                *keep = true;
            }
        });
}

/// Dropout backward: apply the saved mask and survivor scaling to `grad`.
pub fn dropout_backward_inplace(grad: &mut DMatrix, mask: &[bool], p: f32) {
    assert_eq!(grad.data().len(), mask.len());
    let scale = 1.0 / (1.0 - p);
    grad.data_mut()
        .par_iter_mut()
        .zip(mask.par_iter())
        .for_each(|(g, &keep)| {
            if keep {
                *g *= scale;
            } else {
                *g = 0.0;
            }
        });
}

/// Mean of every element (used in loss reductions).
pub fn mean(m: &DMatrix) -> f32 {
    if m.data().is_empty() {
        return 0.0;
    }
    m.data().iter().map(|&x| x as f64).sum::<f64>() as f32 / m.data().len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_backward() {
        let mut m = DMatrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        relu_inplace(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = DMatrix::filled(1, 4, 1.0);
        relu_backward_inplace(&mut g, &m);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_values() {
        let mut m = DMatrix::from_vec(1, 3, vec![0.0, 100.0, -100.0]);
        sigmoid_inplace(&mut m);
        assert!((m.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((m.get(0, 1) - 1.0).abs() < 1e-6);
        assert!(m.get(0, 2) < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = DMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        softmax_rows_inplace(&mut m);
        for i in 0..2 {
            let s: f32 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
        // Large inputs must not overflow (stabilised by max subtraction).
        assert!(m.all_finite());
        assert!((m.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn add_axpy_scale() {
        let mut a = DMatrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = DMatrix::from_vec(1, 2, vec![10.0, 20.0]);
        add_assign(&mut a, &b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        axpy(&mut a, 0.5, &b);
        assert_eq!(a.data(), &[16.0, 32.0]);
        scale(&mut a, 2.0);
        assert_eq!(a.data(), &[32.0, 64.0]);
    }

    #[test]
    fn concat_split_roundtrip() {
        let l = DMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        let r = DMatrix::from_fn(3, 4, |i, j| 100.0 + (i * 4 + j) as f32);
        let cat = concat_cols(&l, &r);
        assert_eq!(cat.shape(), (3, 6));
        assert_eq!(cat.get(1, 1), 3.0);
        assert_eq!(cat.get(1, 2), 104.0);
        let (l2, r2) = split_cols(&cat, 2);
        assert_eq!(l2, l);
        assert_eq!(r2, r);
    }

    #[test]
    fn split_degenerate_widths() {
        let m = DMatrix::from_fn(2, 3, |i, j| (i + j) as f32);
        let (l, r) = split_cols(&m, 0);
        assert_eq!(l.shape(), (2, 0));
        assert_eq!(r, m);
        let (l, r) = split_cols(&m, 3);
        assert_eq!(l, m);
        assert_eq!(r.shape(), (2, 0));
    }

    #[test]
    fn dropout_deterministic_and_scaled() {
        let mut a = DMatrix::filled(10, 10, 1.0);
        let mut b = DMatrix::filled(10, 10, 1.0);
        let ma = dropout_inplace(&mut a, 0.5, 7);
        let mb = dropout_inplace(&mut b, 0.5, 7);
        assert_eq!(ma, mb);
        assert_eq!(a, b);
        // Survivors scaled by 2.0.
        for (&x, &keep) in a.data().iter().zip(&ma) {
            assert_eq!(x, if keep { 2.0 } else { 0.0 });
        }
        // Roughly half survive.
        let kept = ma.iter().filter(|&&k| k).count();
        assert!((30..=70).contains(&kept), "kept {kept}/100");
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut a = DMatrix::filled(2, 2, 3.0);
        let mask = dropout_inplace(&mut a, 0.0, 1);
        assert!(mask.iter().all(|&k| k));
        assert_eq!(a, DMatrix::filled(2, 2, 3.0));
    }

    #[test]
    fn dropout_backward_applies_mask() {
        let mut fwd = DMatrix::filled(1, 4, 1.0);
        let mask = dropout_inplace(&mut fwd, 0.25, 3);
        let mut g = DMatrix::filled(1, 4, 1.0);
        dropout_backward_inplace(&mut g, &mask, 0.25);
        for (gv, &keep) in g.data().iter().zip(&mask) {
            assert_eq!(*gv, if keep { 1.0 / 0.75 } else { 0.0 });
        }
    }

    #[test]
    fn mean_value() {
        let m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((mean(&m) - 2.5).abs() < 1e-6);
        assert_eq!(mean(&DMatrix::zeros(0, 0)), 0.0);
    }
}
