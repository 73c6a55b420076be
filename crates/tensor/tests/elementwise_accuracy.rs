//! Accuracy, edge cases and pinned bits of the polynomial `exp` /
//! `log1p` / sigmoid the loss and the output activations run on.
//!
//! Each kernel is swept against an f64 reference over a strided walk of
//! every f32 in its domain and must stay within 2 ulp (measured over the
//! whole domain: `exp_nonpos` 1.01, `log1p_unit` 1.97, `sigmoid` 1.48).
//! The golden bit patterns pin the exact results: every operation in the
//! kernels is correctly rounded, so a runner with another ISA (or without
//! FMA hardware) must reproduce them bit for bit.

use gsgcn_tensor::{ops, DMatrix};

/// |got − want| in units of the last place of `want` rounded to f32
/// (the subnormal spacing below `f32::MIN_POSITIVE`).
fn ulp_error(got: f32, want: f64) -> f64 {
    let w = (want as f32).abs();
    let ulp = (f32::from_bits(w.to_bits() + 1) - w) as f64;
    ((got as f64) - want).abs() / ulp
}

/// Every `stride`-th bit pattern from `lo` to `hi` (inclusive), plus `hi`.
fn walk(lo: u32, hi: u32, stride: u32) -> impl Iterator<Item = u32> {
    (lo..=hi)
        .step_by(stride as usize)
        .chain(std::iter::once(hi))
}

fn assert_within_2ulp(name: &str, x: f32, got: f32, want: f64) {
    let err = ulp_error(got, want);
    assert!(
        err <= 2.0,
        "{name}({x:e}) = {got:e}, want {want:e}: {err:.2} ulp"
    );
}

#[test]
fn exp_nonpos_within_2ulp_over_its_domain() {
    // Negative floats: bit patterns from −0 up to −104 (then e^x rounds to 0).
    for bits in walk(0x8000_0000, (-104.0f32).to_bits(), 1021) {
        let x = f32::from_bits(bits);
        assert_within_2ulp("exp", x, ops::exp_nonpos(x), (x as f64).exp());
    }
    // Around the normal/subnormal boundary (ln f32::MIN_POSITIVE ≈ −87.34)
    // and the underflow cutoff (e^x < 2⁻¹⁵⁰ below ≈ −103.97), densely.
    for centre in [-87.336_54f32, -103.972_08] {
        let c = centre.to_bits();
        for bits in c - 20_000..c + 20_000 {
            let x = f32::from_bits(bits);
            assert_within_2ulp("exp", x, ops::exp_nonpos(x), (x as f64).exp());
        }
    }
}

#[test]
fn exp_nonpos_edges() {
    assert_eq!(ops::exp_nonpos(0.0), 1.0);
    assert_eq!(ops::exp_nonpos(-0.0), 1.0);
    assert_eq!(ops::exp_nonpos(-1e4).to_bits(), 0);
    assert_eq!(ops::exp_nonpos(-104.0).to_bits(), 0);
    assert_eq!(ops::exp_nonpos(f32::NEG_INFINITY).to_bits(), 0);
    // The smallest subnormal, 2⁻¹⁴⁹, is e^x for x near −103.28.
    assert_eq!(ops::exp_nonpos(-103.28).to_bits(), 1);
    assert!(ops::exp_nonpos(f32::NAN).is_nan());
}

#[test]
fn log1p_unit_within_2ulp_over_its_domain() {
    for bits in walk(0, 1.0f32.to_bits(), 1021) {
        let x = f32::from_bits(bits);
        assert_within_2ulp("log1p", x, ops::log1p_unit(x), (x as f64).ln_1p());
    }
}

#[test]
fn log1p_unit_edges() {
    assert_eq!(ops::log1p_unit(0.0).to_bits(), 0);
    // Tiny arguments keep their relative accuracy: log1p(x) = x there
    // (down to the subnormals, where x/2 starts to round).
    assert_eq!(ops::log1p_unit(f32::MIN_POSITIVE), f32::MIN_POSITIVE);
    assert_eq!(ops::log1p_unit(1e-30), 1e-30);
    assert!(ulp_error(ops::log1p_unit(f32::from_bits(1)), f32::from_bits(1) as f64) <= 1.0);
    assert_eq!(ops::log1p_unit(1.0), std::f32::consts::LN_2);
    assert!(ops::log1p_unit(f32::NAN).is_nan());
}

#[test]
fn sigmoid_within_2ulp_on_both_sides() {
    let reference = |x: f32| 1.0 / (1.0 + (-(x as f64)).exp());
    for bits in
        walk(0, 104.0f32.to_bits(), 1021).chain(walk(0x8000_0000, (-104.0f32).to_bits(), 1021))
    {
        let x = f32::from_bits(bits);
        assert_within_2ulp("sigmoid", x, ops::sigmoid(x), reference(x));
    }
}

#[test]
fn sigmoid_edges() {
    assert_eq!(ops::sigmoid(0.0), 0.5);
    assert_eq!(ops::sigmoid(-0.0), 0.5);
    assert_eq!(ops::sigmoid(f32::INFINITY), 1.0);
    assert_eq!(ops::sigmoid(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(ops::sigmoid(-1e4).to_bits(), 0);
    assert_eq!(ops::sigmoid(1e4), 1.0);
    assert!(ops::sigmoid(f32::NAN).is_nan());
}

#[test]
fn golden_bit_patterns() {
    let exp = [
        (-0.1f32, 0x3f67_a36d_u32),
        (-1.0, 0x3ebc_5ab2),
        (-3.7, 0x3cca_88fe),
        (-20.5, 0x30ab_d1d8),
        (-88.0, 0x0041_edc4),
        (-100.0, 0x0000_001b),
    ];
    for (x, bits) in exp {
        assert_eq!(ops::exp_nonpos(x).to_bits(), bits, "exp({x})");
    }
    let log1p = [
        (1e-6f32, 0x3586_37b9_u32),
        (0.03, 0x3cf2_254d),
        (0.5, 0x3ecf_9920),
        (0.75, 0x3f0f_42fb),
        (1.0, 0x3f31_7218),
    ];
    for (x, bits) in log1p {
        assert_eq!(ops::log1p_unit(x).to_bits(), bits, "log1p({x})");
    }
    let sigmoid = [
        (-9.5f32, 0x389c_f6c3_u32),
        (-1.25, 0x3e64_0b82),
        (0.3, 0x3f13_0eaa),
        (2.0, 0x3f61_7beb),
        (17.0, 0x3f7f_ffff),
    ];
    for (x, bits) in sigmoid {
        assert_eq!(ops::sigmoid(x).to_bits(), bits, "sigmoid({x})");
    }
}

#[test]
fn sigmoid_inplace_is_the_scalar_sigmoid_and_passes_nan() {
    let xs = [
        0.0,
        -0.0,
        3.5,
        -3.5,
        40.0,
        -120.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let mut m = DMatrix::from_vec(3, 3, xs.to_vec());
    ops::sigmoid_inplace(&mut m);
    for (&x, &s) in xs.iter().zip(m.data()) {
        if x.is_nan() {
            assert!(s.is_nan());
        } else {
            assert_eq!(s.to_bits(), ops::sigmoid(x).to_bits(), "sigmoid({x})");
        }
    }
}

#[test]
fn softmax_row_with_a_nan_is_nan_and_leaves_other_rows_alone() {
    let mut m = DMatrix::from_vec(2, 3, vec![1.0, f32::NAN, 2.0, 1.0, 0.0, 2.0]);
    ops::softmax_rows_inplace(&mut m);
    assert!(m.row(0).iter().all(|p| p.is_nan()));
    let mut clean = DMatrix::from_vec(1, 3, vec![1.0, 0.0, 2.0]);
    ops::softmax_rows_inplace(&mut clean);
    assert_eq!(m.row(1), clean.row(0));
    assert!((clean.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
}

#[test]
fn softmax_infinities() {
    // −∞ is a zero probability; +∞ makes the row ∞ − ∞ = NaN.
    let mut m = DMatrix::from_vec(
        2,
        3,
        vec![f32::NEG_INFINITY, 0.0, 0.0, f32::INFINITY, 0.0, 1.0],
    );
    let lse = ops::softmax_row_inplace(m.row_mut(0));
    assert_eq!(m.row(0), &[0.0, 0.5, 0.5]);
    assert_eq!(lse, std::f32::consts::LN_2);
    ops::softmax_row_inplace(m.row_mut(1));
    assert!(m.row(1).iter().all(|p| p.is_nan()));
}

#[test]
fn softmax_row_returns_log_sum_exp() {
    for cols in [1usize, 7, 16, 41, 100] {
        let row: Vec<f32> = (0..cols)
            .map(|j| ((j * 37 % 11) as f32 - 5.0) * 1.3)
            .collect();
        let lse_ref = row.iter().map(|&x| (x as f64).exp()).sum::<f64>().ln();
        let mut p = row.clone();
        let lse = ops::softmax_row_inplace(&mut p);
        assert!(
            ((lse as f64) - lse_ref).abs() < 1e-6 * lse_ref.abs().max(1.0),
            "{cols}: {lse} vs {lse_ref}"
        );
        for (&x, &pj) in row.iter().zip(&p) {
            let want = ((x as f64) - lse_ref).exp();
            assert!(
                ((pj as f64) - want).abs() < 1e-6,
                "{cols}: p {pj} vs {want}"
            );
        }
    }
}

#[test]
fn lane_sum_order_is_fixed_by_the_lanes() {
    // Element j goes to lane j mod 16, lanes add pairwise: 1e8 in lane 0
    // absorbs the 1s that share its lane only, whatever the row length.
    for len in [1usize, 5, 16, 17, 33, 100] {
        let xs: Vec<f32> = (0..len).map(|j| if j == 0 { 1e8 } else { 1.0 }).collect();
        let mut lanes = [0.0f32; 16];
        for (j, &x) in xs.iter().enumerate() {
            lanes[j % 16] += x;
        }
        let mut width = 16;
        while width > 1 {
            width /= 2;
            for l in 0..width {
                lanes[l] += lanes[l + width];
            }
        }
        assert_eq!(
            ops::lane_sum([&xs], |[x]| x).to_bits(),
            lanes[0].to_bits(),
            "len {len}"
        );
    }
    assert_eq!(ops::lane_sum::<1>([&[]], |[x]| x), 0.0);
}
