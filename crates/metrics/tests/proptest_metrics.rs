//! Property-based tests of the metric implementations.

use gsgcn_metrics::convergence::Curve;
use gsgcn_metrics::f1::{argmax_onehot, binarize, f1_micro};
use gsgcn_metrics::timing::{speedup, Breakdown, Phase};
use gsgcn_tensor::DMatrix;
use proptest::prelude::*;

fn binary_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = DMatrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(prop::bool::ANY, r * c).prop_map(move |bits| {
            DMatrix::from_vec(r, c, bits.into_iter().map(|b| b as u8 as f32).collect())
        })
    })
}

/// Two binary matrices with a shared shape (prediction, target).
fn binary_matrix_pair(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = (DMatrix, DMatrix)> {
    (rows, cols).prop_flat_map(|(r, c)| {
        let m = move |bits: Vec<bool>| {
            DMatrix::from_vec(r, c, bits.into_iter().map(|b| b as u8 as f32).collect())
        };
        (
            proptest::collection::vec(prop::bool::ANY, r * c).prop_map(m),
            proptest::collection::vec(prop::bool::ANY, r * c).prop_map(m),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// F1 is always in [0, 1] and never NaN.
    #[test]
    fn f1_bounded((p, t) in binary_matrix_pair(1..10, 1..8)) {
        let v = f1_micro(&p, &t);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!(!v.is_nan());
    }

    /// Perfect prediction gives F1 = 1 exactly when positives exist.
    #[test]
    fn perfect_prediction(t in binary_matrix(1..10, 1..8)) {
        let has_positive = t.data().iter().any(|&x| x > 0.0);
        let f = f1_micro(&t, &t);
        if has_positive {
            prop_assert_eq!(f, 1.0);
        } else {
            prop_assert_eq!(f, 0.0); // undefined → 0, not NaN
        }
    }

    /// F1 is symmetric under class permutation (micro).
    #[test]
    fn f1_class_permutation_invariant((p, t) in binary_matrix_pair(2..8, 2..6)) {
        let c = p.cols();
        // Rotate classes by one.
        let rot = |m: &DMatrix| DMatrix::from_fn(m.rows(), c, |i, j| m.get(i, (j + 1) % c));
        let a = f1_micro(&p, &t);
        let b = f1_micro(&rot(&p), &rot(&t));
        prop_assert!((a - b).abs() < 1e-12);
    }

    /// binarize output is binary and respects the threshold.
    #[test]
    fn binarize_contract(rows in 1usize..10, cols in 1usize..8, thr in 0.1f32..0.9, seed in any::<u64>()) {
        let probs = DMatrix::from_fn(rows, cols, |i, j| {
            (((seed as usize) + i * 7 + j * 13) % 100) as f32 / 100.0
        });
        let b = binarize(&probs, thr);
        for (pv, bv) in probs.data().iter().zip(b.data()) {
            prop_assert_eq!(*bv, if *pv >= thr { 1.0 } else { 0.0 });
        }
    }

    /// argmax_onehot rows are exactly one-hot.
    #[test]
    fn argmax_one_hot(rows in 1usize..10, cols in 1usize..8, seed in any::<u64>()) {
        let probs = DMatrix::from_fn(rows, cols, |i, j| {
            (((seed as usize) ^ (i * 31 + j * 17)) % 97) as f32 / 97.0
        });
        let a = argmax_onehot(&probs);
        for i in 0..rows {
            let s: f32 = a.row(i).iter().sum();
            prop_assert_eq!(s, 1.0);
        }
    }

    /// Breakdown fractions sum to 1 when any time was recorded.
    #[test]
    fn breakdown_fractions_sum(
        s in 0.0f64..10.0, f in 0.0f64..10.0, w in 0.0f64..10.0, o in 0.0f64..10.0
    ) {
        let mut b = Breakdown::default();
        b.add(Phase::Sampling, s);
        b.add(Phase::FeatureProp, f);
        b.add(Phase::WeightApp, w);
        b.add(Phase::Other, o);
        if b.total() > 0.0 {
            let sum: f64 = Phase::ALL.iter().map(|p| b.fraction(*p)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Curve: time_to_reach is monotone in the threshold.
    #[test]
    fn time_to_reach_monotone(points in proptest::collection::vec((0.0f64..100.0, 0.0f64..1.0), 1..20)) {
        let mut sorted = points.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut c = Curve::new("x");
        for (t, m) in sorted {
            c.push(t, m);
        }
        let lo = c.time_to_reach(0.25);
        let hi = c.time_to_reach(0.75);
        if let (Some(l), Some(h)) = (lo, hi) {
            prop_assert!(l <= h, "reaching a higher threshold cannot be earlier");
        }
        if hi.is_some() {
            prop_assert!(lo.is_some(), "reaching 0.75 implies reaching 0.25");
        }
    }

    /// Speedup arithmetic is positive for positive inputs.
    #[test]
    fn speedup_positive(a in 0.001f64..100.0, b in 0.001f64..100.0) {
        prop_assert!(speedup(a, b) > 0.0);
        prop_assert!((speedup(a, b) * speedup(b, a) - 1.0).abs() < 1e-9);
    }
}
