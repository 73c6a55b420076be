//! Property-based tests of the neural-network substrate: gradient
//! correctness on random shapes is the load-bearing guarantee.

use gsgcn_graph::builder::from_edges;
use gsgcn_nn::adam::{AdamHyper, AdamParam};
use gsgcn_nn::gcn_layer::GcnLayer;
use gsgcn_nn::loss::{sigmoid_bce, softmax_ce};
use gsgcn_prop::propagator::{FeaturePropagator, PropMode};
use gsgcn_tensor::DMatrix;
use proptest::prelude::*;

fn small_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = DMatrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1.5f32..1.5, r * c).prop_map(move |d| DMatrix::from_vec(r, c, d))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BCE gradient matches finite differences on random logits/targets.
    #[test]
    fn bce_gradient_random(x in small_matrix(1..5, 1..5), seed in any::<u64>()) {
        let y = DMatrix::from_fn(x.rows(), x.cols(), |i, j| {
            ((seed as usize).wrapping_add(i * 31 + j * 7) % 2) as f32
        });
        let (_, grad) = sigmoid_bce(&x, &y);
        let eps = 1e-3f32;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                let num = (sigmoid_bce(&xp, &y).0 - sigmoid_bce(&xm, &y).0) / (2.0 * eps);
                prop_assert!((num - grad.get(i, j)).abs() < 2e-2, "[{i},{j}] {num} vs {}", grad.get(i, j));
            }
        }
    }

    /// CE gradient matches finite differences; gradient rows sum to zero.
    #[test]
    fn ce_gradient_random(x in small_matrix(1..5, 2..5), pick in any::<u64>()) {
        let y = DMatrix::from_fn(x.rows(), x.cols(), |i, j| {
            if j == (pick as usize).wrapping_add(i) % x.cols() { 1.0 } else { 0.0 }
        });
        let (_, grad) = softmax_ce(&x, &y);
        for i in 0..x.rows() {
            let s: f32 = grad.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
        let eps = 1e-3f32;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                let num = (softmax_ce(&xp, &y).0 - softmax_ce(&xm, &y).0) / (2.0 * eps);
                prop_assert!((num - grad.get(i, j)).abs() < 2e-2);
            }
        }
    }

    /// Losses are non-negative and finite everywhere.
    #[test]
    fn losses_nonnegative(x in small_matrix(1..6, 1..6)) {
        let y = DMatrix::from_fn(x.rows(), x.cols(), |i, j| ((i + j) % 2) as f32);
        let (bce, gb) = sigmoid_bce(&x, &y);
        prop_assert!(bce >= 0.0 && bce.is_finite());
        prop_assert!(gb.all_finite());
        let onehot = DMatrix::from_fn(x.rows(), x.cols(), |_, j| if j == 0 { 1.0 } else { 0.0 });
        let (ce, gc) = softmax_ce(&x, &onehot);
        prop_assert!(ce >= 0.0 && ce.is_finite());
        prop_assert!(gc.all_finite());
    }

    /// Adam with zero gradient and zero decay never moves the weights.
    #[test]
    fn adam_zero_grad_fixed_point(w in small_matrix(1..5, 1..5), steps in 1u64..20) {
        let mut p = AdamParam::new(w.clone());
        let zero = DMatrix::zeros(w.rows(), w.cols());
        let hyper = AdamHyper::default();
        for t in 1..=steps {
            p.step(&zero, &hyper, t);
        }
        prop_assert!(p.value.max_abs_diff(&w) < 1e-6);
    }

    /// Adam first step is bounded by the learning rate per coordinate.
    #[test]
    fn adam_step_bounded(w in small_matrix(1..5, 1..5), seed in any::<u64>()) {
        let g = DMatrix::from_fn(w.rows(), w.cols(), |i, j| {
            (((seed as usize) + i * 17 + j * 3) % 19) as f32 * 0.1 - 0.9
        });
        let mut p = AdamParam::new(w.clone());
        let hyper = AdamHyper { lr: 0.01, ..AdamHyper::default() };
        p.step(&g, &hyper, 1);
        for (before, after) in w.data().iter().zip(p.value.data()) {
            prop_assert!((before - after).abs() <= hyper.lr * 1.01);
        }
    }

    /// GCN layer gradients match finite differences on random graphs and
    /// dimensions (the full chain: aggregate → weights → concat → ReLU).
    #[test]
    fn gcn_layer_gradient_random(n in 3usize..7, fin in 1usize..4, half in 1usize..3, seed in 0u64..1000) {
        // On f32 storage (a new layer's default): finite differences probe
        // at a step size below bf16 granularity, so the quantized forward
        // would drown the numeric gradient in rounding noise.
        gcn_layer_gradient_random_body(n, fin, half, seed)?;
    }
}

fn gcn_layer_gradient_random_body(
    n: usize,
    fin: usize,
    half: usize,
    seed: u64,
) -> Result<(), String> {
    {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = from_edges(n, &edges);
        let mut layer = GcnLayer::new(fin, half, true, seed);
        let h = DMatrix::from_fn(n, fin, |i, j| {
            (((seed as usize) + i * 13 + j * 29) % 11) as f32 * 0.2 - 1.0
        });
        let p = FeaturePropagator::new(PropMode::Naive);
        let loss_of = |layer: &GcnLayer, h: &DMatrix| -> f32 {
            let o = layer.infer(&g, h, &p);
            0.5 * o.data().iter().map(|x| x * x).sum::<f32>()
        };
        let (out, _) = layer.forward(&g, &h, &p);
        let (dh, grads, _) = layer.backward(&g, &out, &p);
        let eps = 1e-2f32;
        // Spot-check one weight entry and one input entry.
        {
            let orig = layer.w_neigh.value.get(0, 0);
            layer.w_neigh.value.set(0, 0, orig + eps);
            let lp = loss_of(&layer, &h);
            layer.w_neigh.value.set(0, 0, orig - eps);
            let lm = loss_of(&layer, &h);
            layer.w_neigh.value.set(0, 0, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.d_w_neigh.get(0, 0);
            prop_assert!(
                (num - ana).abs() < 0.1 * (1.0 + ana.abs()),
                "dW {num} vs {ana}"
            );
        }
        {
            let mut hp = h.clone();
            hp.set(0, 0, h.get(0, 0) + eps);
            let mut hm = h.clone();
            hm.set(0, 0, h.get(0, 0) - eps);
            let num = (loss_of(&layer, &hp) - loss_of(&layer, &hm)) / (2.0 * eps);
            let ana = dh.get(0, 0);
            prop_assert!(
                (num - ana).abs() < 0.1 * (1.0 + ana.abs()),
                "dH {num} vs {ana}"
            );
        }
    }
    Ok(())
}
