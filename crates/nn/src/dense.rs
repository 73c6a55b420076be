//! Dense (fully connected) layer — the classifier head of Alg. 1 line 11.

use crate::adam::{AdamHyper, AdamParam};
use gsgcn_tensor::{gemm, init, DMatrix};

/// `X = H·W + b` with learned `W` and bias `b`.
///
/// Owns persistent gradient buffers so the in-place `forward_into` /
/// `backward_into` pair allocates nothing once warm.
#[derive(Clone, Debug)]
pub struct DenseLayer {
    pub w: AdamParam,
    pub b: AdamParam,
    /// Cached input of the last standalone `forward` (needed for dW).
    input: Option<DMatrix>,
    /// Persistent parameter-gradient buffers.
    grads: DenseGrads,
}

impl DenseLayer {
    /// Xavier-initialised layer mapping `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        DenseLayer {
            w: AdamParam::new(init::xavier_uniform(in_dim, out_dim, seed)),
            b: AdamParam::new(DMatrix::zeros(1, out_dim)),
            input: None,
            grads: DenseGrads {
                dw: DMatrix::zeros(0, 0),
                db: DMatrix::zeros(0, 0),
            },
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// In-place forward: `out = H·W + b`, reusing `out`'s buffer.
    pub fn forward_into(&self, h: &DMatrix, out: &mut DMatrix) {
        out.ensure_shape(h.rows(), self.w.value.cols());
        gemm::gemm_nn_v(1.0, h.view(), self.w.value.view(), 0.0, out.view_mut());
        let b = self.b.value.row(0);
        for i in 0..out.rows() {
            for (o, &bv) in out.row_mut(i).iter_mut().zip(b) {
                *o += bv;
            }
        }
    }

    /// Forward pass; caches the input for the standalone backward pass.
    pub fn forward(&mut self, h: &DMatrix) -> DMatrix {
        let mut out = DMatrix::zeros(0, 0);
        self.forward_into(h, &mut out);
        self.input = Some(h.clone());
        out
    }

    /// Inference-only forward (no caching, `&self`).
    pub fn infer(&self, h: &DMatrix) -> DMatrix {
        let mut out = DMatrix::zeros(0, 0);
        self.forward_into(h, &mut out);
        out
    }

    /// In-place backward with an explicit input: writes `dH` into `d_h`
    /// (buffer reused) and the parameter gradients into the layer's
    /// persistent buffers (apply with [`DenseLayer::apply_own_grads`]).
    pub fn backward_into(&mut self, input: &DMatrix, d_out: &DMatrix, d_h: &mut DMatrix) {
        self.grads
            .dw
            .ensure_shape(self.w.value.rows(), self.w.value.cols());
        gemm::gemm_tn_v(
            1.0,
            input.view(),
            d_out.view(),
            0.0,
            self.grads.dw.view_mut(),
        );
        // db = column sums of dOut.
        self.grads.db.ensure_shape(1, d_out.cols());
        self.grads.db.fill(0.0);
        for i in 0..d_out.rows() {
            for (g, &d) in self.grads.db.row_mut(0).iter_mut().zip(d_out.row(i)) {
                *g += d;
            }
        }
        d_h.ensure_shape(d_out.rows(), self.w.value.rows());
        gemm::gemm_nt_v(1.0, d_out.view(), self.w.value.view(), 0.0, d_h.view_mut());
    }

    /// Backward pass (standalone API): consumes `dOut`, returns `dH` and
    /// the parameter gradients for [`DenseLayer::apply_grads`].
    pub fn backward(&mut self, d_out: &DMatrix) -> (DMatrix, DenseGrads) {
        let input = self.input.take().expect("backward called before forward");
        let mut dh = DMatrix::zeros(0, 0);
        self.backward_into(&input, d_out, &mut dh);
        self.input = Some(input);
        (dh, self.grads.clone())
    }

    /// Apply Adam updates from the layer's own gradient buffers.
    pub fn apply_own_grads(&mut self, hyper: &AdamHyper, t: u64) {
        self.w.step(&self.grads.dw, hyper, t);
        self.b.step(&self.grads.db, hyper, t);
    }

    /// Apply Adam updates with the given step counter.
    pub fn apply_grads(&mut self, grads: &DenseGrads, hyper: &AdamHyper, t: u64) {
        self.w.step(&grads.dw, hyper, t);
        self.b.step(&grads.db, hyper, t);
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.w.value.rows() * self.w.value.cols() + self.b.value.cols()
    }
}

/// Gradients of one dense layer.
#[derive(Clone, Debug)]
pub struct DenseGrads {
    pub dw: DMatrix,
    pub db: DMatrix,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_bias() {
        let mut l = DenseLayer::new(3, 2, 1);
        l.w.value = DMatrix::zeros(3, 2);
        l.b.value = DMatrix::from_vec(1, 2, vec![1.5, -0.5]);
        let h = DMatrix::filled(4, 3, 1.0);
        let out = l.forward(&h);
        assert_eq!(out.shape(), (4, 2));
        assert_eq!(out.get(0, 0), 1.5);
        assert_eq!(out.get(3, 1), -0.5);
    }

    #[test]
    fn infer_matches_forward() {
        let mut l = DenseLayer::new(3, 2, 7);
        let h = DMatrix::from_fn(5, 3, |i, j| (i + j) as f32 * 0.2);
        let a = l.forward(&h);
        let b = l.infer(&h);
        assert!(a.max_abs_diff(&b) < 1e-7);
    }

    #[test]
    fn gradient_check() {
        // Loss = ½‖forward(H)‖²; dOut = out. Verify dW numerically.
        let mut l = DenseLayer::new(3, 2, 3);
        let h = DMatrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f32 * 0.3 - 0.5);
        let out = l.forward(&h);
        let (_dh, grads) = l.backward(&out);
        let eps = 1e-3f32;
        let loss = |l: &DenseLayer, h: &DMatrix| -> f32 {
            let o = l.infer(h);
            0.5 * o.data().iter().map(|x| x * x).sum::<f32>()
        };
        for (r, c) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = l.w.value.get(r, c);
            l.w.value.set(r, c, orig + eps);
            let lp = loss(&l, &h);
            l.w.value.set(r, c, orig - eps);
            let lm = loss(&l, &h);
            l.w.value.set(r, c, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.dw.get(r, c);
            assert!((num - ana).abs() < 1e-2, "dW[{r},{c}]: {num} vs {ana}");
        }
        // Bias gradient: column sums of dOut.
        for c in 0..2 {
            let expect: f32 = (0..4).map(|i| out.get(i, c)).sum();
            assert!((grads.db.get(0, c) - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn input_gradient_is_dout_wt() {
        let mut l = DenseLayer::new(2, 2, 5);
        let h = DMatrix::from_fn(3, 2, |i, j| (i as f32) - (j as f32));
        let _ = l.forward(&h);
        let d_out = DMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        let (dh, _) = l.backward(&d_out);
        let expect = gemm::matmul_nt(&d_out, &l.w.value);
        assert!(dh.max_abs_diff(&expect) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let mut l = DenseLayer::new(2, 2, 1);
        l.backward(&DMatrix::zeros(1, 2));
    }

    #[test]
    fn training_linear_regression() {
        // Fit y = H·W* exactly with Adam.
        let w_star = DMatrix::from_vec(2, 1, vec![2.0, -1.0]);
        let h = DMatrix::from_fn(16, 2, |i, j| ((i * 2 + j) % 7) as f32 * 0.3 - 1.0);
        let y = gemm::matmul(&h, &w_star);
        let mut l = DenseLayer::new(2, 1, 11);
        let hyper = AdamHyper {
            lr: 0.05,
            ..AdamHyper::default()
        };
        for t in 1..=800 {
            let out = l.forward(&h);
            let mut d = out.clone();
            for (dv, (&ov, &yv)) in d.data_mut().iter_mut().zip(out.data().iter().zip(y.data())) {
                *dv = (ov - yv) / 16.0;
                let _ = ov;
            }
            let (_, grads) = l.backward(&d);
            l.apply_grads(&grads, &hyper, t);
        }
        assert!(l.w.value.max_abs_diff(&w_star) < 0.05, "{:?}", l.w.value);
    }
}
