//! One GCN layer (Sec. II-A / Alg. 1 lines 7–9).
//!
//! Forward, for input features `H ∈ R^{n×f_in}` on graph `G`:
//!
//! ```text
//! H_neigh = (Â·H) · W_neigh          (feature aggregation, then weights)
//! H_self  =  H    · W_self
//! H_out   = σ( H_neigh ‖ H_self )    (concat + ReLU)
//! ```
//!
//! where `Â = D⁻¹A` is the mean-aggregation operator supplied by
//! `gsgcn-prop`. Output width is `2·half_dim` (the concatenation).
//!
//! Backward (hand-derived, cached activations):
//!
//! ```text
//! dPre       = dOut ⊙ 1[H_out > 0]          (ReLU)
//! dH_neigh, dH_self = split(dPre)
//! dW_neigh   = (Â·H)ᵀ · dH_neigh
//! dW_self    = Hᵀ · dH_self
//! dH         = Âᵀ·(dH_neigh · W_neighᵀ) + dH_self · W_selfᵀ
//! ```
//!
//! In the default **fused** mode both passes avoid materialising any
//! aggregated matrix: forward fuses `Â·H` into the `·W_neigh` GEMM, and
//! backward reassociates `dW_neigh = Hᵀ·(Âᵀ·dH_neigh)` and
//! `Âᵀ·(dH_neigh·W_neighᵀ) = (Âᵀ·dH_neigh)·W_neighᵀ` around the narrow
//! intermediate `Z = Âᵀ·dH_neigh` (valid because `Â` acts on a symmetric
//! adjacency), which the fused `Z·W_neighᵀ` GEMM spills as a side effect
//! of panel packing. See the struct docs.
//!
//! The input layer's `dH` has no reader, so a caller may skip it
//! (`backward_into` with `d_in = None`): neither input-gradient GEMM
//! runs, and `Z` comes from a spill-only aggregation pass.
//!
//! Under [`Precision::Bf16`] a training step is mixed precision end to
//! end. The forward quantises the layer input once into a layer-owned
//! bf16 buffer; both forward GEMMs and the weight-gradient GEMMs `Hᵀ·Z`
//! and `Hᵀ·dH_self` multiply those bf16 panels, so the backward
//! differentiates the values the forward multiplied. The f32 gradient
//! operands round to bf16 as they are packed, and `dH_self·W_selfᵀ` runs
//! on bf16 panels too. Accumulation, the master weights and Adam stay
//! f32, and so does the fused `Z·W_neighᵀ`, whose spilled `Z` must stay
//! f32.
//!
//! The layer reports the wall-clock split between sparse feature
//! propagation and dense weight application, feeding the Fig. 3
//! execution-time breakdown.

use crate::adam::{AdamHyper, AdamParam};
use gsgcn_graph::CsrGraph;
use gsgcn_prop::fused::{AggregatedRows, KeptRows};
use gsgcn_prop::propagator::FeaturePropagator;
use gsgcn_tensor::gemm::{self, DensePack, Element, PackSource};
use gsgcn_tensor::{
    bf16, init, ops, precision, Bf16, Bf16MatRef, DMatrix, IndexedRows, MatMut, MatRef, Precision,
    Rows,
};
use std::time::Instant;

/// Wall-clock seconds spent in the two kernel classes of one pass.
///
/// **Fused-mode caveat:** in the fused pipeline the sparse aggregation
/// runs *inside* the neighbor-half GEMM's pack step and the two cannot be
/// timed separately, so the whole fused call — pack (aggregation) *and*
/// multiply — is booked under `feature_prop_secs`, while only the
/// self-half and weight-gradient GEMMs count as `weight_app_secs`. The
/// unfused path books the dense neighbor-half multiply under
/// `weight_app_secs` instead, so breakdowns are **not comparable across
/// the fused toggle**; compare totals, or use the unfused mode for the
/// Fig. 3-style split.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTimings {
    /// Sparse feature propagation (`Â·H`, `Âᵀ·dY`), including the fused
    /// GEMMs it is inseparable from (see the struct docs).
    pub feature_prop_secs: f64,
    /// Dense weight application (all GEMMs outside the fused calls; in a
    /// [`GcnModel::train_step`](crate::model::GcnModel::train_step) also the
    /// classifier head's forward and backward, bias terms included).
    pub weight_app_secs: f64,
}

impl KernelTimings {
    /// Accumulate another measurement.
    pub fn add(&mut self, other: KernelTimings) {
        self.feature_prop_secs += other.feature_prop_secs;
        self.weight_app_secs += other.weight_app_secs;
    }
}

/// Cached forward state needed by the standalone [`GcnLayer::backward`]
/// API (the model's in-place path passes activations explicitly instead).
#[derive(Clone, Debug)]
struct ForwardCache {
    /// Layer input `H`.
    input: DMatrix,
    /// Post-activation output (ReLU mask source).
    output: DMatrix,
    /// The precision the forward stored `input` in.
    precision: Precision,
}

/// One graph-convolution layer with `W_self` and `W_neigh`.
///
/// The layer owns persistent work buffers (`aggregated`/`z_neigh`,
/// `input_bf16`, `d_agg`, weight gradients): the in-place `forward_into` /
/// `backward_into` pair reuses them across iterations, so a warm training
/// loop allocates nothing here.
///
/// # Fused vs unfused hot path
///
/// By default (`fused = true`) the layer runs the fused
/// aggregate→GEMM pipeline (`gsgcn_prop::fused`): forward computes
/// `(Â·H)·W_neigh` in one cache pass without materialising `Â·H`, and
/// backward reassociates `dW_neigh = (Â·H)ᵀ·dY = Hᵀ·(Âᵀ·dY)` so only the
/// *narrow* `Z = Âᵀ·dY_neigh` (`n × half`) is ever stored — the wide
/// `n × f_in` aggregate cache of the unfused path disappears, and `Z`
/// itself is spilled as a side effect of the fused `Z·W_neighᵀ` GEMM.
/// The unfused path ([`GcnLayer::with_fused`]`(false)`) keeps the
/// original aggregate-then-GEMM composition as the reference
/// implementation for equivalence proptests and benches.
#[derive(Clone, Debug)]
pub struct GcnLayer {
    pub w_neigh: AdamParam,
    pub w_self: AdamParam,
    /// Apply ReLU after concat (disabled on the last embedding layer if
    /// raw embeddings are wanted).
    pub activation: bool,
    /// Use the fused aggregate→GEMM pipeline (default).
    fused: bool,
    /// Unfused path only: `Â·H` of the last forward (consumed by backward
    /// for `dW_neigh`).
    aggregated: DMatrix,
    /// Fused path only: `Z = Âᵀ·dH_neigh` of the current backward,
    /// spilled by the fused input-gradient GEMM (or the spill-only pass
    /// when no input gradient is wanted) and consumed by the
    /// weight-gradient GEMM.
    z_neigh: DMatrix,
    /// Fused path under bf16 only: the input of the last `forward_into`
    /// as it was quantised, read again by the backward's weight-gradient
    /// GEMMs.
    input_bf16: Vec<Bf16>,
    /// `Some(precision the input was stored in)` between a
    /// `forward_into` and the `backward_into` that consumes its forward
    /// state — guards against mis-paired calls, and the backward runs in
    /// the precision its forward ran in.
    fwd: Option<Precision>,
    /// Scratch for `dH_neigh·W_neighᵀ` in the unfused backward.
    d_agg: DMatrix,
    /// Persistent weight-gradient buffers (see [`GcnLayer::own_grads`]).
    grads: GcnLayerGrads,
    cache: Option<ForwardCache>,
}

/// Gradients of one GCN layer.
#[derive(Clone, Debug)]
pub struct GcnLayerGrads {
    pub d_w_neigh: DMatrix,
    pub d_w_self: DMatrix,
}

impl GcnLayer {
    /// A layer mapping `in_dim → 2·half_dim` (concat of the two halves).
    pub fn new(in_dim: usize, half_dim: usize, activation: bool, seed: u64) -> Self {
        GcnLayer {
            w_neigh: AdamParam::new(init::xavier_uniform(in_dim, half_dim, seed)),
            w_self: AdamParam::new(init::xavier_uniform(in_dim, half_dim, seed ^ 0x5EED)),
            activation,
            fused: true,
            aggregated: DMatrix::zeros(0, 0),
            z_neigh: DMatrix::zeros(0, 0),
            input_bf16: Vec::new(),
            fwd: None,
            d_agg: DMatrix::zeros(0, 0),
            grads: GcnLayerGrads {
                d_w_neigh: DMatrix::zeros(0, 0),
                d_w_self: DMatrix::zeros(0, 0),
            },
            cache: None,
        }
    }

    /// Select the fused (default) or unfused reference hot path.
    pub fn with_fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Whether this layer runs the fused aggregate→GEMM pipeline.
    pub fn fused(&self) -> bool {
        self.fused
    }

    pub fn in_dim(&self) -> usize {
        self.w_neigh.value.rows()
    }

    /// Output width (`2·half_dim`).
    pub fn out_dim(&self) -> usize {
        self.w_neigh.value.cols() * 2
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        2 * self.w_neigh.value.rows() * self.w_neigh.value.cols()
    }

    /// Weight application shared by training forward and inference:
    /// `out = σ?( [Â·H · W_neigh ‖ H · W_self] )`, writing each GEMM
    /// straight into its column half of `out` through strided views — the
    /// concat never exists as a copy. `out` is `h.rows() × 2·half`.
    fn apply_weights(&self, aggregated: MatRef<'_>, h: MatRef<'_>, mut out: MatMut<'_>) {
        let half = self.w_neigh.value.cols();
        debug_assert_eq!(out.shape(), (h.rows(), 2 * half));
        gemm::gemm_nn_v(
            1.0,
            aggregated,
            self.w_neigh.value.view(),
            0.0,
            out.col_range_mut(0, half),
        );
        gemm::gemm_nn_v(
            1.0,
            h,
            self.w_self.value.view(),
            0.0,
            out.col_range_mut(half, 2 * half),
        );
        if self.activation {
            ops::relu_inplace_v(out);
        }
    }

    /// The fused inference forward ([`GcnLayer::infer_rows_into`]):
    /// [`GcnLayer::fused_halves`] over `h` as this thread's precision
    /// stores it. Under [`Precision::Bf16`] the input is quantised
    /// **once** into pooled scratch ([`with_bf16_rows`]; warm calls
    /// allocate nothing) and both GEMMs read the half-width rows. The
    /// aggregation re-reads each feature row `deg(u)` times, so the
    /// one-off quantise pass is repaid immediately in row bandwidth.
    fn apply_fused(&self, g: &CsrGraph, h: &DMatrix, out: MatMut<'_>, prop: &FeaturePropagator) {
        debug_assert!(out.rows() <= h.rows() && out.cols() == self.out_dim());
        if precision::current() == Precision::Bf16 {
            with_bf16_rows(h, |qh| self.fused_halves(g, qh, out, prop));
        } else {
            self.fused_halves(g, h.view(), out, prop);
        }
    }

    /// The fused forward computation shared by training
    /// ([`GcnLayer::forward_into`]) and inference
    /// ([`GcnLayer::apply_fused`]) over the stored input `h`, whichever
    /// element it is stored in: `out = σ?( [(Â·H)·W_neigh ‖ H·W_self] )`
    /// with the neighbor half fused (aggregation inside the GEMM pack).
    /// Returns the timing split; see [`KernelTimings`] for what each
    /// bucket means in fused mode. `out` is `rows × 2·half` with
    /// `rows ≤ h.rows()`: both halves are computed for the leading `rows`
    /// vertices only (all of them in training; the root rows of a
    /// frontier ball in inference). Accumulation stays f32 throughout.
    fn fused_halves<H: Rows>(
        &self,
        g: &CsrGraph,
        h: H,
        mut out: MatMut<'_>,
        prop: &FeaturePropagator,
    ) -> KernelTimings {
        let mut t = KernelTimings::default();
        let half = self.w_neigh.value.cols();

        let t0 = Instant::now();
        prop.forward_gemm_rows(
            g,
            h,
            self.w_neigh.value.view(),
            0.0,
            out.col_range_mut(0, half),
        );
        t.feature_prop_secs += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        gemm::gemm_source_nn_v(
            1.0,
            &DensePack::new(h.first_rows(out.rows())),
            self.w_self.value.view(),
            0.0,
            out.col_range_mut(half, 2 * half),
        );
        if self.activation {
            ops::relu_inplace_v(out);
        }
        t.weight_app_secs += t0.elapsed().as_secs_f64();
        t
    }

    /// Inference of this layer's rows for the vertices `targets` (every
    /// vertex when `None`): row `r` of `out` is vertex `targets[r]`'s row
    /// of [`GcnLayer::infer_into`], bit for bit, fused or not. `h` is the
    /// layer input as the fused path stores it (f32, or [`with_bf16_rows`]
    /// under bf16).
    ///
    /// The neighbor half runs on the fused producer restricted to the
    /// targets, packing the rows `kept` holds instead of aggregating them
    /// (see [`AggregatedRows::with_kept`]); the self half packs the same
    /// rows straight out of `h` ([`IndexedRows`]) — no gather. Neither
    /// computes a row it was not asked for, and every GEMM row accumulates
    /// independently of which other rows are present.
    pub(crate) fn infer_selected_into<H: Rows>(
        &self,
        g: &CsrGraph,
        h: H,
        kept: Option<&KeptRows<H::Elem>>,
        targets: Option<&[u32]>,
        mut out: MatMut<'_>,
    ) {
        assert_eq!(out.cols(), self.out_dim(), "output width mismatch");
        let half = self.w_neigh.value.cols();
        let mut neigh = AggregatedRows::mean(g, h);
        if let Some(kept) = kept {
            neigh = neigh.with_kept(kept);
        }
        let w = self.w_neigh.value.view();
        let w_self = self.w_self.value.view();
        match targets {
            Some(ids) => {
                let neigh = neigh.target_rows(ids);
                gemm::gemm_source_nn_v(1.0, &neigh, w, 0.0, out.col_range_mut(0, half));
                let own = DensePack::new(IndexedRows::new(h, ids));
                gemm::gemm_source_nn_v(1.0, &own, w_self, 0.0, out.col_range_mut(half, 2 * half));
            }
            None => {
                gemm::gemm_source_nn_v(1.0, &neigh, w, 0.0, out.col_range_mut(0, half));
                let own = DensePack::new(h);
                gemm::gemm_source_nn_v(1.0, &own, w_self, 0.0, out.col_range_mut(half, 2 * half));
            }
        }
        if self.activation {
            ops::relu_inplace_v(out);
        }
    }

    /// In-place forward: write the activations into `out` (buffer reused,
    /// reshaped as needed). Fused mode computes the neighbor half
    /// `(Â·H)·W_neigh` in one pass — under [`Precision::Bf16`] over `h`
    /// quantised once into a layer-owned buffer (allocation-free once
    /// warm) that the backward reads again; unfused mode caches the
    /// aggregated input `Â·H` in a persistent layer buffer for the
    /// backward pass.
    pub fn forward_into(
        &mut self,
        g: &CsrGraph,
        h: &DMatrix,
        out: &mut DMatrix,
        prop: &FeaturePropagator,
    ) -> KernelTimings {
        let half = self.w_neigh.value.cols();
        out.ensure_shape(h.rows(), 2 * half);

        if self.fused {
            let stored = precision::current();
            let t = match stored {
                Precision::F32 => self.fused_halves(g, h.view(), out.view_mut(), prop),
                Precision::Bf16 => {
                    bf16::quantize_into(h.data(), &mut self.input_bf16);
                    let qh = Bf16MatRef::new(&self.input_bf16, h.rows(), h.cols());
                    self.fused_halves(g, qh, out.view_mut(), prop)
                }
            };
            self.fwd = Some(stored);
            return t;
        }

        let mut t = KernelTimings::default();
        let t0 = Instant::now();
        prop.forward_into(g, h, &mut self.aggregated); // Â·H
        t.feature_prop_secs += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        self.apply_weights(self.aggregated.view(), h.view(), out.view_mut());
        self.fwd = Some(Precision::F32);
        t.weight_app_secs += t0.elapsed().as_secs_f64();
        t
    }

    /// Forward pass with caching for backward (standalone API; the model
    /// uses [`GcnLayer::forward_into`] + [`GcnLayer::backward_into`] with
    /// explicit activations instead). Returns the activations and the
    /// kernel timing split.
    pub fn forward(
        &mut self,
        g: &CsrGraph,
        h: &DMatrix,
        prop: &FeaturePropagator,
    ) -> (DMatrix, KernelTimings) {
        let mut out = DMatrix::zeros(0, 0);
        let t = self.forward_into(g, h, &mut out, prop);
        self.cache = Some(ForwardCache {
            input: h.clone(),
            output: out.clone(),
            precision: self.fwd.expect("forward_into records its precision"),
        });
        (out, t)
    }

    /// Inference-only in-place forward (`&self`, no caching, no forward
    /// state): writes the activations into `out` (buffer reused, reshaped
    /// as needed). The unfused path materialises `Â·H` into the
    /// caller-owned `agg` scratch; the fused path streams the aggregate
    /// through the GEMM pack scratch and leaves `agg` untouched. This is
    /// the per-layer step of the model's workspace-driven inference
    /// ([`crate::workspace::InferenceWorkspace`]) — warm calls allocate
    /// nothing.
    pub fn infer_into(
        &self,
        g: &CsrGraph,
        h: &DMatrix,
        out: &mut DMatrix,
        agg: &mut DMatrix,
        prop: &FeaturePropagator,
    ) {
        out.ensure_shape(h.rows(), self.out_dim());
        self.infer_rows_into(g, h, out.view_mut(), agg, prop);
    }

    /// [`GcnLayer::infer_into`] for the leading `out.rows()` vertices of
    /// `g` only, written into the caller's view (`out.cols()` must be the
    /// layer's output width). `h` still holds a row for every vertex —
    /// the aggregation gathers any of them — but neither the fused
    /// neighbor half nor the self-half GEMM computes a row past
    /// `out.rows()`. This is the step of frontier-ball inference
    /// (`gsgcn_graph::FrontierBall`: roots first, frontier rows
    /// isolated), where only root rows are ever consumed. Every GEMM row
    /// is accumulated independently of the row count, so the rows
    /// produced are bit-identical to the same rows of `infer_into`.
    pub fn infer_rows_into(
        &self,
        g: &CsrGraph,
        h: &DMatrix,
        out: MatMut<'_>,
        agg: &mut DMatrix,
        prop: &FeaturePropagator,
    ) {
        assert_eq!(out.cols(), self.out_dim(), "output width mismatch");
        assert!(out.rows() <= h.rows(), "more output rows than vertices");
        if self.fused {
            self.apply_fused(g, h, out, prop);
        } else {
            prop.forward_into(g, h, agg);
            let rows = out.rows();
            self.apply_weights(agg.view_rows(0, rows), h.view_rows(0, rows), out);
        }
    }

    /// Inference-only forward (`&self`, no caching). Allocating wrapper
    /// around [`GcnLayer::infer_into`].
    pub fn infer(&self, g: &CsrGraph, h: &DMatrix, prop: &FeaturePropagator) -> DMatrix {
        let mut out = DMatrix::zeros(0, 0);
        let mut agg = DMatrix::zeros(0, 0);
        self.infer_into(g, h, &mut out, &mut agg, prop);
        out
    }

    /// In-place backward. `input`/`output` are this layer's forward
    /// activations (owned by the caller), `d_out` is the gradient w.r.t.
    /// `output` and is consumed in place (the ReLU mask is applied to it),
    /// and `d_in`, when given, receives the gradient w.r.t. `input`
    /// (buffer reused). With `d_in = None` — the input layer, whose input
    /// gradient nobody reads — no input-gradient GEMM runs; the weight
    /// gradients are bit-identical either way. Weight gradients land in
    /// the layer's persistent buffers — apply them with
    /// [`GcnLayer::apply_own_grads`] or read them via
    /// [`GcnLayer::own_grads`].
    ///
    /// The backward runs in the precision its forward stored the input
    /// in, whatever [`precision::current`] says now (see the module docs
    /// for what bf16 means here).
    ///
    /// Everything runs on reused buffers and strided views: the column
    /// split of `d_out` and the transposed operands are views the packed
    /// GEMM absorbs, so a warm iteration performs zero allocations.
    pub fn backward_into(
        &mut self,
        g: &CsrGraph,
        input: &DMatrix,
        output: &DMatrix,
        d_out: &mut DMatrix,
        d_in: Option<&mut DMatrix>,
        prop: &FeaturePropagator,
    ) -> KernelTimings {
        let stored = self
            .fwd
            .take()
            .expect("backward_into called before forward_into (or called twice)");
        if self.activation {
            ops::relu_backward_inplace(d_out, output);
        }
        let w = (self.w_neigh.value.view(), self.w_self.value.view());

        if self.fused {
            let (z, grads) = (&mut self.z_neigh, &mut self.grads);
            return match stored {
                Precision::F32 => fused_backward(g, input.view(), w, d_out, z, grads, d_in, prop),
                Precision::Bf16 => {
                    let qh = Bf16MatRef::new(&self.input_bf16, input.rows(), input.cols());
                    fused_backward(g, qh, w, d_out, z, grads, d_in, prop)
                }
            };
        }
        let (w_neigh, w_self) = w;
        let (in_dim, half) = w_neigh.shape();
        assert_eq!(
            self.aggregated.shape(),
            (input.rows(), in_dim),
            "activations do not match the cached forward state"
        );
        let d_neigh = d_out.view_cols(0, half);
        let d_self = d_out.view_cols(half, 2 * half);
        let mut t = KernelTimings::default();
        let t0 = Instant::now();
        self.grads.d_w_neigh.ensure_shape(in_dim, half);
        gemm::gemm_tn_v(
            1.0,
            self.aggregated.view(),
            d_neigh,
            0.0,
            self.grads.d_w_neigh.view_mut(),
        );
        self.grads.d_w_self.ensure_shape(in_dim, half);
        gemm::gemm_tn_v(
            1.0,
            input.view(),
            d_self,
            0.0,
            self.grads.d_w_self.view_mut(),
        );
        let Some(d_in) = d_in else {
            t.weight_app_secs += t0.elapsed().as_secs_f64();
            return t;
        };
        // dH via the two weight paths: d_in = dH_self·W_selfᵀ, then the
        // propagation backward accumulates Âᵀ·(dH_neigh·W_neighᵀ) on top.
        self.d_agg.ensure_shape(input.rows(), in_dim);
        gemm::gemm_nt_v(1.0, d_neigh, w_neigh, 0.0, self.d_agg.view_mut());
        d_in.ensure_shape(input.rows(), in_dim);
        gemm::gemm_nt_v(1.0, d_self, w_self, 0.0, d_in.view_mut());
        t.weight_app_secs += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        prop.backward_acc_into(g, &self.d_agg, d_in); // d_in += Âᵀ·dAgg
        t.feature_prop_secs += t0.elapsed().as_secs_f64();
        t
    }

    /// Backward pass (standalone API). Consumes `dOut` (gradient w.r.t.
    /// this layer's output), returns `dH` (gradient w.r.t. the input),
    /// the weight gradients and kernel timings.
    pub fn backward(
        &mut self,
        g: &CsrGraph,
        d_out: &DMatrix,
        prop: &FeaturePropagator,
    ) -> (DMatrix, GcnLayerGrads, KernelTimings) {
        let cache = self.cache.take().expect("backward called before forward");
        // The persistent cache keeps the paired activations, so repeated
        // backward calls on one forward stay legal here (seed semantics).
        self.fwd = Some(cache.precision);
        let mut d_pre = d_out.clone();
        let mut d_in = DMatrix::zeros(0, 0);
        let t = self.backward_into(
            g,
            &cache.input,
            &cache.output,
            &mut d_pre,
            Some(&mut d_in),
            prop,
        );
        self.cache = Some(cache);
        (d_in, self.grads.clone(), t)
    }

    /// The weight gradients of the last backward pass.
    pub fn own_grads(&self) -> &GcnLayerGrads {
        &self.grads
    }

    /// Apply Adam updates from the layer's own gradient buffers (the
    /// allocation-free counterpart of [`GcnLayer::apply_grads`]).
    pub fn apply_own_grads(&mut self, hyper: &AdamHyper, t: u64) {
        self.w_neigh.step(&self.grads.d_w_neigh, hyper, t);
        self.w_self.step(&self.grads.d_w_self, hyper, t);
    }

    /// Apply Adam updates.
    pub fn apply_grads(&mut self, grads: &GcnLayerGrads, hyper: &AdamHyper, t: u64) {
        self.w_neigh.step(&grads.d_w_neigh, hyper, t);
        self.w_self.step(&grads.d_w_self, hyper, t);
    }
}

/// The fused backward of [`GcnLayer::backward_into`] over the layer input
/// `h` as its forward stored it; `d_out` already carries the ReLU mask.
/// Reassociated around `Z = Âᵀ·dH_neigh`:
///
/// ```text
/// d_in     = dH_self·W_selfᵀ + Z·W_neighᵀ
/// dW_neigh = (Â·H)ᵀ·dH_neigh = Hᵀ·Z
/// ```
///
/// so no forward-side aggregate cache is needed, and the only sparse
/// pass runs at width `half` instead of `in_dim`. The dense GEMMs pack
/// panels of `h`'s element, rounding the f32 gradient operands into them;
/// the fused `Z·W_neighᵀ` stays on f32 panels.
#[allow(clippy::too_many_arguments)]
fn fused_backward<H: Rows>(
    g: &CsrGraph,
    h: H,
    (w_neigh, w_self): (MatRef<'_>, MatRef<'_>),
    d_out: &DMatrix,
    z: &mut DMatrix,
    grads: &mut GcnLayerGrads,
    d_in: Option<&mut DMatrix>,
    prop: &FeaturePropagator,
) -> KernelTimings
where
    for<'a> DensePack<MatRef<'a>>: PackSource<H::Elem>,
{
    let mut t = KernelTimings::default();
    let (in_dim, half) = w_neigh.shape();
    let d_neigh = d_out.view_cols(0, half);
    let d_self = d_out.view_cols(half, 2 * half);
    let t0 = Instant::now();
    match d_in {
        Some(d_in) => {
            d_in.ensure_shape(h.rows(), in_dim);
            let own = DensePack::new(d_self);
            gemm::gemm_source_nt_v::<H::Elem, _>(1.0, &own, w_self, 0.0, d_in.view_mut());
            t.weight_app_secs += t0.elapsed().as_secs_f64();
            // Fused: d_in += Z·W_neighᵀ with Z spilled on the way through.
            let t0 = Instant::now();
            prop.backward_gemm_into(g, d_neigh, w_neigh, z, d_in.view_mut());
            t.feature_prop_secs += t0.elapsed().as_secs_f64();
        }
        None => {
            AggregatedRows::adjoint_mean(g, d_neigh).spill_into(z);
            t.feature_prop_secs += t0.elapsed().as_secs_f64();
        }
    }

    let t0 = Instant::now();
    let h_t = DensePack::transposed(h);
    grads.d_w_neigh.ensure_shape(in_dim, half);
    gemm::gemm_source_nn_v(1.0, &h_t, z.view(), 0.0, grads.d_w_neigh.view_mut());
    grads.d_w_self.ensure_shape(in_dim, half);
    gemm::gemm_source_nn_v(1.0, &h_t, d_self, 0.0, grads.d_w_self.view_mut());
    t.weight_app_secs += t0.elapsed().as_secs_f64();
    t
}

/// Run `f` over `h` rounded to bf16 in pooled scratch: the fused layer's
/// bf16 storage of its input at inference (warm calls allocate nothing;
/// the quantise runs in parallel on the pool).
pub(crate) fn with_bf16_rows<R>(h: &DMatrix, f: impl FnOnce(Bf16MatRef<'_>) -> R) -> R {
    Bf16::with_scratch(h.rows() * h.cols(), |q| {
        bf16::quantize_slice_par(h.data(), q);
        f(Bf16MatRef::new(q, h.rows(), h.cols()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::GraphBuilder;
    use gsgcn_prop::propagator::{FeaturePropagator, PropMode};

    fn square() -> CsrGraph {
        GraphBuilder::new(4)
            .add_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
            .build()
    }

    fn prop() -> FeaturePropagator {
        FeaturePropagator::new(PropMode::Naive)
    }

    #[test]
    fn forward_shape_and_concat_structure() {
        let g = square();
        let mut layer = GcnLayer::new(3, 5, false, 1);
        let h = DMatrix::from_fn(4, 3, |i, j| (i + j) as f32 * 0.1);
        let (out, timings) = layer.forward(&g, &h, &prop());
        assert_eq!(out.shape(), (4, 10));
        assert!(timings.feature_prop_secs >= 0.0 && timings.weight_app_secs >= 0.0);
    }

    #[test]
    fn relu_clamps_when_enabled() {
        let g = square();
        let mut layer = GcnLayer::new(2, 4, true, 2);
        let h = DMatrix::from_fn(4, 2, |i, _| i as f32 - 1.5);
        let (out, _) = layer.forward(&g, &h, &prop());
        assert!(out.data().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn infer_matches_forward() {
        let g = square();
        let mut layer = GcnLayer::new(3, 4, true, 3);
        let h = DMatrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f32 * 0.2 - 0.4);
        let (a, _) = layer.forward(&g, &h, &prop());
        let b = layer.infer(&g, &h, &prop());
        assert!(a.max_abs_diff(&b) < 1e-7);
    }

    /// Full finite-difference gradient check through aggregation, weights,
    /// concat and ReLU — the critical correctness test for the layer.
    /// Pinned to f32 storage: a finite difference through the quantised
    /// forward would measure the rounding staircase, not the gradient.
    #[test]
    fn gradient_check_weights_and_input() {
        precision::with_precision(Precision::F32, gradient_check_weights_and_input_body);
    }

    fn gradient_check_weights_and_input_body() {
        let g = square();
        let mut layer = GcnLayer::new(3, 2, true, 4);
        let h = DMatrix::from_fn(4, 3, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.15 - 0.6);
        let p = prop();

        // Scalar loss: ½‖out‖².
        let loss_of = |layer: &GcnLayer, h: &DMatrix| -> f32 {
            let o = layer.infer(&g, h, &p);
            0.5 * o.data().iter().map(|x| x * x).sum::<f32>()
        };

        let (out, _) = layer.forward(&g, &h, &p);
        let (dh, grads, _) = layer.backward(&g, &out, &p);

        let eps = 1e-2f32;
        // Check a spread of W_neigh entries.
        for (r, c) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = layer.w_neigh.value.get(r, c);
            layer.w_neigh.value.set(r, c, orig + eps);
            let lp = loss_of(&layer, &h);
            layer.w_neigh.value.set(r, c, orig - eps);
            let lm = loss_of(&layer, &h);
            layer.w_neigh.value.set(r, c, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.d_w_neigh.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dW_neigh[{r},{c}]: {num} vs {ana}"
            );
        }
        // W_self entries.
        for (r, c) in [(0usize, 1usize), (2, 1)] {
            let orig = layer.w_self.value.get(r, c);
            layer.w_self.value.set(r, c, orig + eps);
            let lp = loss_of(&layer, &h);
            layer.w_self.value.set(r, c, orig - eps);
            let lm = loss_of(&layer, &h);
            layer.w_self.value.set(r, c, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.d_w_self.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dW_self[{r},{c}]: {num} vs {ana}"
            );
        }
        // Input entries (tests the Âᵀ backward path).
        for (r, c) in [(0usize, 0usize), (3, 2)] {
            let orig = h.get(r, c);
            let mut hp = h.clone();
            hp.set(r, c, orig + eps);
            let lp = loss_of(&layer, &hp);
            let mut hm = h.clone();
            hm.set(r, c, orig - eps);
            let lm = loss_of(&layer, &hm);
            let num = (lp - lm) / (2.0 * eps);
            let ana = dh.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dH[{r},{c}]: {num} vs {ana}"
            );
        }
    }

    /// The fused hot path must match the unfused reference composition —
    /// same weights, same inputs, forward activations, input gradients
    /// and weight gradients all within fp tolerance. Pinned to f32
    /// storage (the unfused reference has no bf16 path); the bf16 twin
    /// below is tolerance-banded instead.
    #[test]
    fn fused_matches_unfused_reference() {
        precision::with_precision(Precision::F32, fused_matches_unfused_reference_body);
    }

    fn fused_matches_unfused_reference_body() {
        let g = square();
        let h = DMatrix::from_fn(4, 5, |i, j| ((i * 5 + j) % 9) as f32 * 0.2 - 0.7);
        let p = prop();
        let mut fused = GcnLayer::new(5, 3, true, 9).with_fused(true);
        let mut unfused = fused.clone().with_fused(false);

        let (of, _) = fused.forward(&g, &h, &p);
        let (ou, _) = unfused.forward(&g, &h, &p);
        assert!(of.max_abs_diff(&ou) < 1e-5, "forward mismatch");

        let d_out = DMatrix::from_fn(4, 6, |i, j| ((i + 2 * j) % 5) as f32 * 0.3 - 0.6);
        let (df, gf, _) = fused.backward(&g, &d_out, &p);
        let (du, gu, _) = unfused.backward(&g, &d_out, &p);
        assert!(df.max_abs_diff(&du) < 1e-5, "d_in mismatch");
        assert!(gf.d_w_neigh.max_abs_diff(&gu.d_w_neigh) < 1e-5);
        assert!(gf.d_w_self.max_abs_diff(&gu.d_w_self) < 1e-5);
    }

    /// The bf16 twin of `fused_matches_unfused_reference`: storage
    /// rounding moves the fused forward off the f32 reference by at most
    /// the depth-1 tolerance band, across every available kernel tier.
    #[test]
    fn fused_bf16_forward_within_tolerance() {
        use gsgcn_tensor::ukernel::{available_tiers, with_tier};
        let g = square();
        let h = DMatrix::from_fn(4, 5, |i, j| ((i * 5 + j) % 9) as f32 * 0.2 - 0.7);
        let p = prop();
        let layer = GcnLayer::new(5, 3, true, 9);
        let f32_out = precision::with_precision(Precision::F32, || layer.infer(&g, &h, &p));
        let tol = precision::rel_tolerance(Precision::Bf16, 1, 5);
        let scale = f32_out.data().iter().fold(0f32, |s, &x| s.max(x.abs()));
        for tier in available_tiers() {
            let bf16_out = with_tier(tier, || {
                precision::with_precision(Precision::Bf16, || layer.infer(&g, &h, &p))
            });
            for (b, r) in bf16_out.data().iter().zip(f32_out.data()) {
                assert!(
                    (b - r).abs() <= tol * scale,
                    "tier {}: bf16 {b} vs f32 {r} outside band {tol}",
                    tier.name()
                );
            }
        }
    }

    /// A ring with chords, sized past the GEMM's MR / MC blocking.
    fn chorded_ring(n: usize) -> CsrGraph {
        let edges =
            (0..n as u32).flat_map(|i| [(i, (i + 1) % n as u32), (i, (i * 7 + 3) % n as u32)]);
        GraphBuilder::new(n)
            .add_edges(edges.filter(|&(a, b)| a != b))
            .build()
    }

    fn pattern(rows: usize, cols: usize, salt: usize) -> DMatrix {
        DMatrix::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 7 + salt) % 13) as f32 * 0.15 - 0.9
        })
    }

    /// Forward then backward of a clone of `layer` (f32 unless the tier
    /// and precision wrapping the call say otherwise), with or without an
    /// input gradient: the weight gradients, `Z` and `d_in`.
    fn step(
        layer: &GcnLayer,
        g: &CsrGraph,
        h: &DMatrix,
        d_out: &DMatrix,
        want_d_in: bool,
    ) -> (GcnLayerGrads, DMatrix, Option<DMatrix>) {
        let p = FeaturePropagator::default();
        let mut layer = layer.clone();
        let mut out = DMatrix::zeros(0, 0);
        layer.forward_into(g, h, &mut out, &p);
        let mut d_pre = d_out.clone();
        let mut d_in = want_d_in.then(|| DMatrix::zeros(0, 0));
        layer.backward_into(g, h, &out, &mut d_pre, d_in.as_mut(), &p);
        (layer.own_grads().clone(), layer.z_neigh.clone(), d_in)
    }

    /// Skipping the input gradient changes no weight gradient and no `Z`
    /// bit: fused and unfused, every available tier, both precisions.
    #[test]
    fn skipped_input_gradient_leaves_weight_gradients_bit_identical() {
        use gsgcn_tensor::ukernel::{available_tiers, with_tier};
        let (n, f_in, half) = (70, 40, 17);
        let g = chorded_ring(n);
        let h = pattern(n, f_in, 1);
        let d_out = pattern(n, 2 * half, 5);
        for fused in [true, false] {
            let layer = GcnLayer::new(f_in, half, true, 11).with_fused(fused);
            for tier in available_tiers() {
                for p in precision::ALL_PRECISIONS {
                    let at = format!("fused={fused} tier {} {p}", tier.name());
                    let run = |want_d_in| {
                        with_tier(tier, || {
                            precision::with_precision(p, || step(&layer, &g, &h, &d_out, want_d_in))
                        })
                    };
                    let (with, z_with, d_in) = run(true);
                    let (without, z_without, none) = run(false);
                    assert!(d_in.is_some_and(|d| d.shape() == (n, f_in)) && none.is_none());
                    assert_eq!(with.d_w_neigh, without.d_w_neigh, "{at}: dW_neigh");
                    assert_eq!(with.d_w_self, without.d_w_self, "{at}: dW_self");
                    assert_eq!(z_with, z_without, "{at}: Z");
                    if fused {
                        assert_eq!(z_with.shape(), (n, half), "{at}: Z shape");
                    }
                }
            }
        }
    }

    /// The bf16 twin of the gradient half of
    /// `fused_matches_unfused_reference`: a bf16 backward (bf16 panels of
    /// the stored input, gradient operands rounded at pack time) keeps
    /// both weight gradients within the depth-1 band of the f32 ones on
    /// every available tier, the AMX engine included. No ReLU, so the
    /// mask cannot flip between the precisions.
    #[test]
    fn fused_bf16_gradients_within_tolerance() {
        use gsgcn_tensor::ukernel::{available_tiers, with_tier};
        let (n, f_in, half) = (70, 40, 17);
        let g = chorded_ring(n);
        let h = pattern(n, f_in, 2);
        let d_out = pattern(n, 2 * half, 3);
        let layer = GcnLayer::new(f_in, half, false, 12);
        let (reference, _, _) =
            precision::with_precision(Precision::F32, || step(&layer, &g, &h, &d_out, true));
        let tol = precision::rel_tolerance(Precision::Bf16, 1, n);
        for tier in available_tiers() {
            let (got, _, _) = with_tier(tier, || {
                precision::with_precision(Precision::Bf16, || step(&layer, &g, &h, &d_out, true))
            });
            for (name, b, r) in [
                ("dW_neigh", &got.d_w_neigh, &reference.d_w_neigh),
                ("dW_self", &got.d_w_self, &reference.d_w_self),
            ] {
                let scale = r.data().iter().fold(0f32, |s, &x| s.max(x.abs()));
                assert!(scale > 0.0);
                assert_ne!(b, r, "tier {}: {name} must run on bf16 panels", tier.name());
                for (bv, rv) in b.data().iter().zip(r.data()) {
                    assert!(
                        (bv - rv).abs() <= tol * scale,
                        "tier {}: {name} bf16 {bv} vs f32 {rv} outside band {tol}",
                        tier.name()
                    );
                }
            }
        }
    }

    /// The backward runs in the precision its forward recorded, not the
    /// one current when it is called.
    #[test]
    fn backward_follows_its_forward_precision() {
        let (n, f_in, half) = (40, 24, 9);
        let g = chorded_ring(n);
        let h = pattern(n, f_in, 4);
        let d_out = pattern(n, 2 * half, 6);
        let p = FeaturePropagator::default();
        let layer = GcnLayer::new(f_in, half, true, 13);
        let in_one = |prec| precision::with_precision(prec, || step(&layer, &g, &h, &d_out, true));
        for (fwd, bwd) in [
            (Precision::Bf16, Precision::F32),
            (Precision::F32, Precision::Bf16),
        ] {
            let mut l = layer.clone();
            let mut out = DMatrix::zeros(0, 0);
            precision::with_precision(fwd, || l.forward_into(&g, &h, &mut out, &p));
            let mut d_pre = d_out.clone();
            let mut d_in = DMatrix::zeros(0, 0);
            precision::with_precision(bwd, || {
                l.backward_into(&g, &h, &out, &mut d_pre, Some(&mut d_in), &p)
            });
            let (want, _, want_d_in) = in_one(fwd);
            let (other, _, _) = in_one(bwd);
            assert_eq!(l.own_grads().d_w_neigh, want.d_w_neigh, "{fwd} forward");
            assert_eq!(l.own_grads().d_w_self, want.d_w_self, "{fwd} forward");
            assert_eq!(Some(d_in), want_d_in, "{fwd} forward: d_in");
            assert_ne!(
                l.own_grads().d_w_self,
                other.d_w_self,
                "{bwd} is not what ran"
            );
        }
    }

    #[test]
    fn unfused_gradient_check_weights_and_input() {
        // The reference path keeps its own finite-difference check.
        let g = square();
        let mut layer = GcnLayer::new(3, 2, true, 4).with_fused(false);
        let h = DMatrix::from_fn(4, 3, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.15 - 0.6);
        let p = prop();
        let loss_of = |layer: &GcnLayer, h: &DMatrix| -> f32 {
            let o = layer.infer(&g, h, &p);
            0.5 * o.data().iter().map(|x| x * x).sum::<f32>()
        };
        let (out, _) = layer.forward(&g, &h, &p);
        let (dh, grads, _) = layer.backward(&g, &out, &p);
        let eps = 1e-2f32;
        // W_neigh entries.
        for (r, c) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = layer.w_neigh.value.get(r, c);
            layer.w_neigh.value.set(r, c, orig + eps);
            let lp = loss_of(&layer, &h);
            layer.w_neigh.value.set(r, c, orig - eps);
            let lm = loss_of(&layer, &h);
            layer.w_neigh.value.set(r, c, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.d_w_neigh.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dW_neigh[{r},{c}]: {num} vs {ana}"
            );
        }
        // W_self entries.
        for (r, c) in [(0usize, 1usize), (2, 1)] {
            let orig = layer.w_self.value.get(r, c);
            layer.w_self.value.set(r, c, orig + eps);
            let lp = loss_of(&layer, &h);
            layer.w_self.value.set(r, c, orig - eps);
            let lm = loss_of(&layer, &h);
            layer.w_self.value.set(r, c, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.d_w_self.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dW_self[{r},{c}]: {num} vs {ana}"
            );
        }
        // Input entries (ground truth for the Âᵀ backward path shared by
        // both modes — the fused/unfused equivalence test cannot see a
        // bug they have in common).
        for (r, c) in [(0usize, 0usize), (3, 2)] {
            let orig = h.get(r, c);
            let mut hp = h.clone();
            hp.set(r, c, orig + eps);
            let lp = loss_of(&layer, &hp);
            let mut hm = h.clone();
            hm.set(r, c, orig - eps);
            let lm = loss_of(&layer, &hm);
            let num = (lp - lm) / (2.0 * eps);
            let ana = dh.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dH[{r},{c}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn training_reduces_layer_loss() {
        let g = square();
        let mut layer = GcnLayer::new(2, 3, true, 5);
        let h = DMatrix::from_fn(4, 2, |i, j| (i as f32 + j as f32) * 0.3);
        let p = prop();
        let hyper = AdamHyper {
            lr: 0.02,
            ..AdamHyper::default()
        };
        let loss_of = |layer: &mut GcnLayer| -> f32 {
            let (o, _) = layer.forward(&g, &h, &p);
            0.5 * o.data().iter().map(|x| x * x).sum::<f32>()
        };
        let before = loss_of(&mut layer);
        for t in 1..=50 {
            let (o, _) = layer.forward(&g, &h, &p);
            let (_, grads, _) = layer.backward(&g, &o, &p);
            layer.apply_grads(&grads, &hyper, t);
        }
        let after = loss_of(&mut layer);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let g = square();
        let mut layer = GcnLayer::new(2, 2, true, 6);
        layer.backward(&g, &DMatrix::zeros(4, 4), &prop());
    }
}
