//! Mean-aggregation operator with forward and backward passes.
//!
//! Forward (Alg. 1 line 7, with `Â = D⁻¹A`):
//! `Y[v] = (1/deg(v)) Σ_{u∈N(v)} H[u]` — the mean of neighbor features.
//!
//! Backward: with `Y = Â·H`, the gradient is `dH = Âᵀ·dY`, i.e.
//! `dH[u] = Σ_{v∈N(u)} (1/deg(v)) · dY[v]`. On our symmetric graphs this
//! is implemented by pre-scaling `dY` rows by `1/deg` and running the same
//! aggregation kernel — one kernel, both directions.

use crate::fused::AggregatedRows;
use crate::kernels;
use gsgcn_graph::partition::{range_partition, VertexPartition};
use gsgcn_graph::CsrGraph;
use gsgcn_tensor::view::{MatMut, MatRef};
use gsgcn_tensor::{gemm, scratch, DMatrix, Rows};
use rayon::prelude::*;

/// Kernel selection for the propagation step.
#[derive(Clone, Debug)]
pub enum PropMode {
    /// Conventional row-parallel kernel (baseline in the A2 ablation).
    Naive,
    /// Algorithm 6 — feature-only partitioning sized to `cache_bytes`
    /// (the paper's per-core L2: 256 KiB).
    FeaturePartitioned {
        /// Fast-memory size the per-task working set must fit in.
        cache_bytes: usize,
    },
    /// `P × Q` two-dimensional partitioning (ablation alternative).
    TwoD {
        /// Graph partitions.
        p: usize,
        /// Feature partitions.
        q: usize,
    },
    /// Working-set–adaptive: row-parallel while the whole source matrix
    /// is LLC-resident (`bytes·n·f ≤ llc_bytes`), Algorithm 6 beyond.
    ///
    /// The paper's 2016 Xeon had 256 KiB of effective per-core fast
    /// memory, making Alg. 6 pay at subgraph scale; on CPUs with tens of
    /// MB of shared L3 the crossover moves to much larger `n·f` (measured
    /// in the A2 ablation), so production code picks per matrix.
    Auto {
        /// LLC size below which the row-parallel kernel is used.
        llc_bytes: usize,
        /// Per-core fast-memory size handed to Alg. 6 beyond that.
        cache_bytes: usize,
    },
}

impl Default for PropMode {
    fn default() -> Self {
        PropMode::Auto {
            llc_bytes: 16 * 1024 * 1024,
            cache_bytes: 256 * 1024,
        }
    }
}

/// The mean-aggregation propagation operator.
#[derive(Clone, Debug, Default)]
pub struct FeaturePropagator {
    mode: PropMode,
}

impl FeaturePropagator {
    pub fn new(mode: PropMode) -> Self {
        FeaturePropagator { mode }
    }

    /// The configured mode.
    pub fn mode(&self) -> &PropMode {
        &self.mode
    }

    /// Accumulate the unnormalised neighbor sum into `y` (`y += A·h`).
    fn aggregate_acc(
        &self,
        g: &CsrGraph,
        h: &DMatrix,
        partition: Option<&VertexPartition>,
        y: &mut DMatrix,
    ) {
        match &self.mode {
            PropMode::Naive => kernels::aggregate_naive_into(g, h, y),
            PropMode::FeaturePartitioned { cache_bytes } => {
                kernels::aggregate_feature_partitioned_into(g, h, *cache_bytes, y)
            }
            PropMode::Auto {
                llc_bytes,
                cache_bytes,
            } => {
                let working_set = std::mem::size_of::<f32>() * h.rows() * h.cols();
                if working_set <= *llc_bytes {
                    kernels::aggregate_naive_into(g, h, y)
                } else {
                    kernels::aggregate_feature_partitioned_into(g, h, *cache_bytes, y)
                }
            }
            PropMode::TwoD { p, q } => {
                let owned;
                let part = match partition {
                    Some(p) => p,
                    None => {
                        owned = range_partition(g.num_vertices(), *p);
                        &owned
                    }
                };
                kernels::aggregate_2d_into(g, h, part, *q, y)
            }
        }
    }

    /// Forward mean aggregation: `Y = D⁻¹·A·H`.
    pub fn forward(&self, g: &CsrGraph, h: &DMatrix) -> DMatrix {
        let mut y = DMatrix::zeros(g.num_vertices(), h.cols());
        self.forward_into(g, h, &mut y);
        y
    }

    /// In-place forward: overwrite `out` with `D⁻¹·A·H`, reusing its
    /// buffer (reshaped as needed; no allocation once warm).
    pub fn forward_into(&self, g: &CsrGraph, h: &DMatrix, out: &mut DMatrix) {
        out.ensure_shape(g.num_vertices(), h.cols());
        out.fill(0.0);
        self.aggregate_acc(g, h, None, out);
        scale_rows_by_inv_degree(g, out);
    }

    /// Backward pass: given `dY`, return `dH = Âᵀ·dY = A·D⁻¹·dY`.
    pub fn backward(&self, g: &CsrGraph, dy: &DMatrix) -> DMatrix {
        let mut out = DMatrix::zeros(g.num_vertices(), dy.cols());
        self.backward_acc_into(g, dy, &mut out);
        out
    }

    /// Accumulating in-place backward: `out += Âᵀ·dY`. The pre-scaled
    /// copy of `dY` lives in thread-local scratch, so a warm training
    /// loop performs no allocation. Accumulation (rather than overwrite)
    /// lets the GCN layer fold the `+ dH_self` term in for free.
    pub fn backward_acc_into(&self, g: &CsrGraph, dy: &DMatrix, out: &mut DMatrix) {
        assert_eq!(
            out.shape(),
            (g.num_vertices(), dy.cols()),
            "output shape mismatch"
        );
        // Pre-scale rows of dY by 1/deg, then unnormalised aggregate.
        scratch::with_matrix(dy.rows(), dy.cols(), |scaled| {
            scaled.copy_from(dy);
            scale_rows_by_inv_degree(g, scaled);
            self.aggregate_acc(g, scaled, None, out);
        });
    }

    /// Fused forward: `C = β·C + (Â·H)·W` in one cache pass — the
    /// aggregated matrix is produced panel-by-panel inside the packed
    /// GEMM ([`crate::fused`]) and never written to memory. The fused
    /// path has its own blocking (`MC×KC` vertex×feature tiles), so the
    /// configured [`PropMode`] does not apply to it.
    ///
    /// `h` is any [`Rows`] storage: f32 activations run f32 panels,
    /// bf16-stored activations run bf16 panels (aggregation accumulates
    /// f32 either way). A bf16 training step's backward reads the same
    /// bf16 rows for its weight gradients; only its fused `Z·Wᵀ`
    /// ([`Self::backward_gemm_into`]) stays on f32 panels, because the
    /// `Z` it spills must stay f32.
    ///
    /// `c` may have fewer rows than `g` has vertices: only its leading
    /// `c.rows()` vertices are then aggregated and multiplied (the
    /// root-row restriction of frontier-ball inference), each row
    /// bit-identical to what the full-height call produces for it.
    pub fn forward_gemm_rows<H: Rows>(
        &self,
        g: &CsrGraph,
        h: H,
        w: MatRef<'_>,
        beta: f32,
        c: MatMut<'_>,
    ) {
        let src = AggregatedRows::mean(g, h).first_rows(c.rows());
        gemm::gemm_source_nn_v(1.0, &src, w, beta, c);
    }

    /// [`Self::forward_gemm_rows`] over an f32 activation matrix.
    pub fn forward_gemm_into(
        &self,
        g: &CsrGraph,
        h: &DMatrix,
        w: MatRef<'_>,
        beta: f32,
        c: MatMut<'_>,
    ) {
        self.forward_gemm_rows(g, h.view(), w, beta, c);
    }

    /// [`Self::forward_gemm_rows`] over **bf16-stored** activations.
    pub fn forward_gemm_bf16_into(
        &self,
        g: &CsrGraph,
        h: gsgcn_tensor::Bf16MatRef<'_>,
        w: MatRef<'_>,
        beta: f32,
        c: MatMut<'_>,
    ) {
        self.forward_gemm_rows(g, h, w, beta, c);
    }

    /// Fused backward: `d_in += (Âᵀ·dY)·Wᵀ`, with the intermediate
    /// `Z = Âᵀ·dY` spilled into `z` (reshaped to `n × dY.cols()`) as a
    /// side effect of panel packing — the caller's weight-gradient GEMM
    /// (`Hᵀ·Z`) reads it without a second aggregation pass. `dy` may be a
    /// column view (the neighbor half of a concatenated gradient).
    pub fn backward_gemm_into(
        &self,
        g: &CsrGraph,
        dy: MatRef<'_>,
        w: MatRef<'_>,
        z: &mut DMatrix,
        d_in: MatMut<'_>,
    ) {
        assert_eq!(
            dy.rows(),
            g.num_vertices(),
            "gradient rows must match vertex count"
        );
        // Âᵀ = A·D⁻¹ on symmetric graphs: the producer folds the 1/deg
        // source scaling into its gather, so no pre-scaled copy of dY is
        // ever materialised (the terms are bit-identical to one).
        let src = AggregatedRows::adjoint_mean(g, dy).with_spill(z);
        gemm::gemm_source_nt_v(1.0, &src, w, 1.0, d_in);
    }
}

/// `Y[v] *= 1/deg(v)` (rows of isolated vertices are left untouched —
/// their aggregate is zero anyway).
pub fn scale_rows_by_inv_degree(g: &CsrGraph, y: &mut DMatrix) {
    let f = y.cols().max(1);
    y.data_mut()
        .par_chunks_mut(f)
        .enumerate()
        .for_each(|(v, row)| {
            let d = g.degree(v as u32);
            if d > 0 {
                let inv = 1.0 / d as f32;
                for x in row {
                    *x *= inv;
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::GraphBuilder;

    fn triangle_plus_leaf() -> CsrGraph {
        GraphBuilder::new(4)
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
    }

    #[test]
    fn forward_is_neighbor_mean() {
        let g = triangle_plus_leaf();
        let h = DMatrix::from_fn(4, 2, |i, _| i as f32 * 10.0);
        let prop = FeaturePropagator::new(PropMode::Naive);
        let y = prop.forward(&g, &h);
        // Vertex 0: neighbors {1, 2} → mean 15.
        assert!((y.get(0, 0) - 15.0).abs() < 1e-5);
        // Vertex 2: neighbors {0, 1, 3} → mean (0+10+30)/3.
        assert!((y.get(2, 0) - 40.0 / 3.0).abs() < 1e-4);
        // Leaf 3: single neighbor 2 → 20.
        assert!((y.get(3, 1) - 20.0).abs() < 1e-5);
    }

    #[test]
    fn all_modes_agree() {
        let g = triangle_plus_leaf();
        let h = DMatrix::from_fn(4, 6, |i, j| (i + j) as f32 * 0.5);
        let modes = [
            PropMode::Naive,
            PropMode::FeaturePartitioned { cache_bytes: 64 },
            PropMode::TwoD { p: 2, q: 3 },
            PropMode::Auto {
                llc_bytes: 1, // force the Alg. 6 path
                cache_bytes: 64,
            },
            PropMode::Auto {
                llc_bytes: 1 << 30, // force the row-parallel path
                cache_bytes: 64,
            },
        ];
        let ys: Vec<DMatrix> = modes
            .iter()
            .map(|m| FeaturePropagator::new(m.clone()).forward(&g, &h))
            .collect();
        assert!(ys[0].max_abs_diff(&ys[1]) < 1e-6);
        assert!(ys[0].max_abs_diff(&ys[2]) < 1e-6);
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // ⟨Â·h, g⟩ must equal ⟨h, Âᵀ·g⟩ for arbitrary h, g — the defining
        // property of a correct backward pass.
        let g = triangle_plus_leaf();
        let prop = FeaturePropagator::default();
        let h = DMatrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f32 - 2.0);
        let gmat = DMatrix::from_fn(4, 3, |i, j| ((i + 2 * j) % 7) as f32 * 0.5 - 1.0);
        let fwd = prop.forward(&g, &h);
        let bwd = prop.backward(&g, &gmat);
        let lhs: f32 = fwd.data().iter().zip(gmat.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = h.data().iter().zip(bwd.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn isolated_vertex_zero_output() {
        let g = GraphBuilder::new(3).add_edge(0, 1).build();
        let h = DMatrix::filled(3, 2, 7.0);
        let prop = FeaturePropagator::default();
        let y = prop.forward(&g, &h);
        assert_eq!(y.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn fused_forward_gemm_matches_composition() {
        let g = triangle_plus_leaf();
        let h = DMatrix::from_fn(4, 6, |i, j| (i * 6 + j) as f32 * 0.1 - 1.0);
        let w = DMatrix::from_fn(6, 3, |i, j| ((i + 2 * j) % 5) as f32 * 0.2 - 0.3);
        let prop = FeaturePropagator::default();
        let mut c = DMatrix::filled(4, 3, f32::NAN);
        prop.forward_gemm_into(&g, &h, w.view(), 0.0, c.view_mut());
        let r = gemm::matmul(&prop.forward(&g, &h), &w);
        assert!(c.max_abs_diff(&r) < 1e-5);
    }

    #[test]
    fn fused_backward_gemm_matches_composition() {
        let g = triangle_plus_leaf();
        let dy = DMatrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 7) as f32 * 0.3 - 0.8);
        let w = DMatrix::from_fn(5, 3, |i, j| ((i + j) % 4) as f32 * 0.25 - 0.4);
        let prop = FeaturePropagator::default();
        let mut z = DMatrix::zeros(0, 0);
        let mut d_in = DMatrix::filled(4, 5, 0.125);
        prop.backward_gemm_into(&g, dy.view(), w.view(), &mut z, d_in.view_mut());
        // Reference: Z = Âᵀ·dY materialised, then d_in += Z·Wᵀ.
        let zr = prop.backward(&g, &dy);
        assert!(z.max_abs_diff(&zr) < 1e-5, "spilled Z mismatch");
        let mut r = DMatrix::filled(4, 5, 0.125);
        gemm::gemm_nt(1.0, &zr, &w, 1.0, &mut r);
        assert!(d_in.max_abs_diff(&r) < 1e-5);
    }

    #[test]
    fn default_mode_is_adaptive() {
        let p = FeaturePropagator::default();
        assert!(matches!(
            p.mode(),
            PropMode::Auto {
                llc_bytes: 16777216,
                cache_bytes: 262144
            }
        ));
    }
}
