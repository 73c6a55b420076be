//! Fused aggregation→GEMM: the sparse neighbor sum as a GEMM pack source.
//!
//! [`AggregatedRows`] implements [`gemm::PackSource`]: when the packed
//! GEMM driver asks for an `MC×KC` A-panel, the producer *computes* the
//! aggregated rows `Σ_{u∈N(v)} H[u]` (optionally mean-normalised) for
//! that block of vertices and column range, directly into the
//! thread-local pack scratch. The aggregated matrix `Â·H` therefore never
//! exists in DRAM — it lives only as an L2-resident panel between its
//! production and its consumption by the microkernel. See the crate docs
//! for the traffic model.
//!
//! An optional *spill* target captures the aggregated rows as a side
//! effect of packing: the GCN backward pass needs `Z = Âᵀ·dY` twice
//! (input gradient `Z·Wᵀ` and weight gradient `Hᵀ·Z`), so the fused
//! `Z·Wᵀ` GEMM writes `Z` once on the way through instead of running a
//! second aggregation pass.

use gsgcn_graph::CsrGraph;
use gsgcn_tensor::gemm::{PackSource, PackSourceBf16, MR};
use gsgcn_tensor::{scratch, Bf16, Bf16MatRef, DMatrix, MatRef};

/// Raw spill target; tasks write disjoint row ranges (see SAFETY notes).
struct Spill {
    ptr: *mut f32,
    cols: usize,
}

// SAFETY: the GEMM driver hands disjoint `[ic, ic+mc)` row blocks to its
// parallel tasks within one column strip, and strips run sequentially, so
// no two concurrent `pack_a` calls touch overlapping spill rows. Repeat
// packs of the same block (one per strip) rewrite identical values.
unsafe impl Send for Spill {}
unsafe impl Sync for Spill {}

/// A [`PackSource`] whose logical A operand is the aggregated feature
/// matrix: row `v` is `dst_scale(v) · Σ_{u∈N(v)} src_scale(u) · H[u]`.
/// `H` is a (possibly strided) view, so e.g. the neighbor half of a
/// concatenated gradient feeds the producer without a copy.
pub struct AggregatedRows<'a> {
    g: &'a CsrGraph,
    h: MatRef<'a>,
    /// Logical row count: the leading `rows` vertices are produced
    /// (all of them unless [`AggregatedRows::first_rows`] narrowed it).
    rows: usize,
    /// Mean-normalise each *output* row by `1/deg(v)` (the `D⁻¹` of
    /// `Â = D⁻¹A` acting on the destination).
    mean: bool,
    /// Scale each *gathered* row by `1/deg(u)` — `A·D⁻¹·H`, which is
    /// `Âᵀ·H` on the symmetric graphs this workspace builds.
    src_inv_deg: bool,
    spill: Option<Spill>,
}

impl<'a> AggregatedRows<'a> {
    /// Mean-aggregated rows: `A = Â·H` with `Â = D⁻¹A` (forward pass).
    pub fn mean(g: &'a CsrGraph, h: MatRef<'a>) -> Self {
        assert_eq!(
            h.rows(),
            g.num_vertices(),
            "feature rows must match vertex count"
        );
        AggregatedRows {
            g,
            h,
            rows: g.num_vertices(),
            mean: true,
            src_inv_deg: false,
            spill: None,
        }
    }

    /// Unnormalised neighbor sums: `A = A_adj·H`.
    pub fn sum(g: &'a CsrGraph, h: MatRef<'a>) -> Self {
        assert_eq!(
            h.rows(),
            g.num_vertices(),
            "feature rows must match vertex count"
        );
        AggregatedRows {
            g,
            h,
            rows: g.num_vertices(),
            mean: false,
            src_inv_deg: false,
            spill: None,
        }
    }

    /// The propagation adjoint: `A = Âᵀ·H = A_adj·D⁻¹·H` (backward pass).
    /// The `1/deg(u)` scaling is folded into the gather itself — each
    /// term is `fl(H[u][c] · 1/deg(u))` exactly as the unfused path's
    /// pre-scaled copy produces, so results match it bit-for-bit while
    /// the scaled matrix never materialises.
    pub fn adjoint_mean(g: &'a CsrGraph, h: MatRef<'a>) -> Self {
        assert_eq!(
            h.rows(),
            g.num_vertices(),
            "feature rows must match vertex count"
        );
        AggregatedRows {
            g,
            h,
            rows: g.num_vertices(),
            mean: false,
            src_inv_deg: true,
            spill: None,
        }
    }

    /// Produce only the leading `rows` vertices' aggregates (the logical A
    /// operand becomes `rows × h.cols()`); gathers still read any row of
    /// `H`. This is the root-row restriction of frontier-ball inference,
    /// where rows past the roots are isolated and never consumed.
    pub fn first_rows(mut self, rows: usize) -> Self {
        assert!(rows <= self.rows, "row limit exceeds the vertex count");
        self.rows = rows;
        self
    }

    /// Also write every aggregated row into `out` (shaped `n × h.cols()`)
    /// as panels are packed. `out` is borrowed for the producer's lifetime,
    /// so it becomes readable once the producer is dropped — after the
    /// GEMM call, every row has been written at least once.
    pub fn with_spill(mut self, out: &'a mut DMatrix) -> Self {
        out.ensure_shape(self.g.num_vertices(), self.h.cols());
        self.spill = Some(Spill {
            ptr: out.data_mut().as_mut_ptr(),
            cols: out.cols(),
        });
        self
    }
}

impl PackSource for AggregatedRows<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.h.cols())
    }

    fn pack_a(&self, alpha: f32, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [f32]) {
        let panels = mc.div_ceil(MR);
        debug_assert_eq!(out.len(), panels * kc * MR);
        // One contiguous accumulator row, scattered into the interleaved
        // panel once per row: the per-neighbor inner loop is then a
        // unit-stride add over `kc` floats the vectoriser handles.
        scratch::with_buf(kc, |acc| {
            for (p, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
                let r0 = p * MR;
                let rows_here = MR.min(mc - r0);
                for r in 0..rows_here {
                    let v = ic + r0 + r;
                    acc.fill(0.0);
                    if self.src_inv_deg {
                        for &u in self.g.neighbors(v as u32) {
                            // `u` has `v` as a neighbor, so deg(u) ≥ 1.
                            let su = 1.0 / self.g.degree(u) as f32;
                            let src = &self.h.row(u as usize)[pc..pc + kc];
                            for (a, &s) in acc.iter_mut().zip(src) {
                                *a += s * su;
                            }
                        }
                    } else {
                        for &u in self.g.neighbors(v as u32) {
                            let src = &self.h.row(u as usize)[pc..pc + kc];
                            for (a, &s) in acc.iter_mut().zip(src) {
                                *a += s;
                            }
                        }
                    }
                    // Same operation order as the unfused path (sum, then
                    // one multiply by 1/deg, then the pack's α fold), so
                    // fused results match the materialised composition
                    // bit-for-bit at α = 1.
                    let deg = self.g.degree(v as u32);
                    let inv = if self.mean && deg > 0 {
                        1.0 / deg as f32
                    } else {
                        1.0
                    };
                    if let Some(spill) = &self.spill {
                        // SAFETY: row `v` is exclusively owned by this
                        // task's block within the current strip (see the
                        // `Spill` safety note); `pc + kc ≤ cols` by the
                        // pack contract.
                        let dst: &mut [f32] = unsafe {
                            std::slice::from_raw_parts_mut(spill.ptr.add(v * spill.cols + pc), kc)
                        };
                        for (d, &a) in dst.iter_mut().zip(acc.iter()) {
                            *d = a * inv;
                        }
                    }
                    let scale = alpha * inv;
                    for (kk, &a) in acc.iter().enumerate() {
                        panel[kk * MR + r] = a * scale;
                    }
                }
                if rows_here < MR {
                    for kk in 0..kc {
                        panel[kk * MR + rows_here..(kk + 1) * MR].fill(0.0);
                    }
                }
            }
        });
    }
}

/// The bf16-storage twin of [`AggregatedRows`] for the forward pass:
/// `H` is stored bf16 (quantised activations or shard feature rows); the
/// neighbor sum still accumulates in a **f32** scratch row (each gathered
/// element widens exactly, so the aggregation itself adds no rounding
/// beyond f32), and the result is rounded **once** on the scatter into
/// the bf16 panel — α and the mean's `1/deg` are folded in before that
/// single quantisation, per the [`PackSourceBf16`] contract.
///
/// Forward-only: no spill, no adjoint — the backward pass stays on the
/// f32 master path.
pub struct AggregatedRowsBf16<'a> {
    g: &'a CsrGraph,
    h: Bf16MatRef<'a>,
    /// Logical row count; see [`AggregatedRows::first_rows`].
    rows: usize,
    mean: bool,
}

impl<'a> AggregatedRowsBf16<'a> {
    /// Mean-aggregated rows over bf16 storage: `A = Â·H`.
    pub fn mean(g: &'a CsrGraph, h: Bf16MatRef<'a>) -> Self {
        assert_eq!(
            h.rows(),
            g.num_vertices(),
            "feature rows must match vertex count"
        );
        AggregatedRowsBf16 {
            g,
            h,
            rows: g.num_vertices(),
            mean: true,
        }
    }

    /// Unnormalised neighbor sums over bf16 storage: `A = A_adj·H`.
    pub fn sum(g: &'a CsrGraph, h: Bf16MatRef<'a>) -> Self {
        assert_eq!(
            h.rows(),
            g.num_vertices(),
            "feature rows must match vertex count"
        );
        AggregatedRowsBf16 {
            g,
            h,
            rows: g.num_vertices(),
            mean: false,
        }
    }

    /// Produce only the leading `rows` vertices' aggregates; see
    /// [`AggregatedRows::first_rows`].
    pub fn first_rows(mut self, rows: usize) -> Self {
        assert!(rows <= self.rows, "row limit exceeds the vertex count");
        self.rows = rows;
        self
    }
}

impl PackSourceBf16 for AggregatedRowsBf16<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.h.cols())
    }

    fn pack_a_bf16(
        &self,
        alpha: f32,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        out: &mut [Bf16],
    ) {
        let panels = mc.div_ceil(MR);
        debug_assert_eq!(out.len(), panels * kc * MR);
        scratch::with_buf(kc, |acc| {
            for (p, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
                let r0 = p * MR;
                let rows_here = MR.min(mc - r0);
                for r in 0..rows_here {
                    let v = ic + r0 + r;
                    acc.fill(0.0);
                    for &u in self.g.neighbors(v as u32) {
                        let src = &self.h.row(u as usize)[pc..pc + kc];
                        for (a, &s) in acc.iter_mut().zip(src) {
                            *a += s.to_f32();
                        }
                    }
                    let deg = self.g.degree(v as u32);
                    let inv = if self.mean && deg > 0 {
                        1.0 / deg as f32
                    } else {
                        1.0
                    };
                    let scale = alpha * inv;
                    for (kk, &a) in acc.iter().enumerate() {
                        panel[kk * MR + r] = Bf16::from_f32(a * scale);
                    }
                }
                if rows_here < MR {
                    for kk in 0..kc {
                        panel[kk * MR + rows_here..(kk + 1) * MR].fill(Bf16::ZERO);
                    }
                }
            }
        });
    }

    fn pack_a_bf16_rowmajor(
        &self,
        alpha: f32,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        kc_pad: usize,
        out: &mut [Bf16],
    ) {
        // The accumulator row is already contiguous — quantise it straight
        // into the row-major block the AMX tile driver strides over,
        // skipping the MR scatter + de-interleave of the default path.
        // Same operation order as `pack_a_bf16` (f32 sum, one 1/deg·α
        // fold, single rounding), so the two layouts hold identical bits.
        scratch::with_buf(kc, |acc| {
            for (r, dst) in out.chunks_exact_mut(kc_pad).enumerate() {
                if r >= mc {
                    dst.fill(Bf16::ZERO);
                    continue;
                }
                let v = ic + r;
                acc.fill(0.0);
                for &u in self.g.neighbors(v as u32) {
                    let src = &self.h.row(u as usize)[pc..pc + kc];
                    for (a, &s) in acc.iter_mut().zip(src) {
                        *a += s.to_f32();
                    }
                }
                let deg = self.g.degree(v as u32);
                let inv = if self.mean && deg > 0 {
                    1.0 / deg as f32
                } else {
                    1.0
                };
                let scale = alpha * inv;
                for (d, &a) in dst[..kc].iter_mut().zip(acc.iter()) {
                    *d = Bf16::from_f32(a * scale);
                }
                dst[kc..].fill(Bf16::ZERO);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::propagator::scale_rows_by_inv_degree;
    use gsgcn_graph::GraphBuilder;
    use gsgcn_tensor::gemm;

    fn rand_graph(n: usize, extra: usize, seed: u64) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let mut s = seed;
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

    fn features(n: usize, f: usize) -> DMatrix {
        DMatrix::from_fn(n, f, |i, j| ((i * 31 + j * 7) % 13) as f32 * 0.25 - 1.0)
    }

    #[test]
    fn fused_nn_matches_aggregate_then_matmul() {
        // Shapes straddling MR/MC/KC boundaries.
        for &(n, f, h) in &[(5usize, 3usize, 2usize), (33, 9, 7), (70, 40, 17)] {
            let g = rand_graph(n, 2 * n, n as u64);
            let hm = features(n, f);
            let w = features(f, h);
            let mut c = DMatrix::filled(n, h, f32::NAN);
            gemm::gemm_source_nn_v(
                1.0,
                &AggregatedRows::mean(&g, hm.view()),
                w.view(),
                0.0,
                c.view_mut(),
            );
            let mut agg = kernels::aggregate_reference(&g, &hm);
            scale_rows_by_inv_degree(&g, &mut agg);
            let r = gemm::matmul(&agg, &w);
            assert!(c.max_abs_diff(&r) < 1e-4, "n={n} f={f} h={h}");
        }
    }

    #[test]
    fn fused_nt_spills_aggregated_rows() {
        let (n, f, h) = (40usize, 12usize, 6usize);
        let g = rand_graph(n, 60, 3);
        let dy = features(n, h);
        let w = features(f, h); // stored f×h, consumed as Wᵀ
        let mut z = DMatrix::zeros(0, 0);
        let mut c = DMatrix::filled(n, f, 0.25);
        {
            let src = AggregatedRows::sum(&g, dy.view()).with_spill(&mut z);
            gemm::gemm_source_nt_v(1.0, &src, w.view(), 1.0, c.view_mut());
        }
        let agg = kernels::aggregate_reference(&g, &dy);
        assert!(z.max_abs_diff(&agg) < 1e-5, "spill must equal aggregate");
        let mut r = DMatrix::filled(n, f, 0.25);
        gemm::gemm_nt(1.0, &agg, &w, 1.0, &mut r);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn fused_bf16_nn_within_tolerance_of_f32() {
        use gsgcn_tensor::precision::{rel_tolerance, Precision};
        for &(n, f, h) in &[(33usize, 9usize, 7usize), (70, 40, 17)] {
            let g = rand_graph(n, 2 * n, n as u64);
            let hm = features(n, f);
            let w = features(f, h);
            let q: Vec<Bf16> = hm.data().iter().map(|&x| Bf16::from_f32(x)).collect();
            let mut c = DMatrix::filled(n, h, f32::NAN);
            gemm::gemm_source_nn_bf16_v(
                1.0,
                &AggregatedRowsBf16::mean(&g, Bf16MatRef::new(&q, n, f)),
                w.view(),
                0.0,
                c.view_mut(),
            );
            // f32 reference on the unquantised operands: the bf16 result
            // must stay inside the depth-1 tolerance band.
            let mut agg = kernels::aggregate_reference(&g, &hm);
            scale_rows_by_inv_degree(&g, &mut agg);
            let r = gemm::matmul(&agg, &w);
            let tol = rel_tolerance(Precision::Bf16, 1, f);
            let scale = r.data().iter().fold(0f32, |s, &x| s.max(x.abs()));
            for (cv, rv) in c.data().iter().zip(r.data()) {
                assert!(
                    (cv - rv).abs() <= tol * scale,
                    "n={n} f={f} h={h}: bf16 {cv} vs f32 {rv}"
                );
            }
        }
    }

    #[test]
    fn isolated_vertices_produce_zero_rows() {
        let g = GraphBuilder::new(3).add_edge(0, 1).build();
        let hm = DMatrix::filled(3, 4, 5.0);
        let w = DMatrix::eye(4);
        let mut c = DMatrix::filled(3, 4, f32::NAN);
        gemm::gemm_source_nn_v(
            1.0,
            &AggregatedRows::mean(&g, hm.view()),
            w.view(),
            0.0,
            c.view_mut(),
        );
        assert_eq!(c.row(2), &[0.0; 4]);
        assert_eq!(c.row(0), &[5.0; 4]);
    }
}
