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
//! The producer is generic over the feature storage ([`Rows`]): f32
//! activations pack f32 panels, bf16 storage (quantised activations,
//! shard feature rows) packs bf16 panels. Either way the neighbor sum
//! accumulates in one contiguous **f32** scratch row (each gathered bf16
//! element widens exactly, so the aggregation adds no rounding beyond
//! f32), `α` and the mean's `1/deg` are folded in, and the row is rounded
//! **once** as the driver's panel layout places it.
//!
//! An optional *spill* target captures the aggregated rows as a side
//! effect of packing: the GCN backward pass needs `Z = Âᵀ·dY` twice
//! (input gradient `Z·Wᵀ` and weight gradient `Hᵀ·Z`), so the fused
//! `Z·Wᵀ` GEMM writes `Z` once on the way through instead of running a
//! second aggregation pass. A backward pass that needs `Z` but not `Z·Wᵀ`
//! (the input layer, whose input gradient nobody reads) runs
//! [`AggregatedRows::spill_into`]: the same rows, no GEMM.
//!
//! The logical rows are every vertex, the leading ones
//! ([`AggregatedRows::first_rows`], frontier-ball roots) or an explicit
//! target list ([`AggregatedRows::target_rows`], the rows an evaluation
//! scores); each produced row is the same float operations whichever is
//! chosen. For an aggregate that is multiplied again and again (the input
//! layer's `Â·X`), [`AggregatedRows::keep`] computes some vertices' rows
//! once, as the panels would hold them, and a producer built
//! [`AggregatedRows::with_kept`] packs those rows instead of re-aggregating
//! them.
//!
//! [`gemm::PackSource`]: gsgcn_tensor::gemm::PackSource

use gsgcn_graph::CsrGraph;
use gsgcn_tensor::gemm::{APanel, Element, PackSource, MR};
use gsgcn_tensor::{scratch, DMatrix, MatRef, Rows};
use rayon::prelude::*;

/// Raw spill target; tasks write disjoint row ranges (see SAFETY notes).
struct Spill {
    ptr: *mut f32,
    cols: usize,
    len: usize,
}

// SAFETY: `ptr` points into the `DMatrix` that `with_spill` borrowed
// mutably for the producer's whole lifetime, so nothing else touches it.
// The GEMM driver hands disjoint `[ic, ic+mc)` row blocks to its parallel
// tasks within one column strip, and strips run sequentially, so no two
// concurrent `pack_a` calls touch overlapping spill rows. Repeat packs of
// the same block (one per strip) rewrite identical values.
unsafe impl Send for Spill {}
// SAFETY: as above — a shared `Spill` only lets each task write the rows
// of the block it owns.
unsafe impl Sync for Spill {}

/// Marks a vertex without a row in [`KeptRows`].
const NOT_KEPT: u32 = u32::MAX;

/// Some vertices' rows of an aggregate, computed once by
/// [`AggregatedRows::keep`] and stored in the panel element exactly as a
/// pack at `α = 1` places them: the neighbor sum, one multiply by the
/// destination scale, one rounding. A producer built
/// [`AggregatedRows::with_kept`] copies these rows into its panels, so it
/// computes the same product bit for bit with none of their gathers.
#[derive(Clone, Debug)]
pub struct KeptRows<E> {
    len: usize,
    cols: usize,
    /// `slot[v]`: the row of `data` holding vertex `v`, or [`NOT_KEPT`].
    slot: Vec<u32>,
    data: Vec<E>,
}

impl<E: Element> KeptRows<E> {
    /// Number of vertices whose row is kept.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vertex `v`'s kept row, if it has one.
    #[inline]
    fn row(&self, v: usize) -> Option<&[E]> {
        match self.slot[v] {
            NOT_KEPT => None,
            s => Some(&self.data[s as usize * self.cols..][..self.cols]),
        }
    }
}

/// A [`PackSource`] whose logical A operand is the aggregated feature
/// matrix: row `v` is `dst_scale(v) · Σ_{u∈N(v)} src_scale(u) · H[u]`.
/// `H` is any [`Rows`] storage — a (possibly strided) f32 view, so e.g.
/// the neighbor half of a concatenated gradient feeds the producer
/// without a copy, or a bf16 matrix — and the panels take its element.
pub struct AggregatedRows<'a, H: Rows = MatRef<'a>> {
    g: &'a CsrGraph,
    h: H,
    /// Logical row count: logical row `r` is vertex `r` — all of them
    /// unless [`AggregatedRows::first_rows`] narrowed it — or, after
    /// [`AggregatedRows::target_rows`], vertex `targets[r]`.
    rows: usize,
    targets: Option<&'a [u32]>,
    /// Rows packed from here instead of aggregated
    /// ([`AggregatedRows::with_kept`]).
    kept: Option<&'a KeptRows<H::Elem>>,
    /// Mean-normalise each *output* row by `1/deg(v)` (the `D⁻¹` of
    /// `Â = D⁻¹A` acting on the destination).
    mean: bool,
    /// Scale each *gathered* row by `1/deg(u)` — `A·D⁻¹·H`, which is
    /// `Âᵀ·H` on the symmetric graphs this workspace builds.
    src_inv_deg: bool,
    spill: Option<Spill>,
}

impl<'a, H: Rows> AggregatedRows<'a, H> {
    fn new(g: &'a CsrGraph, h: H, mean: bool, src_inv_deg: bool) -> Self {
        assert_eq!(
            h.rows(),
            g.num_vertices(),
            "feature rows must match vertex count"
        );
        AggregatedRows {
            g,
            h,
            rows: g.num_vertices(),
            targets: None,
            kept: None,
            mean,
            src_inv_deg,
            spill: None,
        }
    }

    /// Mean-aggregated rows: `A = Â·H` with `Â = D⁻¹A` (forward pass).
    pub fn mean(g: &'a CsrGraph, h: H) -> Self {
        Self::new(g, h, true, false)
    }

    /// Unnormalised neighbor sums: `A = A_adj·H`.
    pub fn sum(g: &'a CsrGraph, h: H) -> Self {
        Self::new(g, h, false, false)
    }

    /// The propagation adjoint: `A = Âᵀ·H = A_adj·D⁻¹·H` (backward pass).
    /// The `1/deg(u)` scaling is folded into the gather itself — each
    /// term is `fl(H[u][c] · 1/deg(u))` exactly as the unfused path's
    /// pre-scaled copy produces, so results match it bit-for-bit while
    /// the scaled matrix never materialises.
    pub fn adjoint_mean(g: &'a CsrGraph, h: H) -> Self {
        Self::new(g, h, false, true)
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

    /// Produce the aggregates of the vertices `targets`, in that order
    /// (the logical A operand becomes `targets.len() × h.cols()`): logical
    /// row `r` is vertex `targets[r]`'s row of the full-height producer,
    /// the same float operations in the same order. This is the
    /// restriction of a whole-graph layer to the rows a caller scores.
    ///
    /// # Panics
    /// Panics if a target is not a vertex of the graph.
    pub fn target_rows(mut self, targets: &'a [u32]) -> Self {
        let n = self.g.num_vertices();
        assert!(
            targets.iter().all(|&v| (v as usize) < n),
            "target vertex out of range"
        );
        // A repeated target would have two tasks write one spill row.
        assert!(self.spill.is_none(), "target rows cannot spill");
        self.rows = targets.len();
        self.targets = Some(targets);
        self
    }

    /// Also write every aggregated row (f32, before `α` and the panel
    /// rounding) into `out` (shaped `n × h.cols()`) as panels are packed.
    /// `out` is borrowed for the producer's lifetime, so it becomes
    /// readable once the producer is dropped — after the GEMM call, every
    /// row has been written at least once.
    pub fn with_spill(mut self, out: &'a mut DMatrix) -> Self {
        assert!(self.targets.is_none(), "target rows cannot spill");
        assert!(self.kept.is_none(), "kept rows cannot spill");
        out.ensure_shape(self.g.num_vertices(), self.h.cols());
        self.spill = Some(Spill {
            ptr: out.data_mut().as_mut_ptr(),
            cols: out.cols(),
            len: out.data().len(),
        });
        self
    }

    /// Compute the rows of `vertices` (distinct, any order) once, as a
    /// pack at `α = 1` places them, for [`AggregatedRows::with_kept`]:
    /// the neighbor sum over full rows, one multiply by the destination
    /// scale, one rounding into the element. One row-parallel pass; the
    /// only temporary is an f32 accumulator row per task.
    ///
    /// # Panics
    /// Panics if a vertex is out of range or listed twice.
    pub fn keep(&self, vertices: &[u32]) -> KeptRows<H::Elem> {
        let cols = self.h.cols();
        let mut slot = vec![NOT_KEPT; self.g.num_vertices()];
        for (i, &v) in vertices.iter().enumerate() {
            let s = &mut slot[v as usize];
            assert_eq!(*s, NOT_KEPT, "vertex {v} kept twice");
            *s = i as u32;
        }
        let mut data = vec![H::Elem::ZERO; vertices.len() * cols];
        if cols > 0 {
            data.par_chunks_mut(cols).enumerate().for_each(|(i, dst)| {
                scratch::with_buf(cols, |acc| {
                    let inv = self.sum_row(vertices[i] as usize, 0, acc);
                    for (d, &a) in dst.iter_mut().zip(acc.iter()) {
                        *d = H::Elem::from_f32(a * inv);
                    }
                })
            });
        }
        KeptRows {
            len: vertices.len(),
            cols,
            slot,
            data,
        }
    }

    /// Write every logical row into `out` (f32, reshaped to `rows ×
    /// h.cols()`) exactly as [`AggregatedRows::with_spill`] captures it —
    /// the neighbor sum times the destination scale, the same float
    /// operations as the spill — without a GEMM to ride on. One
    /// row-parallel pass that accumulates straight into `out`. This is
    /// `Z = Âᵀ·dY` for a backward pass that needs `Z` but not `Z·Wᵀ`.
    ///
    /// # Panics
    /// Panics if the producer was narrowed to target rows or given kept
    /// rows.
    pub fn spill_into(&self, out: &mut DMatrix) {
        assert!(
            self.targets.is_none() && self.kept.is_none(),
            "spill every row of a plain producer"
        );
        let cols = self.h.cols();
        out.ensure_shape(self.rows, cols);
        if cols == 0 {
            return;
        }
        out.data_mut()
            .par_chunks_mut(cols)
            .enumerate()
            .for_each(|(v, dst)| {
                let inv = self.sum_row(v, 0, dst);
                for d in dst {
                    *d *= inv;
                }
            });
    }

    /// Pack the rows `kept` holds from there instead of aggregating them.
    /// `kept` must come from [`AggregatedRows::keep`] on a producer of the
    /// same kind over the same `g` and `H`; the product is then the same
    /// bit for bit, and only the rows it lacks pay for their gathers. The
    /// kept rows are the panel elements at `α = 1`, so the GEMM must run
    /// at `α = 1`.
    pub fn with_kept(mut self, kept: &'a KeptRows<H::Elem>) -> Self {
        assert_eq!(
            (kept.slot.len(), kept.cols),
            (self.g.num_vertices(), self.h.cols()),
            "kept rows of another aggregate"
        );
        assert!(self.spill.is_none(), "kept rows cannot spill");
        self.kept = Some(kept);
        self
    }

    /// The vertex logical row `r` aggregates.
    #[inline]
    fn vertex(&self, r: usize) -> usize {
        match self.targets {
            Some(t) => t[r] as usize,
            None => r,
        }
    }

    /// Overwrite `acc` with vertex `v`'s neighbor sum over columns
    /// `pc..pc + acc.len()` (each term source-scaled under
    /// `src_inv_deg`) and return the destination scale: `1/deg(v)` under
    /// `mean` (1 for an isolated vertex), else 1.
    #[inline]
    fn sum_row(&self, v: usize, pc: usize, acc: &mut [f32]) -> f32 {
        let kc = acc.len();
        acc.fill(0.0);
        if self.src_inv_deg {
            for &u in self.g.neighbors(v as u32) {
                // `u` has `v` as a neighbor, so deg(u) ≥ 1.
                let su = 1.0 / self.g.degree(u) as f32;
                let src = &self.h.row(u as usize)[pc..pc + kc];
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a += s.to_f32() * su;
                }
            }
        } else {
            for &u in self.g.neighbors(v as u32) {
                let src = &self.h.row(u as usize)[pc..pc + kc];
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a += s.to_f32();
                }
            }
        }
        let deg = self.g.degree(v as u32);
        if self.mean && deg > 0 {
            1.0 / deg as f32
        } else {
            1.0
        }
    }
}

impl<H: Rows> PackSource<H::Elem> for AggregatedRows<'_, H> {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.h.cols())
    }

    fn pack_a(&self, alpha: f32, ic: usize, pc: usize, out: &mut APanel<'_, H::Elem>) {
        let (mc, kc) = (out.mc(), out.kc());
        assert!(
            alpha == 1.0 || self.kept.is_none(),
            "kept rows pack at α = 1 only"
        );
        // One contiguous f32 accumulator row per vertex, so the
        // per-neighbor inner loop is a unit-stride add over `kc` floats the
        // vectoriser handles; a group of MR aggregated rows then enters
        // the panel through one block pack.
        scratch::with_buf(MR * kc, |acc| {
            for r0 in (0..mc).step_by(MR) {
                let rows = MR.min(mc - r0);
                let mut summed = [false; MR];
                for (i, acc) in acc.chunks_exact_mut(kc).take(rows).enumerate() {
                    let v = self.vertex(ic + r0 + i);
                    if let Some(row) = self.kept.and_then(|k| k.row(v)) {
                        out.fill_row(r0 + i, &row[pc..pc + kc], |x| x);
                        continue;
                    }
                    // Same operation order as the unfused path (sum, then
                    // one multiply by 1/deg, then the pack's α fold), so
                    // fused f32 results match the materialised composition
                    // bit-for-bit at α = 1.
                    let inv = self.sum_row(v, pc, acc);
                    if let Some(spill) = &self.spill {
                        debug_assert!(v * spill.cols + pc + kc <= spill.len);
                        // SAFETY: row `v` is exclusively owned by this
                        // task's block within the current strip (see the
                        // `Spill` safety note), and the range ends inside
                        // the spill matrix: `v < n` and `pc + kc ≤ cols` by
                        // the pack contract (debug-asserted above).
                        let dst: &mut [f32] = unsafe {
                            std::slice::from_raw_parts_mut(spill.ptr.add(v * spill.cols + pc), kc)
                        };
                        for (d, &a) in dst.iter_mut().zip(acc.iter()) {
                            *d = a * inv;
                        }
                    }
                    let scale = alpha * inv;
                    for a in acc.iter_mut() {
                        *a *= scale;
                    }
                    summed[i] = true;
                }
                let round = |a: f32| H::Elem::from_f32(a);
                if summed.iter().all(|&s| s) {
                    let group = std::array::from_fn(|i| &acc[i * kc..][..kc]);
                    out.fill_rows(r0, group, round);
                } else {
                    for (i, acc) in acc.chunks_exact(kc).take(rows).enumerate() {
                        if summed[i] {
                            out.fill_row(r0 + i, acc, round);
                        }
                    }
                }
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
    use gsgcn_tensor::{gemm, Bf16, Bf16MatRef};

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

    /// Storage of element `E` viewed as the [`Rows`] operand it packs from.
    trait Stored: Element {
        type View<'a>: Rows<Elem = Self>;
        fn view(data: &[Self], rows: usize, cols: usize) -> Self::View<'_>;
    }

    impl Stored for f32 {
        type View<'a> = MatRef<'a>;
        fn view(data: &[f32], rows: usize, cols: usize) -> MatRef<'_> {
            MatRef::new(data, rows, cols, cols)
        }
    }

    impl Stored for Bf16 {
        type View<'a> = Bf16MatRef<'a>;
        fn view(data: &[Bf16], rows: usize, cols: usize) -> Bf16MatRef<'_> {
            Bf16MatRef::new(data, rows, cols)
        }
    }

    fn stored<E: Element>(m: &DMatrix) -> Vec<E> {
        m.data().iter().map(|&x| E::from_f32(x)).collect()
    }

    /// The single driver fed by the aggregation producer, over one
    /// storage element: every tier × shapes straddling MR / MC / KC and
    /// the AMX tile grid × {mean, sum} (nn: full height and at target
    /// rows, with and without kept rows) and adjoint + spill (nt,
    /// accumulating). The fused result must equal — **bit for bit**, in
    /// either element and on every engine — the dense GEMM of the
    /// materialised aggregate stored in the same element: the producer
    /// fills the very panels the dense source would, and `keep` stores
    /// exactly those elements.
    fn check_fused<E: Stored>() {
        for &(n, f, h) in &[
            (5usize, 3usize, 2usize),
            (33, 9, 7),
            (70, 40, 17),
            (65, 257, 49),
            (130, 33, 33),
        ] {
            let g = rand_graph(n, 2 * n, n as u64);
            let q = stored::<E>(&features(n, f));
            let hw = DMatrix::from_fn(n, f, |i, j| q[i * f + j].to_f32());
            let w = features(f, h);
            let dense = |agg: &DMatrix, b: &DMatrix, nt: bool, c0: &DMatrix| {
                let qa = stored::<E>(agg);
                let src = gemm::DensePack::new(E::view(&qa, agg.rows(), agg.cols()));
                let mut c = c0.clone();
                if nt {
                    gemm::gemm_source_nt_v(1.0, &src, b.view(), 1.0, c.view_mut());
                } else {
                    gemm::gemm_source_nn_v(1.0, &src, b.view(), 0.0, c.view_mut());
                }
                c
            };
            for tier in gemm::available_tiers() {
                gemm::with_tier(tier, || {
                    let at = format!("{} n={n} f={f} h={h}", tier.name());
                    let nan = DMatrix::filled(n, h, f32::NAN);
                    for mean in [true, false] {
                        let hv = E::view(&q, n, f);
                        let src = || {
                            if mean {
                                AggregatedRows::mean(&g, hv)
                            } else {
                                AggregatedRows::sum(&g, hv)
                            }
                        };
                        let mut c = nan.clone();
                        gemm::gemm_source_nn_v(1.0, &src(), w.view(), 0.0, c.view_mut());
                        let mut agg = kernels::aggregate_reference(&g, &hw);
                        if mean {
                            scale_rows_by_inv_degree(&g, &mut agg);
                        }
                        assert_eq!(c, dense(&agg, &w, false, &nan), "{at} mean={mean}");
                        // The spill-only pass writes the unrounded rows.
                        let mut spilled = DMatrix::zeros(0, 0);
                        src().spill_into(&mut spilled);
                        assert_eq!(spilled, agg, "{at} mean={mean} spill_into");
                        // Kept, the producer stores the elements its panels
                        // hold: the rows of the stored aggregate.
                        let some: Vec<u32> = (0..n as u32).rev().step_by(3).collect();
                        let stored_agg = stored::<E>(&agg);
                        for (kept, listed) in
                            [(src().keep(&some), &some[..]), (src().keep(&[]), &[])]
                        {
                            assert_eq!(kept.len(), listed.len());
                            for v in 0..n {
                                let row = kept.row(v);
                                assert_eq!(row.is_some(), listed.contains(&(v as u32)), "{at} {v}");
                                if let Some(row) = row {
                                    assert_eq!(row, &stored_agg[v * f..][..f], "{at} kept row {v}");
                                }
                            }
                            // Packing them instead of aggregating them
                            // changes no bit.
                            let mut ck = nan.clone();
                            let with_kept = src().with_kept(&kept);
                            gemm::gemm_source_nn_v(1.0, &with_kept, w.view(), 0.0, ck.view_mut());
                            assert_eq!(ck, c, "{at} mean={mean} kept {}", kept.len());
                        }
                        // Target rows — out of order, repeated, a subset,
                        // some of them kept — are the full-height
                        // producer's rows.
                        let targets: Vec<u32> = (0..n as u32)
                            .rev()
                            .step_by(2)
                            .chain([0, 0, n as u32 - 1])
                            .collect();
                        let kept = src().keep(&some);
                        for producer in [src(), src().with_kept(&kept)] {
                            let mut ct = DMatrix::filled(targets.len(), h, f32::NAN);
                            let at_targets = producer.target_rows(&targets);
                            gemm::gemm_source_nn_v(1.0, &at_targets, w.view(), 0.0, ct.view_mut());
                            assert_eq!(ct, c.gather_rows(&targets), "{at} mean={mean} targets");
                        }
                    }
                    // Backward shape: Z = Âᵀ·H spilled while C += Z·Wᵀ
                    // (here H plays dY: n×f, W stored h×f, C n×h).
                    let wt = features(h, f);
                    let c0 = DMatrix::filled(n, h, 0.25);
                    let mut z = DMatrix::zeros(0, 0);
                    let mut c = c0.clone();
                    {
                        let src =
                            AggregatedRows::adjoint_mean(&g, E::view(&q, n, f)).with_spill(&mut z);
                        gemm::gemm_source_nt_v(1.0, &src, wt.view(), 1.0, c.view_mut());
                    }
                    let mut scaled = hw.clone();
                    scale_rows_by_inv_degree(&g, &mut scaled);
                    let z_ref = kernels::aggregate_reference(&g, &scaled);
                    assert_eq!(z, z_ref, "{at}: spill must equal the aggregate");
                    // Without the GEMM, the spill-only pass writes the same Z.
                    let mut z_only = DMatrix::filled(1, 1, f32::NAN);
                    AggregatedRows::adjoint_mean(&g, E::view(&q, n, f)).spill_into(&mut z_only);
                    assert_eq!(z_only, z, "{at}: spill_into must equal the spill");
                    assert_eq!(c, dense(&z_ref, &wt, true, &c0), "{at} adjoint");
                });
            }
        }
    }

    #[test]
    fn driver_matches_materialised_across_elements_sources_shapes_f32() {
        check_fused::<f32>();
    }

    #[test]
    fn driver_matches_materialised_across_elements_sources_shapes_bf16() {
        check_fused::<Bf16>();
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
