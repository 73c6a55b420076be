//! Packed, register-blocked parallel GEMM — the workspace's `cblas_sgemm`
//! replacement and the single hottest kernel in GCN training.
//!
//! Three layout-specialised entry points cover every multiply in training:
//!
//! * [`matmul`] / [`gemm_nn`] (`C = A·B`) — forward weight application `H·W`;
//! * [`matmul_tn`] / [`gemm_tn`] (`C = Aᵀ·B`) — weight gradients `Hᵀ·dY`;
//! * [`matmul_nt`] / [`gemm_nt`] (`C = A·Bᵀ`) — input gradients `dY·Wᵀ`.
//!
//! The `*_v` variants take strided [`MatRef`]/[`MatMut`] views, so callers
//! can multiply into (or from) column sub-ranges of larger matrices — the
//! neighbor‖self halves of a concatenated GCN activation — without copies.
//!
//! # Kernel design
//!
//! This is a BLIS-style packed kernel with **one** blocked driver:
//!
//! ```text
//! for jc in 0..n step NC:                    (column strip of C)
//!   for pc in 0..k step KC:                  (reduction panel)
//!     pack B[pc.., jc..]  →  b_pack          (tn-wide column panels)
//!     par for ic in 0..m step MC:            (row block — rayon task)
//!       source.pack_a(α, ic, pc) →  a_pack   (tm-tall row panels)
//!       for jr, ir tiles:  micro-tile tm×tn over KC   (last jr: exact width)
//! ```
//!
//! * **Packing** copies each operand panel once into contiguous,
//!   64-byte-aligned scratch (from [`crate::scratch`], reused across
//!   calls), so the microkernel's loads are unit-stride vector loads
//!   regardless of the operand layout — this is what makes the `tn`/`nt`
//!   transpose variants and strided views run at `nn` speed, and it
//!   bounds cache/TLB traffic to one streaming pass per panel. `α` is
//!   folded into the A-pack. A row-major A operand enters its
//!   `MR`-interleaved panel `MR` rows at a time ([`APanel::fill_rows`]):
//!   each 8-deep step of the group is staged as one 8×8 block and stored
//!   transposed (AVX shuffles for f32, SSE2 for bf16), so the panel is
//!   written in whole `MR`-wide runs rather than one element per store
//!   (f32, one core of a 2-vCPU AVX-512 Xeon: ≈ 2.6 → ≈ 6 Gelem/s). A
//!   transposed operand is placed one depth step of all rows at a time,
//!   also in whole `MR`-wide runs ([`APanel::fill_col`], ≈ 2.6 → ≈ 4.2).
//! * **The micro-tile** is whatever [`Tiles`] strategy the panel
//!   [`Element`] resolves for the dispatched kernel tier
//!   ([`crate::ukernel`]): an explicit SIMD register tile (`8×48`
//!   AVX-512F, `8×16` AVX2+FMA, `8×32` portable autovectorised, each
//!   also at its narrower widths for tails — see below) over
//!   `MR`-interleaved panels, or — for bf16 panels at the amx tier — a
//!   `32×32` `tdpbf16ps` tile over row-major A and VNNI B panels
//!   ([`crate::amx`]). The default tier is the best the CPU has, or the
//!   one a binary pinned ([`pin_default_tier`]); [`with_tier`] forces a
//!   tier per thread for tests/benches. There is **no** zero-skip branch: the seed kernel's
//!   `if aik == 0.0 { continue; }` stalled the pipeline on every dense
//!   activation element to optimise a case (exact zeros) that occurs
//!   only for ReLU-sparse inputs, and even then saves nothing once the
//!   loop is memory-bound.
//! * **Parallelism** is over `MC`-row blocks of `C` on the current rayon
//!   pool. Tasks own disjoint C rows and the block structure is a function
//!   of the shape alone, so results are bit-identical for any thread
//!   count. The dispatched kernel is resolved on the calling thread and
//!   carried into the tasks, so a per-thread tier override composes with
//!   thread pools.
//! * Accumulation order per C element is fixed (pc-major, then kk), so the
//!   kernel is deterministic; tests pin it against [`matmul_reference`].
//!
//! **Exact-width tails.** Every B panel of a column strip is the full
//! tile width except the last, which is packed and run at the narrowest
//! width the strategy offers that covers the remaining columns
//! ([`Tiles::panel_widths`]): the AVX-512 tier runs `n = 32 / 64 / 100 /
//! 128` as `32`, `48 + 16`, `48 + 48 + 16` and `48 + 48 + 32` columns
//! instead of padding each to a multiple of 48, so a narrow GEMM no longer
//! spends up to half its FMAs on zeros. Row edges (`m` not a multiple of
//! `tm`) and the AMX strategy's single 32-wide tile still multiply
//! zero-padded panels and clip on the C store. A narrow tile issues the
//! same FMA chain per C element as the wide one, so tails change no bit.
//!
//! # One pack-source trait, two panel elements
//!
//! The driver never reads the A operand: it asks a [`PackSource`] to
//! place each `MC×KC` block into an [`APanel`], which owns the layout
//! (`MR`-interleaved for the vector kernels, row-major for AMX) — the
//! source only hands over contiguous rows. The dense entry points are
//! the [`DensePack`] implementation; `gsgcn-prop` implements the trait
//! by *computing* the sparse aggregation `Â·H` of a GCN layer straight
//! into the panel, so the aggregated matrix never materialises in DRAM
//! ([`gemm_source_nn_v`] / [`gemm_source_nt_v`]).
//!
//! Driver and trait are generic over the panel [`Element`], `f32` or
//! [`crate::Bf16`]: the element supplies its scratch pool, its rounding
//! ([`Element::from_f32`], identity / round-to-nearest-even) and its
//! micro-tile entry, so the f32 and bf16 paths are the same loop nest
//! monomorphised twice. With bf16 panels both packed operands halve in
//! width (packed B is re-read for every `MC`-row block, packed A re-swept
//! per tile column — the bandwidth the fused layer is bound by) while C
//! and every accumulation stay f32. Conversions happen **at pack time
//! inside the L2-resident panel**, never as a separate DRAM pass, and
//! `α` (and the aggregation's `1/deg`) is applied *before* the rounding,
//! so a stored panel element carries exactly one quantisation. A bf16
//! operand (quantised activations, bf16 shard rows) packs into bf16
//! panels; an f32 operand into f32 panels — [`Rows::Elem`] decides —
//! unless the caller names bf16 panels for an f32 [`DensePack`] (a
//! mixed-precision training step's gradient operand), which then rounds
//! each element as it is packed, the way B always is.
//!
//! # Determinism contract (GEMM rows)
//!
//! | comparison | guarantee | pinned by |
//! |---|---|---|
//! | f32, any tier vs any tier | bit-identical | `tiers_are_bit_identical` |
//! | f32, any thread count | bit-identical | `thread_count_invariance` (`tests/proptest_packed_gemm.rs`) |
//! | bf16, vector tier vs vector tier (every tier but `amx`) | bit-identical | `bf16_tiers_are_bit_identical` |
//! | bf16, AMX vs widen | within `1e-5 · scale` (`scale` = largest entry of C; accumulation order only) | `bf16_tiers_are_bit_identical` (the `amx` tier's arm) |
//! | bf16 vs f32 on unquantised operands | [`crate::precision::rel_tolerance`] | `bf16_result_within_tolerance_of_f32_path` |
//! | f32 A rounded into bf16 panels vs A quantised first, either orientation | bit-identical, every engine | `f32_operand_on_bf16_panels_matches_its_quantised_copy` |
//! | bf16 training gradients vs f32 (bf16 panels in forward and backward) | [`crate::precision::rel_tolerance`], depth 1 | `fused_bf16_gradients_within_tolerance` in `gsgcn-nn` `gcn_layer.rs` |
//! | producer-packed vs materialised A stored in the same element | bit-identical, either element, every engine | `driver_matches_materialised_across_elements_sources_shapes_{f32,bf16}` in `gsgcn-prop` `fused.rs` |
//! | transposed-A / transposed-B packs vs the plain orientation | bit-identical, either element, every engine | `driver_matches_materialised_across_elements_sources_shapes_{f32,bf16}` here |
//! | `n` columns vs the first `n` of B zero-padded to the full tile width | bit-identical, either element, every engine and layout | `exact_width_tails_match_zero_padded_b_{f32,bf16}` |

use crate::bf16::{Bf16, Bf16MatRef};
use crate::matrix::DMatrix;
use crate::ukernel::{self, Kernel, ACC_LEN};
use crate::view::{MatMut, MatRef, Rows};
use rayon::prelude::*;

// Microkernel tiers and their dispatch live in `crate::ukernel`; the tier
// inspection/override API is re-exported here because this is the module
// callers already import for everything GEMM.
pub use crate::ukernel::{
    available_tiers, best_available_tier, bf16_engine, pin_default_tier, selected_tier, with_tier,
    Element, Tier, Tiles, ALL_TIERS,
};

/// Vector-kernel tile height (rows of C per register tile), identical
/// for every tier: the interleave of the vector strategies' A panels.
pub use crate::ukernel::MR;

/// Reduction-dimension block: one packed A panel column-block (`MC×KC`)
/// plus the B panel rows stay L2-resident.
const KC: usize = 256;
/// Rows of C per parallel task / packed A block (a multiple of every
/// strategy's `tm`).
const MC: usize = 64;

// ---------------------------------------------------------------------------
// Allocating convenience wrappers
// ---------------------------------------------------------------------------

/// `C = A·B`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let mut c = DMatrix::zeros(a.rows(), b.cols());
    gemm_nn(1.0, a, b, 0.0, &mut c);
    c
}

/// `C = Aᵀ·B` (A is `k × m`, B is `k × n`, C is `m × n`).
pub fn matmul_tn(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let mut c = DMatrix::zeros(a.cols(), b.cols());
    gemm_tn(1.0, a, b, 0.0, &mut c);
    c
}

/// `C = A·Bᵀ` (A is `m × k`, B is `n × k`, C is `m × n`).
pub fn matmul_nt(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let mut c = DMatrix::zeros(a.rows(), b.rows());
    gemm_nt(1.0, a, b, 0.0, &mut c);
    c
}

/// `C = α·A·B + β·C`.
pub fn gemm_nn(alpha: f32, a: &DMatrix, b: &DMatrix, beta: f32, c: &mut DMatrix) {
    gemm_nn_v(alpha, a.view(), b.view(), beta, c.view_mut());
}

/// `C = α·Aᵀ·B + β·C` where A is `k × m` (so `Aᵀ` is `m × k`), B is `k × n`.
pub fn gemm_tn(alpha: f32, a: &DMatrix, b: &DMatrix, beta: f32, c: &mut DMatrix) {
    gemm_tn_v(alpha, a.view(), b.view(), beta, c.view_mut());
}

/// `C = α·A·Bᵀ + β·C` where A is `m × k`, B is `n × k`.
pub fn gemm_nt(alpha: f32, a: &DMatrix, b: &DMatrix, beta: f32, c: &mut DMatrix) {
    gemm_nt_v(alpha, a.view(), b.view(), beta, c.view_mut());
}

// ---------------------------------------------------------------------------
// View-based entry points — thin fronts over the one driver
// ---------------------------------------------------------------------------

/// `C = α·A·B + β·C` over strided views.
pub fn gemm_nn_v(alpha: f32, a: MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    driver::<f32, _>(alpha, &DensePack::new(a), b, false, beta, c);
}

/// `C = α·Aᵀ·B + β·C` over strided views (A stored `k × m`).
pub fn gemm_tn_v(alpha: f32, a: MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    driver::<f32, _>(alpha, &DensePack::transposed(a), b, false, beta, c);
}

/// `C = α·A·Bᵀ + β·C` over strided views (B stored `n × k`).
pub fn gemm_nt_v(alpha: f32, a: MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    driver::<f32, _>(alpha, &DensePack::new(a), b, true, beta, c);
}

/// `C = α·A·B + β·C` with a bf16-stored A on **bf16 panels with f32
/// accumulate**: B is rounded to bf16 at pack time, C stays f32.
pub fn gemm_bf16_nn_v(alpha: f32, a: Bf16MatRef<'_>, b: MatRef<'_>, beta: f32, c: MatMut<'_>) {
    driver(alpha, &DensePack::new(a), b, false, beta, c);
}

/// `C = α·S·B + β·C`, with the A operand produced by a [`PackSource`]
/// into panels of its element `E` (inferred from the source).
pub fn gemm_source_nn_v<E: Element, S: PackSource<E> + ?Sized>(
    alpha: f32,
    src: &S,
    b: MatRef<'_>,
    beta: f32,
    c: MatMut<'_>,
) {
    driver(alpha, src, b, false, beta, c);
}

/// `C = α·S·Bᵀ + β·C` (B stored `n × k`), A produced by a [`PackSource`].
pub fn gemm_source_nt_v<E: Element, S: PackSource<E> + ?Sized>(
    alpha: f32,
    src: &S,
    b: MatRef<'_>,
    beta: f32,
    c: MatMut<'_>,
) {
    driver(alpha, src, b, true, beta, c);
}

// ---------------------------------------------------------------------------
// A-panel sources
// ---------------------------------------------------------------------------

/// A source of packed A panels for the GEMM driver.
///
/// The driver never reads the A operand directly — it asks the source to
/// place `α·A[ic..ic+mc, pc..pc+kc]` into an [`APanel`], one `MC×KC`
/// block at a time, inside each parallel row-block task. This is the
/// hook that makes **operator fusion** possible: a producer can
/// *compute* its rows (e.g. the sparse aggregation `Σ_{u∈N(v)} H[u]` of a
/// GCN layer, see `gsgcn-prop`) straight into the thread-local pack
/// scratch, so the logical A matrix only ever exists as an L2-resident
/// panel and never round-trips through DRAM. The dense paths ([`matmul`]
/// and friends) go through the same trait via [`DensePack`].
///
/// `E` is the panel element. `α` (and any normalisation the producer
/// folds in) must be applied *before* [`Element::from_f32`], so a bf16
/// panel carries exactly one quantisation; producers that accumulate do
/// so in f32 and round once on the final placement.
///
/// `pack_a` may be called for the same `(ic, pc)` block more than once
/// (once per column strip of C), from different threads across calls
/// but never concurrently for overlapping row ranges within one strip.
pub trait PackSource<E: Element = f32>: Sync {
    /// Logical shape `(m, k)` of the A operand.
    fn shape(&self) -> (usize, usize);

    /// Place every element of `α·A[ic..ic+mc, pc..pc+kc]` into `out`,
    /// whose extent is `mc = out.mc()` rows × `kc = out.kc()` depth, with
    /// [`APanel::fill_rows`] / [`APanel::fill_row`] /
    /// [`APanel::fill_col`]. The layout and the zero padding are the
    /// panel's business, not the source's.
    fn pack_a(&self, alpha: f32, ic: usize, pc: usize, out: &mut APanel<'_, E>);
}

/// The destination of one packed A block, in whichever layout the
/// resolved [`Tiles`] strategy reads: `MR`-interleaved row panels
/// (`buf[p·kc·MR + kk·MR + r]` holds row `p·MR + r`, depth `kk`) for the
/// vector kernels, or row-major with leading dimension `ld` for AMX.
/// Sources hand over contiguous runs; the panel places them.
pub struct APanel<'a, E> {
    buf: &'a mut [E],
    mc: usize,
    kc: usize,
    /// Packed depth (`kc` rounded up to the strategy's `k_align`): the
    /// row-major leading dimension.
    ld: usize,
    row_major: bool,
}

impl<E: Element> APanel<'_, E> {
    /// Rows of the block (`mc`).
    pub fn mc(&self) -> usize {
        self.mc
    }

    /// Depth of the block (`kc`): every placed row or column is this long.
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// Place logical rows `r0..r0 + MR` at once (`r0` a multiple of
    /// [`MR`]): depth `kk` of row `r0 + i` gets `f(rows[i][kk])` (every
    /// `rows[i].len() == kc`). In the interleaved layout, every 8-deep
    /// step of the `MR` rows is staged as one 8×8 block and stored
    /// transposed, so the panel is written in whole `MR`-wide runs
    /// instead of one element per store ([`APanel::fill_row`]).
    #[inline]
    pub fn fill_rows<T: Copy>(&mut self, r0: usize, rows: [&[T]; MR], f: impl Fn(T) -> E) {
        debug_assert!(r0.is_multiple_of(MR) && r0 + MR <= self.mc);
        debug_assert!(rows.iter().all(|row| row.len() == self.kc));
        if self.row_major {
            for (i, src) in rows.into_iter().enumerate() {
                self.fill_row(r0 + i, src, &f);
            }
            return;
        }
        const KB: usize = 8;
        let kc = self.kc;
        let panel = &mut self.buf[r0 / MR * kc * MR..][..kc * MR];
        let (blocks, tail) = panel.split_at_mut(kc / KB * KB * MR);
        for (b, out) in blocks.chunks_exact_mut(KB * MR).enumerate() {
            let mut t = [[E::ZERO; KB]; MR];
            for (ti, src) in t.iter_mut().zip(&rows) {
                for (d, &x) in ti.iter_mut().zip(&src[b * KB..][..KB]) {
                    *d = f(x);
                }
            }
            E::store_transposed(&t, out.try_into().unwrap());
        }
        let kk0 = kc / KB * KB;
        for (j, run) in tail.chunks_exact_mut(MR).enumerate() {
            for (d, src) in run.iter_mut().zip(&rows) {
                *d = f(src[kk0 + j]);
            }
        }
    }

    /// Place logical row `r` of the block: depth `kk` gets `f(src[kk])`
    /// (`src.len() == kc`).
    #[inline]
    pub fn fill_row<T: Copy>(&mut self, r: usize, src: &[T], f: impl Fn(T) -> E) {
        debug_assert!(r < self.mc && src.len() == self.kc);
        if self.row_major {
            for (d, &s) in self.buf[r * self.ld..][..self.kc].iter_mut().zip(src) {
                *d = f(s);
            }
        } else {
            let panel = &mut self.buf[(r / MR) * self.kc * MR..][..self.kc * MR];
            for (d, &s) in panel.chunks_exact_mut(MR).zip(src) {
                d[r % MR] = f(s);
            }
        }
    }

    /// Place depth step `kk` of every logical row: row `r` gets
    /// `f(src[r])` (`src.len() == mc`) — the unit-stride direction of a
    /// transposed operand.
    #[inline]
    pub fn fill_col<T: Copy>(&mut self, kk: usize, src: &[T], f: impl Fn(T) -> E) {
        debug_assert!(kk < self.kc && src.len() == self.mc);
        if self.row_major {
            for (row, &s) in self.buf.chunks_exact_mut(self.ld).zip(src) {
                row[kk] = f(s);
            }
        } else {
            let mut panels = self.buf.chunks_exact_mut(self.kc * MR);
            let groups = src.chunks_exact(MR);
            let rest = groups.remainder();
            // `groups` leads the zip, so the panel of a partial last
            // group is still in `panels` when the full ones run out.
            for (s, panel) in groups.zip(panels.by_ref()) {
                let d: &mut [E; MR] = (&mut panel[kk * MR..][..MR]).try_into().unwrap();
                for (d, &x) in d.iter_mut().zip(s) {
                    *d = f(x);
                }
            }
            if let Some(panel) = panels.next() {
                for (d, &x) in panel[kk * MR..][..MR].iter_mut().zip(rest) {
                    *d = f(x);
                }
            }
        }
    }

    /// Zero what the source did not place: rows `mc..` of the last tile
    /// and (row-major) depth `kc..ld`, so edge tiles multiply zeros.
    fn zero_padding(&mut self) {
        if self.row_major {
            let (real, pad) = self.buf.split_at_mut(self.mc * self.ld);
            for row in real.chunks_exact_mut(self.ld) {
                row[self.kc..].fill(E::ZERO);
            }
            pad.fill(E::ZERO);
        } else if !self.mc.is_multiple_of(MR) {
            let last = self.mc / MR * self.kc * MR;
            for d in self.buf[last..].chunks_exact_mut(MR) {
                d[self.mc % MR..].fill(E::ZERO);
            }
        }
    }
}

/// The dense [`PackSource`]: an A operand stored as a (possibly
/// transposed) row-major matrix — a strided f32 [`MatRef`] or a bf16
/// [`Bf16MatRef`] — packing into panels of its own element.
pub struct DensePack<H> {
    a: H,
    trans: bool,
}

impl<H: Rows> DensePack<H> {
    /// Source reading `A` in its logical orientation.
    pub fn new(a: H) -> Self {
        DensePack { a, trans: false }
    }

    /// Source reading `Aᵀ` (the view stores `k × m`).
    pub fn transposed(a: H) -> Self {
        DensePack { a, trans: true }
    }

    fn dims(&self) -> (usize, usize) {
        if self.trans {
            (self.a.cols(), self.a.rows())
        } else {
            (self.a.rows(), self.a.cols())
        }
    }

    fn pack_with<E: Element>(
        &self,
        ic: usize,
        pc: usize,
        out: &mut APanel<'_, E>,
        f: impl Fn(H::Elem) -> E,
    ) {
        let (mc, kc) = (out.mc(), out.kc());
        if self.trans {
            // A stored k×m: for fixed kk the logical rows are contiguous.
            for kk in 0..kc {
                out.fill_col(kk, &self.a.row(pc + kk)[ic..ic + mc], &f);
            }
        } else {
            // A stored m×k: each logical row is contiguous in kk; whole
            // MR groups are placed together, the last partial one by row.
            let row = |r: usize| &self.a.row(ic + r)[pc..pc + kc];
            let full = mc / MR * MR;
            for r0 in (0..full).step_by(MR) {
                out.fill_rows(r0, std::array::from_fn(|i| row(r0 + i)), &f);
            }
            for r in full..mc {
                out.fill_row(r, row(r), &f);
            }
        }
    }
}

impl<H: Rows> PackSource<H::Elem> for DensePack<H> {
    fn shape(&self) -> (usize, usize) {
        self.dims()
    }

    fn pack_a(&self, alpha: f32, ic: usize, pc: usize, out: &mut APanel<'_, H::Elem>) {
        // α = 1 moves the stored elements unchanged (`1·x` is `x` in f32,
        // and for bf16 a pure u16 copy — no conversion at all); any other
        // α scales in f32 and rounds once.
        if alpha == 1.0 {
            self.pack_with(ic, pc, out, |x| x);
        } else {
            self.pack_with(ic, pc, out, |x| H::Elem::from_f32(alpha * x.to_f32()));
        }
    }
}

/// An f32 operand packed into **bf16 panels**: each element is scaled by
/// `α` and rounded once as it enters the panel, the rounding [`pack_b`]
/// applies to a B operand. A mixed-precision caller multiplies an f32
/// matrix (a gradient) against bf16 panels without a quantised copy of
/// it. Calls over an f32 `DensePack` name the panel element
/// (`gemm_source_nt_v::<Bf16, _>`), since both elements are on offer.
impl PackSource<Bf16> for DensePack<MatRef<'_>> {
    fn shape(&self) -> (usize, usize) {
        self.dims()
    }

    fn pack_a(&self, alpha: f32, ic: usize, pc: usize, out: &mut APanel<'_, Bf16>) {
        self.pack_with(ic, pc, out, |x| Bf16::from_f32(alpha * x));
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Pointer wrapper for handing disjoint C row blocks to parallel tasks.
#[derive(Clone, Copy)]
struct CPtr {
    ptr: *mut f32,
    row_stride: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: `ptr` comes from the exclusive `MatMut` the driver holds for
// the whole call, so nothing else aliases C while tasks run; tasks write
// disjoint row ranges of it (each `ic` block is owned by exactly one
// task) and never read rows they do not own. The other fields are plain
// integers.
unsafe impl Send for CPtr {}
// SAFETY: as above — sharing the wrapper only shares the right to write
// one's own row block.
unsafe impl Sync for CPtr {}

/// The blocked driver: `C = α·op(A)·op(B) + β·C` with A from a
/// [`PackSource`] and B a view stored `k × n` (or `n × k` with
/// `b_trans`). Generic over the panel element; the tiling strategy
/// (vector kernel or AMX) is resolved from the element and the
/// dispatched kernel and only changes panel layouts and the micro-tile.
fn driver<E: Element, S: PackSource<E> + ?Sized>(
    alpha: f32,
    a: &S,
    b: MatRef<'_>,
    b_trans: bool,
    beta: f32,
    mut c: MatMut<'_>,
) {
    // Logical dimensions: C is m×n, reduction length k.
    let (m, k) = a.shape();
    let (kb, n) = if b_trans {
        (b.cols(), b.rows())
    } else {
        b.shape()
    };
    assert_eq!(
        k, kb,
        "inner dimensions must match: op(A) is {m}x{k}, op(B) is {kb}x{n}"
    );
    assert_eq!(c.shape(), (m, n), "C shape mismatch");

    if m == 0 || n == 0 {
        return;
    }
    scale_c(&mut c, beta);
    if k == 0 || alpha == 0.0 {
        return;
    }

    let c_base = CPtr {
        ptr: c.as_mut_ptr(),
        row_stride: c.row_stride(),
        rows: m,
        cols: n,
    };

    // Resolve the microkernel once, on the calling thread (honouring any
    // `with_tier` override there), and carry it into the parallel tasks.
    let kern = ukernel::current_kernel();
    let tiles = E::tiles(kern);

    let ic_blocks = m.div_ceil(MC);
    for jc in (0..n).step_by(tiles.nc) {
        let nc = tiles.nc.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let kd = kc.next_multiple_of(tiles.k_align);
            let packed_cols: usize = tiles.panel_widths(nc).sum();
            E::with_scratch(packed_cols * kd, |b_pack| {
                pack_b(&tiles, b, b_trans, pc, kc, kd, jc, nc, b_pack);
                let b_pack = &*b_pack;
                (0..ic_blocks).into_par_iter().for_each(|blk| {
                    let ic = blk * MC;
                    let mc = MC.min(m - ic);
                    E::with_scratch(mc.div_ceil(tiles.tm) * tiles.tm * kd, |a_pack| {
                        let mut panel = APanel {
                            buf: &mut *a_pack,
                            mc,
                            kc,
                            ld: kd,
                            row_major: tiles.amx,
                        };
                        a.pack_a(alpha, ic, pc, &mut panel);
                        panel.zero_padding();
                        multiply_block(kern, &tiles, a_pack, b_pack, c_base, ic, mc, jc, nc, kd);
                    });
                });
            });
        }
    }
}

/// Stack tile buffer for the micro-tile output, 64-byte aligned so the
/// widest tier's stores stay within cache lines.
#[repr(align(64))]
struct AccTile([f32; ACC_LEN]);

/// `C[ic..ic+mc, jc..jc+nc] += packed_A · packed_B` for one row block:
/// both packs are sequences of sub-panels of depth `kd`, whatever their
/// inner layout — A's `tm` tall, B's as wide as
/// [`Tiles::panel_widths`] lists.
#[allow(clippy::too_many_arguments)]
fn multiply_block<E: Element>(
    kern: &Kernel,
    tiles: &Tiles,
    a_pack: &[E],
    b_pack: &[E],
    c_base: CPtr,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kd: usize,
) {
    debug_assert!(ic + mc <= c_base.rows && jc + nc <= c_base.cols);
    let tm = tiles.tm;
    // Tile buffer the micro-tile overwrites per call (row-major tm×tn).
    let mut acc_buf = AccTile([0.0f32; ACC_LEN]);
    let (mut jr, mut b_rest) = (0, b_pack);
    for tn in tiles.panel_widths(nc) {
        let (b_tile, rest) = b_rest.split_at(kd * tn);
        b_rest = rest;
        let acc = &mut acc_buf.0[..tm * tn];
        let tile_cols = tn.min(nc - jr);
        for (it, a_tile) in a_pack.chunks_exact(kd * tm).enumerate() {
            let ir = it * tm;
            let tile_rows = tm.min(mc - ir);
            E::micro_tile(kern, tiles, kd, tn, a_tile, b_tile, acc);
            // (acc now holds the full tile product for this pc panel.)
            // Store: C[ic+ir .., jc+jr ..] += acc (clipped to the edge).
            for (r, acc_row) in acc.chunks_exact(tn).enumerate().take(tile_rows) {
                // SAFETY: `ir + r < mc` and `jr + tile_cols ≤ nc`, so with
                // the block bounds asserted above the slice lies inside
                // rows [ic, ic+mc) × columns [jc, jc+nc) of C — rows this
                // task alone owns (see `CPtr`), within the view the
                // pointer was taken from.
                let c_row: &mut [f32] = unsafe {
                    std::slice::from_raw_parts_mut(
                        c_base.ptr.add((ic + ir + r) * c_base.row_stride + jc + jr),
                        tile_cols,
                    )
                };
                for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
                    *cv += *av;
                }
            }
        }
        jr += tn;
    }
}

/// Pack `B[pc..pc+kc, jc..jc+nc]` (logical orientation) for `tiles`,
/// rounding each element once ([`Element::from_f32`]) as it enters the
/// L2-resident panel. Vector strategies take column panels of the widths
/// [`Tiles::panel_widths`] lists (full tiles, the last exact-width); AMX
/// takes [`crate::amx::VNNI_W`]-column panels with k-row pairs
/// merged and depth zero-padded to `kd`, plus an all-zero panel when the
/// strip ends on a dangling half tile.
#[allow(clippy::too_many_arguments)]
fn pack_b<E: Element>(
    tiles: &Tiles,
    b: MatRef<'_>,
    b_trans: bool,
    pc: usize,
    kc: usize,
    kd: usize,
    jc: usize,
    nc: usize,
    out: &mut [E],
) {
    if !tiles.amx {
        return pack_b_panels(b, b_trans, pc, kc, jc, nc, tiles.panel_widths(nc), out);
    }
    let w = crate::amx::VNNI_W;
    let panels = nc.div_ceil(w);
    let (vnni, dangling) = out.split_at_mut(panels * kd * w);
    E::with_scratch(panels * kc * w, |lin| {
        pack_b_panels(
            b,
            b_trans,
            pc,
            kc,
            jc,
            nc,
            std::iter::repeat_n(w, panels),
            lin,
        );
        ukernel::pair_interleave_bf16_panels(lin, vnni, kc, w, kd);
    });
    dangling.fill(E::ZERO);
}

/// Pack `B[pc..pc+kc, jc..jc+nc]` into consecutive column panels of the
/// given widths: a `w`-wide panel starting at column `c0` holds
/// `panel[kk*w + j] = B[pc+kk, jc+c0+j]`, zero-padding columns past `nc`.
#[allow(clippy::too_many_arguments)]
fn pack_b_panels<E: Element>(
    b: MatRef<'_>,
    b_trans: bool,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    widths: impl Iterator<Item = usize>,
    mut out: &mut [E],
) {
    let mut c0 = 0;
    for w in widths {
        let (panel, rest) = std::mem::take(&mut out).split_at_mut(kc * w);
        out = rest;
        let cols_here = w.min(nc - c0);
        if b_trans {
            // B stored n×k: each logical column is a contiguous stored row.
            for j in 0..cols_here {
                let src = &b.row(jc + c0 + j)[pc..pc + kc];
                for (kk, &s) in src.iter().enumerate() {
                    panel[kk * w + j] = E::from_f32(s);
                }
            }
            if cols_here < w {
                for kk in 0..kc {
                    panel[kk * w + cols_here..(kk + 1) * w].fill(E::ZERO);
                }
            }
        } else {
            // B stored k×n: one contiguous run per kk.
            for (kk, dst) in panel.chunks_exact_mut(w).enumerate() {
                let src = &b.row(pc + kk)[jc + c0..jc + c0 + cols_here];
                for (d, &s) in dst[..cols_here].iter_mut().zip(src) {
                    *d = E::from_f32(s);
                }
                dst[cols_here..].fill(E::ZERO);
            }
        }
        c0 += w;
    }
    debug_assert!(out.is_empty() && c0 >= nc);
}

/// `C = β·C`, with BLAS semantics: `β = 0` overwrites even NaN garbage.
fn scale_c(c: &mut MatMut<'_>, beta: f32) {
    if beta == 1.0 {
        return;
    }
    for i in 0..c.rows() {
        let row = c.row_mut(i);
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            for x in row {
                *x *= beta;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference and baseline kernels
// ---------------------------------------------------------------------------

/// Naive triple-loop reference, used by tests as ground truth.
pub fn matmul_reference(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);
    let mut c = DMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64; // f64 accumulation for a tighter reference
            for l in 0..k {
                acc += a.get(i, l) as f64 * b.get(l, j) as f64;
            }
            c.set(i, j, acc as f32);
        }
    }
    c
}

/// The seed's unpacked k-blocked kernel (including its inner-loop
/// `aik == 0.0` skip), retained verbatim as the benchmark baseline the
/// packed kernel is measured against. Not used by training.
pub fn matmul_unpacked(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "inner dimensions must match");
    let mut c = DMatrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let a_data = a.data();
    let b_data = b.data();
    // Minimum per-task work matching the seed's PAR_GRAIN.
    let rows_per_task = ((1usize << 14) / (n * k).max(1)).clamp(1, m);
    c.data_mut()
        .par_chunks_mut(rows_per_task * n)
        .enumerate()
        .for_each(|(t, c_block)| {
            let i0 = t * rows_per_task;
            let rows_here = c_block.len() / n;
            let mut k0 = 0;
            while k0 < k {
                let k1 = (k0 + KC).min(k);
                for li in 0..rows_here {
                    let a_row = &a_data[(i0 + li) * k..(i0 + li + 1) * k];
                    let c_row = &mut c_block[li * n..(li + 1) * n];
                    for kk in k0..k1 {
                        let aik = a_row[kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let b_row = &b_data[kk * n..(kk + 1) * n];
                        for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                            *cv = bv.mul_add(aik, *cv);
                        }
                    }
                }
                k0 = k1;
            }
        });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bf16;

    fn seq(rows: usize, cols: usize, scale: f32) -> DMatrix {
        // Bounded values keep f32 accumulation error well below tolerances.
        DMatrix::from_fn(rows, cols, |i, j| {
            (((i * cols + j) % 17) as f32 * 0.05 - 0.4) * scale
        })
    }

    #[test]
    fn matmul_matches_reference() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 33), (64, 128, 32)] {
            let a = seq(m, k, 1.0);
            let b = seq(k, n, 2.0);
            let c = matmul(&a, &b);
            let r = matmul_reference(&a, &b);
            assert!(c.max_abs_diff(&r) < 1e-3, "m={m} k={k} n={n}");
        }
    }

    /// Shapes straddling every blocking boundary: MR, every tier's NR
    /// (16 / 32 / 48), KC and MC.
    #[test]
    fn matmul_matches_reference_at_block_edges() {
        let dims = [
            1,
            MR - 1,
            MR,
            MR + 1,
            15,
            17,
            31,
            33,
            47,
            49,
            MC - 1,
            MC + 1,
        ];
        for &m in &dims {
            for &n in &dims {
                for &k in &[1usize, 7, KC - 1, KC + 1] {
                    let a = seq(m, k, 0.7);
                    let b = seq(k, n, 1.1);
                    let c = matmul(&a, &b);
                    let r = matmul_reference(&a, &b);
                    assert!(c.max_abs_diff(&r) < 5e-3, "m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn tn_matches_transpose_then_multiply() {
        let a = seq(7, 5, 1.0); // k=7, m=5
        let b = seq(7, 6, 1.5);
        let c = matmul_tn(&a, &b);
        let r = matmul_reference(&a.transpose(), &b);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn nt_matches_transpose_then_multiply() {
        let a = seq(5, 7, 1.0);
        let b = seq(6, 7, 1.5); // Bᵀ is 7x6
        let c = matmul_nt(&a, &b);
        let r = matmul_reference(&a, &b.transpose());
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn alpha_beta_accumulation() {
        let a = seq(3, 3, 1.0);
        let b = DMatrix::eye(3);
        let mut c = DMatrix::filled(3, 3, 1.0);
        gemm_nn(2.0, &a, &b, 0.5, &mut c);
        // c = 2a + 0.5
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.get(i, j) - (2.0 * a.get(i, j) + 0.5)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C (BLAS semantics).
        let a = DMatrix::eye(2);
        let b = DMatrix::eye(2);
        let mut c = DMatrix::filled(2, 2, f32::NAN);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        assert!(c.all_finite());
        assert_eq!(c, DMatrix::eye(2));
    }

    #[test]
    fn identity_multiplication() {
        let a = seq(4, 4, 3.0);
        let c = matmul(&a, &DMatrix::eye(4));
        assert!(c.max_abs_diff(&a) < 1e-6);
        let c = matmul(&DMatrix::eye(4), &a);
        assert!(c.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn empty_dimensions() {
        let a = DMatrix::zeros(0, 3);
        let b = DMatrix::zeros(3, 2);
        assert_eq!(matmul(&a, &b).shape(), (0, 2));
        let a = DMatrix::zeros(2, 0);
        let b = DMatrix::zeros(0, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c, DMatrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dim_mismatch_panics() {
        matmul(&DMatrix::zeros(2, 3), &DMatrix::zeros(4, 2));
    }

    #[test]
    fn large_parallel_consistency() {
        // A result spanning multiple KC panels, MC blocks and rayon tasks
        // must match the reference.
        let a = seq(100, 300, 0.7);
        let b = seq(300, 50, 1.3);
        let c = matmul(&a, &b);
        let r = matmul_reference(&a, &b);
        assert!(c.max_abs_diff(&r) < 5e-3);
    }

    #[test]
    fn packed_matches_unpacked_seed_kernel() {
        let a = seq(65, 70, 0.9);
        let b = seq(70, 40, 1.2);
        let packed = matmul(&a, &b);
        let unpacked = matmul_unpacked(&a, &b);
        assert!(packed.max_abs_diff(&unpacked) < 1e-4);
    }

    #[test]
    fn every_tier_matches_reference_end_to_end() {
        // Spans several KC panels and MC blocks so each tier's full
        // driver path (packing, strips, edge tiles) is exercised.
        let a = seq(65, 300, 0.8);
        let b = seq(300, 70, 1.2);
        let r = matmul_reference(&a, &b);
        for tier in available_tiers() {
            let c = with_tier(tier, || matmul(&a, &b));
            assert!(c.max_abs_diff(&r) < 5e-3, "tier {}", tier.name());
        }
    }

    #[test]
    fn tiers_are_bit_identical() {
        // Every tier runs the same FMA chain per C element (see the
        // ukernel module docs), so tier choice must not change results
        // at all — not merely within tolerance.
        let a = seq(70, 260, 0.9);
        let b = seq(260, 50, 1.1);
        let reference = with_tier(Tier::Scalar, || matmul(&a, &b));
        for tier in available_tiers() {
            let c = with_tier(tier, || matmul(&a, &b));
            assert_eq!(c, reference, "tier {}", tier.name());
        }
    }

    #[test]
    fn strided_views_multiply_into_column_halves() {
        // C's two column halves written by two separate gemms must equal
        // the concatenation of the dense products.
        let h = seq(10, 6, 1.0);
        let w1 = seq(6, 4, 0.8);
        let w2 = seq(6, 4, 1.3);
        let mut c = DMatrix::filled(10, 8, f32::NAN);
        gemm_nn_v(1.0, h.view(), w1.view(), 0.0, c.view_cols_mut(0, 4));
        gemm_nn_v(1.0, h.view(), w2.view(), 0.0, c.view_cols_mut(4, 8));
        let left = matmul(&h, &w1);
        let right = matmul(&h, &w2);
        for i in 0..10 {
            for j in 0..4 {
                assert!((c.get(i, j) - left.get(i, j)).abs() < 1e-5);
                assert!((c.get(i, j + 4) - right.get(i, j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn strided_view_operands_read_column_ranges() {
        // Multiply from a column slice of a wider matrix without copying.
        let wide = seq(9, 10, 1.0);
        let b = seq(4, 5, 1.1);
        let mut c = DMatrix::zeros(9, 5);
        gemm_nn_v(1.0, wide.view_cols(3, 7), b.view(), 0.0, c.view_mut());
        // Reference: materialise the slice.
        let sliced = DMatrix::from_fn(9, 4, |i, j| wide.get(i, j + 3));
        let r = matmul_reference(&sliced, &b);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    /// A [`PackSource`] that computes `A[i,j] = f(i, j)` on the fly —
    /// exercises the producer-packed path against materialised GEMM.
    struct FnSource {
        m: usize,
        k: usize,
    }

    impl FnSource {
        fn at(&self, i: usize, j: usize) -> f32 {
            ((i * 13 + j * 5) % 23) as f32 * 0.1 - 1.0
        }

        fn materialise(&self) -> DMatrix {
            DMatrix::from_fn(self.m, self.k, |i, j| self.at(i, j))
        }
    }

    impl PackSource for FnSource {
        fn shape(&self) -> (usize, usize) {
            (self.m, self.k)
        }

        fn pack_a(&self, alpha: f32, ic: usize, pc: usize, out: &mut APanel<'_, f32>) {
            let (mc, kc) = (out.mc(), out.kc());
            for r in 0..mc {
                let row: Vec<f32> = (0..kc).map(|kk| self.at(ic + r, pc + kk)).collect();
                out.fill_row(r, &row, |x| alpha * x);
            }
        }
    }

    #[test]
    fn source_nn_matches_materialised() {
        // Shapes straddling MR/MC/KC boundaries so producer packs hit
        // edge panels too.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (9, 7, 33), (65, 257, 40)] {
            let src = FnSource { m, k };
            let b = seq(k, n, 1.1);
            let mut c = DMatrix::filled(m, n, f32::NAN);
            gemm_source_nn_v(1.0, &src, b.view(), 0.0, c.view_mut());
            let r = matmul(&src.materialise(), &b);
            assert!(c.max_abs_diff(&r) < 1e-4, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn source_nt_matches_materialised_and_accumulates() {
        let (m, k, n) = (20usize, 9usize, 12usize);
        let src = FnSource { m, k };
        let b = seq(n, k, 0.9); // stored n×k for nt
        let mut c = DMatrix::filled(m, n, 0.5);
        gemm_source_nt_v(2.0, &src, b.view(), 1.0, c.view_mut());
        let mut r = DMatrix::filled(m, n, 0.5);
        gemm_nt(2.0, &src.materialise(), &b, 1.0, &mut r);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn strided_tn_nt_match_dense() {
        let a = seq(12, 9, 1.0);
        let d = seq(12, 7, 0.9);
        // dW = Aᵀ·D via views == dense matmul_tn.
        let mut c = DMatrix::zeros(9, 7);
        gemm_tn_v(1.0, a.view(), d.view(), 0.0, c.view_mut());
        assert!(c.max_abs_diff(&matmul_tn(&a, &d)) < 1e-4);
        // dH = D·Wᵀ with W (stored n×k) read from a column range.
        let w_wide = seq(9, 12, 1.0); // take cols 2..7 as a 9×5 "W"
        let w = DMatrix::from_fn(9, 5, |i, j| w_wide.get(i, j + 2));
        let dd = seq(12, 5, 1.0);
        let mut c2 = DMatrix::zeros(12, 9);
        gemm_nt_v(1.0, dd.view(), w_wide.view_cols(2, 7), 0.0, c2.view_mut());
        assert!(c2.max_abs_diff(&matmul_nt(&dd, &w)) < 1e-4);
    }

    /// Quantise a dense matrix to its bf16 storage values.
    fn quantize_mat(m: &DMatrix) -> Vec<Bf16> {
        m.data().iter().map(|&x| Bf16::from_f32(x)).collect()
    }

    /// Exact widening of a quantised matrix back to f32 — the reference
    /// operand for bf16-path comparisons (storage rounding applied, so
    /// only accumulation-order differences remain).
    fn widen_mat(vals: &[Bf16], rows: usize, cols: usize) -> DMatrix {
        DMatrix::from_fn(rows, cols, |i, j| vals[i * cols + j].to_f32())
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

    /// `β·C₀ + α·S·op(B)` through the one driver.
    fn drive<E: Element, S: PackSource<E>>(
        alpha: f32,
        src: &S,
        b: &DMatrix,
        b_trans: bool,
        beta: f32,
        c0: &DMatrix,
    ) -> DMatrix {
        let mut c = c0.clone();
        driver(alpha, src, b.view(), b_trans, beta, c.view_mut());
        c
    }

    /// The single driver over one element: every tier × shapes
    /// straddling MR / MC / KC / every strategy's NC (1024, 1008, 512)
    /// and the AMX 32×32×32 tile grid. The dense source must match the
    /// f64 reference on the *stored* operands (storage rounding applied,
    /// so only accumulation order remains); the transposed-A source and
    /// the transposed-B pack must reproduce the dense result bit for bit
    /// (same panels, other fill direction); tiers must agree bit for bit
    /// unless the tier runs this element on the AMX unit.
    fn check_driver<E: Stored>() {
        let shapes = [
            (1usize, 1usize, 1usize),
            (7, 3, 5),
            (9, 33, 17),
            (31, 31, 31),
            (33, 65, 33),
            (63, 255, 47),
            (64, 256, 48),
            (65, 257, 49),
            (130, 300, 20),
            (33, 40, 1030),
            (70, 260, 513),
            (8, 32, 1009),
        ];
        for &(m, k, n) in &shapes {
            let a = seq(m, k, 0.8);
            let b = seq(k, n, 1.2);
            let (at, bt) = (a.transpose(), b.transpose());
            let (qa, qat) = (stored::<E>(&a), stored::<E>(&at));
            let aw = DMatrix::from_fn(m, k, |i, j| qa[i * k + j].to_f32());
            let bw = DMatrix::from_fn(k, n, |i, j| E::from_f32(b.get(i, j)).to_f32());
            let r = matmul_reference(&aw, &bw);
            let scale = r.data().iter().fold(1f32, |s, &x| s.max(x.abs()));
            let nan = DMatrix::filled(m, n, f32::NAN);
            let c0 = seq(m, n, 0.3);

            let dense_on = |tier| {
                with_tier(tier, || {
                    drive(
                        1.0,
                        &DensePack::new(E::view(&qa, m, k)),
                        &b,
                        false,
                        0.0,
                        &nan,
                    )
                })
            };
            let scalar = dense_on(Tier::Scalar);
            for tier in available_tiers() {
                let at_tier = format!("{} m={m} k={k} n={n}", tier.name());
                let dense = dense_on(tier);
                assert!(dense.max_abs_diff(&r) < 5e-3, "{at_tier}");
                if E::tiles(ukernel::kernel_for(tier)).amx {
                    assert!(dense.max_abs_diff(&scalar) <= 1e-5 * scale, "{at_tier}");
                } else {
                    assert_eq!(dense, scalar, "{at_tier}");
                }
                with_tier(tier, || {
                    let a_t = DensePack::transposed(E::view(&qat, k, m));
                    assert_eq!(drive(1.0, &a_t, &b, false, 0.0, &nan), dense, "{at_tier}");
                    let a_n = DensePack::new(E::view(&qa, m, k));
                    assert_eq!(drive(1.0, &a_n, &bt, true, 0.0, &nan), dense, "{at_tier}");
                    // α = 2 is exact in either element; β scales C first.
                    let got = drive(2.0, &a_n, &b, false, 0.5, &c0);
                    for ((g, rv), c) in got.data().iter().zip(r.data()).zip(c0.data()) {
                        assert!((g - (2.0 * rv + 0.5 * c)).abs() < 1e-2, "{at_tier}");
                    }
                });
            }
        }
    }

    #[test]
    fn driver_matches_materialised_across_elements_sources_shapes_f32() {
        check_driver::<f32>();
    }

    #[test]
    fn driver_matches_materialised_across_elements_sources_shapes_bf16() {
        check_driver::<Bf16>();
    }

    /// Both panel layouts place `(row, depth)` where their micro-tile
    /// reads it, whichever way the source fills — by row, by column, or
    /// `MR` rows at a time with the rest by row — and `zero_padding`
    /// clears exactly what was not placed. `mc` is not a multiple of
    /// `MR` and `kc` not a multiple of the 8-deep transpose block, so
    /// both the block and the element-wise tail of `fill_rows` run.
    #[test]
    fn apanel_layouts_place_rows_cols_and_padding() {
        let (mc, kc, ld) = (19usize, 13usize, 16usize);
        let val = |r: usize, kk: usize| (r * 100 + kk + 1) as f32;
        for row_major in [false, true] {
            for fill in ["row", "col", "rows"] {
                let len = if row_major {
                    mc.next_multiple_of(32) * ld
                } else {
                    mc.div_ceil(MR) * MR * kc
                };
                let mut buf = vec![f32::NAN; len];
                let mut panel = APanel {
                    buf: &mut buf,
                    mc,
                    kc,
                    ld: if row_major { ld } else { kc },
                    row_major,
                };
                let rows: Vec<Vec<f32>> = (0..mc)
                    .map(|r| (0..kc).map(|kk| val(r, kk)).collect())
                    .collect();
                match fill {
                    "col" => {
                        for kk in 0..kc {
                            let col: Vec<f32> = (0..mc).map(|r| val(r, kk)).collect();
                            panel.fill_col(kk, &col, |x| x);
                        }
                    }
                    "rows" => {
                        let full = mc / MR * MR;
                        for r0 in (0..full).step_by(MR) {
                            let group = std::array::from_fn(|i| rows[r0 + i].as_slice());
                            panel.fill_rows(r0, group, |x| x);
                        }
                        for (r, row) in rows.iter().enumerate().skip(full) {
                            panel.fill_row(r, row, |x| x);
                        }
                    }
                    _ => {
                        for (r, row) in rows.iter().enumerate() {
                            panel.fill_row(r, row, |x| x);
                        }
                    }
                }
                panel.zero_padding();
                let mut want = vec![0.0f32; len];
                for r in 0..mc {
                    for kk in 0..kc {
                        let at = if row_major {
                            r * ld + kk
                        } else {
                            (r / MR) * kc * MR + kk * MR + r % MR
                        };
                        want[at] = val(r, kk);
                    }
                }
                assert_eq!(buf, want, "row_major={row_major} fill={fill}");
            }
        }
    }

    /// Exact-width tails: for every tier, both panel elements and all
    /// three layouts, a GEMM with `n` columns equals, bit for bit, the
    /// first `n` columns of the same GEMM with B zero-padded to a multiple
    /// of the tier's full tile width — the narrow last panel runs the
    /// very FMA chains the padded full-width tile does.
    fn check_tails<E: Stored>() {
        let (m, k) = (21usize, 300usize);
        let a = seq(m, k, 0.8);
        let (qa, qat) = (stored::<E>(&a), stored::<E>(&a.transpose()));
        for tier in available_tiers() {
            let tn = E::tiles(ukernel::kernel_for(tier)).tn();
            for n in [
                1usize, 8, 15, 16, 17, 31, 32, 33, 41, 47, 48, 49, 64, 100, 128,
            ] {
                let np = n.next_multiple_of(tn);
                let b = seq(k, n, 1.2);
                let bp = DMatrix::from_fn(k, np, |i, j| if j < n { b.get(i, j) } else { 0.0 });
                let clip = |c: DMatrix| DMatrix::from_fn(m, n, |i, j| c.get(i, j));
                with_tier(tier, || {
                    let at_tier = format!("{} n={n} (padded {np})", tier.name());
                    let a_n = DensePack::new(E::view(&qa, m, k));
                    let a_t = DensePack::transposed(E::view(&qat, k, m));
                    let (nan, nan_p) = (
                        DMatrix::filled(m, n, f32::NAN),
                        DMatrix::filled(m, np, f32::NAN),
                    );
                    let run = |layout: &str, b: &DMatrix, c0: &DMatrix| match layout {
                        "nn" => drive(1.0, &a_n, b, false, 0.0, c0),
                        "tn" => drive(1.0, &a_t, b, false, 0.0, c0),
                        _ => drive(1.0, &a_n, &b.transpose(), true, 0.0, c0),
                    };
                    for layout in ["nn", "tn", "nt"] {
                        let (got, padded) = (run(layout, &b, &nan), run(layout, &bp, &nan_p));
                        assert_eq!(got, clip(padded), "{layout} {at_tier}");
                    }
                });
            }
        }
    }

    #[test]
    fn exact_width_tails_match_zero_padded_b_f32() {
        check_tails::<f32>();
    }

    #[test]
    fn exact_width_tails_match_zero_padded_b_bf16() {
        check_tails::<Bf16>();
    }

    #[test]
    fn bf16_tiers_are_bit_identical() {
        // Every vector tier's bf16 microkernel runs the same f32 FMA
        // chain per C element over the same bf16 panels, so tier choice
        // must not change bf16 results at all (mirrors
        // `tiers_are_bit_identical`). Only a tier running bf16 on the AMX
        // tile unit — which sums each 32-product group before joining
        // the chain — is banded against the widen result instead: pure
        // f32 accumulation-order noise, orders of magnitude below the
        // bf16 input rounding.
        let a = seq(70, 260, 0.9);
        let b = seq(260, 50, 1.1);
        let qa = quantize_mat(&a);
        let run = |tier| {
            with_tier(tier, || {
                let mut c = DMatrix::zeros(70, 50);
                gemm_bf16_nn_v(
                    1.0,
                    Bf16MatRef::new(&qa, 70, 260),
                    b.view(),
                    0.0,
                    c.view_mut(),
                );
                c
            })
        };
        let reference = run(Tier::Scalar);
        let scale = reference.data().iter().fold(0f32, |s, &x| s.max(x.abs()));
        for tier in available_tiers() {
            let got = run(tier);
            if tier == Tier::Amx {
                assert!(
                    got.max_abs_diff(&reference) <= 1e-5 * scale.max(1.0),
                    "AMX tier {} outside accumulation band",
                    tier.name()
                );
            } else {
                assert_eq!(got, reference, "tier {}", tier.name());
            }
        }
    }

    /// An f32 operand packed into bf16 panels is the operand quantised
    /// first, bit for bit, in either orientation and at any α that is a
    /// power of two — one rounding at pack time, on every engine.
    #[test]
    fn f32_operand_on_bf16_panels_matches_its_quantised_copy() {
        for &(m, k, n) in &[(7usize, 3usize, 5usize), (65, 257, 49), (33, 40, 70)] {
            let a = seq(m, k, 0.8);
            let at = a.transpose();
            let b = seq(k, n, 1.2);
            let (qa, qat) = (quantize_mat(&a), quantize_mat(&at));
            let nan = DMatrix::filled(m, n, f32::NAN);
            for tier in available_tiers() {
                with_tier(tier, || {
                    let at_tier = format!("{} m={m} k={k} n={n}", tier.name());
                    let want = drive(
                        1.0,
                        &DensePack::new(Bf16MatRef::new(&qa, m, k)),
                        &b,
                        false,
                        0.0,
                        &nan,
                    );
                    let rounded = |src: &DensePack<MatRef<'_>>, alpha| {
                        let mut c = nan.clone();
                        driver::<Bf16, _>(alpha, src, b.view(), false, 0.0, c.view_mut());
                        c
                    };
                    assert_eq!(rounded(&DensePack::new(a.view()), 1.0), want, "{at_tier}");
                    assert_eq!(
                        rounded(&DensePack::transposed(at.view()), 1.0),
                        want,
                        "{at_tier}"
                    );
                    let q_t = DensePack::transposed(Bf16MatRef::new(&qat, k, m));
                    assert_eq!(drive(1.0, &q_t, &b, false, 0.0, &nan), want, "{at_tier}");
                    let twice = drive(
                        2.0,
                        &DensePack::new(Bf16MatRef::new(&qa, m, k)),
                        &b,
                        false,
                        0.0,
                        &nan,
                    );
                    assert_eq!(
                        rounded(&DensePack::new(a.view()), 2.0),
                        twice,
                        "{at_tier} α=2"
                    );
                });
            }
        }
    }

    #[test]
    fn bf16_alpha_beta_accumulation() {
        // α ≠ 1 widens, scales and re-rounds the stored A exactly once;
        // β scales C first. Build the same double-rounded operand for
        // the reference.
        let (m, k, n) = (9usize, 20usize, 12usize);
        let a = seq(m, k, 1.0);
        let b = seq(k, n, 0.9);
        let qa = quantize_mat(&a);
        let qb = quantize_mat(&b);
        let a2 = DMatrix::from_fn(m, k, |i, j| {
            Bf16::from_f32(2.0 * qa[i * k + j].to_f32()).to_f32()
        });
        let mut r = matmul_reference(&a2, &widen_mat(&qb, k, n));
        let c0 = seq(m, n, 0.3);
        for i in 0..m {
            for j in 0..n {
                r.set(i, j, r.get(i, j) + 0.5 * c0.get(i, j));
            }
        }
        let mut c = c0.clone();
        gemm_bf16_nn_v(2.0, Bf16MatRef::new(&qa, m, k), b.view(), 0.5, c.view_mut());
        assert!(c.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn bf16_result_within_tolerance_of_f32_path() {
        // End-to-end band check: bf16 storage vs the pure-f32 GEMM on
        // the *unquantised* operands stays inside the composed
        // `rel_tolerance` model for depth 1.
        let (m, k, n) = (64usize, 300usize, 48usize);
        let a = seq(m, k, 0.8);
        let b = seq(k, n, 1.2);
        let qa = quantize_mat(&a);
        let f32_c = matmul(&a, &b);
        let mut c = DMatrix::zeros(m, n);
        gemm_bf16_nn_v(1.0, Bf16MatRef::new(&qa, m, k), b.view(), 0.0, c.view_mut());
        let tol = crate::precision::rel_tolerance(crate::Precision::Bf16, 1, k);
        let scale = f32_c.data().iter().fold(0f32, |s, &x| s.max(x.abs()));
        assert!(scale > 0.0);
        for (cv, rv) in c.data().iter().zip(f32_c.data()) {
            assert!(
                (cv - rv).abs() <= tol * scale,
                "bf16 {cv} vs f32 {rv} outside band {tol}"
            );
        }
    }
}
