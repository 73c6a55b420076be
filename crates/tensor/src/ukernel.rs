//! SIMD microkernel tiers and their runtime dispatch.
//!
//! The packed GEMM in [`crate::gemm`] does all of its arithmetic inside an
//! `MR×NR` register-tile microkernel. This module provides that microkernel
//! at four tiers and picks one **at runtime**:
//!
//! | tier     | widths NR     | ISA            | implementation                          |
//! |----------|---------------|----------------|-----------------------------------------|
//! | `amx`    | as `avx512`; 32 for bf16 | AVX-512F + AMX-BF16 | the `avx512` f32 kernel; bf16 panels on the AMX tile unit (see below) |
//! | `avx512` | 16 / 32 / 48  | AVX-512F       | `_mm512_fmadd_ps`, 8×{1,2,3} zmm accumulators |
//! | `avx2`   | 8 / 16        | AVX2 + FMA     | `_mm256_fmadd_ps`, 8 ymm accumulators per pass (one 8×1 pass, or two 4×2 half-tiles) |
//! | `scalar` | 8 / 16 / 24 / 32 | any         | virtual-vector form, LLVM autovectorised |
//!
//! All tiers share the A-panel layout (`MR`-interleaved, [`MR`] is fixed at
//! 8 so [`crate::gemm::PackSource`] producers are tier-agnostic), but each
//! sizes its own B-panel width `NR` to its register file: its widest tile
//! is wide enough that the FMA ports, not the load ports, are the
//! bottleneck, while the accumulator tile plus the B vectors still fit
//! the architectural registers without spills.
//!
//! # Exact-width tails
//!
//! Each tier's kernel is **one body, generic over its width in vectors**
//! (`NV`), instantiated once per width the table lists; the widest
//! instance is the full register tile. A GEMM whose `n` is not a multiple
//! of the full width would otherwise multiply zero padding in its last B
//! panel of every strip (yelp's 32- / 64- / 100-column layers spend 50 /
//! 50 / 44 % of the AVX-512 FMAs on it), so the driver packs and runs that
//! last panel at the **narrowest width that covers it** ([`Tiles::width_for`]).
//! A narrower instance issues, for every real column, the very FMAs the
//! wide one does, in the same order.
//!
//! # Dispatch
//!
//! The process-wide default tier is the best one the CPU supports
//! ([`best_available_tier`]: `is_x86_feature_detected!`, and for `amx`
//! the CPUID bits plus the tile-data permission), unless a binary pinned
//! another with [`pin_default_tier`] before its first GEMM. The library
//! reads no environment; the pin is the one channel that reaches pool,
//! engine and sampler threads.
//!
//! [`with_tier`] overrides the tier for the current thread for the duration
//! of a closure; the GEMM driver reads the selection on the *calling*
//! thread and carries the resolved [`Kernel`] into its parallel tasks, so
//! the override composes with thread pools as long as it wraps the GEMM
//! call itself. Tests use this to run every available tier in one process.
//!
//! # Numerical equivalence
//!
//! Every tier computes each C element as the same sequence of fused
//! multiply-adds over `kc` (one chain per element, `pc`-major), at every
//! width, so tiers agree to the last bit on the same input — pinned bit
//! for bit by `tiers_are_bit_identical` in `gemm.rs` and the
//! tier-equivalence proptests in `tests/proptest_packed_gemm.rs`.
//!
//! # Precision tiers
//!
//! Each dispatch-table row carries **two** entry points per width over the
//! same `MR×NR` tile geometry — the same body instantiated for f32 panels
//! (`ukr`) and for bf16 panels (`ukr_bf16`), which reads `u16` A/B panels,
//! widens them in registers (bf16 → f32 is a 16-bit left shift:
//! `_mm512_slli_epi32` / `_mm256_slli_epi32` after a zero-extending
//! `cvtepu16` load; the scalar tier shifts in plain code) and accumulates
//! in f32. Panels stay
//! `MR`-interleaved with identical indices, only the element width
//! halves — which is why the blocked driver in [`crate::gemm`] is one
//! loop nest generic over the panel [`Element`]: the element supplies
//! its scratch pool, its rounding and its microkernel entry
//! ([`Kernel::run`] / [`Kernel::run_bf16`]), everything else is shared.
//! Accumulation never narrows: each C element is one f32 FMA chain over
//! `kc` in every tier, so within one precision **all vector tiers agree
//! bit for bit**, and bf16 differs from f32 only by the input rounding —
//! |q(x)−x| ≤ 2⁻⁸·|x| per element (see the determinism table in
//! `gemm.rs`).
//!
//! ## The AMX tile strategy
//!
//! The widen kernels only halve panel *bytes*; they issue the same FMAs
//! as f32. The one unit on current parts where bf16 buys compute is the
//! AMX tile multiplier ([`crate::amx`]), so at the `amx` tier
//! [`Element::tiles`] hands the driver a different [`Tiles`] strategy
//! for bf16 panels: row-major A blocks, 16-column k-pair-interleaved
//! (VNNI) B panels ([`pair_interleave_bf16_panels`]), depth padded to 32
//! and a 32×32 micro-tile run by `tdpbf16ps`. It is a layout + micro-tile
//! choice of the same driver, not another loop nest; f32 panels at the
//! `amx` tier run the `avx512` kernel. `tdpbf16ps` sums each 32-product
//! group before joining the f32 chain, so AMX results are
//! tolerance-banded against the widen kernels; [`bf16_engine`] names
//! the unit a tier's bf16 panels run on (`amx` or `widen`), and the
//! `avx512` tier keeps them on the widen kernel.
//!
//! There is deliberately no AVX512-BF16 `vdpbf16ps` vector kernel: it
//! issues on one port where the f32 FMA issues on two (measured slower
//! than both the f32 and the widen kernel on the GCN layer shape), and
//! its pairwise accumulation would break the cross-tier bit-identity
//! above.

use crate::bf16::{self, Bf16};
use crate::{amx, scratch};
use std::cell::Cell;
use std::sync::OnceLock;

/// Microkernel tile height (rows of C per register tile). Fixed across
/// tiers: the packed A-panel layout (and therefore every
/// [`crate::gemm::PackSource`] implementation) interleaves rows in groups
/// of `MR`.
pub const MR: usize = 8;

/// Upper bound on `tm·tn` over every [`Tiles`] strategy — sizes the
/// driver's stack accumulator (the AMX 32×32 micro-tile is the largest).
pub const ACC_LEN: usize = amx::TILE_M * amx::TILE_N;

/// Micro-tile widths per tier, ascending: one body instantiated at one,
/// two, … vectors of its lane width (see "Exact-width tails" above). The
/// last entry is the tier's full register tile.
const SCALAR_WIDTHS: [usize; 4] = [LANES, 2 * LANES, 3 * LANES, 4 * LANES];
#[cfg(target_arch = "x86_64")]
const AVX2_WIDTHS: [usize; 2] = [8, 16];
#[cfg(target_arch = "x86_64")]
const AVX512_WIDTHS: [usize; 3] = [16, 32, 48];

/// How many `kk` iterations ahead the explicit tiers prefetch the A
/// panel, in rows of `MR` f32 (8 rows × 32 B = two cache lines ahead).
/// The A panel is read once per tile at stride `MR·4 = 32` B — too sparse
/// a footprint for the L2 streamer to reliably run ahead of the FMA
/// chain, so the kernel issues the touch itself. Prefetching past the
/// panel's end is benign (`prefetch` never faults), so the loop needs no
/// tail guard — but the address is formed with `wrapping_add`, because
/// `add` may not leave the panel's allocation even without a dereference.
#[cfg(target_arch = "x86_64")]
const A_PF_DIST: usize = 8;

/// A microkernel tier. Order is ascending preference for auto-selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable fallback: fixed-lane virtual vectors that LLVM collapses
    /// to whatever SIMD the target has. Correct everywhere; fast only when
    /// the autovectoriser cooperates.
    Scalar,
    /// Explicit AVX2+FMA kernel (`ymm`, 8 f32 lanes).
    Avx2,
    /// Explicit AVX-512F kernel (`zmm`, 16 f32 lanes).
    Avx512,
    /// The AVX-512F kernel for f32 panels and the AMX tile unit for bf16
    /// panels (see "The AMX tile strategy" above).
    Amx,
}

/// All tiers, in ascending preference order.
pub const ALL_TIERS: [Tier; 4] = [Tier::Scalar, Tier::Avx2, Tier::Avx512, Tier::Amx];

impl Tier {
    /// The tier's `GSGCN_KERNEL` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
            Tier::Amx => "amx",
        }
    }

    /// Parse a `GSGCN_KERNEL` value (case-insensitive). `auto` is handled
    /// by the caller; this returns `None` for it and any unknown value.
    pub fn parse(s: &str) -> Option<Tier> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Tier::Scalar),
            "avx2" => Some(Tier::Avx2),
            "avx512" => Some(Tier::Avx512),
            "amx" => Some(Tier::Amx),
            _ => None,
        }
    }

    /// Whether this CPU can run the tier.
    pub fn is_available(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Tier::Amx => Tier::Avx512.is_available() && amx::bf16_ready(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// `acc[r·nr + j] = Σ_kk a[kk·MR + r] · b[kk·nr + j]` (acc overwritten).
type MicroKernelFn = unsafe fn(kc: usize, a: *const f32, b: *const f32, acc: *mut f32);

/// Same tile product over **bf16 panels**: `a`/`b` hold bf16 bit
/// patterns, widened in registers; `acc` stays f32 (see the module docs'
/// precision section).
type MicroKernelBf16Fn = unsafe fn(kc: usize, a: *const u16, b: *const u16, acc: *mut f32);

/// A resolved microkernel: the tier's tile widths plus one entry point
/// per width and panel element. Obtained from the dispatch table
/// ([`current_kernel`]); never constructed for a tier the CPU cannot run.
pub struct Kernel {
    /// Which tier this is.
    pub tier: Tier,
    /// Micro-tile widths (columns of C per register tile, the B-panel
    /// interleave width), ascending; the last is the full tile.
    pub widths: &'static [usize],
    /// Columns of C per outer GEMM strip: a multiple of the full width
    /// keeping `KC×nc` packed B around 1 MiB (L2-resident).
    pub nc: usize,
    /// `ukr[i]` / `ukr_bf16[i]` run tiles of width `widths[i]`.
    ukr: &'static [MicroKernelFn],
    ukr_bf16: &'static [MicroKernelBf16Fn],
}

impl Kernel {
    /// The table slot of width `nr`.
    ///
    /// # Panics
    /// Panics if the tier offers no `nr`-wide tile.
    #[inline]
    fn slot(&self, nr: usize) -> usize {
        self.widths
            .iter()
            .position(|&w| w == nr)
            .unwrap_or_else(|| panic!("tier `{}` has no {nr}-wide tile", self.tier.name()))
    }

    /// Run the `nr`-wide microkernel over packed panels: `acc[r·nr+j]` is
    /// **overwritten** (not accumulated) with the `MR×nr` tile product.
    #[inline]
    pub(crate) fn run(
        &self,
        kc: usize,
        nr: usize,
        a_panel: &[f32],
        b_panel: &[f32],
        acc: &mut [f32],
    ) {
        let slot = self.slot(nr);
        assert_eq!(a_panel.len(), kc * MR);
        assert_eq!(b_panel.len(), kc * nr);
        assert!(acc.len() >= MR * nr);
        // SAFETY: panel/acc bounds checked above for the slot's width; the
        // function pointer is only ever one whose ISA was verified
        // available (`kernel_for` guards the table).
        unsafe { (self.ukr[slot])(kc, a_panel.as_ptr(), b_panel.as_ptr(), acc.as_mut_ptr()) }
    }

    /// Run the `nr`-wide bf16-panel microkernel (f32 accumulate): same
    /// contract as [`Kernel::run`] with `u16` bf16 bit-pattern panels.
    #[inline]
    pub(crate) fn run_bf16(
        &self,
        kc: usize,
        nr: usize,
        a_panel: &[u16],
        b_panel: &[u16],
        acc: &mut [f32],
    ) {
        let slot = self.slot(nr);
        assert_eq!(a_panel.len(), kc * MR);
        assert_eq!(b_panel.len(), kc * nr);
        assert!(acc.len() >= MR * nr);
        // SAFETY: as in `run` — bounds checked, ISA availability
        // guaranteed by the dispatch table.
        unsafe { (self.ukr_bf16[slot])(kc, a_panel.as_ptr(), b_panel.as_ptr(), acc.as_mut_ptr()) }
    }
}

/// How the blocked driver tiles one packed block for a panel element on
/// a kernel tier: the micro-tile extent, the C strip width, the depth
/// padding, and which unit runs the micro-tile. Resolved once per GEMM
/// by [`Element::tiles`] from the dispatched kernel tier.
#[derive(Clone, Copy, Debug)]
pub struct Tiles {
    /// Rows of C per micro-tile — the height of one packed A sub-panel.
    pub tm: usize,
    /// Micro-tile widths the strategy offers, ascending: columns of C per
    /// micro-tile, the width of one packed B sub-panel. The last is the
    /// full tile ([`Tiles::tn`]); the others only ever run the last panel
    /// of a strip ([`Tiles::width_for`]).
    pub widths: &'static [usize],
    /// Columns of C per packed-B strip (a multiple of the full width,
    /// sized so the strip's panels stay L2-resident).
    pub nc: usize,
    /// Packed panels are zero-padded in depth to a multiple of this.
    pub k_align: usize,
    /// The AMX tile strategy: A blocks are packed row-major and B in
    /// [`amx::VNNI_W`]-column k-pair-interleaved panels, and the
    /// micro-tile is [`amx::tile_kernel_32x32`]. Otherwise both operands
    /// are packed `tm`/`tn`-interleaved for the tier's vector kernel.
    pub amx: bool,
}

impl Tiles {
    /// The vector-kernel strategy of `kern`: `MR × nr` register tiles at
    /// each of the tier's widths over interleaved panels, no depth padding.
    fn vector(kern: &Kernel) -> Tiles {
        Tiles {
            tm: MR,
            widths: kern.widths,
            nc: kern.nc,
            k_align: 1,
            amx: false,
        }
    }

    /// The full micro-tile width — every packed B panel but a strip's
    /// last is this wide.
    pub fn tn(&self) -> usize {
        self.widths[self.widths.len() - 1]
    }

    /// The narrowest offered width covering `cols` columns (the full
    /// width when `cols` exceeds it).
    pub fn width_for(&self, cols: usize) -> usize {
        self.widths
            .iter()
            .copied()
            .find(|&w| w >= cols)
            .unwrap_or_else(|| self.tn())
    }

    /// Widths of the packed B panels of an `nc`-column strip, left to
    /// right: full tiles, then the remainder at [`Tiles::width_for`].
    pub fn panel_widths(&self, nc: usize) -> impl Iterator<Item = usize> {
        let tn = self.tn();
        let tail = nc % tn;
        std::iter::repeat_n(tn, nc / tn).chain((tail > 0).then(|| self.width_for(tail)))
    }
}

/// The AMX strategy: 32×32×32 bricks — one width only, the tile unit's;
/// a 512-column strip keeps the packed B panels (`512 · KC · 2` B =
/// 256 KiB) L2-resident.
const AMX_TILES: Tiles = Tiles {
    tm: amx::TILE_M,
    widths: &[amx::TILE_N],
    nc: 512,
    k_align: amx::TILE_K,
    amx: true,
};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for crate::bf16::Bf16 {}
}

/// A packed-panel element: `f32` or [`Bf16`]. The blocked driver in
/// [`crate::gemm`] is one loop nest generic over this trait — the
/// element supplies its scratch pool, its rounding from the f32 values a
/// producer computes, and its micro-tile entry; accumulation and C are
/// f32 for both.
pub trait Element:
    Copy + PartialEq + std::fmt::Debug + Send + Sync + sealed::Sealed + 'static
{
    /// Positive zero (panel padding).
    const ZERO: Self;

    /// Round an f32 into the panel (identity for `f32`, round-to-nearest-
    /// even for bf16). Producers apply `α` and any normalisation *before*
    /// this, so a stored panel element carries exactly one rounding.
    fn from_f32(x: f32) -> Self;

    /// Exact widening to f32.
    fn to_f32(self) -> f32;

    /// Run `f` with this thread's pooled scratch of `len` elements
    /// (unspecified contents, 64-byte aligned — see [`crate::scratch`]).
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;

    /// The tiling strategy panels of this element take under `kern`.
    fn tiles(kern: &Kernel) -> Tiles;

    /// Store an `MR × 8` block transposed: `out[j·MR + r] = block[r][j]` —
    /// eight consecutive depth steps of `MR` rows in the interleaved panel
    /// layout, as [`crate::gemm::APanel::fill_rows`] places them.
    fn store_transposed(block: &[[Self; 8]; MR], out: &mut [Self; 8 * MR]);

    /// Overwrite `acc[r·tn + j]` (`tm × tn`, row-major) with the product
    /// of one packed A sub-panel and one `tn`-wide packed B sub-panel
    /// (`tn` one of `tiles.widths`) of depth `kd` (the padded `kc`), both
    /// laid out as `tiles` prescribes.
    fn micro_tile(
        kern: &Kernel,
        tiles: &Tiles,
        kd: usize,
        tn: usize,
        a: &[Self],
        b: &[Self],
        acc: &mut [f32],
    );
}

impl Element for f32 {
    const ZERO: f32 = 0.0;

    #[inline(always)]
    fn from_f32(x: f32) -> f32 {
        x
    }

    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }

    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        scratch::with_buf(len, f)
    }

    fn tiles(kern: &Kernel) -> Tiles {
        Tiles::vector(kern)
    }

    #[inline]
    fn store_transposed(block: &[[f32; 8]; MR], out: &mut [f32; 8 * MR]) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
        {
            // SAFETY: the build enables AVX; `block` and `out` are 64
            // floats each, which is all the transpose touches.
            unsafe { transpose_8x8_avx(block, out) }
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
        transpose_8x8(block, out)
    }

    #[inline]
    fn micro_tile(
        kern: &Kernel,
        _: &Tiles,
        kd: usize,
        tn: usize,
        a: &[f32],
        b: &[f32],
        acc: &mut [f32],
    ) {
        kern.run(kd, tn, a, b, acc);
    }
}

impl Element for Bf16 {
    const ZERO: Bf16 = Bf16::ZERO;

    #[inline(always)]
    fn from_f32(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    #[inline(always)]
    fn to_f32(self) -> f32 {
        Bf16::to_f32(self)
    }

    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Bf16]) -> R) -> R {
        scratch::with_buf_u16(len, |bits| f(bf16::from_bits_slice_mut(bits)))
    }

    fn tiles(kern: &Kernel) -> Tiles {
        if kern.tier == Tier::Amx {
            AMX_TILES
        } else {
            Tiles::vector(kern)
        }
    }

    #[inline]
    fn store_transposed(block: &[[Bf16; 8]; MR], out: &mut [Bf16; 8 * MR]) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: SSE2 is part of the x86_64 baseline; `block` and
            // `out` are 64 bf16 each, which is all the transpose touches.
            unsafe { transpose_8x8_sse2(block, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        transpose_8x8(block, out)
    }

    #[inline]
    fn micro_tile(
        kern: &Kernel,
        tiles: &Tiles,
        kd: usize,
        tn: usize,
        a: &[Bf16],
        b: &[Bf16],
        acc: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if tiles.amx {
            assert!(kd > 0 && kd.is_multiple_of(amx::TILE_K));
            assert_eq!(tn, amx::TILE_N);
            assert_eq!(a.len(), amx::TILE_M * kd);
            assert_eq!(b.len(), amx::TILE_N * kd);
            assert!(acc.len() >= amx::TILE_M * amx::TILE_N);
            amx::ensure_thread_configured();
            let (a, b) = (bf16::to_bits_slice(a), bf16::to_bits_slice(b));
            // SAFETY: `tiles.amx` is only ever set by `Bf16::tiles` for the
            // amx tier, whose kernel `kernel_for` hands out only where
            // `amx::bf16_ready()` holds, and this thread's palette was loaded
            // just above. `a` is 32 rows of `kd` elements (row stride
            // `2·kd` bytes), `b` is two consecutive VNNI panels of
            // `kd·VNNI_W` elements each, `acc` holds 32×32 f32 — all
            // checked above.
            unsafe {
                amx::tile_kernel_32x32(
                    kd / amx::TILE_K,
                    a.as_ptr(),
                    kd * 2,
                    b.as_ptr(),
                    b[kd * amx::VNNI_W..].as_ptr(),
                    acc.as_mut_ptr(),
                );
            }
            return;
        }
        let _ = tiles;
        kern.run_bf16(kd, tn, bf16::to_bits_slice(a), bf16::to_bits_slice(b), acc);
    }
}

/// Portable `out[j·MR + r] = block[r][j]`.
#[cfg(any(not(target_arch = "x86_64"), not(target_feature = "avx"), test))]
#[inline]
fn transpose_8x8<E: Copy>(block: &[[E; 8]; MR], out: &mut [E; 8 * MR]) {
    for (j, run) in out.chunks_exact_mut(MR).enumerate() {
        for (d, row) in run.iter_mut().zip(block) {
            *d = row[j];
        }
    }
}

/// The 8×8 f32 transpose in eight `ymm` registers: two rounds of
/// in-lane unpack / shuffle and one cross-lane `vperm2f128` round —
/// 24 shuffles, 8 loads and 8 full-width stores per 64 elements.
///
/// # Safety
/// AVX must be available.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline]
unsafe fn transpose_8x8_avx(block: &[[f32; 8]; MR], out: &mut [f32; 8 * MR]) {
    use std::arch::x86_64::*;
    // SAFETY (whole body): each load reads one 8-float row of `block`,
    // each store writes one 8-float run of `out`.
    let r: [__m256; MR] = std::array::from_fn(|i| _mm256_loadu_ps(block[i].as_ptr()));
    // Row pairs interleaved: t[2i] = (r0_0 r1_0 r0_1 r1_1 | r0_4 r1_4 …).
    let t: [__m256; MR] = std::array::from_fn(|i| {
        let (x, y) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
        if i % 2 == 0 {
            _mm256_unpacklo_ps(x, y)
        } else {
            _mm256_unpackhi_ps(x, y)
        }
    });
    // Four rows per column: s[c] (c < 4) holds rows 0–3 of columns c and
    // c + 4, s[c + 4] rows 4–7.
    let quad = |x: __m256, y: __m256, hi: bool| {
        if hi {
            _mm256_shuffle_ps::<0xEE>(x, y)
        } else {
            _mm256_shuffle_ps::<0x44>(x, y)
        }
    };
    let s = [
        quad(t[0], t[2], false),
        quad(t[0], t[2], true),
        quad(t[1], t[3], false),
        quad(t[1], t[3], true),
        quad(t[4], t[6], false),
        quad(t[4], t[6], true),
        quad(t[5], t[7], false),
        quad(t[5], t[7], true),
    ];
    let p = out.as_mut_ptr();
    for c in 0..4 {
        _mm256_storeu_ps(
            p.add(c * MR),
            _mm256_permute2f128_ps::<0x20>(s[c], s[c + 4]),
        );
        _mm256_storeu_ps(
            p.add((c + 4) * MR),
            _mm256_permute2f128_ps::<0x31>(s[c], s[c + 4]),
        );
    }
}

/// The 8×8 16-bit transpose in eight `xmm` registers: unpack rounds at
/// 16, 32 and 64 bits — 24 shuffles per 64 elements.
///
/// # Safety
/// SSE2 must be available (it is on every x86_64).
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn transpose_8x8_sse2(block: &[[Bf16; 8]; MR], out: &mut [Bf16; 8 * MR]) {
    use std::arch::x86_64::*;
    // SAFETY (whole body): each load reads one 16-byte row of `block`,
    // each store writes one 16-byte run of `out`.
    let r: [__m128i; MR] =
        std::array::from_fn(|i| _mm_loadu_si128(block[i].as_ptr() as *const __m128i));
    let a: [__m128i; MR] = std::array::from_fn(|i| {
        let (x, y) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
        if i % 2 == 0 {
            _mm_unpacklo_epi16(x, y)
        } else {
            _mm_unpackhi_epi16(x, y)
        }
    });
    // b[0..4]: rows 0–3 of columns (0,1), (2,3), (4,5), (6,7); b[4..]: rows 4–7.
    let b: [__m128i; MR] = std::array::from_fn(|i| {
        let base = i / 4 * 4;
        let (x, y) = (a[base + (i % 4) / 2], a[base + 2 + (i % 4) / 2]);
        if i % 2 == 0 {
            _mm_unpacklo_epi32(x, y)
        } else {
            _mm_unpackhi_epi32(x, y)
        }
    });
    let p = out.as_mut_ptr() as *mut __m128i;
    for c in 0..4 {
        _mm_storeu_si128(p.add(2 * c), _mm_unpacklo_epi64(b[c], b[c + 4]));
        _mm_storeu_si128(p.add(2 * c + 1), _mm_unpackhi_epi64(b[c], b[c + 4]));
    }
}

/// Merge consecutive k-rows of packed panels into adjacent pairs — the
/// VNNI layout `tdpbf16ps` reads its B operand in. `src` holds panels of
/// `kc` rows × `w` interleaved elements (the standard pack layout);
/// `dst` receives the same panels with row pairs merged —
/// `dst[t·2w + 2j + s] = src[(2t+s)·w + j]` — zero-padded to `rows`
/// logical rows (`rows ≥ kc`, even). `dst` must hold `panels · rows · w`
/// elements.
pub(crate) fn pair_interleave_bf16_panels<E: Element>(
    src: &[E],
    dst: &mut [E],
    kc: usize,
    w: usize,
    rows: usize,
) {
    debug_assert!(rows >= kc && rows.is_multiple_of(2));
    let panels = src.len() / (kc * w);
    debug_assert_eq!(src.len(), panels * kc * w);
    debug_assert_eq!(dst.len(), panels * rows * w);
    for (s, d) in src.chunks_exact(kc * w).zip(dst.chunks_exact_mut(rows * w)) {
        for t in 0..kc / 2 {
            let r0 = &s[2 * t * w..][..w];
            let r1 = &s[(2 * t + 1) * w..][..w];
            let out = &mut d[2 * t * w..][..2 * w];
            for j in 0..w {
                out[2 * j] = r0[j];
                out[2 * j + 1] = r1[j];
            }
        }
        if kc % 2 == 1 {
            let r0 = &s[(kc - 1) * w..][..w];
            let out = &mut d[(kc - 1) * w..][..2 * w];
            for j in 0..w {
                out[2 * j] = r0[j];
                out[2 * j + 1] = E::ZERO;
            }
        }
        d[kc.next_multiple_of(2) * w..].fill(E::ZERO);
    }
}

/// Short name of the unit `tier`'s bf16 panels run on: `amx` (the tile
/// unit, at the amx tier) or `widen` (register widening over
/// the f32 FMA pipe). For banners and bench attributions.
pub fn bf16_engine(tier: Tier) -> &'static str {
    if tier == Tier::Amx {
        "amx"
    } else {
        "widen"
    }
}

static SCALAR_KERNEL: Kernel = Kernel {
    tier: Tier::Scalar,
    widths: &SCALAR_WIDTHS,
    nc: 1024,
    ukr: &[
        ukr_scalar::<f32, 1>,
        ukr_scalar::<f32, 2>,
        ukr_scalar::<f32, 3>,
        ukr_scalar::<f32, 4>,
    ],
    ukr_bf16: &[
        ukr_scalar::<u16, 1>,
        ukr_scalar::<u16, 2>,
        ukr_scalar::<u16, 3>,
        ukr_scalar::<u16, 4>,
    ],
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: Kernel = Kernel {
    tier: Tier::Avx2,
    widths: &AVX2_WIDTHS,
    nc: 1024,
    ukr: &[ukr_avx2::<f32, 1>, ukr_avx2::<f32, 2>],
    ukr_bf16: &[ukr_avx2::<u16, 1>, ukr_avx2::<u16, 2>],
};

/// Also the amx tier's row: its f32 panels run these kernels.
#[cfg(target_arch = "x86_64")]
const AVX512_KERNEL: Kernel = Kernel {
    tier: Tier::Avx512,
    widths: &AVX512_WIDTHS,
    nc: 1008, // 21 × 48 — keeps strips full-width aligned, ≈1 MiB packed B
    ukr: &[
        ukr_avx512::<f32, 1>,
        ukr_avx512::<f32, 2>,
        ukr_avx512::<f32, 3>,
    ],
    ukr_bf16: &[
        ukr_avx512::<u16, 1>,
        ukr_avx512::<u16, 2>,
        ukr_avx512::<u16, 3>,
    ],
};

/// The dispatch table row for `tier`.
///
/// # Panics
/// Panics if the CPU cannot run `tier` (callers gate on
/// [`Tier::is_available`]; [`pin_default_tier`] and [`with_tier`] check
/// before ever naming a tier).
pub(crate) fn kernel_for(tier: Tier) -> &'static Kernel {
    assert!(
        tier.is_available(),
        "kernel tier `{}` is not available on this CPU",
        tier.name()
    );
    match tier {
        Tier::Scalar => &SCALAR_KERNEL,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => &AVX2_KERNEL,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => &AVX512_KERNEL,
        #[cfg(target_arch = "x86_64")]
        Tier::Amx => &Kernel {
            tier: Tier::Amx,
            ..AVX512_KERNEL
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar tier on non-x86_64"),
    }
}

/// Best tier this CPU supports.
pub fn best_available_tier() -> Tier {
    ALL_TIERS
        .into_iter()
        .rev()
        .find(|t| t.is_available())
        .unwrap_or(Tier::Scalar)
}

/// Tiers this CPU supports, ascending.
pub fn available_tiers() -> Vec<Tier> {
    ALL_TIERS.into_iter().filter(|t| t.is_available()).collect()
}

/// The process-wide default tier: the pinned one, else the best available.
static DEFAULT: OnceLock<Tier> = OnceLock::new();

/// Pin the process-wide default tier: GEMMs issued from any thread not
/// inside [`with_tier`] dispatch to `tier`. Set once, before the first
/// GEMM, by a binary resolving its runtime settings.
///
/// # Panics
/// Panics if the CPU cannot run `tier`, or if the default was already
/// resolved (pinned, or read by a GEMM) to another tier.
pub fn pin_default_tier(tier: Tier) {
    let resolved = *DEFAULT.get_or_init(|| kernel_for(tier).tier);
    assert_eq!(
        resolved,
        tier,
        "the default kernel tier is `{}`",
        resolved.name()
    );
}

thread_local! {
    /// Per-thread tier override (see [`with_tier`]).
    static FORCED: Cell<Option<Tier>> = const { Cell::new(None) };
}

/// The tier the next GEMM issued from this thread will dispatch to.
pub fn selected_tier() -> Tier {
    FORCED
        .get()
        .unwrap_or_else(|| *DEFAULT.get_or_init(best_available_tier))
}

/// Run `f` with GEMMs issued **from this thread** dispatching to `tier`.
///
/// The override is thread-local and restored on exit (including unwind).
/// It must wrap the GEMM *call*: the driver resolves the kernel on its
/// calling thread and hands it to its parallel tasks, so worker threads
/// inherit the choice, but a `pool.install` boundary outside `with_tier`
/// would not.
///
/// # Panics
/// Panics if the CPU cannot run `tier`.
pub fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    assert!(
        tier.is_available(),
        "kernel tier `{}` is not available on this CPU",
        tier.name()
    );
    struct Restore(Option<Tier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.set(self.0);
        }
    }
    let _restore = Restore(FORCED.replace(Some(tier)));
    f()
}

/// The kernel the current thread's selection resolves to.
pub(crate) fn current_kernel() -> &'static Kernel {
    kernel_for(selected_tier())
}

// ---------------------------------------------------------------------------
// Panel elements as the kernel bodies read them
// ---------------------------------------------------------------------------

/// A packed panel element as a kernel body reads it: an f32, or a bf16
/// bit pattern widened exactly. Each body is written once over this
/// trait and instantiated for both, so the f32 and the widen kernel of a
/// tier issue the same FMAs in the same order.
trait Lane: Copy {
    /// The element's f32 value.
    fn widen(self) -> f32;
}

impl Lane for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
}

impl Lane for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        widen_bf16(self)
    }
}

/// Widen one bf16 bit pattern to f32 (a 16-bit shift — exact).
#[inline(always)]
fn widen_bf16(u: u16) -> f32 {
    f32::from_bits((u as u32) << 16)
}

// ---------------------------------------------------------------------------
// Scalar tier — virtual-vector form, autovectorised
// ---------------------------------------------------------------------------

/// f32 lanes per virtual vector (one AVX2 `ymm`; wider targets fuse
/// pairs). The kernel is written against fixed-width lane arrays so the
/// vectorizer's only option is the contiguous lane dimension.
const LANES: usize = 8;

/// A virtual SIMD vector: every operation on it is a fixed-trip lane loop
/// that LLVM collapses to one packed instruction.
#[derive(Clone, Copy)]
struct V([f32; LANES]);

/// `acc += a · b` per lane (one packed FMA).
#[inline(always)]
fn vfma(acc: &mut V, a: f32, b: V) {
    for l in 0..LANES {
        acc.0[l] = b.0[l].mul_add(a, acc.0[l]);
    }
}

/// Statically unroll a block over `R = 0..8`. The microkernel's row loop
/// must not exist as a loop: LLVM's vectorizer otherwise picks the row
/// dimension (stride `NR`) and emits gather/scatter code an order of
/// magnitude slower than the contiguous-lane form.
// `unroll_mr!` emits exactly 8 row bodies; growing MR without extending
// the macro would silently zero the extra tile rows (shrinking it fails
// to compile on its own).
const _: () = assert!(MR == 8, "unroll_mr! must list exactly MR rows");

macro_rules! unroll_mr {
    ($r:ident, $body:block) => {{
        const $r: usize = 0;
        $body
    }
    {
        const $r: usize = 1;
        $body
    }
    {
        const $r: usize = 2;
        $body
    }
    {
        const $r: usize = 3;
        $body
    }
    {
        const $r: usize = 4;
        $body
    }
    {
        const $r: usize = 5;
        $body
    }
    {
        const $r: usize = 6;
        $body
    }
    {
        const $r: usize = 7;
        $body
    }};
}

/// The portable `MR × (NV·LANES)` tile kernel over panels of `P` (see
/// module docs for the layout). bf16 panels widen with a shift the
/// vectorizer folds into the lane loads, so the loop body stays
/// packed-FMA-shaped either way.
///
/// # Safety
/// `a` must be valid for `kc·MR` reads, `b` for `kc·NV·LANES` reads and
/// `acc` for `MR·NV·LANES` writes ([`Kernel::run`] checks this).
unsafe fn ukr_scalar<P: Lane, const NV: usize>(kc: usize, a: *const P, b: *const P, acc: *mut f32) {
    let nr = NV * LANES;
    // SAFETY: exactly the three extents of the contract above; `acc` is
    // the caller's unique tile buffer, disjoint from both panels.
    let a_panel = std::slice::from_raw_parts(a, kc * MR);
    let b_panel = std::slice::from_raw_parts(b, kc * nr);
    let acc = std::slice::from_raw_parts_mut(acc, MR * nr);
    let mut tile = [[V([0.0; LANES]); NV]; MR];
    for kk in 0..kc {
        let a_k: &[P; MR] = a_panel[kk * MR..kk * MR + MR].try_into().unwrap();
        let b_k = &b_panel[kk * nr..kk * nr + nr];
        let mut bv = [V([0.0; LANES]); NV];
        for (v, bvv) in bv.iter_mut().enumerate() {
            for l in 0..LANES {
                bvv.0[l] = b_k[v * LANES + l].widen();
            }
        }
        unroll_mr!(R, {
            let ar = a_k[R].widen();
            for v in 0..NV {
                vfma(&mut tile[R][v], ar, bv[v]);
            }
        });
    }
    for (r, row) in tile.iter().enumerate() {
        for (v, vec) in row.iter().enumerate() {
            acc[r * nr + v * LANES..r * nr + (v + 1) * LANES].copy_from_slice(&vec.0);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA tier
// ---------------------------------------------------------------------------

/// A panel element the AVX2 body can load 8 of into one f32 `ymm`.
#[cfg(target_arch = "x86_64")]
trait LaneAvx2: Lane {
    /// `p[0..8]` as f32 lanes.
    ///
    /// # Safety
    /// AVX2 must be available and `p` valid for 8 reads.
    unsafe fn load8(p: *const Self) -> std::arch::x86_64::__m256;
}

#[cfg(target_arch = "x86_64")]
impl LaneAvx2 for f32 {
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load8(p: *const f32) -> std::arch::x86_64::__m256 {
        std::arch::x86_64::_mm256_loadu_ps(p)
    }
}

#[cfg(target_arch = "x86_64")]
impl LaneAvx2 for u16 {
    /// `vpmovzxwd` + `vpslld 16`: two cheap shuffle/shift uops per 8
    /// elements.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load8(p: *const u16) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(
            _mm_loadu_si128(p as *const __m128i),
        )))
    }
}

/// The AVX2 `MR × 8·NV` tile kernel, computed in `NV` passes of
/// `MR / NV` rows so that each pass holds exactly `MR` accumulators.
///
/// A full 8×16 tile needs 16 `ymm` accumulators — the whole register file,
/// so something spills every iteration. Splitting it into 4×16 halves uses
/// 8 accumulators + 2 B vectors + 1 broadcast = 11 of 16 registers, and
/// per `kk` issues 8 FMAs against 2 loads + 4 broadcasts — FMA-bound. The
/// B panel row (one cache line) is re-read from L1 by the second half. An
/// 8-wide tile is one 8×1 pass.
///
/// The `kk` loop is unrolled by two: with only 8 independent FMA chains
/// per pass, a single-step loop leaves the FMA pipes under-occupied
/// (8 chains × 4-cycle latency vs 2 ports × 4 = 8 in flight is exactly
/// break-even, so any loop overhead stalls the chain). Two sequential
/// `kk` steps per iteration halve the loop-carried overhead without
/// changing the per-element FMA order — each accumulator still sees the
/// same chain, so results stay bit-identical to the rolled form.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and the panel bounds of
/// [`Kernel::run`] for width `8·NV`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn ukr_avx2<P: LaneAvx2, const NV: usize>(
    kc: usize,
    a: *const P,
    b: *const P,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    let nr = 8 * NV;
    let rows = MR / NV;
    // SAFETY (whole body): every load reads `a[kk·MR + r]` / `b[kk·nr + j]`
    // with `kk < kc`, `r < MR`, `j < nr`, and every store writes
    // `acc[r·nr + j]` — inside the extents the contract above grants; the
    // intrinsics themselves need only the ISA the caller vouched for.
    for pass in 0..NV {
        let mut c = [[_mm256_setzero_ps(); NV]; MR];
        macro_rules! step {
            ($kk:expr) => {{
                let kk = $kk;
                // A bf16 row is 16 B, so the same row distance covers half
                // the bytes — still ≥ one line ahead of the FMA chain.
                _mm_prefetch::<_MM_HINT_T0>(a.wrapping_add((kk + A_PF_DIST) * MR) as *const i8);
                let bp = b.add(kk * nr);
                let mut bv = [_mm256_setzero_ps(); NV];
                for (v, bvv) in bv.iter_mut().enumerate() {
                    *bvv = P::load8(bp.add(8 * v));
                }
                let ap = a.add(kk * MR + pass * rows);
                for (r, cr) in c.iter_mut().enumerate().take(rows) {
                    let av = _mm256_set1_ps((*ap.add(r)).widen());
                    for (cv, &bvv) in cr.iter_mut().zip(&bv) {
                        *cv = _mm256_fmadd_ps(av, bvv, *cv);
                    }
                }
            }};
        }
        let mut kk = 0;
        while kk + 2 <= kc {
            step!(kk);
            step!(kk + 1);
            kk += 2;
        }
        if kk < kc {
            step!(kk);
        }
        for (r, cr) in c.iter().enumerate().take(rows) {
            let out = acc.add((pass * rows + r) * nr);
            for (v, cv) in cr.iter().enumerate() {
                _mm256_storeu_ps(out.add(8 * v), *cv);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F tier
// ---------------------------------------------------------------------------

/// A panel element the AVX-512 body can load 16 of into one f32 `zmm`.
#[cfg(target_arch = "x86_64")]
trait LaneAvx512: Lane {
    /// `p[0..16]` as f32 lanes.
    ///
    /// # Safety
    /// AVX-512F must be available and `p` valid for 16 reads.
    unsafe fn load16(p: *const Self) -> std::arch::x86_64::__m512;
}

#[cfg(target_arch = "x86_64")]
impl LaneAvx512 for f32 {
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load16(p: *const f32) -> std::arch::x86_64::__m512 {
        std::arch::x86_64::_mm512_loadu_ps(p)
    }
}

#[cfg(target_arch = "x86_64")]
impl LaneAvx512 for u16 {
    /// One `vpmovzxwd` (`_mm512_cvtepu16_epi32`) plus one
    /// `_mm512_slli_epi32` by 16 per 16 elements; the widen uops ride the
    /// shift port while the FMAs keep both FMA ports busy.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load16(p: *const u16) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::*;
        _mm512_castsi512_ps(_mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(
            _mm256_loadu_si256(p as *const __m256i),
        )))
    }
}

/// The AVX-512 `MR × 16·NV` tile kernel. At the full width (`NV = 3`):
/// 8 rows × 3 `zmm` accumulators (24 of 32 registers) + 3 B vectors + 1
/// broadcast = 28 — no spills, and per `kk` the 24 FMAs outnumber the 3
/// loads + 8 broadcasts, so the two FMA ports are the bottleneck rather
/// than the load ports. The narrower instances run only a strip's last
/// panel, where the wide tile would multiply padding.
///
/// # Safety
/// Caller must ensure AVX-512F is available and the panel bounds of
/// [`Kernel::run`] for width `16·NV`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ukr_avx512<P: LaneAvx512, const NV: usize>(
    kc: usize,
    a: *const P,
    b: *const P,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    let nr = 16 * NV;
    // SAFETY (whole body): every load reads `a[kk·MR + r]` / `b[kk·nr + j]`
    // with `kk < kc`, `r < MR`, `j < nr`, and every store writes
    // `acc[r·nr + j]` — inside the extents the contract above grants; the
    // intrinsics themselves need only the ISA the caller vouched for.
    let mut c = [[_mm512_setzero_ps(); NV]; MR];
    for kk in 0..kc {
        _mm_prefetch::<_MM_HINT_T0>(a.wrapping_add((kk + A_PF_DIST) * MR) as *const i8);
        let bp = b.add(kk * nr);
        let mut bv = [_mm512_setzero_ps(); NV];
        for (v, bvv) in bv.iter_mut().enumerate() {
            *bvv = P::load16(bp.add(16 * v));
        }
        let ap = a.add(kk * MR);
        for (r, cr) in c.iter_mut().enumerate() {
            let av = _mm512_set1_ps((*ap.add(r)).widen());
            for (cv, &bvv) in cr.iter_mut().zip(&bv) {
                *cv = _mm512_fmadd_ps(av, bvv, *cv);
            }
        }
    }
    for (r, cr) in c.iter().enumerate() {
        let out = acc.add(r * nr);
        for (v, cv) in cr.iter().enumerate() {
            _mm512_storeu_ps(out.add(16 * v), *cv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference tile product for arbitrary nr.
    fn tile_reference(kc: usize, nr: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f64; MR * nr];
        for kk in 0..kc {
            for r in 0..MR {
                for j in 0..nr {
                    out[r * nr + j] += a[kk * MR + r] as f64 * b[kk * nr + j] as f64;
                }
            }
        }
        out.into_iter().map(|x| x as f32).collect()
    }

    #[test]
    fn every_available_tier_tile_matches_reference() {
        for tier in available_tiers() {
            let kern = kernel_for(tier);
            for (&nr, kc) in kern
                .widths
                .iter()
                .flat_map(|w| [1usize, 3, 17, 64].map(|kc| (w, kc)))
            {
                let a: Vec<f32> = (0..kc * MR)
                    .map(|i| ((i % 23) as f32) * 0.25 - 2.0)
                    .collect();
                let b: Vec<f32> = (0..kc * nr)
                    .map(|i| ((i % 19) as f32) * 0.125 - 1.0)
                    .collect();
                let mut acc = vec![f32::NAN; MR * nr];
                kern.run(kc, nr, &a, &b, &mut acc);
                let r = tile_reference(kc, nr, &a, &b);
                for (i, (&got, &want)) in acc.iter().zip(&r).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-3,
                        "tier {} nr {nr} kc {kc} elem {i}: {got} vs {want}",
                        tier.name()
                    );
                }
            }
        }
    }

    /// Every tier's bf16 kernel must agree with the reference product of
    /// the *widened* panels (widening is exact, so the only slack is f32
    /// accumulation).
    #[test]
    fn every_available_tier_bf16_tile_matches_reference() {
        for tier in available_tiers() {
            let kern = kernel_for(tier);
            for (&nr, kc) in kern
                .widths
                .iter()
                .flat_map(|w| [1usize, 3, 17, 64].map(|kc| (w, kc)))
            {
                let a: Vec<u16> = (0..kc * MR)
                    .map(|i| Bf16::from_f32(((i % 23) as f32) * 0.25 - 2.0).0)
                    .collect();
                let b: Vec<u16> = (0..kc * nr)
                    .map(|i| Bf16::from_f32(((i % 19) as f32) * 0.125 - 1.0).0)
                    .collect();
                let mut acc = vec![f32::NAN; MR * nr];
                kern.run_bf16(kc, nr, &a, &b, &mut acc);
                let aw: Vec<f32> = a.iter().map(|&u| Bf16(u).to_f32()).collect();
                let bw: Vec<f32> = b.iter().map(|&u| Bf16(u).to_f32()).collect();
                let r = tile_reference(kc, nr, &aw, &bw);
                for (i, (&got, &want)) in acc.iter().zip(&r).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-3,
                        "tier {} nr {nr} kc {kc} elem {i}: {got} vs {want}",
                        tier.name()
                    );
                }
            }
        }
    }

    /// Each element's block store is the plain transpose.
    #[test]
    fn store_transposed_is_the_transpose() {
        fn check<E: Element>(val: impl Fn(usize) -> E) {
            let block: [[E; 8]; MR] =
                std::array::from_fn(|r| std::array::from_fn(|j| val(r * 8 + j)));
            let (mut got, mut want) = ([E::ZERO; 8 * MR], [E::ZERO; 8 * MR]);
            E::store_transposed(&block, &mut got);
            transpose_8x8(&block, &mut want);
            assert_eq!(got, want);
            assert_eq!(got[3 * MR + 5], block[5][3]);
        }
        check(|i| i as f32 + 0.5);
        check(|i| Bf16(i as u16 + 1));
    }

    /// The pair interleave places `(kk, kk+1)` element pairs adjacently
    /// per interleaved column and zero-pads an odd tail row.
    #[test]
    fn pair_interleave_layout_and_padding() {
        let w = 4usize;
        for kc in [1usize, 2, 5, 6] {
            let panels = 3usize;
            let src: Vec<Bf16> = (0..panels * kc * w).map(|i| Bf16(i as u16 + 1)).collect();
            let rows = kc.next_multiple_of(2);
            let mut dst = vec![Bf16(0xFFFF); panels * rows * w];
            pair_interleave_bf16_panels(&src, &mut dst, kc, w, rows);
            for p in 0..panels {
                for kk in 0..rows {
                    for j in 0..w {
                        let got = dst[p * rows * w + (kk / 2) * 2 * w + 2 * j + (kk % 2)];
                        let want = if kk < kc {
                            src[p * kc * w + kk * w + j]
                        } else {
                            Bf16::ZERO
                        };
                        assert_eq!(got, want, "panel {p} kk {kk} j {j} (kc {kc})");
                    }
                }
            }
        }
    }

    /// Every strategy's micro-tile fits the driver's stack accumulator,
    /// the strip width is a whole number of full micro-tiles, the widths
    /// ascend, and AMX offers only its tile.
    #[test]
    fn every_tiling_fits_the_accumulator() {
        for tier in available_tiers() {
            let kern = kernel_for(tier);
            assert_eq!(kern.widths.len(), kern.ukr.len());
            assert_eq!(kern.widths.len(), kern.ukr_bf16.len());
            for t in [f32::tiles(kern), Bf16::tiles(kern)] {
                assert!(t.tm * t.tn() <= ACC_LEN, "tier {}: {t:?}", tier.name());
                assert_eq!(t.nc % t.tn(), 0, "tier {}: {t:?}", tier.name());
                assert!(t.widths.windows(2).all(|w| w[0] < w[1]), "{t:?}");
                assert_eq!(t.amx, t.k_align > 1);
                if t.amx {
                    assert_eq!(t.widths, &[amx::TILE_N]);
                }
            }
            assert_eq!(Bf16::tiles(kern).amx, tier == Tier::Amx);
        }
    }

    /// A strip's panels are full tiles plus one exact-width tail: the
    /// narrowest offered width covering the remainder.
    #[test]
    fn panel_widths_cover_the_strip_with_the_narrowest_tail() {
        for tier in available_tiers() {
            let t = f32::tiles(kernel_for(tier));
            let tn = t.tn();
            for nc in 1..=3 * tn {
                let widths: Vec<usize> = t.panel_widths(nc).collect();
                let total: usize = widths.iter().sum();
                assert!(total >= nc && total - nc < t.widths[0], "{t:?} nc {nc}");
                assert!(widths[..widths.len() - 1].iter().all(|&w| w == tn));
                let (last, rem) = (*widths.last().unwrap(), nc - (widths.len() - 1) * tn);
                assert!(last >= rem, "{t:?} nc {nc}");
                assert!(
                    t.widths.iter().all(|&w| w < rem || w >= last),
                    "{t:?} nc {nc}"
                );
            }
        }
        let t = Tiles {
            tm: MR,
            widths: &[16, 32, 48],
            nc: 1008,
            k_align: 1,
            amx: false,
        };
        for (n, want) in [
            (32, vec![32]),
            (64, vec![48, 16]),
            (100, vec![48, 48, 16]),
            (128, vec![48, 48, 32]),
        ] {
            assert_eq!(t.panel_widths(n).collect::<Vec<_>>(), want, "n {n}");
        }
    }

    #[test]
    fn scalar_always_available_and_selected_tier_is_available() {
        assert!(Tier::Scalar.is_available());
        assert!(selected_tier().is_available());
        assert!(available_tiers().contains(&best_available_tier()));
    }

    #[test]
    fn parse_round_trips_names() {
        for t in ALL_TIERS {
            assert_eq!(Tier::parse(t.name()), Some(t));
            assert_eq!(Tier::parse(&t.name().to_uppercase()), Some(t));
        }
        assert_eq!(Tier::parse("auto"), None);
        assert_eq!(Tier::parse("neon"), None);
    }

    /// The default is set once: pinning the resolved tier again changes
    /// nothing, pinning another panics and leaves it as it was.
    #[test]
    fn default_tier_is_pinned_once() {
        let best = best_available_tier();
        pin_default_tier(best);
        assert_eq!(selected_tier(), best);
        if best != Tier::Scalar {
            assert!(std::panic::catch_unwind(|| pin_default_tier(Tier::Scalar)).is_err());
            assert_eq!(selected_tier(), best);
        }
    }

    #[test]
    fn with_tier_overrides_and_restores() {
        let before = selected_tier();
        with_tier(Tier::Scalar, || {
            assert_eq!(selected_tier(), Tier::Scalar);
        });
        assert_eq!(selected_tier(), before);
    }

    #[test]
    fn with_tier_restores_on_panic() {
        let before = selected_tier();
        let result = std::panic::catch_unwind(|| {
            with_tier(Tier::Scalar, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(selected_tier(), before);
    }
}
