//! AMX-BF16 tile kernel: the micro-tile of the bf16 GEMM's tile strategy.
//!
//! Sapphire-Rapids-class Xeons expose a matrix unit (AMX) whose
//! `tdpbf16ps` instruction multiplies a 16×32 bf16 tile by a 16×32 bf16
//! tile (VNNI pair layout) into a 16×16 f32 accumulator tile — 8192 MACs
//! per instruction, an order of magnitude past the AVX-512 FMA peak and
//! the only unit on these parts where bf16 storage buys *compute*
//! throughput rather than just bandwidth.
//!
//! This module is not a GEMM driver. The blocked driver in
//! [`crate::gemm`] is one loop nest; at the `amx` kernel tier (available
//! where AVX-512F and [`bf16_ready`] hold), `Bf16::tiles` picks the
//! strategy this module serves — A blocks packed **row-major** (what `tileloadd` strides
//! over), B packed in [`VNNI_W`]-column k-pair-interleaved panels, depth
//! zero-padded to [`TILE_K`] — and calls [`tile_kernel_32x32`] per
//! 32×32 block of C in place of a vector microkernel.
//!
//! The stable toolchain has no AMX intrinsics, so the tile configuration
//! and the microkernel are inline assembly (the mnemonics are plain
//! `asm!`; no unstable feature gates). Two pieces of process state are
//! involved:
//!
//! * **Permission** — tile data is an XSAVE component the kernel hands
//!   out per process via `arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)`;
//!   requested once, lazily, and the result cached ([`bf16_ready`]).
//! * **Tile palette** — `ldtilecfg` is per thread; every rayon worker
//!   that runs the microkernel calls [`ensure_thread_configured`] first.
//!   All eight tiles are configured 16 rows × 64 bytes.
//!
//! The microkernel accumulates entirely in tile registers across the
//! whole `kc` depth. `tdpbf16ps` sums each 32-product group in its own
//! order, so AMX results are tolerance-banded (`1e-5·scale`) against the
//! widen kernels, which are bit-identical to each other — see the
//! determinism table in `gemm.rs`.

/// Rows of C per tile-kernel call (two 16-row tiles).
pub const TILE_M: usize = 32;
/// Columns of C per tile-kernel call (two 16-column tiles).
pub const TILE_N: usize = 32;
/// Reduction depth per `tdpbf16ps` step; packed panels are zero-padded
/// to a multiple of this.
pub const TILE_K: usize = 32;
/// Columns per packed VNNI B panel: one tile's 16 columns, so a 32-wide
/// micro-tile reads two consecutive panels.
pub const VNNI_W: usize = 16;

/// Whether the AMX-BF16 unit is present and permitted.
///
/// First call performs CPUID feature checks and the one-time
/// `arch_prctl` tile-data permission request; the verdict is cached.
pub fn bf16_ready() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static READY: OnceLock<bool> = OnceLock::new();
        *READY.get_or_init(|| cpu_has_amx_bf16() && request_tiledata_permission())
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_amx_bf16() -> bool {
    // CPUID leaf 7 subleaf 0: EDX bit 24 = AMX-TILE, bit 22 = AMX-BF16.
    // (`is_x86_feature_detected!("amx-bf16")` is still unstable, so read
    // the leaf directly.)
    let max_leaf = std::arch::x86_64::__cpuid(0).eax;
    if max_leaf < 7 {
        return false;
    }
    let leaf7 = std::arch::x86_64::__cpuid_count(7, 0);
    leaf7.edx & (1 << 24) != 0 && leaf7.edx & (1 << 22) != 0
}

/// Ask the kernel for the XTILEDATA XSAVE component. Without this, the
/// first tile instruction delivers SIGILL; with it, tile state becomes
/// part of this process's context like any vector register file.
#[cfg(target_arch = "x86_64")]
fn request_tiledata_permission() -> bool {
    const SYS_ARCH_PRCTL: i64 = 158;
    const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
    const XFEATURE_XTILEDATA: i64 = 18;
    let ret: i64;
    // SAFETY: a raw `syscall` clobbers exactly rax, rcx and r11, all
    // declared; arch_prctl with these arguments only flips the
    // per-process XSTATE permission bit and touches no memory.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Load the tile palette on the calling thread if it has not been done
/// yet: all eight tiles 16 rows × 64 bytes (palette 1). Must run on each
/// thread before [`tile_kernel_32x32`]; cheap no-op afterwards.
pub fn ensure_thread_configured() {
    #[cfg(target_arch = "x86_64")]
    {
        use std::cell::Cell;
        thread_local! {
            static CONFIGURED: Cell<bool> = const { Cell::new(false) };
        }
        CONFIGURED.with(|c| {
            if !c.get() {
                // 64-byte tile-configuration block: byte 0 palette id,
                // u16 colsb[i] at 16+2i, u8 rows[i] at 48+i.
                #[repr(C, align(64))]
                struct TileCfg([u8; 64]);
                let mut cfg = TileCfg([0u8; 64]);
                cfg.0[0] = 1;
                for t in 0..8 {
                    cfg.0[16 + 2 * t] = 64;
                    cfg.0[48 + t] = 16;
                }
                // SAFETY: callers are gated on `bf16_ready()` — the unit
                // exists and the process holds tile-data permission, so
                // `ldtilecfg` cannot fault. `cfg` is a live, 64-byte
                // aligned, valid palette-1 block the instruction only
                // reads.
                unsafe {
                    std::arch::asm!(
                        "ldtilecfg [{cfg}]",
                        cfg = in(reg) &cfg,
                        options(nostack, preserves_flags),
                    );
                }
                c.set(true);
            }
        });
    }
}

/// `out[32×32] = A[32×kc_pad]·B[kc_pad×32]` over bf16 tiles, f32 out.
///
/// * `kpads` — number of 32-deep reduction steps (`kc_pad / TILE_K`).
/// * `a` — row-major bf16 block, ≥ 32 rows of `lda/2` elements; rows and
///   trailing depth zero-padded by the pack.
/// * `lda` — A row stride in **bytes** (`kc_pad * 2`).
/// * `b0`, `b1` — VNNI pair-interleaved 16-column B panels (`kc_pad/2`
///   rows of 32 bf16 each): columns 0–15 and 16–31 of the output tile.
/// * `out` — 32×32 f32, row-major contiguous, overwritten.
///
/// # Safety
/// Caller must ensure [`bf16_ready`] is true, the calling thread ran
/// [`ensure_thread_configured`], and all pointers cover the extents
/// above.
#[cfg(target_arch = "x86_64")]
pub unsafe fn tile_kernel_32x32(
    kpads: usize,
    a: *const u16,
    lda: usize,
    b0: *const u16,
    b1: *const u16,
    out: *mut f32,
) {
    debug_assert!(kpads > 0);
    // SAFETY (whole body): the caller's contract above covers every
    // address the tile loads/stores touch — rows 0..32 of `a` at stride
    // `lda`, `kpads · 1024` bytes of each B panel, and 4 KiB at `out`;
    // the asm clobbers only the tile registers and its declared operands.
    let a1 = a.byte_add(16 * lda);
    // Accumulators: tmm0 = C[0..16, 0..16], tmm1 = C[0..16, 16..32],
    // tmm2 = C[16..32, 0..16], tmm3 = C[16..32, 16..32]. Per step the
    // four operand tiles (two of A, two of B) are loaded once and each
    // feeds two of the four products.
    std::arch::asm!(
        "tilezero tmm0",
        "tilezero tmm1",
        "tilezero tmm2",
        "tilezero tmm3",
        "2:",
        "tileloadd tmm4, [{a0} + {lda} * 1]",
        "tileloadd tmm6, [{b0} + {bs} * 1]",
        "tdpbf16ps tmm0, tmm4, tmm6",
        "tileloadd tmm7, [{b1} + {bs} * 1]",
        "tdpbf16ps tmm1, tmm4, tmm7",
        "tileloadd tmm5, [{a1} + {lda} * 1]",
        "tdpbf16ps tmm2, tmm5, tmm6",
        "tdpbf16ps tmm3, tmm5, tmm7",
        // Next 32 of k: 64 bytes along each A row, 16 VNNI rows (64 B
        // each) down the B panels.
        "add {a0}, 64",
        "add {a1}, 64",
        "add {b0}, 1024",
        "add {b1}, 1024",
        "dec {cnt}",
        "jnz 2b",
        // Store the 2×2 tile grid into the contiguous 32×32 block:
        // quadrant starts at +0, +64 B, +2048 B, +2112 B.
        "tilestored [{out} + {ldc} * 1], tmm0",
        "add {out}, 64",
        "tilestored [{out} + {ldc} * 1], tmm1",
        "add {out}, 1984",
        "tilestored [{out} + {ldc} * 1], tmm2",
        "add {out}, 64",
        "tilestored [{out} + {ldc} * 1], tmm3",
        a0 = inout(reg) a => _,
        a1 = inout(reg) a1 => _,
        b0 = inout(reg) b0 => _,
        b1 = inout(reg) b1 => _,
        cnt = inout(reg) kpads => _,
        out = inout(reg) out => _,
        lda = in(reg) lda,
        bs = in(reg) 64usize,
        ldc = in(reg) 128usize,
        options(nostack),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quantise, pack and multiply one 32×32 tile block against a plain
    /// widened reference. Skips (trivially passes) off-AMX hosts.
    #[test]
    fn tile_kernel_matches_widened_reference() {
        if !bf16_ready() {
            eprintln!("amx: unit not available, skipping");
            return;
        }
        ensure_thread_configured();
        let kc = 70usize; // odd non-multiple to exercise the padding
        let kc_pad = kc.next_multiple_of(TILE_K);
        // bf16-exact values so the reference is exact in f32.
        let aq = |i: usize, t: usize| ((i * 7 + t * 3) % 13) as f32 * 0.25 - 1.5;
        let bq = |t: usize, j: usize| ((t * 5 + j) % 11) as f32 * 0.5 - 2.0;
        let mut a = vec![0u16; TILE_M * kc_pad];
        for i in 0..TILE_M {
            for t in 0..kc {
                a[i * kc_pad + t] = crate::bf16::Bf16::from_f32(aq(i, t)).0;
            }
        }
        // VNNI panels: row p of panel holds k = 2p, 2p+1 interleaved.
        let mut b = vec![0u16; kc_pad / 2 * 64];
        for (half, panel) in b.chunks_exact_mut(kc_pad / 2 * 32).enumerate() {
            for t in 0..kc {
                for j in 0..16 {
                    panel[(t / 2) * 32 + 2 * j + (t % 2)] =
                        crate::bf16::Bf16::from_f32(bq(t, half * 16 + j)).0;
                }
            }
        }
        let mut out = vec![0f32; TILE_M * TILE_N];
        // SAFETY: `bf16_ready()` held and this thread was configured
        // above; `a` is 32 rows of `kc_pad` elements, `b` two VNNI
        // panels of `kc_pad/2` pair rows, `out` 32×32 f32.
        unsafe {
            tile_kernel_32x32(
                kc_pad / TILE_K,
                a.as_ptr(),
                kc_pad * 2,
                b.as_ptr(),
                b.as_ptr().add(kc_pad / 2 * 32),
                out.as_mut_ptr(),
            );
        }
        for i in 0..TILE_M {
            for j in 0..TILE_N {
                let want: f32 = (0..kc).map(|t| aq(i, t) * bq(t, j)).sum();
                let got = out[i * TILE_N + j];
                assert!(
                    (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "C[{i}][{j}] = {got}, want {want}"
                );
            }
        }
    }
}
