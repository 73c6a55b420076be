//! `bf16` storage element: the top 16 bits of an IEEE-754 `f32`.
//!
//! The fused GCN layer is memory-bandwidth-bound (ROADMAP item 4), so the
//! cheapest FLOP-preserving lever is halving the bytes that move: features,
//! activations, shard payloads and cache rows are *stored* as bf16 while
//! every accumulation stays in f32 registers. bf16 keeps f32's full 8-bit
//! exponent — no range surprises, `±inf`/`NaN` round-trip — and trades
//! mantissa bits (7 vs 23) for a 2× density win. Widening is a 16-bit
//! shift (`(bits as u32) << 16`), which vectorises to one
//! `_mm512_slli_epi32` per 16 elements; narrowing uses round-to-nearest-
//! even so quantisation is unbiased and deterministic.
//!
//! The type is a `#[repr(transparent)]` wrapper over `u16`, so `[Bf16]`
//! slices can be reinterpreted as `[u16]` for raw I/O (shard files, cache
//! rows) without copies.

use rayon::prelude::*;

/// One bf16 value: sign, 8 exponent bits, 7 mantissa bits.
#[repr(transparent)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bf16(pub u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);

    /// Round `x` to the nearest bf16, ties to even (matching hardware
    /// `VCVTNEPS2BF16` semantics). NaN payloads are truncated but kept
    /// quiet; infinities and zeros are exact.
    #[inline]
    pub fn from_f32(x: f32) -> Bf16 {
        let bits = x.to_bits();
        if x.is_nan() {
            // Keep it a NaN even if the payload's top bits are all zero.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round-to-nearest-even: add 0x7FFF plus the lowest kept bit, so
        // a tie (discarded half exactly 0x8000) rounds to the even kept
        // mantissa. Overflow carries into the exponent correctly and
        // saturates to ±inf at the top of the range.
        let round = 0x7FFF + ((bits >> 16) & 1);
        Bf16((bits.wrapping_add(round) >> 16) as u16)
    }

    /// Exact widening back to f32 (every bf16 is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }
}

/// Quantise `src` into `dst` (round-to-nearest-even). Panics on length
/// mismatch.
pub fn quantize_slice(src: &[f32], dst: &mut [Bf16]) {
    assert_eq!(src.len(), dst.len(), "quantize length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = Bf16::from_f32(s);
    }
}

/// Elements per task of [`quantize_slice_par`].
const QUANTIZE_CHUNK: usize = 1 << 14;

/// [`quantize_slice`] split across the current rayon pool. Each element
/// rounds on its own, so the result is the same for any thread count.
/// Panics on length mismatch.
pub fn quantize_slice_par(src: &[f32], dst: &mut [Bf16]) {
    assert_eq!(src.len(), dst.len(), "quantize length mismatch");
    dst.par_chunks_mut(QUANTIZE_CHUNK)
        .enumerate()
        .for_each(|(i, d)| quantize_slice(&src[i * QUANTIZE_CHUNK..][..d.len()], d));
}

/// Quantise `src` into `dst`, resized to `src.len()` ([`quantize_slice_par`]).
/// Growth past the buffer's capacity counts as a matrix allocation
/// ([`crate::alloc`]), so a buffer reused across calls allocates nothing
/// once it has held the largest input.
pub fn quantize_into(src: &[f32], dst: &mut Vec<Bf16>) {
    if dst.capacity() < src.len() {
        crate::alloc::record_alloc();
    }
    dst.resize(src.len(), Bf16::ZERO);
    quantize_slice_par(src, dst);
}

/// Widen `src` into `dst`. Panics on length mismatch.
pub fn widen_slice(src: &[Bf16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// Reinterpret a `[u16]` slice (e.g. a shard payload or cache row) as
/// bf16 values. Zero-cost: `Bf16` is `repr(transparent)` over `u16`.
#[inline]
pub fn from_bits_slice(bits: &[u16]) -> &[Bf16] {
    // SAFETY: Bf16 is repr(transparent) over u16 — identical layout,
    // alignment and validity.
    unsafe { std::slice::from_raw_parts(bits.as_ptr() as *const Bf16, bits.len()) }
}

/// Reinterpret a `[Bf16]` slice as raw `u16` bit patterns for I/O.
#[inline]
pub fn to_bits_slice(vals: &[Bf16]) -> &[u16] {
    // SAFETY: as above, in the other direction.
    unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u16, vals.len()) }
}

/// Mutable [`from_bits_slice`]: view a raw `u16` scratch buffer as bf16
/// storage (the GEMM driver packs panels into `u16` scratch this way).
#[inline]
pub fn from_bits_slice_mut(bits: &mut [u16]) -> &mut [Bf16] {
    // SAFETY: Bf16 is repr(transparent) over u16; the borrow is unique.
    unsafe { std::slice::from_raw_parts_mut(bits.as_mut_ptr() as *mut Bf16, bits.len()) }
}

/// Borrowed row-major bf16 matrix view — the storage-side twin of
/// [`crate::MatRef`]. No stride support: bf16 matrices are always whole
/// (quantised activation panels, shard feature blocks), never column
/// slices.
#[derive(Clone, Copy, Debug)]
pub struct Bf16MatRef<'a> {
    data: &'a [Bf16],
    rows: usize,
    cols: usize,
}

impl<'a> Bf16MatRef<'a> {
    /// View `data` as a `rows × cols` matrix. Panics if the length does
    /// not match.
    pub fn new(data: &'a [Bf16], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "bf16 view shape mismatch");
        Bf16MatRef { data, rows, cols }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a bf16 slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [Bf16] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing slice.
    pub fn data(&self) -> &'a [Bf16] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_round_trip() {
        // Anything with ≤ 7 mantissa bits survives the trip exactly.
        for &x in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            96.0,
            -0.125,
            1.5,
            255.0,
            2.0f32.powi(100),
            -2.0f32.powi(-100),
        ] {
            let b = Bf16::from_f32(x);
            assert_eq!(b.to_f32(), x, "{x} failed to round-trip");
        }
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(
            Bf16::from_f32(f32::NEG_INFINITY).to_f32(),
            f32::NEG_INFINITY
        );
        assert!(Bf16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn rne_ties_round_to_even() {
        // 1.0 = 0x3F80_0000. The bf16 lattice around it steps by 2^-7.
        // A value exactly halfway between two bf16 neighbors must round
        // to the one with an even (lsb = 0) mantissa.
        let lo = f32::from_bits(0x3F80_0000); // 1.0, mantissa even
        let hi = f32::from_bits(0x3F81_0000); // next bf16 up, mantissa odd
        let tie = f32::from_bits(0x3F80_8000); // exactly halfway
        assert_eq!(Bf16::from_f32(tie).to_f32(), lo, "tie must go even");
        // Just above the tie rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(Bf16::from_f32(above).to_f32(), hi);
        // Halfway between an odd-mantissa value and the next even one
        // rounds *up* to the even.
        let hi2 = f32::from_bits(0x3F82_0000);
        let tie2 = f32::from_bits(0x3F81_8000);
        assert_eq!(Bf16::from_f32(tie2).to_f32(), hi2, "tie must go even");
    }

    #[test]
    fn rounding_is_monotone() {
        // Quantisation must preserve ordering: x ≤ y ⇒ q(x) ≤ q(y).
        let mut prev = f32::NEG_INFINITY;
        let mut prev_q = f32::NEG_INFINITY;
        for i in 0..20_000 {
            let x = -4.0 + i as f32 * 4e-4;
            let q = Bf16::from_f32(x).to_f32();
            assert!(x >= prev);
            assert!(q >= prev_q, "q({x}) = {q} < q({prev}) = {prev_q}");
            prev = x;
            prev_q = q;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // |q(x) - x| ≤ 2^-8 · |x| (half a ulp at 7 mantissa bits).
        for i in 1..10_000 {
            let x = i as f32 * 0.37 - 1850.0;
            if x == 0.0 {
                continue;
            }
            let q = Bf16::from_f32(x).to_f32();
            let rel = ((q - x) / x).abs();
            assert!(rel <= 1.0 / 256.0, "x = {x}: rel err {rel}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        // Values above the largest finite bf16 round up to +inf through
        // the exponent carry, never wrap.
        let max_bf16 = f32::from_bits(0x7F7F_0000);
        assert_eq!(Bf16::from_f32(max_bf16).to_f32(), max_bf16);
        assert_eq!(Bf16::from_f32(f32::MAX).to_f32(), f32::INFINITY);
    }

    #[test]
    fn slice_helpers_and_bit_reinterpretation() {
        let src = [1.0f32, -2.5, 0.33, 1e20];
        let mut q = [Bf16::ZERO; 4];
        quantize_slice(&src, &mut q);
        let bits = to_bits_slice(&q);
        let back = from_bits_slice(bits);
        let mut wide = [0f32; 4];
        widen_slice(back, &mut wide);
        for (w, s) in wide.iter().zip(&src) {
            assert!(((w - s) / s).abs() <= 1.0 / 256.0);
        }
        // The parallel forms round exactly as the serial one, across a
        // ragged last chunk; a reused buffer is allocated once.
        let long: Vec<f32> = (0..2 * QUANTIZE_CHUNK + 7)
            .map(|i| i as f32 * 0.013 - 7.0)
            .collect();
        let mut serial = vec![Bf16::ZERO; long.len()];
        quantize_slice(&long, &mut serial);
        let mut reused = Vec::new();
        let before = crate::alloc::matrix_allocations();
        for len in [long.len(), 5, long.len()] {
            quantize_into(&long[..len], &mut reused);
            assert_eq!(reused, serial[..len]);
        }
        assert_eq!(crate::alloc::matrix_allocations(), before + 1);
    }

    #[test]
    fn mat_ref_rows() {
        let vals: Vec<Bf16> = (0..6).map(|i| Bf16::from_f32(i as f32)).collect();
        let m = Bf16MatRef::new(&vals, 2, 3);
        assert_eq!(m.row(1)[0].to_f32(), 3.0);
        assert_eq!((m.rows(), m.cols()), (2, 3));
    }
}
