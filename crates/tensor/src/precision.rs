//! Storage precision (`f32` vs `bf16`) of feature and activation bytes.
//!
//! Precision controls how feature/activation bytes are *stored* — GEMM
//! panels, shard feature payloads, serving cache rows. Arithmetic always
//! accumulates in f32 (see [`crate::ukernel`]'s precision section), so
//! switching to [`Precision::Bf16`] changes only the per-element input
//! rounding, bounded by 2⁻⁸ relative error.
//!
//! A training step under [`Precision::Bf16`] is mixed precision end to
//! end: a layer quantises its input once, its forward GEMMs and its
//! weight-gradient GEMMs multiply those bf16 panels, and the f32
//! gradient operands round to bf16 as they are packed. The master
//! weights, Adam's moments and every accumulation stay f32. A backward
//! pass runs in the precision its forward recorded.
//!
//! A precision is a value its owner carries: a GCN layer, a model, a
//! trainer, a shard writer or an activation cache is built with one, and
//! nothing here reads the environment. The one process-wide value,
//! [`force_global`], is the initial precision of a newly built model.

use std::sync::OnceLock;

/// How feature/activation bytes are stored on the hot paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Full f32 storage — the bit-identical master path.
    #[default]
    F32,
    /// bf16 storage with f32 accumulation: half the bytes moved, ≤ 2⁻⁸
    /// relative input rounding per element.
    Bf16,
}

/// Both precisions, f32 first (the default).
pub const ALL_PRECISIONS: [Precision; 2] = [Precision::F32, Precision::Bf16];

impl Precision {
    /// The `GSGCN_PRECISION` / `--precision` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
        }
    }

    /// Parse a precision name (case-insensitive). `auto` is handled by
    /// the caller; returns `None` for it and unknown values.
    pub fn parse(s: &str) -> Option<Precision> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "bf16" => Some(Precision::Bf16),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static GLOBAL: OnceLock<Precision> = OnceLock::new();

/// Pin the process-wide precision that newly built models start in
/// ([`pinned`]). The first call wins and later calls return its value.
/// Its one caller is the `e2e` benchmark harness, whose workloads name a
/// precision but spell out every field of the configs they build.
pub fn force_global(p: Precision) -> Precision {
    *GLOBAL.get_or_init(|| p)
}

/// The precision pinned by [`force_global`], [`Precision::F32`] unless
/// pinned.
pub fn pinned() -> Precision {
    GLOBAL.get().copied().unwrap_or_default()
}

/// The per-element relative rounding bound of `p`'s storage: 0 for f32,
/// 2⁻⁸ for bf16 (7 explicit mantissa bits, round-to-nearest-even).
/// Tolerance-banded equivalence tests scale their bounds from this; see
/// [`rel_tolerance`] for the composed model.
pub fn unit_roundoff(p: Precision) -> f32 {
    match p {
        Precision::F32 => 0.0,
        Precision::Bf16 => 1.0 / 256.0,
    }
}

/// Relative-error band for comparing a `p`-storage pipeline against the
/// f32 reference, composed over `depth` storage round-trips each mixing
/// `fan_in` inputs: every stored element carries ≤ u = 2⁻⁸ relative
/// rounding; a dot product over `fan_in` such inputs (both operands
/// stored) keeps relative error ≤ ~2u + O(u²), and depth compounds the
/// bound per layer. A further ×4 headroom absorbs cancellation in
/// near-zero sums and the f32 accumulation itself. `fan_in` enters only
/// logarithmically (accumulation is f32-exact per element; errors are
/// signed and mostly cancel): we use `2u·depth·(2 + log2(fan_in)/8)`,
/// validated empirically by the precision-equivalence proptests.
pub fn rel_tolerance(p: Precision, depth: usize, fan_in: usize) -> f32 {
    let u = unit_roundoff(p);
    if u == 0.0 {
        return 1e-6; // pure f32 re-ordering slack
    }
    let fan = (fan_in.max(2) as f32).log2() / 8.0;
    2.0 * u * depth.max(1) as f32 * (2.0 + fan) * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for p in ALL_PRECISIONS {
            assert_eq!(Precision::parse(p.name()), Some(p));
            assert_eq!(Precision::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(Precision::parse("auto"), None);
        assert_eq!(Precision::parse("fp16"), None);
    }

    #[test]
    fn tolerance_band_shape() {
        assert_eq!(unit_roundoff(Precision::F32), 0.0);
        assert!(rel_tolerance(Precision::F32, 3, 1000) < 1e-5);
        let t1 = rel_tolerance(Precision::Bf16, 1, 64);
        let t3 = rel_tolerance(Precision::Bf16, 3, 64);
        assert!(t1 > 0.0 && t3 > 2.9 * t1, "depth must widen the band");
        assert!(t3 < 0.5, "band must stay far under the F1 budget");
    }
}
