//! Storage-precision selection (`f32` vs `bf16`), following the
//! `GSGCN_KERNEL` dispatch policy.
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
//! pass runs in the precision its forward recorded, not the one current
//! when it is called.
//!
//! Resolution order (the established env policy):
//!
//! 1. a thread-local override installed by [`with_precision`] (tests);
//! 2. a process-wide value pinned by [`force_global`] (the CLI's
//!    `--precision` flag — flag beats env);
//! 3. the `GSGCN_PRECISION` environment variable (`f32`, `bf16`, `auto`/
//!    unset → f32), resolved once; an unknown value **panics** — a
//!    misconfigured precision matrix run must be loud, never a silent
//!    f32 fallback;
//! 4. [`Precision::F32`], the default — the f32 path stays bit-identical
//!    to a build without this module.

use std::cell::Cell;
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

/// Pin the process-wide precision (the CLI's `--precision` flag; flag >
/// env). Must run before the first [`current`] resolves the global —
/// afterwards the earlier value wins, and this returns it.
pub fn force_global(p: Precision) -> Precision {
    *GLOBAL.get_or_init(|| p)
}

/// Resolve `GSGCN_PRECISION` (no flag override). Panics on an unknown
/// value — misconfiguration must be loud.
fn from_env() -> Precision {
    match std::env::var("GSGCN_PRECISION") {
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => Precision::parse(&v)
            .unwrap_or_else(|| panic!("GSGCN_PRECISION={v:?} — expected f32, bf16 or auto")),
        _ => Precision::F32,
    }
}

thread_local! {
    /// Per-thread precision override (see [`with_precision`]).
    static FORCED: Cell<Option<Precision>> = const { Cell::new(None) };
}

/// The precision the current thread's next forward pass will store at
/// (its backward follows the forward).
pub fn current() -> Precision {
    FORCED
        .get()
        .unwrap_or_else(|| *GLOBAL.get_or_init(from_env))
}

/// Run `f` with this thread storing at `p`. Restored on exit (including
/// unwind). Like [`crate::ukernel::with_tier`], the override must wrap
/// the call that *reads* the precision (the layer forward), not a pool
/// boundary around it.
pub fn with_precision<R>(p: Precision, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Precision>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.set(self.0);
        }
    }
    let _restore = Restore(FORCED.replace(Some(p)));
    f()
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
    fn with_precision_overrides_and_restores() {
        let base = current();
        with_precision(Precision::Bf16, || {
            assert_eq!(current(), Precision::Bf16);
            with_precision(Precision::F32, || assert_eq!(current(), Precision::F32));
            assert_eq!(current(), Precision::Bf16);
        });
        assert_eq!(current(), base);
    }

    #[test]
    fn with_precision_restores_on_panic() {
        let base = current();
        let r = std::panic::catch_unwind(|| with_precision(Precision::Bf16, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(current(), base);
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
