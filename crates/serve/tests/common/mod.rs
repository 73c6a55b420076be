//! The activation-cache axis of the serve equivalence suites.
//!
//! A cache must never change an answer, so every regime a deployment can
//! run in is enumerated here, in-process: no cache (every frontier row
//! computed on every request), a starved 64 KiB cache (partial hits under
//! eviction), a roomy 64 MiB one (all hits after the first touch), and a
//! roomy one holding bf16 rows — quantised on insert, widened on gather,
//! half the bytes per row — with the whole classify storing bf16.
//! Cache rows follow the process precision (`precision::current()`), so
//! under `GSGCN_PRECISION=bf16` the first three regimes store bf16 too.

use gsgcn_serve::{ActivationCache, NodeClassifier};
use gsgcn_tensor::precision::{self, with_precision};
use gsgcn_tensor::Precision;
use std::sync::Arc;

#[derive(Clone, Copy, Debug)]
pub enum CacheAxis {
    Off,
    Starved,
    Roomy,
    Bf16Rows,
}

pub const CACHE_AXES: [CacheAxis; 4] = [
    CacheAxis::Off,
    CacheAxis::Starved,
    CacheAxis::Roomy,
    CacheAxis::Bf16Rows,
];

impl CacheAxis {
    /// `c` with this regime's cache attached (a 1-layer model has no
    /// hidden rows to cache and stays uncached).
    pub fn attach(self, c: NodeClassifier) -> NodeClassifier {
        let (bytes, rows) = match self {
            CacheAxis::Off => return c,
            CacheAxis::Starved => (64 << 10, precision::current()),
            CacheAxis::Roomy => (64 << 20, precision::current()),
            CacheAxis::Bf16Rows => (64 << 20, Precision::Bf16),
        };
        if c.hops() < 2 {
            return c;
        }
        c.with_cache(Some(Arc::new(ActivationCache::with_precision(bytes, rows))))
    }

    /// Run `f` — baseline and cached classifies alike — at this regime's
    /// storage precision.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        match self {
            CacheAxis::Bf16Rows => with_precision(Precision::Bf16, f),
            _ => f(),
        }
    }
}
