//! The activation-cache axis of the serve equivalence suites.
//!
//! A cache must never change an answer, so every regime a deployment can
//! run in is enumerated here, in-process: no cache (every frontier row
//! computed on every request), a starved 64 KiB cache (partial hits under
//! eviction), a roomy 64 MiB one (all hits after the first touch), and a
//! roomy one holding bf16 rows — quantised on insert, widened on gather,
//! half the bytes per row — in front of a model storing bf16 too
//! ([`CacheAxis::precision`]).

use gsgcn_serve::{ActivationCache, NodeClassifier};
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
    /// The precision this regime's model and cache rows store in.
    pub fn precision(self) -> Precision {
        match self {
            CacheAxis::Bf16Rows => Precision::Bf16,
            _ => Precision::F32,
        }
    }

    /// `c` with this regime's cache attached (a 1-layer model has no
    /// hidden rows to cache and stays uncached).
    pub fn attach(self, c: NodeClassifier) -> NodeClassifier {
        let bytes = match self {
            CacheAxis::Off => return c,
            CacheAxis::Starved => 64 << 10,
            CacheAxis::Roomy | CacheAxis::Bf16Rows => 64 << 20,
        };
        if c.hops() < 2 {
            return c;
        }
        let cache = ActivationCache::with_precision(bytes, self.precision());
        c.with_cache(Some(Arc::new(cache)))
    }
}
