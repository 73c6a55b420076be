//! Weight initialisation.
//!
//! GCN weight matrices use Glorot/Xavier uniform initialisation (the
//! default in the paper's Tensorflow reference implementations); all
//! initialisers take an explicit seed so training runs are reproducible.

use crate::matrix::DMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform: `U(-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> DMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    DMatrix::from_fn(rows, cols, |_, _| rng.random_range(-limit..limit))
}

/// Uniform in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> DMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DMatrix::from_fn(rows, cols, |_, _| rng.random_range(lo..hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_limit_and_seeded() {
        let a = xavier_uniform(20, 30, 42);
        let b = xavier_uniform(20, 30, 42);
        let c = xavier_uniform(20, 30, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let limit = (6.0f32 / 50.0).sqrt();
        assert!(a.data().iter().all(|&x| x.abs() <= limit));
        // Not degenerate.
        assert!(a.data().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn uniform_range() {
        let m = uniform(10, 10, -2.0, 3.0, 1);
        assert!(m.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }
}
