//! # gsgcn — graph-sampling-based GCN
//!
//! Umbrella crate for the reproduction of *"Accurate, Efficient and
//! Scalable Graph Embedding"* (Zeng, Zhou, Srivastava, Kannan, Prasanna —
//! IPDPS 2019). Re-exports every workspace crate under one roof so
//! examples and downstream users can depend on a single package, and holds
//! the paper's experiments ([`reproduce`]).
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`graph`] | CSR graphs, builders, induced subgraphs, statistics |
//! | [`tensor`] | dense f32 matrices + parallel blocked GEMM |
//! | [`sampler`] | Dashboard frontier sampler (Alg. 2–4), alternative samplers, parallel pool |
//! | [`prop`] | feature propagation with feature-dimension partitioning (Alg. 6) |
//! | [`nn`] | GCN layers, losses, Adam |
//! | [`data`] | synthetic dataset generators matching Table I |
//! | [`metrics`] | F1 metrics + phase timing |
//! | [`core`] | the graph-sampling GCN trainer (Alg. 1 + 5) |
//! | [`baselines`] | GraphSAGE-style, full-batch and FastGCN-style trainers |
//! | [`serve`] | batched inference engine: work-efficient query batches over a trained checkpoint |
//! | [`reproduce`] | the paper's experiments, as `gsgcn reproduce` runs them |
//!
//! ## Quickstart
//!
//! ```
//! use gsgcn::data::presets;
//! use gsgcn::core::{TrainerConfig, GsGcnTrainer};
//!
//! let dataset = presets::ppi_scaled(42);
//! let cfg = TrainerConfig::quick_test();
//! let mut trainer = GsGcnTrainer::new(&dataset, cfg).unwrap();
//! let report = trainer.train().unwrap();
//! assert!(report.final_val_f1 > 0.0);
//! ```

pub use gsgcn_baselines as baselines;
pub use gsgcn_core as core;
pub use gsgcn_data as data;
pub use gsgcn_graph as graph;
pub use gsgcn_metrics as metrics;
pub use gsgcn_nn as nn;
pub use gsgcn_prop as prop;
pub use gsgcn_sampler as sampler;
pub use gsgcn_serve as serve;
pub use gsgcn_tensor as tensor;

pub mod reproduce;

/// The reproduction's shared helpers.
#[cfg(test)]
mod tests {
    use super::reproduce::{core_sweep, max_cores, time, with_threads, Options};

    #[test]
    fn core_sweep_starts_at_one_and_is_sorted() {
        for cap in [None, Some(1), Some(3)] {
            let o = Options {
                full: false,
                seed: 42,
                max_cores: cap,
            };
            let s = core_sweep(&o);
            assert_eq!(s[0], 1);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(*s.last().unwrap(), max_cores(&o));
        }
    }

    #[test]
    fn time_measures() {
        let (v, secs) = time(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.004);
    }

    #[test]
    fn with_threads_runs_in_sized_pool() {
        let n = with_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
    }
}
