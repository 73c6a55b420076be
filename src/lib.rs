//! # gsgcn — graph-sampling-based GCN
//!
//! Umbrella crate for the reproduction of *"Accurate, Efficient and
//! Scalable Graph Embedding"* (Zeng, Zhou, Srivastava, Kannan, Prasanna —
//! IPDPS 2019). Re-exports every workspace crate under one roof so
//! examples and downstream users can depend on a single package.
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
