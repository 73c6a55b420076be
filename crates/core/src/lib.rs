//! The paper's primary contribution assembled: **graph-sampling-based GCN
//! training** (Algorithms 1 and 5).
//!
//! Per training iteration the trainer:
//! 1. pops the next subgraph in ticket order from its one sampler
//!    pipeline, with the subgraph's feature and label rows
//!    (`H⁽⁰⁾[V_sub]`). With `sampler_threads > 0` dedicated worker
//!    threads sample and gather ahead continuously, so both overlap
//!    compute; with `0` the pop samples `p_inter` Dashboard frontier
//!    instances in parallel whenever a seed batch runs out
//!    (inter-subgraph parallelism, Sec. IV-C) and gathers the rows
//!    inline. Same subgraph stream, bit-identical trajectory;
//! 2. builds a *complete* GCN on the subgraph and runs forward, loss,
//!    backward, Adam (intra-iteration parallelism: feature-partitioned
//!    propagation, parallel GEMM);
//! 3. records the per-phase wall-clock breakdown (sampling / feature
//!    propagation / weight application) that Fig. 3 reports.
//!
//! Work per epoch is `O(L·|V|·f·(f + d_GS))` — linear in depth and graph
//! size, the efficiency claim of Sec. III-B.
//!
//! # Example
//!
//! ```
//! use gsgcn_data::presets;
//! use gsgcn_core::{GsGcnTrainer, TrainerConfig};
//!
//! let dataset = presets::ppi_scaled(42);
//! let mut trainer = GsGcnTrainer::new(&dataset, TrainerConfig::quick_test()).unwrap();
//! let report = trainer.train().unwrap();
//! assert!(report.final_val_f1 > 0.3, "F1 {}", report.final_val_f1);
//! ```

pub mod config;
pub mod report;
pub mod trainer;

pub use config::TrainerConfig;
pub use report::TrainReport;
pub use trainer::GsGcnTrainer;
