//! Neural-network substrate: the GCN model of Algorithm 1.
//!
//! * [`gcn_layer`] — one GCN layer: mean aggregation (via
//!   `gsgcn-prop`), the two learned weight matrices `W_neigh`/`W_self`
//!   (Sec. II-A), neighbor‖self concatenation and ReLU, with a full
//!   hand-derived backward pass.
//! * [`dense`] — the dense classifier head (`PREDICT`, Alg. 1 line 11).
//! * [`loss`] — sigmoid binary cross-entropy (multi-label datasets: PPI,
//!   Yelp, Amazon) and softmax cross-entropy (single-label: Reddit).
//! * [`adam`] — the Adam optimiser (Alg. 1 line 13).
//! * [`model`] — the L-layer GCN assembled end to end: forward, loss,
//!   backward, update; reports per-phase timings (feature propagation vs
//!   weight application) for the Fig. 3 breakdown.
//! * [`workspace`] — the caller-owned [`workspace::InferenceWorkspace`]:
//!   activation ping-pong buffers for the `&self` inference path, so one
//!   immutable model serves many threads allocation-free
//!   (`GcnModel::{infer_logits_into, infer_probs_into}`); it also holds
//!   the level buffers of `GcnModel::infer_probs_by_level`, the
//!   work-efficient layer-at-a-time forward over a `GraphStore` that
//!   does not fit in memory, and of `infer_hidden_by_level`, the same
//!   recursion as `gsgcn-serve` enters it. A resident graph scored again
//!   and again goes through `GcnModel::infer_probs_at_into` instead:
//!   layer 1 packing the rows of `Â·X` computed once
//!   (`GcnModel::aggregate_input`) instead of re-aggregating them, the
//!   last layer and the head on the scored rows only.
//!
//! Everything is deterministic given the seeds in [`model::GcnConfig`].
//!
//! # Example
//!
//! ```
//! use gsgcn_graph::GraphBuilder;
//! use gsgcn_tensor::DMatrix;
//! use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
//!
//! let g = GraphBuilder::new(4)
//!     .add_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
//!     .build();
//! let x = DMatrix::from_fn(4, 3, |i, j| (i + j) as f32 * 0.1);
//! let y = DMatrix::from_fn(4, 2, |i, _| (i % 2) as f32);
//! let cfg = GcnConfig {
//!     in_dim: 3,
//!     hidden_dims: vec![8],
//!     num_classes: 2,
//!     loss: LossKind::SigmoidBce,
//!     ..GcnConfig::default()
//! };
//! let mut model = GcnModel::new(cfg, 42);
//! let before = model.train_step(&g, &x, &y).loss;
//! for _ in 0..30 {
//!     model.train_step(&g, &x, &y);
//! }
//! let after = model.train_step(&g, &x, &y).loss;
//! assert!(after < before, "training must reduce the loss");
//! ```

pub mod adam;
pub mod checkpoint;
pub mod dense;
pub mod gcn_layer;
pub mod loss;
pub mod model;
pub mod workspace;

pub use workspace::InferenceWorkspace;
