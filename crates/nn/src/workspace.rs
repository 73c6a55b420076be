//! Caller-owned inference workspace — the inference twin of the model's
//! training workspace.
//!
//! [`crate::model::GcnModel::train_step`] owns its activation buffers
//! because training mutates the model anyway. Inference must not: one
//! immutable model behind an `Arc` serves many threads (the
//! `gsgcn-serve` batch engine gives each worker thread its own
//! workspace), so the forward pass takes the model by `&self` and the
//! scratch state lives *here*, owned by the caller.
//!
//! The workspace holds the activation **ping-pong pair** — layer `i`
//! reads one buffer and writes the other, so an L-layer forward needs
//! two buffers regardless of depth — plus the unfused path's aggregate
//! scratch, the per-level tile buffers of layer-at-a-time inference
//! over a store and the frontier cutter's relabel table. Buffers are sized lazily by the first forward and reused
//! afterwards; as long as input shapes stay bounded (batched inference
//! caps the subgraph size by construction), every warm call performs
//! **zero matrix allocations** (pinned by `tests/alloc_regression.rs`).

use gsgcn_graph::FrontierScratch;
use gsgcn_tensor::DMatrix;

/// Reusable scratch for [`crate::model::GcnModel::infer_logits_into`] /
/// [`crate::model::GcnModel::infer_probs_into`].
///
/// Cheap to construct (empty buffers); safe to reuse across models and
/// graphs — every forward reshapes as needed. Not shareable between
/// concurrent forwards: give each thread its own.
#[derive(Clone, Debug)]
pub struct InferenceWorkspace {
    /// Activation ping-pong pair (layer outputs alternate between them).
    pub(crate) ping: DMatrix,
    pub(crate) pong: DMatrix,
    /// Unfused path only: the materialised aggregate `Â·H` of the
    /// current layer (the fused path streams it through pack scratch).
    /// Layer-at-a-time inference over a store that holds `Â·X` also
    /// gathers one block of those rows here.
    pub(crate) agg: DMatrix,
    /// Layer-at-a-time inference only
    /// ([`crate::model::GcnModel::infer_probs_by_level`] and the serving
    /// entry point `infer_hidden_by_level`): `levels[ℓ]` holds `H^ℓ` on
    /// the frontier tile that layer `ℓ+1` is reading — or, on a store that
    /// holds `Â·X`, `levels[0]` the feature rows of layer 1's current
    /// block. Where layer 1 reads a resident `X` in place `levels[0]` is
    /// never filled.
    pub(crate) levels: Vec<DMatrix>,
    /// The frontier tile cutter's relabel table (one `u32` per vertex of
    /// the largest graph cut so far) and lists, reused by every tile of
    /// the level recursion and by serving's frontier ball.
    pub(crate) frontier: FrontierScratch,
}

impl Default for InferenceWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl InferenceWorkspace {
    /// A fresh (empty) workspace; buffers grow on first use.
    pub fn new() -> Self {
        InferenceWorkspace {
            ping: DMatrix::zeros(0, 0),
            pong: DMatrix::zeros(0, 0),
            agg: DMatrix::zeros(0, 0),
            levels: Vec::new(),
            frontier: FrontierScratch::new(),
        }
    }

    /// The frontier tile cutter's scratch, for callers that cut a
    /// [`gsgcn_graph::FrontierBall`] themselves before running the level
    /// recursion on the same workspace (serving's classify path).
    pub fn frontier(&mut self) -> &mut FrontierScratch {
        &mut self.frontier
    }
}
