//! Batched inference serving for a trained graph-sampling GCN.
//!
//! The paper's core claim — work-efficient propagation, no neighbour
//! explosion across layers — applies unchanged at inference time: a batch
//! of K query nodes runs layer `ℓ` only on the rows within `L-ℓ` hops of
//! its roots (the level recursion of `gsgcn_nn` over one-hop
//! [`gsgcn_graph::neighborhood`] frontier balls), skips every row an
//! activation cache already holds, and reads off exactly the full-graph
//! outputs at the roots. This crate packages that into a serving
//! subsystem: one immutable model artifact (`Arc<GcnModel>` + graph +
//! features) queried by many concurrent clients over arbitrary node
//! batches.
//!
//! # Dataflow
//!
//! ```text
//!  sockets                  front-end                          BatchEngine
//!  ───────                  ─────────                          ───────────
//!  conn ──┐   poll::EventFrontend (one thread)
//!  conn ──┼─▶ sweeps nonblocking conns while that makes progress,
//!  conn ──┘   else blocks in poll(2): listener, conns, self-pipe
//!        ▲    per-conn state machine, pipelined replies
//!        │    line OR length-prefixed binary protocol,
//!        │    idle eviction, max-conns bound
//!        │         │ try_submit / try_take (never blocks)
//!        │         ▼
//!        │    admission ─▶ bounded queue (capacity Q)
//!        │    Block: full queue parks submitters (backpressure)
//!        │    Shed:  full queue sheds the min-weight request
//!        │           (weight = batch-affinity × wait-time) with
//!        │           an explicit `overloaded` reply
//!        │         │
//!        │         ▼
//!        │    coalescing batcher, work-conserving: a free worker
//!        │    claims all that is queued and fits max_batch nodes,
//!        │    at once — batches form behind busy workers, never
//!        │    on a timer (requests never split; Shed claims by
//!        │    weight, Block in FIFO order)
//!        │         │ one claimed batch
//!        │         ▼
//!        │    worker thread 1..N (each owns a ClassifyWorkspace)
//!        │      1-hop FrontierBall of the roots; probe the
//!        │      ActivationCache row by row for acts^{L-1};
//!        │      level recursion on the rows it lacks (layer ℓ on
//!        │      the rows within L-ℓ hops of them), inserted on
//!        │      the way out; final hop = fused last layer +
//!        │      root-row head. All resident ⇒ ~1 hop of work.
//!        │         │                    ▲        │
//!        │         │              ActivationCache (sharded CLOCK,
//!        │         │              byte budget, (node, version) keys)
//!        │         ▼
//!        └── ordered per-conn reply queue ◀─ per-request fulfillment
//!             (the engine rings the self-pipe if the loop is parked)
//!
//!  shutdown: drop(engine) → stop flag → wake all → join workers;
//!            queued-but-unserved requests fail with ShuttingDown.
//!  panics:   a worker panic poisons the engine; its batch, the queue
//!            and all future submits fail with WorkerPanicked(msg).
//! ```
//!
//! # Wire protocols
//!
//! The front-end ([`poll`], `std::net` only) speaks the
//! newline-delimited **line protocol**: `"12 55 103\n"` in,
//! `"ok 12:7:0.9312 55:3:0.5127 103:7:0.8809\n"` out,
//! `"err <message>\n"` on failure and `"overloaded\n"` when admission
//! control sheds the request.
//!
//! It additionally speaks a pipelined **binary protocol**
//! (little-endian, length-prefixed; `len` counts the bytes after the
//! length field):
//!
//! ```text
//! request:  [len: u32] [req_id: u64] [n: u32] [n × node: u32]
//! response: [len: u32] [req_id: u64] [status: u8] [payload]
//!   status 0 = ok         payload: [n: u32] then n ×
//!                         [node: u32] [max_prob: f32]
//!                         [k: u32] [k × label: u32]
//!   status 1 = error      payload: UTF-8 message
//!   status 2 = overloaded payload: empty (admission shed; retry later)
//! ```
//!
//! Clients may pipeline requests freely; responses come back in
//! per-connection request order with matching `req_id`s. The `gsgcn
//! predict` / `gsgcn serve` CLI commands drive all of this over a
//! checkpoint (see the binary's usage).
//!
//! # Example
//!
//! ```
//! use gsgcn_data::presets;
//! use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
//! use gsgcn_serve::{BatchEngine, EngineConfig, NodeClassifier};
//! use std::sync::Arc;
//!
//! let d = presets::scale_spec(&presets::ppi_spec(), 400).generate(1);
//! let model = GcnModel::new(GcnConfig {
//!     in_dim: d.feature_dim(),
//!     hidden_dims: vec![16, 16],
//!     num_classes: d.num_classes(),
//!     loss: LossKind::SigmoidBce,
//!     ..GcnConfig::default()
//! }, 7);
//! let classifier = NodeClassifier::new(
//!     Arc::new(model),
//!     Arc::new(d.graph.clone()),
//!     Arc::new(d.features.clone()),
//! ).unwrap();
//! let engine = BatchEngine::spawn(Arc::new(classifier), EngineConfig::default()).unwrap();
//! let preds = engine.classify(vec![0, 5, 9]).unwrap();
//! assert_eq!(preds.len(), 3);
//! assert_eq!(preds[1].node, 5);
//! ```

pub mod admission;
pub mod cache;
pub mod classifier;
pub mod engine;
pub mod poll;

pub use admission::AdmissionControl;
pub use cache::{ActivationCache, CacheStats};
pub use classifier::{ClassifyWorkspace, NodeClassifier, Prediction};
pub use engine::{BatchEngine, EngineConfig, ResponseHandle, ServeError, TrySubmitError};
