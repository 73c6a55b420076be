//! Graph substrate for the graph-sampling-based GCN (IPDPS 2019 reproduction).
//!
//! This crate provides the fundamental graph machinery every other crate in
//! the workspace builds on:
//!
//! * [`CsrGraph`] — a compact, immutable compressed-sparse-row graph with
//!   `u32` vertex ids, optimised for the streaming access pattern of the
//!   feature-propagation kernel (Sec. V of the paper).
//! * [`GraphBuilder`] — edge-list ingestion with deduplication, optional
//!   symmetrisation (undirected closure) and self-loop removal.
//! * [`subgraph`] — parallel extraction of the *induced* subgraph on a
//!   vertex set, the output side of the frontier sampler (Alg. 2, line 8).
//! * [`neighborhood`] — one-hop [`FrontierBall`]s, cut to a row cap by
//!   [`FrontierScratch::capped`]: the tiles of layer-at-a-time inference
//!   over a store (serving and stored evaluation); and L-hop ball
//!   extraction around a query node set, the reference formulation that
//!   tests check it against (exact at the roots — see the module docs).
//! * [`stats`] — degree/connectivity statistics used to verify that sampled
//!   subgraphs preserve the connectivity characteristics of the training
//!   graph (Sec. III-C requirement 1).
//! * [`partition`] — vertex partitioners used by the 2-D partitioned
//!   propagation ablation (Theorem 2 compares against graph partitioning)
//!   and by the shard writer (BFS-grown locality-aware shards).
//! * [`io`] — text edge-list and compact binary (de)serialisation.
//! * [`store`] — the [`GraphStore`] abstraction over *where the graph
//!   lives*: fully resident ([`store::MemStore`]) or memory-mapped CSR
//!   shards behind a CLOCK cache with a bounded mapped-byte budget
//!   ([`store::MmapStore`]), chosen by whoever builds the store.
//!   Consumers read topology through the object-safe [`Topology`] trait,
//!   which [`CsrGraph`] also implements, one [`TopoView`] per walk —
//!   out-of-core access is a backend
//!   swap, not an API fork. See the `store` module docs for the shard
//!   format spec, cache policy and consistency rules.
//!
//! # Example
//!
//! ```
//! use gsgcn_graph::GraphBuilder;
//!
//! let g = GraphBuilder::new(4)
//!     .add_edge(0, 1)
//!     .add_edge(1, 2)
//!     .add_edge(2, 3)
//!     .symmetric(true)
//!     .build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.degree(1), 2);
//! ```

pub mod bitset;
pub mod builder;
pub mod csr;
pub mod io;
pub mod neighborhood;
pub mod partition;
pub mod stats;
pub mod store;
pub mod subgraph;

pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use neighborhood::{
    l_hop_ball, l_hop_subgraph, one_hop_frontier, FrontierBall, FrontierScratch, NeighborhoodBatch,
};
pub use store::{GraphStore, StoreBackend, StoreCacheStats, StoreOrder, TopoView, Topology};
pub use subgraph::{induced_subgraph, InducedSubgraph};
