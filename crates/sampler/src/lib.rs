//! Graph sampling: the paper's parallel Dashboard-based frontier sampler
//! (Sec. IV, Algorithms 2–4) plus everything around it.
//!
//! * [`rng`] — deterministic scalar and lane-batched xorshift generators.
//!   The lane-batched generator is the reproduction of the paper's AVX
//!   intra-subgraph parallelism (`p_intra`): 8 probe lanes advance together
//!   in a form LLVM auto-vectorises.
//! * [`dashboard`] — the Dashboard (`DB`) + index-array (`IA`) data
//!   structure and the frontier sampler built on it. Degree-proportional
//!   popping is done by uniform probing over slot blocks; frontier
//!   replacement appends incrementally; cleanup compacts lazily
//!   (amortised by the enlargement factor `η`).
//! * [`naive`] — the straightforward `O(m)`-per-pop frontier sampler the
//!   paper's Sec. IV-A calls "expensive given m = 1000"; kept as the
//!   ablation baseline and distribution ground truth.
//! * [`alt`] — alternative samplers (uniform node / edge, random walk,
//!   forest fire) for the "wider class of sampling algorithms" the paper
//!   lists as future work.
//! * [`pool`] — inter-subgraph parallelism: the shared `(batch, instance)`
//!   ticketing/seeding core, [`pool::sample_many`] (`p_inter`
//!   independently seeded instances in parallel, Alg. 5 lines 3–5) and
//!   the subgraph pool the benchmark harness still drives.
//! * [`pipeline`] — how the trainer samples, at every worker count:
//!   dedicated sampler worker threads continuously sample ticketed
//!   subgraphs (and gather their rows) into a bounded, order-restoring
//!   queue so sampling overlaps training compute; with no workers the
//!   consumer samples each seed batch inline, through the same ticket
//!   stream.
//! * [`cost_model`] — the analytic cost of Eq. (2) and the Theorem 1
//!   scalability bound.
//!
//! # Example
//!
//! ```
//! use gsgcn_graph::GraphBuilder;
//! use gsgcn_sampler::dashboard::{DashboardSampler, FrontierConfig};
//! use gsgcn_sampler::GraphSampler;
//!
//! let g = GraphBuilder::new(100)
//!     .add_edges((0..99u32).map(|i| (i, i + 1)))
//!     .build();
//! let sampler = DashboardSampler::new(FrontierConfig {
//!     frontier_size: 10,
//!     budget: 30,
//!     ..FrontierConfig::default()
//! });
//! let sub = sampler.sample_subgraph(&g, 42);
//! assert!(sub.num_vertices() <= 30);
//! ```

pub mod alt;
pub mod cost_model;
pub mod dashboard;
pub mod naive;
pub mod pipeline;
pub mod pool;
pub mod rng;
pub mod weighted;

use gsgcn_graph::{induced_subgraph, InducedSubgraph, Topology};

/// A graph-sampling algorithm: draws a vertex set from `g`.
///
/// Implementations must be deterministic in `(g, seed)` and cheap to share
/// across threads (`&self` sampling), so one configured sampler can drive
/// `p_inter` concurrent instances.
///
/// Topology is read through `&dyn Topology` so the same sampler runs
/// against a resident `CsrGraph` or a shard-backed `GraphStore` (a
/// `&CsrGraph` coerces implicitly at every call site). Both backends
/// expose identical neighbor order, so sampled vertex sets are
/// bit-identical for a fixed seed regardless of where the graph lives.
pub trait GraphSampler: Sync {
    /// Sample a vertex set (deduplicated, unsorted order unspecified).
    fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32>;

    /// Human-readable sampler name for reports.
    fn name(&self) -> &'static str;

    /// Sample and extract the induced subgraph (Alg. 2 line 8).
    fn sample_subgraph(&self, g: &dyn Topology, seed: u64) -> InducedSubgraph {
        let verts = self.sample_vertices(g, seed);
        induced_subgraph(g, &verts)
    }
}
