//! Inter-subgraph parallelism (Alg. 5, lines 3–5): the shared
//! ticketing/seeding core plus the subgraph pool.
//!
//! Sampling instances are mutually independent because the training-graph
//! topology is fixed across iterations, so the scheduler launches
//! `p_inter` samplers in parallel ([`sample_many`]) and fills a pool of
//! subgraphs that the training loop later pops one per iteration.
//!
//! Determinism: instance `i` of batch `b` uses seed
//! `base_seed ⊕ hash(b, i)`, so the pool's *contents* depend only on the
//! configuration — never on thread interleaving. The [`Ticket`] type is
//! the single source of that `(batch, instance) ↔ seed` mapping; this
//! pool and the sampler pipeline ([`crate::pipeline`]) derive their seeds
//! from it, which is what makes their streams bit-identical for a fixed
//! base seed.
//!
//! The trainer drives sampling through the pipeline only (with no worker
//! threads it samples each batch inline, through [`sample_many`]).
//! [`SubgraphPool`] remains because the e2e harness's traced training
//! loop still drives it, and the pipeline's tests compare their streams
//! against it; it goes once that loop drives the trainer's pipeline.

use crate::rng::splitmix64;
use crate::GraphSampler;
use gsgcn_graph::{InducedSubgraph, Topology};
use rayon::prelude::*;
use std::collections::VecDeque;

/// Derive the seed for sampler instance `instance` of refill batch `batch`.
pub fn instance_seed(base_seed: u64, batch: u64, instance: u64) -> u64 {
    let mut s = base_seed ^ batch.wrapping_mul(0x9E3779B97F4A7C15) ^ instance.rotate_left(17);
    splitmix64(&mut s)
}

/// A unit of sampling work: instance `instance` of refill batch `batch`.
///
/// Tickets order the training stream: subgraphs are consumed in ascending
/// [`Ticket::sequence`] order — batch-major, instance-minor — no matter
/// which source (the pool, pipeline workers, or a pipeline sampling
/// inline) produced them, and [`Ticket::seed`] is the one place the
/// per-instance RNG seed is derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket {
    /// Refill batch (`b` in the seed scheme).
    pub batch: u64,
    /// Instance within the batch (`i < p_inter`).
    pub instance: u64,
}

impl Ticket {
    /// The `seq`-th ticket of the stream with `p_inter` instances per batch.
    pub fn from_sequence(seq: u64, p_inter: usize) -> Self {
        let p = p_inter as u64;
        Ticket {
            batch: seq / p,
            instance: seq % p,
        }
    }

    /// The sampler seed for this ticket (the `base_seed ⊕ hash(b, i)`
    /// scheme shared by both sampling paths).
    pub fn seed(self, base_seed: u64) -> u64 {
        instance_seed(base_seed, self.batch, self.instance)
    }
}

/// Sample `count` subgraphs in parallel on the current rayon pool.
pub fn sample_many<S: GraphSampler + ?Sized>(
    sampler: &S,
    g: &dyn Topology,
    count: usize,
    base_seed: u64,
    batch: u64,
) -> Vec<InducedSubgraph> {
    (0..count)
        .into_par_iter()
        .map(|i| {
            let ticket = Ticket {
                batch,
                instance: i as u64,
            };
            sampler.sample_subgraph(g, ticket.seed(base_seed))
        })
        .collect()
}

/// A pool of pre-sampled subgraphs (`{G_i}` in Alg. 5).
///
/// `pop` takes the next subgraph; when the pool is empty the caller
/// invokes [`SubgraphPool::refill`], which launches `p_inter` parallel
/// sampler instances.
pub struct SubgraphPool {
    queue: VecDeque<InducedSubgraph>,
    base_seed: u64,
    batch: u64,
    /// Number of sampler instances launched per refill (`p_inter`).
    pub p_inter: usize,
}

impl SubgraphPool {
    /// Create an empty pool refilled `p_inter` subgraphs at a time.
    pub fn new(p_inter: usize, base_seed: u64) -> Self {
        assert!(p_inter >= 1);
        SubgraphPool {
            queue: VecDeque::new(),
            base_seed,
            batch: 0,
            p_inter,
        }
    }

    /// Subgraphs currently available.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Refill batches consumed so far.
    pub fn batches(&self) -> u64 {
        self.batch
    }

    /// Launch `p_inter` parallel sampler instances and enqueue their
    /// subgraphs (Alg. 5 lines 3–5).
    pub fn refill<S: GraphSampler + ?Sized>(&mut self, sampler: &S, g: &dyn Topology) {
        let subs = sample_many(sampler, g, self.p_inter, self.base_seed, self.batch);
        self.batch += 1;
        self.queue.extend(subs);
    }

    /// Pop the next subgraph, refilling first if the pool is empty
    /// (Alg. 5 lines 3–6).
    pub fn pop_or_refill<S: GraphSampler + ?Sized>(
        &mut self,
        sampler: &S,
        g: &dyn Topology,
    ) -> InducedSubgraph {
        if self.queue.is_empty() {
            self.refill(sampler, g);
        }
        self.queue
            .pop_front()
            .expect("refill produced no subgraphs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dashboard::{DashboardSampler, FrontierConfig};
    use crate::pipeline::{PipelineConfig, SamplerPipeline};
    use gsgcn_graph::{CsrGraph, GraphBuilder};
    use std::sync::Arc;

    fn ring(n: usize) -> CsrGraph {
        GraphBuilder::new(n)
            .add_edges((0..n as u32).map(|i| (i, (i + 1) % n as u32)))
            .build()
    }

    fn sampler() -> DashboardSampler {
        DashboardSampler::new(FrontierConfig {
            frontier_size: 5,
            budget: 25,
            ..FrontierConfig::default()
        })
    }

    #[test]
    fn refill_fills_p_inter_subgraphs() {
        let g = ring(200);
        let mut pool = SubgraphPool::new(4, 99);
        pool.refill(&sampler(), &g);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.batches(), 1);
    }

    #[test]
    fn pop_or_refill_auto_refills() {
        let g = ring(200);
        let mut pool = SubgraphPool::new(3, 1);
        let s = sampler();
        for i in 0..7 {
            let sub = pool.pop_or_refill(&s, &g);
            assert!(sub.num_vertices() > 0, "iteration {i}");
        }
        assert_eq!(pool.batches(), 3); // refills at iterations 0, 3, 6
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pool_contents_deterministic_across_thread_counts() {
        let g = Arc::new(ring(300));
        let s = Arc::new(sampler());
        // Pool order and, from a pipeline without workers (which samples
        // its batches on the caller's pool), the same stream.
        let run = |threads: usize| -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
            let tp = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            tp.install(|| {
                let mut pool = SubgraphPool::new(6, 42);
                pool.refill(&*s, &*g);
                let pooled = (0..6)
                    .map(|_| pool.pop_or_refill(&*s, &*g).origin)
                    .collect();
                let cfg = PipelineConfig {
                    workers: 0,
                    p_inter: 6,
                    base_seed: 42,
                    capacity: 0,
                };
                let mut pipe = SamplerPipeline::spawn(Arc::clone(&s), Arc::clone(&g), cfg);
                let piped = (0..6).map(|_| pipe.pop().unwrap().origin).collect();
                (pooled, piped)
            })
        };
        let (pooled, piped) = run(4);
        assert_eq!(
            run(1),
            (pooled.clone(), piped.clone()),
            "pool and inline pipeline contents must not depend on thread count"
        );
        assert_eq!(pooled, piped, "an inline pipeline left pool order");
    }

    #[test]
    fn ticket_sequence_roundtrip() {
        for p_inter in [1usize, 3, 4, 7] {
            for seq in 0..40u64 {
                let t = Ticket::from_sequence(seq, p_inter);
                assert!(t.instance < p_inter as u64);
                let back = t.batch * p_inter as u64 + t.instance;
                assert_eq!(back, seq, "p_inter {p_inter} seq {seq}");
            }
        }
    }

    #[test]
    fn ticket_seed_matches_instance_seed() {
        let t = Ticket {
            batch: 5,
            instance: 2,
        };
        assert_eq!(t.seed(99), instance_seed(99, 5, 2));
    }

    #[test]
    fn instance_seeds_distinct() {
        let mut seen = std::collections::HashSet::new();
        for b in 0..8u64 {
            for i in 0..8u64 {
                assert!(
                    seen.insert(instance_seed(7, b, i)),
                    "collision at ({b},{i})"
                );
            }
        }
    }

    #[test]
    fn different_instances_sample_different_subgraphs() {
        let g = ring(500);
        let subs = sample_many(&sampler(), &g, 4, 5, 0);
        // With 500 vertices and 25-vertex samples, identical outputs would
        // indicate seed reuse.
        assert!(
            subs.windows(2).any(|w| w[0].origin != w[1].origin),
            "all parallel instances produced identical subgraphs"
        );
    }
}
