//! Pipelined sampling: dedicated producer threads overlap subgraph
//! sampling with training compute.
//!
//! The synchronous path ([`crate::pool::SubgraphPool`]) stalls the whole
//! compute pool every `p_inter` iterations while a refill batch is
//! sampled, and the sampler sits idle the rest of the time. This module
//! decouples the two: `N` dedicated OS threads continuously sample ahead
//! of the consumer, so sampler latency hides behind compute (the paper's
//! Alg. 5 decoupling, taken from "refill when empty" to a true
//! producer–consumer pipeline).
//!
//! # Ticketing and determinism
//!
//! Workers draw [`Ticket`]s — `(batch, instance)` pairs in ascending
//! [`Ticket::sequence`] order — from a shared counter, and each subgraph
//! is sampled with the same `base_seed ⊕ hash(batch, instance)` seed
//! scheme as the synchronous pool. Ticket claiming is racy (whichever
//! worker is free takes the next one) but the *seed* of a ticket is a pure
//! function of its sequence number, so subgraph **contents** never depend
//! on worker count or interleaving.
//!
//! # Reorder buffer
//!
//! Workers finish out of order (sampling time varies per seed), so
//! delivery goes through a small reorder buffer: a `BTreeMap` keyed on the
//! ticket sequence. [`SamplerPipeline::pop`] only ever releases the next
//! in-order sequence, which makes the consumed stream identical to the
//! synchronous pool's pop order — batch-major, instance-minor — and hence
//! the training-loss trajectory bit-identical for a fixed seed.
//!
//! # Backpressure
//!
//! The buffer is bounded: `ready + in_flight < capacity` (default
//! `2·p_inter`, see [`PipelineConfig::capacity`]). Workers that would
//! overfill it park on a condvar until the consumer pops, so a fast
//! sampler cannot run unboundedly ahead of a slow trainer (subgraphs are
//! not free: budget-many vertices plus their edges each).
//!
//! # Shutdown protocol
//!
//! Dropping the pipeline sets a `stop` flag, wakes every parked worker,
//! and joins all worker threads. Workers re-check `stop` after every
//! condvar wake and before every claim, and a worker mid-sample finishes
//! its current subgraph first (sampling one subgraph is bounded work), so
//! drop — mid-epoch, at early-stop, or with the buffer full — cannot
//! deadlock. A worker that **panics** poisons the pipeline instead of
//! vanishing: the panic message is parked in the shared state, `stop` is
//! raised, and every subsequent [`SamplerPipeline::pop`] returns
//! [`PipelinePoisoned`] rather than blocking on a subgraph that will never
//! arrive.
//!
//! Worker threads are dedicated `std::thread` spawns, *not* rayon tasks:
//! nesting long-running sampler loops inside the compute pool would tie up
//! chunk-claiming workers the GEMMs need (the convoy limits noted in
//! ROADMAP), whereas OS threads just time-share with compute when cores
//! are scarce and overlap fully when they are not.

use crate::pool::Ticket;
use crate::GraphSampler;
use gsgcn_graph::{InducedSubgraph, Topology};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of a [`SamplerPipeline`].
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Dedicated sampler worker threads (≥ 1).
    pub workers: usize,
    /// Instances per seed batch (`p_inter`) — defines the ticket stream
    /// shared with the synchronous pool.
    pub p_inter: usize,
    /// Base seed of the `(batch, instance)` seed scheme.
    pub base_seed: u64,
    /// Backpressure bound on `ready + in-flight` subgraphs;
    /// `0` selects the default `max(2·p_inter, workers)`.
    pub capacity: usize,
}

impl PipelineConfig {
    fn effective_capacity(&self) -> usize {
        if self.capacity == 0 {
            (2 * self.p_inter).max(self.workers)
        } else {
            self.capacity
        }
    }
}

/// Error returned by [`SamplerPipeline::pop`] after a worker panicked.
///
/// The pipeline is permanently poisoned: the panic payload is preserved
/// and every subsequent pop fails with it instead of hanging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelinePoisoned {
    /// Stringified panic payload of the failed worker.
    pub message: String,
}

impl std::fmt::Display for PipelinePoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sampler worker panicked: {}", self.message)
    }
}

impl std::error::Error for PipelinePoisoned {}

/// Hook invoked by producer threads right after a subgraph lands in the
/// reorder buffer — i.e. *ahead* of the consumer popping it. The argument
/// is the subgraph's origin vertex set (advisory: must be cheap and must
/// not panic). No production code installs one; the hook stays because
/// the e2e harness still calls [`SamplerPipeline::set_on_ready`].
pub type ReadyHook = Arc<dyn Fn(&[u32]) + Send + Sync>;

/// Mutex-guarded pipeline state (see module docs for the protocol).
struct State {
    /// Bumped by [`SamplerPipeline::reset_with`]; deliveries from tickets
    /// claimed under an older generation are dropped.
    generation: u64,
    /// Next ticket sequence a producer will claim.
    next_ticket: u64,
    /// Next ticket sequence the consumer will release.
    next_out: u64,
    /// Reorder buffer: finished subgraphs keyed on ticket sequence.
    ready: BTreeMap<u64, InducedSubgraph>,
    /// Tickets claimed but not yet delivered to `ready`.
    in_flight: usize,
    /// Shutdown flag (drop or worker panic).
    stop: bool,
    /// Panic payload of the first worker that panicked.
    poisoned: Option<String>,
    /// Base seed of the `(batch, instance)` seed scheme (per generation).
    base_seed: u64,
    /// Sampler of the current generation (workers clone at claim time).
    sampler: Arc<dyn GraphSampler + Send + Sync>,
    /// Graph of the current generation (workers clone at claim time).
    graph: Arc<dyn Topology + Send + Sync>,
    /// Optional delivered-subgraph callback of the current generation.
    on_ready: Option<ReadyHook>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when capacity frees up (consumer popped) or on shutdown.
    can_produce: Condvar,
    /// Signalled when a subgraph lands in `ready` or on shutdown/poison.
    can_consume: Condvar,
    /// Total wall-clock nanoseconds workers spent inside the sampler,
    /// summed across threads (overlap accounting; see
    /// [`SamplerPipeline::producer_sampling_secs`]).
    sampling_nanos: AtomicU64,
    capacity: usize,
    p_inter: usize,
}

impl Shared {
    /// Lock the state, recovering from a poisoned mutex: a worker that
    /// panicked inside the (trivial) critical section must not take the
    /// consumer down with an opaque `PoisonError`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running sampler pipeline: `workers` producer threads plus the
/// consumer-side cursor and stall accounting. See the module docs.
pub struct SamplerPipeline {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Subgraphs popped so far (consumer-side, for reporting).
    popped: u64,
    /// Cumulative seconds the consumer spent blocked in [`Self::pop`].
    stall_secs: f64,
}

impl SamplerPipeline {
    /// Spawn `cfg.workers` sampler threads over `sampler` × `graph`.
    ///
    /// The sampler and graph are shared by `Arc` because the workers are
    /// detached OS threads that outlive any single training call; both are
    /// read-only during sampling ([`GraphSampler`] samples through
    /// `&self`). Generic over the topology backend so the same pipeline
    /// runs over an `Arc<CsrGraph>` or an `Arc<GraphStore>`.
    pub fn spawn<S, G>(sampler: Arc<S>, graph: Arc<G>, cfg: PipelineConfig) -> Self
    where
        S: GraphSampler + Send + Sync + 'static,
        G: Topology + Send + Sync + 'static,
    {
        assert!(cfg.workers >= 1, "pipeline needs at least one worker");
        assert!(cfg.p_inter >= 1, "p_inter must be ≥ 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                next_ticket: 0,
                next_out: 0,
                ready: BTreeMap::new(),
                in_flight: 0,
                stop: false,
                poisoned: None,
                base_seed: cfg.base_seed,
                sampler,
                graph,
                on_ready: None,
            }),
            can_produce: Condvar::new(),
            can_consume: Condvar::new(),
            sampling_nanos: AtomicU64::new(0),
            capacity: cfg.effective_capacity(),
            p_inter: cfg.p_inter,
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gsgcn-sampler-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn sampler worker thread")
            })
            .collect();
        SamplerPipeline {
            shared,
            workers,
            popped: 0,
            stall_secs: 0.0,
        }
    }

    /// Rewind the ticket stream over a (possibly new) sampler × graph ×
    /// seed, **reusing the existing worker threads** instead of joining
    /// and respawning them — the cheap way to run a hyper-parameter
    /// sweep's `train()` calls over one pipeline.
    ///
    /// The generation counter makes this safe mid-stream: tickets claimed
    /// before the reset deliver into the void (their subgraphs are
    /// dropped, never mixed into the new stream), so the consumed stream
    /// after a reset is bit-identical to the one a freshly spawned
    /// pipeline would produce. `p_inter` and capacity are fixed at spawn;
    /// consumer-side counters (`popped`, stall/sampling times) keep
    /// accumulating across generations.
    ///
    /// # Panics
    /// Panics if the pipeline is poisoned — its workers are gone, so a
    /// reset could never produce again.
    pub fn reset_with<S, G>(&mut self, sampler: Arc<S>, graph: Arc<G>, base_seed: u64)
    where
        S: GraphSampler + Send + Sync + 'static,
        G: Topology + Send + Sync + 'static,
    {
        let mut st = self.shared.lock();
        if let Some(message) = &st.poisoned {
            panic!("cannot reset a poisoned pipeline: {message}");
        }
        st.generation += 1;
        st.next_ticket = 0;
        st.next_out = 0;
        st.ready.clear();
        st.base_seed = base_seed;
        st.sampler = sampler;
        st.graph = graph;
        st.on_ready = None;
        drop(st);
        // `ready` just emptied: every parked producer has room again.
        self.shared.can_produce.notify_all();
    }

    /// Install (or clear) the delivered-subgraph hook for the current
    /// generation. Producers call it with each subgraph's origin set the
    /// moment the subgraph enters the reorder buffer — ahead of the
    /// consumer. Cleared automatically by [`Self::reset_with`]. Kept for
    /// the e2e harness; nothing in the library installs a hook.
    pub fn set_on_ready(&self, hook: Option<ReadyHook>) {
        self.shared.lock().on_ready = hook;
    }

    /// Pop the next subgraph in ticket-sequence order, blocking until a
    /// worker delivers it. Returns [`PipelinePoisoned`] (forever after)
    /// once any worker has panicked.
    pub fn pop(&mut self) -> Result<InducedSubgraph, PipelinePoisoned> {
        let t0 = Instant::now();
        let mut st = self.shared.lock();
        loop {
            let want = st.next_out;
            if let Some(sub) = st.ready.remove(&want) {
                st.next_out += 1;
                drop(st);
                // Exactly one capacity slot freed: wake one parked
                // producer (shutdown/poison use notify_all separately).
                self.shared.can_produce.notify_one();
                self.popped += 1;
                self.stall_secs += t0.elapsed().as_secs_f64();
                return Ok(sub);
            }
            if let Some(message) = &st.poisoned {
                let err = PipelinePoisoned {
                    message: message.clone(),
                };
                drop(st);
                self.stall_secs += t0.elapsed().as_secs_f64();
                return Err(err);
            }
            st = self
                .shared
                .can_consume
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Subgraphs consumed so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of sampler worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative seconds the consumer spent blocked inside [`Self::pop`]
    /// — the sampling time the pipeline failed to hide.
    pub fn consumer_stall_secs(&self) -> f64 {
        self.stall_secs
    }

    /// Cumulative wall-clock seconds workers spent sampling, summed over
    /// threads. `producer_sampling_secs() - consumer_stall_secs()` is the
    /// sampling work hidden behind compute (clamped at 0: with more
    /// workers than cores the sums can race ahead of consumer time).
    pub fn producer_sampling_secs(&self) -> f64 {
        self.shared.sampling_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Subgraphs currently buffered or being sampled (test/debug probe;
    /// bounded by the configured capacity).
    pub fn pending(&self) -> usize {
        let st = self.shared.lock();
        st.ready.len() + st.in_flight
    }
}

impl Drop for SamplerPipeline {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.stop = true;
        }
        self.shared.can_produce.notify_all();
        self.shared.can_consume.notify_all();
        for handle in self.workers.drain(..) {
            // Worker panics were already caught and parked in `poisoned`;
            // a join error here can only be a panic that escaped the
            // catch, which there is nothing better to do with on drop.
            let _ = handle.join();
        }
    }
}

/// Producer loop: claim the next ticket (parking when the buffer is
/// full), sample it outside the lock, deliver into the reorder buffer.
/// Sampler, graph, seed and hook are snapshotted at claim time so a
/// concurrent [`SamplerPipeline::reset_with`] can swap them without
/// racing a mid-sample worker; the generation stamp makes the stale
/// delivery detectable.
fn worker_loop(shared: &Shared) {
    loop {
        // --- Claim phase (under lock, with backpressure) ---
        let (generation, seq, seed, sampler, graph) = {
            let mut st = shared.lock();
            loop {
                if st.stop {
                    return;
                }
                if st.ready.len() + st.in_flight < shared.capacity {
                    break;
                }
                st = shared
                    .can_produce
                    .wait(st)
                    .unwrap_or_else(|p| p.into_inner());
            }
            let seq = st.next_ticket;
            st.next_ticket += 1;
            st.in_flight += 1;
            let seed = Ticket::from_sequence(seq, shared.p_inter).seed(st.base_seed);
            (
                st.generation,
                seq,
                seed,
                Arc::clone(&st.sampler),
                Arc::clone(&st.graph),
            )
        };

        // --- Sample phase (no lock held) ---
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| sampler.sample_subgraph(&*graph, seed)));
        shared
            .sampling_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);

        // --- Deliver phase ---
        let mut st = shared.lock();
        st.in_flight -= 1;
        match result {
            Ok(sub) => {
                if st.generation == generation {
                    // Announce before insertion — under the state lock, so
                    // the hook hears the origin set strictly before any
                    // pop can release the subgraph. The hook is
                    // advisory: a panicking hook is dropped, never allowed
                    // to kill the worker (which would wedge `pop`).
                    if let Some(hook) = st.on_ready.clone() {
                        if catch_unwind(AssertUnwindSafe(|| hook(&sub.origin))).is_err() {
                            st.on_ready = None;
                        }
                    }
                    st.ready.insert(seq, sub);
                    drop(st);
                    shared.can_consume.notify_all();
                } else {
                    // Stale ticket from before a reset: the subgraph is
                    // dropped, but its capacity slot frees a producer.
                    drop(st);
                    shared.can_produce.notify_one();
                }
            }
            Err(payload) => {
                st.poisoned.get_or_insert(panic_message(payload));
                st.stop = true;
                drop(st);
                shared.can_consume.notify_all();
                shared.can_produce.notify_all();
                return;
            }
        }
    }
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dashboard::{DashboardSampler, FrontierConfig};
    use crate::pool::SubgraphPool;
    use gsgcn_graph::{CsrGraph, GraphBuilder};
    use std::sync::atomic::AtomicUsize;

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

    fn cfg(workers: usize, p_inter: usize) -> PipelineConfig {
        PipelineConfig {
            workers,
            p_inter,
            base_seed: 42,
            capacity: 0,
        }
    }

    #[test]
    fn pipeline_matches_pool_order_across_worker_counts() {
        let g = Arc::new(ring(300));
        let s = Arc::new(sampler());
        let p_inter = 3;
        let n_pops = 11; // deliberately not a multiple of p_inter

        let mut pool = SubgraphPool::new(p_inter, 42);
        let reference: Vec<Vec<u32>> = (0..n_pops)
            .map(|_| pool.pop_or_refill(&*s, &*g).origin)
            .collect();

        for workers in [1usize, 2, 4] {
            let mut pipe =
                SamplerPipeline::spawn(Arc::clone(&s), Arc::clone(&g), cfg(workers, p_inter));
            let got: Vec<Vec<u32>> = (0..n_pops).map(|_| pipe.pop().unwrap().origin).collect();
            assert_eq!(got, reference, "{workers} workers diverged from pool order");
        }
    }

    #[test]
    fn backpressure_bounds_buffered_subgraphs() {
        let g = Arc::new(ring(300));
        let s = Arc::new(sampler());
        let p_inter = 2;
        let pipe = SamplerPipeline::spawn(s, g, cfg(4, p_inter));
        let capacity = (2 * p_inter).max(4);
        // Consume nothing: workers must fill to capacity and park.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let pending = pipe.pending();
        assert!(
            pending <= capacity,
            "pipeline ran ahead of backpressure: {pending} > {capacity}"
        );
        assert!(pending > 0, "workers produced nothing in 100ms");
    }

    #[test]
    fn drop_mid_stream_shuts_down_cleanly() {
        let g = Arc::new(ring(300));
        let s = Arc::new(sampler());
        for consumed in [0usize, 3] {
            let mut pipe = SamplerPipeline::spawn(Arc::clone(&s), Arc::clone(&g), cfg(2, 4));
            for _ in 0..consumed {
                pipe.pop().unwrap();
            }
            drop(pipe); // joins workers; deadlock here fails via test timeout
        }
    }

    /// Sampler that panics on its `panic_at`-th call (0-based).
    struct PanickySampler {
        inner: DashboardSampler,
        calls: AtomicUsize,
        panic_at: usize,
    }

    impl GraphSampler for PanickySampler {
        fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
            if self.calls.fetch_add(1, Ordering::SeqCst) == self.panic_at {
                panic!("injected sampler failure");
            }
            self.inner.sample_vertices(g, seed)
        }
        fn name(&self) -> &'static str {
            "panicky"
        }
    }

    #[test]
    fn panicking_worker_poisons_pop_instead_of_hanging() {
        let g = Arc::new(ring(300));
        for panic_at in [0usize, 3] {
            let s = Arc::new(PanickySampler {
                inner: sampler(),
                calls: AtomicUsize::new(0),
                panic_at,
            });
            let mut pipe = SamplerPipeline::spawn(s, Arc::clone(&g), cfg(2, 2));
            // Up to `capacity` subgraphs may already be in flight when the
            // panic hits; pops must hit the poison within that bound.
            let mut err = None;
            for _ in 0..16 {
                match pipe.pop() {
                    Ok(_) => continue,
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            let err = err.expect("pipeline never surfaced the worker panic");
            assert!(
                err.to_string().contains("injected sampler failure"),
                "unexpected message: {err}"
            );
            // Poison is sticky.
            assert_eq!(pipe.pop().unwrap_err(), err);
        }
    }

    #[test]
    fn reset_with_matches_fresh_spawn_bit_for_bit() {
        let g = Arc::new(ring(300));
        let s = Arc::new(sampler());
        let p_inter = 3;

        // Reference streams from freshly spawned pipelines.
        let fresh = |seed: u64, n: usize| -> Vec<Vec<u32>> {
            let mut pipe = SamplerPipeline::spawn(
                Arc::clone(&s),
                Arc::clone(&g),
                PipelineConfig {
                    workers: 2,
                    p_inter,
                    base_seed: seed,
                    capacity: 0,
                },
            );
            (0..n).map(|_| pipe.pop().unwrap().origin).collect()
        };
        let want_a = fresh(42, 7);
        let want_b = fresh(99, 7);

        // One pipeline, reset between "train() calls": streams identical,
        // including a reset taken mid-stream with subgraphs in flight.
        let mut pipe = SamplerPipeline::spawn(Arc::clone(&s), Arc::clone(&g), cfg(2, p_inter));
        pipe.reset_with(Arc::clone(&s), Arc::clone(&g), 42);
        let got_a: Vec<Vec<u32>> = (0..7).map(|_| pipe.pop().unwrap().origin).collect();
        assert_eq!(got_a, want_a, "first generation diverged");
        pipe.reset_with(Arc::clone(&s), Arc::clone(&g), 99);
        let got_b: Vec<Vec<u32>> = (0..7).map(|_| pipe.pop().unwrap().origin).collect();
        assert_eq!(got_b, want_b, "post-reset generation diverged");
        // And back again: no stale generation-0/1 subgraphs leak in.
        pipe.reset_with(Arc::clone(&s), Arc::clone(&g), 42);
        let again: Vec<Vec<u32>> = (0..7).map(|_| pipe.pop().unwrap().origin).collect();
        assert_eq!(again, want_a, "third generation diverged");
    }

    #[test]
    fn on_ready_hook_sees_origins_ahead_of_pop() {
        let g = Arc::new(ring(300));
        let s = Arc::new(sampler());
        let p_inter = 2;
        let mut pipe = SamplerPipeline::spawn(Arc::clone(&s), Arc::clone(&g), cfg(1, p_inter));
        let capacity = (2 * p_inter).max(1);
        let seen = Arc::new(Mutex::new(Vec::<Vec<u32>>::new()));
        let sink = Arc::clone(&seen);
        pipe.set_on_ready(Some(Arc::new(move |origin: &[u32]| {
            sink.lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(origin.to_vec());
        })));
        // Up to `capacity` subgraphs may have been delivered before the
        // hook was installed; everything claimed after the first pop is
        // guaranteed to announce through the hook before release.
        let popped: Vec<Vec<u32>> = (0..2 * capacity)
            .map(|_| pipe.pop().unwrap().origin)
            .collect();
        let seen = seen.lock().unwrap_or_else(|p| p.into_inner());
        for origin in &popped[capacity..] {
            assert!(seen.contains(origin), "popped origin never hit the hook");
        }
    }

    #[test]
    fn panicking_on_ready_hook_is_dropped_not_fatal() {
        let g = Arc::new(ring(300));
        let s = Arc::new(sampler());
        let mut pipe = SamplerPipeline::spawn(Arc::clone(&s), Arc::clone(&g), cfg(2, 2));
        pipe.set_on_ready(Some(Arc::new(|_: &[u32]| panic!("bad hook"))));
        // The stream keeps flowing: the broken hook is discarded, the
        // workers survive, and pops neither hang nor poison.
        for _ in 0..8 {
            pipe.pop().unwrap();
        }
    }

    /// Sampler that sleeps before delegating, so consumer pops measurably
    /// block and the stall accounting has something falsifiable to count.
    struct SlowSampler {
        inner: DashboardSampler,
        delay: std::time::Duration,
    }

    impl GraphSampler for SlowSampler {
        fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
            std::thread::sleep(self.delay);
            self.inner.sample_vertices(g, seed)
        }
        fn name(&self) -> &'static str {
            "slow"
        }
    }

    #[test]
    fn timing_counters_accumulate() {
        let g = Arc::new(ring(300));
        let delay = std::time::Duration::from_millis(20);
        let s = Arc::new(SlowSampler {
            inner: sampler(),
            delay,
        });
        let mut pipe = SamplerPipeline::spawn(s, g, cfg(1, 2));
        for _ in 0..4 {
            pipe.pop().unwrap();
        }
        assert_eq!(pipe.popped(), 4);
        assert_eq!(pipe.workers(), 1);
        assert!(pipe.producer_sampling_secs() >= 4.0 * delay.as_secs_f64() * 0.5);
        // With a single 20 ms/subgraph worker the consumer must have
        // genuinely blocked on at least the first pop: if blocked waits
        // were dropped from the accounting this would read ~0.
        assert!(
            pipe.consumer_stall_secs() >= 0.010,
            "stall {:.6}s — blocked waits not accounted?",
            pipe.consumer_stall_secs()
        );
    }
}
