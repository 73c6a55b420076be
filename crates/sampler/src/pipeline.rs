//! Pipelined sampling: producer threads overlap subgraph sampling — and,
//! for the trainer, the gather of each subgraph's feature and label rows
//! — with training compute; with no producer threads the consumer samples
//! and gathers inline, through the same ticket stream.
//!
//! Sampling every `p_inter` iterations on the compute thread stalls the
//! whole compute pool while a seed batch is sampled, and the sampler sits
//! idle the rest of the time. With `N ≥ 1` workers this module decouples
//! the two: `N` dedicated OS threads continuously sample ahead of the
//! consumer, so sampler latency hides behind compute (the paper's Alg. 5
//! decoupling, taken from "refill when empty" to a true
//! producer–consumer pipeline).
//!
//! # Ticketing and determinism
//!
//! Workers draw [`Ticket`]s — `(batch, instance)` pairs in ascending
//! [`Ticket::sequence`] order — from a shared counter, and each subgraph
//! is sampled with the `base_seed ⊕ hash(batch, instance)` seed scheme of
//! [`crate::pool`]. Ticket claiming is racy (whichever worker is free
//! takes the next one) but the *seed* of a ticket is a pure function of
//! its sequence number, so subgraph **contents** never depend on worker
//! count or interleaving.
//!
//! # Reorder buffer
//!
//! Workers finish out of order (sampling time varies per seed), so
//! delivery goes through a small reorder buffer: a `BTreeMap` keyed on the
//! ticket sequence. [`SamplerPipeline::pop`] only ever releases the next
//! in-order sequence, which makes the consumed stream batch-major,
//! instance-minor for every worker count — the order of
//! [`crate::pool::SubgraphPool`] — and hence the training-loss trajectory
//! bit-identical for a fixed seed.
//!
//! # No workers
//!
//! A pipeline spawned with `workers = 0` starts no thread. When the next
//! ticket is not in the reorder buffer, [`SamplerPipeline::pop`] samples
//! that ticket's whole seed batch itself, `p_inter` instances in parallel
//! on the caller's rayon pool ([`crate::pool::sample_many`], Alg. 5
//! lines 3–5), delivers them into the reorder buffer and advances the
//! same ticket counters, so the stream is the one the workers produce by
//! construction. A gathering pipeline then gathers the popped subgraph's
//! rows inline, on the consumer, with the same [`SubgraphRows::gather`]
//! ([`SamplerPipeline::consumer_gather_secs`] counts that time). Nothing
//! overlaps: the pop is sampling time, the gather is the consumer's.
//!
//! # Gathering
//!
//! A pipeline spawned with [`SamplerPipeline::spawn_gathering`] also
//! copies each sampled subgraph's feature and label rows out of a
//! [`GraphStore`] ([`SubgraphRows::gather`]) into a recycled buffer, and
//! delivers them with the subgraph, in ticket order:
//! [`SamplerPipeline::pop_gathered`] swaps them into the consumer's
//! buffer and takes the consumer's previous buffer back for the next
//! gather. Buffers are sized to the sampler's vertex budget when they are
//! made, at most `capacity` of them, so the steady state allocates
//! nothing. A failed gather is delivered in its ticket's place and
//! returned by that pop. [`SamplerPipeline::pause_gathers`] holds the
//! producers' gathers off (in-flight ones finish first) while the
//! consumer reads another store. A pipeline spawned with
//! [`SamplerPipeline::spawn`] delivers bare subgraphs.
//!
//! # Backpressure
//!
//! The buffer is bounded: `ready + in_flight < capacity` (default
//! `2·p_inter` bare, one subgraph per worker gathering; see
//! [`PipelineConfig::capacity`]). Workers that would overfill it park on a
//! condvar until the consumer pops, so a fast sampler cannot run
//! unboundedly ahead of a slow trainer. Subgraphs are not free —
//! budget-many vertices plus their edges each — and on a gathering
//! pipeline the bound also covers the gathered rows: at most
//! `capacity × budget rows × (f + classes) × 4 B` of them sit in the
//! queue, plus one buffer the consumer trains on. With no workers
//! `capacity` is ignored: the buffer holds the rest of one seed batch,
//! and no rows.
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
//! arrive. (With no workers a sampler panic unwinds out of `pop`.)
//!
//! Worker threads are dedicated `std::thread` spawns, *not* rayon tasks:
//! nesting long-running sampler loops inside the compute pool would tie up
//! chunk-claiming workers the GEMMs need (the convoy limits noted in
//! ROADMAP), whereas OS threads just time-share with compute when cores
//! are scarce and overlap fully when they are not.

use crate::pool::{sample_many, Ticket};
use crate::GraphSampler;
use gsgcn_graph::{GraphStore, InducedSubgraph, Topology};
use gsgcn_tensor::DMatrix;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of a [`SamplerPipeline`].
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Dedicated sampler worker threads; `0` samples (and gathers) inline
    /// on the consumer (module docs, "No workers").
    pub workers: usize,
    /// Instances per seed batch (`p_inter`) — defines the ticket stream.
    pub p_inter: usize,
    /// Base seed of the `(batch, instance)` seed scheme.
    pub base_seed: u64,
    /// Backpressure bound on `ready + in-flight` subgraphs; `0` selects
    /// the default: `max(2·p_inter, workers)` for a bare pipeline,
    /// `workers` (one subgraph ahead per worker) for a gathering one,
    /// whose slots each hold a subgraph's rows. Ignored with no workers.
    pub capacity: usize,
}

impl PipelineConfig {
    fn effective_capacity(&self, gathering: bool) -> usize {
        match (self.capacity, gathering) {
            (0, false) => (2 * self.p_inter).max(self.workers),
            (0, true) => self.workers,
            (capacity, _) => capacity,
        }
    }
}

/// Feature and label rows of one subgraph: row `i` of each belongs to the
/// subgraph's `origin[i]`.
#[derive(Debug)]
pub struct SubgraphRows {
    pub features: DMatrix,
    pub labels: DMatrix,
}

impl SubgraphRows {
    /// Buffers for up to `max_rows` rows of `store`'s features and labels,
    /// allocated at that size once, so gathers of any subgraph within the
    /// sampler's vertex budget reuse them. A large zeroed allocation takes
    /// fresh pages: rows no gather reaches do not become resident.
    pub fn with_capacity(store: &GraphStore, max_rows: usize) -> Self {
        SubgraphRows {
            features: DMatrix::zeros(max_rows, store.feature_dim()),
            labels: DMatrix::zeros(max_rows, store.label_dim()),
        }
    }

    /// Gather the feature and label rows of `origin` from `store` into
    /// these buffers, reusing their capacity (Alg. 1 line 5). The one
    /// gather of a training step: a gathering pipeline's producers run
    /// it, or its consumer when there are none. On the mmap backend this
    /// is the out-of-core read through the shard cache; the error names
    /// the gather that failed.
    pub fn gather(&mut self, store: &GraphStore, origin: &[u32]) -> Result<(), String> {
        store
            .gather_features_into(origin, &mut self.features)
            .map_err(|e| format!("feature gather from graph store failed: {e}"))?;
        store
            .gather_labels_into(origin, &mut self.labels)
            .map_err(|e| format!("label gather from graph store failed: {e}"))
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

/// Hook invoked right after a subgraph lands in the reorder buffer — i.e.
/// *ahead* of the consumer popping it. The argument is the subgraph's
/// origin vertex set (advisory: must be cheap and must not panic). No
/// production code installs one; the hook stays because the e2e harness
/// still calls [`SamplerPipeline::set_on_ready`].
pub type ReadyHook = Arc<dyn Fn(&[u32]) + Send + Sync>;

/// What one ticket delivers: the subgraph and, when a producer gathered
/// them, its rows or the error of their gather.
struct Delivery {
    sub: InducedSubgraph,
    rows: Option<Result<SubgraphRows, String>>,
}

/// Mutex-guarded pipeline state (see module docs for the protocol).
struct State {
    /// Next ticket sequence to sample.
    next_ticket: u64,
    /// Next ticket sequence the consumer will release.
    next_out: u64,
    /// Reorder buffer: finished deliveries keyed on ticket sequence.
    ready: BTreeMap<u64, Delivery>,
    /// Tickets claimed but not yet delivered to `ready`.
    in_flight: usize,
    /// Shutdown flag (drop or worker panic).
    stop: bool,
    /// Panic payload of the first worker that panicked.
    poisoned: Option<String>,
    /// Row buffers back from the consumer, for the next gathers.
    free_rows: Vec<SubgraphRows>,
    /// Live [`GatherPause`] guards: no producer gather starts while this
    /// is > 0.
    gathers_paused: usize,
    /// Producers inside a gather right now.
    gathering: usize,
    /// Optional delivered-subgraph callback.
    on_ready: Option<ReadyHook>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when capacity frees up (consumer popped) or on shutdown.
    can_produce: Condvar,
    /// Signalled when a subgraph lands in `ready` or on shutdown/poison.
    can_consume: Condvar,
    /// Signalled when the last pause lifts, when a gather ends while a
    /// pause waits for it, and on shutdown.
    gather_turn: Condvar,
    /// Total wall-clock nanoseconds workers spent inside the sampler,
    /// summed across threads (overlap accounting; see
    /// [`SamplerPipeline::producer_sampling_secs`]).
    sampling_nanos: AtomicU64,
    /// Total wall-clock nanoseconds workers spent gathering rows, summed
    /// across threads ([`SamplerPipeline::producer_gather_secs`]).
    gather_nanos: AtomicU64,
    capacity: usize,
    p_inter: usize,
    base_seed: u64,
    sampler: Arc<dyn GraphSampler + Send + Sync>,
    graph: Arc<dyn Topology + Send + Sync>,
    /// Store to gather rows from and the most rows one subgraph has
    /// (`None`: bare subgraphs).
    rows_from: Option<(Arc<GraphStore>, usize)>,
}

impl Shared {
    /// Lock the state, recovering from a poisoned mutex: a worker that
    /// panicked inside the (trivial) critical section must not take the
    /// consumer down with an opaque `PoisonError`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(st).unwrap_or_else(|p| p.into_inner())
    }

    /// Put ticket `seq`'s delivery into the reorder buffer, announcing
    /// its origin set to the hook first — under the state lock, so the
    /// hook hears it strictly before any pop can release the subgraph.
    /// The hook is advisory: a panicking hook is dropped, never allowed to
    /// kill a worker (which would wedge `pop`).
    fn deliver(&self, st: &mut State, seq: u64, delivery: Delivery) {
        if let Some(hook) = st.on_ready.clone() {
            if catch_unwind(AssertUnwindSafe(|| hook(&delivery.sub.origin))).is_err() {
                st.on_ready = None;
            }
        }
        st.ready.insert(seq, delivery);
    }

    /// Sample the seed batch of the next ticket on the caller's rayon pool
    /// and deliver it (module docs, "No workers"). Without workers every
    /// sampled ticket is popped before the next batch is due, so the next
    /// ticket opens its batch and the whole batch is the rest of it.
    fn sample_inline(&self, st: &mut State) {
        let ticket = Ticket::from_sequence(st.next_ticket, self.p_inter);
        debug_assert_eq!(ticket.instance, 0, "inline sampling starts a batch");
        let subs = sample_many(
            &*self.sampler,
            &*self.graph,
            self.p_inter,
            self.base_seed,
            ticket.batch,
        );
        for sub in subs {
            let seq = st.next_ticket;
            st.next_ticket += 1;
            self.deliver(st, seq, Delivery { sub, rows: None });
        }
    }
}

/// A running sampler pipeline: `workers` producer threads (possibly none)
/// plus the consumer-side cursor and stall accounting. See the module
/// docs.
pub struct SamplerPipeline {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Subgraphs popped so far (consumer-side, for reporting).
    popped: u64,
    /// Cumulative seconds the consumer spent blocked (or, with no
    /// workers, sampling) in [`Self::pop`].
    stall_secs: f64,
    /// Cumulative seconds the consumer spent gathering rows inline.
    gather_secs: f64,
}

/// Holds a pipeline's gathers off while it lives; see
/// [`SamplerPipeline::pause_gathers`].
pub struct GatherPause<'a> {
    shared: &'a Shared,
}

impl Drop for GatherPause<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.gathers_paused -= 1;
        let resume = st.gathers_paused == 0;
        drop(st);
        if resume {
            self.shared.gather_turn.notify_all();
        }
    }
}

impl SamplerPipeline {
    /// Spawn `cfg.workers` sampler threads over `sampler` × `graph`,
    /// delivering bare subgraphs.
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
        Self::start(sampler, graph, None, cfg)
    }

    /// Spawn `cfg.workers` sampler threads that sample from `store` and
    /// gather each subgraph's feature and label rows from it too, into
    /// buffers of `max_rows` rows (the sampler's vertex budget) allocated
    /// once each; pop with [`Self::pop_gathered`]. See the module docs'
    /// "Gathering".
    pub fn spawn_gathering<S>(
        sampler: Arc<S>,
        store: Arc<GraphStore>,
        max_rows: usize,
        cfg: PipelineConfig,
    ) -> Self
    where
        S: GraphSampler + Send + Sync + 'static,
    {
        Self::start(sampler, store.clone(), Some((store, max_rows)), cfg)
    }

    fn start(
        sampler: Arc<dyn GraphSampler + Send + Sync>,
        graph: Arc<dyn Topology + Send + Sync>,
        rows_from: Option<(Arc<GraphStore>, usize)>,
        cfg: PipelineConfig,
    ) -> Self {
        assert!(cfg.p_inter >= 1, "p_inter must be ≥ 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_ticket: 0,
                next_out: 0,
                ready: BTreeMap::new(),
                in_flight: 0,
                stop: false,
                poisoned: None,
                free_rows: Vec::new(),
                gathers_paused: 0,
                gathering: 0,
                on_ready: None,
            }),
            can_produce: Condvar::new(),
            can_consume: Condvar::new(),
            gather_turn: Condvar::new(),
            sampling_nanos: AtomicU64::new(0),
            gather_nanos: AtomicU64::new(0),
            capacity: cfg.effective_capacity(rows_from.is_some()),
            p_inter: cfg.p_inter,
            base_seed: cfg.base_seed,
            sampler,
            graph,
            rows_from,
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
            gather_secs: 0.0,
        }
    }

    /// Install (or clear) the delivered-subgraph hook. It hears each
    /// subgraph's origin set the moment the subgraph enters the reorder
    /// buffer — ahead of the consumer. Kept for the e2e harness; nothing
    /// in the library installs a hook.
    pub fn set_on_ready(&self, hook: Option<ReadyHook>) {
        self.shared.lock().on_ready = hook;
    }

    /// Pop the next subgraph in ticket-sequence order, blocking until a
    /// worker delivers it (with no workers: sampling its seed batch
    /// first). Returns [`PipelinePoisoned`] (forever after) once any
    /// worker has panicked. On a gathering pipeline the rows delivered
    /// with the subgraph go straight back to the producers.
    pub fn pop(&mut self) -> Result<InducedSubgraph, PipelinePoisoned> {
        self.pop_with(|st, delivery| {
            if let Some(Ok(rows)) = delivery.rows {
                st.free_rows.push(rows);
            }
            delivery.sub
        })
    }

    /// Pop the next subgraph of a gathering pipeline with its rows in
    /// `rows`: a producer's buffers are swapped in, and the buffers `rows`
    /// held go back to the producers for a later gather; with no workers
    /// the rows are gathered into `rows` here. Fails, in the failed
    /// ticket's place, with the error of its gather; with
    /// [`PipelinePoisoned`]'s message once a worker has panicked; and on
    /// a pipeline that does not gather.
    pub fn pop_gathered(&mut self, rows: &mut SubgraphRows) -> Result<InducedSubgraph, String> {
        let (sub, gathered) = self
            .pop_with(|st, delivery| {
                let gathered = delivery.rows.map(|got| {
                    got.map(|mut got| {
                        std::mem::swap(rows, &mut got);
                        st.free_rows.push(got);
                    })
                });
                (delivery.sub, gathered)
            })
            .map_err(|e| e.to_string())?;
        match (gathered, &self.shared.rows_from) {
            (Some(gathered), _) => gathered.map(|()| sub),
            (None, Some((store, _))) => {
                let t0 = Instant::now();
                let gathered = rows.gather(store, &sub.origin);
                self.gather_secs += t0.elapsed().as_secs_f64();
                gathered.map(|()| sub)
            }
            (None, None) => Err("the sampler pipeline does not gather rows".to_string()),
        }
    }

    /// Wait for the next in-order delivery — sampling its batch first
    /// when there are no workers — and hand it to `take` under the state
    /// lock.
    fn pop_with<T>(
        &mut self,
        take: impl FnOnce(&mut State, Delivery) -> T,
    ) -> Result<T, PipelinePoisoned> {
        let t0 = Instant::now();
        let mut st = self.shared.lock();
        loop {
            let want = st.next_out;
            if let Some(delivery) = st.ready.remove(&want) {
                st.next_out += 1;
                let out = take(&mut st, delivery);
                drop(st);
                // Exactly one capacity slot freed: wake one parked
                // producer (shutdown/poison use notify_all separately).
                self.shared.can_produce.notify_one();
                self.popped += 1;
                self.stall_secs += t0.elapsed().as_secs_f64();
                return Ok(out);
            }
            if let Some(message) = &st.poisoned {
                let err = PipelinePoisoned {
                    message: message.clone(),
                };
                drop(st);
                self.stall_secs += t0.elapsed().as_secs_f64();
                return Err(err);
            }
            if self.workers.is_empty() {
                self.shared.sample_inline(&mut st);
            } else {
                st = self.shared.wait(&self.shared.can_consume, st);
            }
        }
    }

    /// Hold off producer gathers until the returned guard drops: gathers
    /// already running finish before this returns, and producers that
    /// finish sampling meanwhile wait to gather (sampling itself goes on).
    /// For a consumer that is about to read another store and must not
    /// have this pipeline's store mapping rows at the same time. (With no
    /// workers the only gathers are the consumer's own.)
    pub fn pause_gathers(&self) -> GatherPause<'_> {
        let mut st = self.shared.lock();
        st.gathers_paused += 1;
        while st.gathering > 0 {
            st = self.shared.wait(&self.shared.gather_turn, st);
        }
        GatherPause {
            shared: &self.shared,
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

    /// Cumulative seconds the consumer spent inside [`Self::pop`] —
    /// blocked on the workers, or with none sampling — i.e. the sampling
    /// time the pipeline failed to hide.
    pub fn consumer_stall_secs(&self) -> f64 {
        self.stall_secs
    }

    /// Cumulative seconds [`Self::pop_gathered`] spent gathering rows on
    /// the consumer (with no workers; 0 otherwise).
    pub fn consumer_gather_secs(&self) -> f64 {
        self.gather_secs
    }

    /// Cumulative wall-clock seconds workers spent sampling, summed over
    /// threads (gathers excluded: [`Self::producer_gather_secs`]; 0 with
    /// no workers). `producer_sampling_secs() - consumer_stall_secs()` is
    /// the sampling work hidden behind compute (clamped at 0: with more
    /// workers than cores the sums can race ahead of consumer time).
    pub fn producer_sampling_secs(&self) -> f64 {
        self.shared.sampling_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Cumulative wall-clock seconds workers spent gathering rows, summed
    /// over threads (0 on a bare pipeline or with no workers).
    pub fn producer_gather_secs(&self) -> f64 {
        self.shared.gather_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Subgraphs currently buffered or being sampled (test/debug probe;
    /// bounded by the configured capacity when there are workers).
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
        self.shared.gather_turn.notify_all();
        for handle in self.workers.drain(..) {
            // Worker panics were already caught and parked in `poisoned`;
            // a join error here can only be a panic that escaped the
            // catch, which there is nothing better to do with on drop.
            let _ = handle.join();
        }
    }
}

/// Producer loop: claim the next ticket (parking when the buffer is
/// full), sample it — and gather its rows, on a gathering pipeline —
/// outside the lock, deliver into the reorder buffer.
fn worker_loop(shared: &Shared) {
    loop {
        // --- Claim phase (under lock, with backpressure) ---
        let seq = {
            let mut st = shared.lock();
            loop {
                if st.stop {
                    return;
                }
                if st.ready.len() + st.in_flight < shared.capacity {
                    break;
                }
                st = shared.wait(&shared.can_produce, st);
            }
            let seq = st.next_ticket;
            st.next_ticket += 1;
            st.in_flight += 1;
            seq
        };
        let seed = Ticket::from_sequence(seq, shared.p_inter).seed(shared.base_seed);

        // --- Sample phase (no lock held) ---
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            shared.sampler.sample_subgraph(&*shared.graph, seed)
        }));
        shared
            .sampling_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);

        // --- Gather phase (gathering pipelines; no lock held) ---
        let result = match (result, &shared.rows_from) {
            (Ok(sub), Some((store, max_rows))) => gather_rows(shared, store, *max_rows, sub),
            (result, _) => result.map(|sub| Delivery { sub, rows: None }),
        };

        // --- Deliver phase ---
        let mut st = shared.lock();
        st.in_flight -= 1;
        match result {
            Ok(delivery) => {
                shared.deliver(&mut st, seq, delivery);
                drop(st);
                shared.can_consume.notify_all();
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

/// Gather `sub`'s rows from `store` once no [`GatherPause`] is held, into
/// a recycled buffer or, while fewer than `capacity` exist, a new one of
/// `max_rows` rows. A pipeline that stopped meanwhile delivers the bare
/// subgraph: nobody will read its rows. A gather that panics is returned
/// as the panic, like a sampler's.
fn gather_rows(
    shared: &Shared,
    store: &GraphStore,
    max_rows: usize,
    sub: InducedSubgraph,
) -> std::thread::Result<Delivery> {
    let mut rows = {
        let mut st = shared.lock();
        while st.gathers_paused > 0 && !st.stop {
            st = shared.wait(&shared.gather_turn, st);
        }
        if st.stop {
            return Ok(Delivery { sub, rows: None });
        }
        st.gathering += 1;
        st.free_rows
            .pop()
            .unwrap_or_else(|| SubgraphRows::with_capacity(store, max_rows))
    };
    let t0 = Instant::now();
    let gathered = catch_unwind(AssertUnwindSafe(|| rows.gather(store, &sub.origin)));
    shared
        .gather_nanos
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let mut st = shared.lock();
    st.gathering -= 1;
    let paused = st.gathers_paused > 0;
    let rows = match gathered {
        Ok(Ok(())) => Ok(Ok(rows)),
        Ok(Err(e)) => {
            st.free_rows.push(rows);
            Ok(Err(e))
        }
        Err(payload) => Err(payload),
    };
    drop(st);
    if paused {
        // A pause may be waiting for this gather to end.
        shared.gather_turn.notify_all();
    }
    rows.map(|rows| Delivery {
        sub,
        rows: Some(rows),
    })
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

        for workers in [0usize, 1, 2, 4] {
            let mut pipe =
                SamplerPipeline::spawn(Arc::clone(&s), Arc::clone(&g), cfg(workers, p_inter));
            let got: Vec<Vec<u32>> = (0..n_pops).map(|_| pipe.pop().unwrap().origin).collect();
            assert_eq!(got, reference, "{workers} workers diverged from pool order");
            let mut rows = SubgraphRows {
                features: DMatrix::zeros(0, 0),
                labels: DMatrix::zeros(0, 0),
            };
            let err = pipe.pop_gathered(&mut rows).unwrap_err();
            assert!(err.contains("does not gather"), "{err}");
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

    /// A ring whose vertex `v` has feature row `[v, v²]` and label row
    /// `[v mod 3]`, behind the mem backend.
    fn ring_store(n: usize) -> Arc<GraphStore> {
        let features = DMatrix::from_fn(n, 2, |v, j| (v.pow(j as u32 + 1)) as f32);
        let labels = DMatrix::from_fn(n, 1, |v, _| (v % 3) as f32);
        Arc::new(GraphStore::mem(
            Arc::new(ring(n)),
            Some(Arc::new(features)),
            Some(Arc::new(labels)),
        ))
    }

    #[test]
    fn gathering_pipeline_delivers_pool_order_with_their_rows() {
        let store = ring_store(300);
        let s = Arc::new(sampler());
        let p_inter = 3;
        let mut pool = SubgraphPool::new(p_inter, 42);
        let reference: Vec<Vec<u32>> = (0..12)
            .map(|_| pool.pop_or_refill(&*s, &*store).origin)
            .collect();
        let (gathered, last) = reference.split_at(11);
        let mut want = SubgraphRows::with_capacity(&store, 25);
        for workers in [0usize, 1, 2] {
            let cfg = cfg(workers, p_inter);
            let mut pipe =
                SamplerPipeline::spawn_gathering(Arc::clone(&s), Arc::clone(&store), 25, cfg);
            let mut rows = SubgraphRows::with_capacity(&store, 25);
            for origin in gathered {
                let sub = pipe.pop_gathered(&mut rows).unwrap();
                assert_eq!(&sub.origin, origin, "{workers} workers left pool order");
                want.gather(&store, origin).unwrap();
                assert_eq!(rows.features, want.features);
                assert_eq!(rows.labels, want.labels);
            }
            // Producers gather when there are any; otherwise the consumer.
            assert_eq!(pipe.producer_gather_secs() > 0.0, workers > 0);
            assert_eq!(pipe.consumer_gather_secs() > 0.0, workers == 0);
            // A bare pop still delivers the next subgraph in order.
            assert_eq!(pipe.pop().unwrap().origin, last[0]);
        }
    }

    #[test]
    fn failed_gathers_are_delivered_in_order_without_poisoning() {
        // A store without feature rows: every gather fails.
        let store = Arc::new(GraphStore::mem(Arc::new(ring(300)), None, None));
        let s = Arc::new(sampler());
        for workers in [0usize, 2] {
            let cfg = cfg(workers, 2);
            let mut pipe =
                SamplerPipeline::spawn_gathering(Arc::clone(&s), Arc::clone(&store), 25, cfg);
            let mut rows = SubgraphRows {
                features: DMatrix::zeros(0, 0),
                labels: DMatrix::zeros(0, 0),
            };
            for _ in 0..5 {
                let err = pipe.pop_gathered(&mut rows).unwrap_err();
                assert!(
                    err.starts_with("feature gather from graph store failed"),
                    "{workers} workers: {err}"
                );
            }
            assert_eq!(
                pipe.popped(),
                5,
                "each failed ticket is consumed in its place"
            );
            pipe.pop()
                .expect("a failed gather does not poison the pipeline");
        }
    }

    #[test]
    fn pause_gathers_holds_gathers_until_dropped() {
        let store = ring_store(300);
        let s = Arc::new(sampler());
        let mut pipe = SamplerPipeline::spawn_gathering(s, Arc::clone(&store), 25, cfg(2, 2));
        let mut rows = SubgraphRows::with_capacity(&store, 25);
        pipe.pop_gathered(&mut rows).unwrap();
        let pause = pipe.pause_gathers();
        // In-flight gathers finished before the pause returned; no new
        // one starts while it is held, though producers go on sampling.
        let gathered = pipe.producer_gather_secs();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(pipe.producer_gather_secs(), gathered);
        drop(pause);
        for _ in 0..4 {
            pipe.pop_gathered(&mut rows).unwrap();
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
