//! The batched inference engine: a bounded request queue, a coalescing
//! batcher and N worker threads sharing one immutable model.
//!
//! See the crate docs for the dataflow picture. Design points:
//!
//! * **Bounded queue + admission** — what a full queue does is
//!   [`AdmissionControl`]'s call: `Block` parks the caller
//!   (backpressure, the PR-4 pipeline bound applied to the serving
//!   side), `Shed` fails the minimum-weight request with
//!   [`ServeError::Overloaded`] and claims work by weight (see
//!   [`crate::admission`]). Submission to a stopped or poisoned engine
//!   fails immediately; [`BatchEngine::try_submit`] is the non-blocking
//!   variant. The event front-end submits through a crate-private
//!   variant that also names its doorbell (`poll::Wake`): the engine
//!   rings it when it fulfils one of those requests, and when a worker
//!   frees queue space that a refused (Block-mode `Full`) submit waits
//!   for, so the front-end can block in `poll(2)` instead of retrying on
//!   a timer.
//! * **Coalescing batcher** — work-conserving ("natural batching"): a
//!   free worker claims everything queued that fits `max_batch` query
//!   nodes and goes. Batches form from what arrived while the workers
//!   were busy, never from time: no worker sleeps on a timer while a
//!   request is queued, so a lone request is served at once, and under
//!   load the queue that builds behind a busy worker is the next batch —
//!   small concurrent requests still share one frontier extraction +
//!   forward. A single request larger than `max_batch` is served alone
//!   (requests are never split); a request that no longer fits ends the
//!   batch and heads the next one.
//! * **Workers** — dedicated OS threads (not rayon tasks — same
//!   reasoning as the sampler pipeline: long-lived loops must not sit in
//!   the compute pool the GEMMs need). Each owns a
//!   [`ClassifyWorkspace`], so a warm worker classifies without matrix
//!   allocations; the model/graph/features are shared immutably through
//!   the [`NodeClassifier`].
//! * **Shutdown** — dropping the engine raises the stop flag, wakes
//!   every parked thread and joins the workers (the PR-4
//!   stop-flag+join protocol). Requests still queued at shutdown fail
//!   with [`ServeError::ShuttingDown`]; a batch already claimed by a
//!   worker is finished first (bounded work).
//! * **Panic containment** — a worker panic is caught, the payload is
//!   parked in the shared state, and the engine is *poisoned*: the
//!   failing batch's requests, everything still queued and every future
//!   submit or wait fail with [`ServeError::WorkerPanicked`] instead of
//!   hanging a client forever.

use crate::admission::{AdmissionControl, Frontier};
use crate::classifier::{BatchClassify, ClassifyWorkspace, NodeClassifier, Prediction};
use crate::poll::Wake;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`BatchEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads running forwards (≥ 1).
    pub workers: usize,
    /// Coalescing bound: maximum query nodes per forward batch.
    pub max_batch: usize,
    /// Ignored since PR 17, kept for source compatibility with the e2e
    /// harness (which builds this struct as a literal): the batcher is
    /// work-conserving and has no coalescing window — see the module docs.
    pub max_wait: Duration,
    /// Bound on queued (not yet claimed) requests; what happens beyond
    /// it is `admission`'s call.
    pub queue_capacity: usize,
    /// Full-queue policy: [`AdmissionControl::Block`] parks submitters
    /// (backpressure, the original engine behavior);
    /// [`AdmissionControl::Shed`] never blocks — the minimum-weight
    /// request fails with [`ServeError::Overloaded`] instead.
    pub admission: AdmissionControl,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            max_batch: 64,
            max_wait: Duration::ZERO,
            queue_capacity: 1024,
            admission: AdmissionControl::Block,
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("engine needs at least one worker".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be ≥ 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be ≥ 1".into());
        }
        Ok(())
    }
}

/// Why a request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request itself was invalid (e.g. node id out of range).
    BadRequest(String),
    /// The engine is shutting down; the request was not served.
    ShuttingDown,
    /// A worker thread panicked; the engine is poisoned.
    WorkerPanicked(String),
    /// Admission control shed this request under overload
    /// ([`AdmissionControl::Shed`] with a full queue). The client may
    /// retry with backoff.
    Overloaded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::WorkerPanicked(m) => write!(f, "serve worker panicked: {m}"),
            ServeError::Overloaded => write!(f, "overloaded"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of [`BatchEngine::try_submit`] when the request was not
/// enqueued.
#[derive(Debug)]
pub enum TrySubmitError {
    /// Block-mode queue is full right now; the nodes are handed back so
    /// the caller can retry without re-validating or re-allocating.
    Full(Vec<u32>),
    /// The request failed for real (bad ids, shutdown, poisoned engine,
    /// or shed under overload).
    Rejected(ServeError),
}

/// One-shot response slot shared between the submitting client and the
/// worker that serves the request.
struct ResponseSlot {
    result: Mutex<Option<Result<Vec<Prediction>, ServeError>>>,
    ready: Condvar,
    /// The front-end to ring once the result is published.
    wake: Option<Arc<Wake>>,
}

impl ResponseSlot {
    fn fulfill(&self, r: Result<Vec<Prediction>, ServeError>) {
        self.publish(r);
        if let Some(wake) = &self.wake {
            wake.wake();
        }
    }

    /// [`ResponseSlot::fulfill`] without ringing `wake`: the caller rings.
    fn publish(&self, r: Result<Vec<Prediction>, ServeError>) {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        // First writer wins (a poisoning sweep may race the worker that
        // already owns the batch).
        if slot.is_none() {
            *slot = Some(r);
        }
        drop(slot);
        self.ready.notify_all();
    }
}

/// Handle returned by [`BatchEngine::submit`]; redeem with
/// [`ResponseHandle::wait`].
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    /// Block until the engine answers (or fails) this request.
    pub fn wait(self) -> Result<Vec<Prediction>, ServeError> {
        let mut guard = self.slot.result.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking poll: `Some` exactly once, when the engine has
    /// answered. The event-driven front-end sweeps its in-flight
    /// requests with this instead of parking a thread per connection.
    pub fn try_take(&self) -> Option<Result<Vec<Prediction>, ServeError>> {
        self.slot
            .result
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
    }
}

/// A queued request: the node batch plus its response slot.
struct QueuedRequest {
    nodes: Vec<u32>,
    slot: Arc<ResponseSlot>,
}

/// Mutex-guarded engine state.
struct State {
    queue: Frontier<QueuedRequest>,
    stop: bool,
    poisoned: Option<String>,
    /// Front-ends refused with `Full` since the last claim, each once:
    /// rung when a worker frees queue space (or the engine stops).
    space_waiters: Vec<Arc<Wake>>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a request lands in the queue or on shutdown.
    can_work: Condvar,
    /// Signalled when queue space frees up or on shutdown.
    can_submit: Condvar,
    /// Counters (relaxed; for tests, benches and dashboards).
    requests: AtomicU64,
    batches: AtomicU64,
    nodes: AtomicU64,
    shed: AtomicU64,
    cfg: EngineConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn fail_error(&self, st: &State) -> ServeError {
        match &st.poisoned {
            Some(m) => ServeError::WorkerPanicked(m.clone()),
            None => ServeError::ShuttingDown,
        }
    }
}

/// The running engine: worker threads + the shared queue. See the module
/// docs for the protocol. Generic over the classify implementation
/// ([`NodeClassifier`] in production) so tests can inject failures.
pub struct BatchEngine<C: BatchClassify = NodeClassifier> {
    shared: Arc<Shared>,
    classifier: Arc<C>,
    workers: Vec<JoinHandle<()>>,
}

impl<C: BatchClassify> BatchEngine<C> {
    /// Spawn `cfg.workers` worker threads over the shared classifier.
    pub fn spawn(classifier: Arc<C>, cfg: EngineConfig) -> Result<Self, String> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: Frontier::new(cfg.max_batch),
                stop: false,
                poisoned: None,
                space_waiters: Vec::new(),
            }),
            can_work: Condvar::new(),
            can_submit: Condvar::new(),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cfg,
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let spawn = {
                let shared = Arc::clone(&shared);
                let classifier = Arc::clone(&classifier);
                std::thread::Builder::new()
                    .name(format!("gsgcn-serve-{i}"))
                    .spawn(move || worker_loop(&shared, &*classifier))
            };
            match spawn {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Don't leak the workers already parked on the
                    // condvar: stop and join them before reporting.
                    {
                        let mut st = shared.lock();
                        st.stop = true;
                    }
                    shared.can_work.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(format!("failed to spawn serve worker: {e}"));
                }
            }
        }
        Ok(BatchEngine {
            shared,
            classifier,
            workers,
        })
    }

    /// The classifier this engine serves.
    pub fn classifier(&self) -> &C {
        &self.classifier
    }

    /// Enqueue a node batch. Under [`AdmissionControl::Block`] this
    /// blocks while the queue is full (backpressure); under
    /// [`AdmissionControl::Shed`] it never blocks — a full queue sheds
    /// the minimum-weight request (possibly this one) with
    /// [`ServeError::Overloaded`]. The returned handle's
    /// [`ResponseHandle::wait`] yields one [`Prediction`] per requested
    /// node in request order.
    ///
    /// Node ids are validated here, before queueing, so one bad request
    /// can never fail the unrelated requests it would have been
    /// coalesced with.
    pub fn submit(&self, nodes: Vec<u32>) -> Result<ResponseHandle, ServeError> {
        self.enqueue(nodes, true, None).map_err(|e| match e {
            TrySubmitError::Rejected(e) => e,
            // Unreachable: blocking enqueue never reports Full.
            TrySubmitError::Full(_) => ServeError::ShuttingDown,
        })
    }

    /// Non-blocking [`BatchEngine::submit`] for event-loop callers: a
    /// full queue in [`AdmissionControl::Block`] mode returns
    /// [`TrySubmitError::Full`] (giving back the nodes, so the caller
    /// can apply its own backpressure — e.g. stop reading a socket)
    /// instead of parking the thread. Shed mode never reports `Full`.
    pub fn try_submit(&self, nodes: Vec<u32>) -> Result<ResponseHandle, TrySubmitError> {
        self.enqueue(nodes, false, None)
    }

    /// [`BatchEngine::try_submit`] that rings `wake` when the request is
    /// answered and, after a `Full`, when a worker next frees queue space.
    pub(crate) fn try_submit_woken(
        &self,
        nodes: Vec<u32>,
        wake: &Arc<Wake>,
    ) -> Result<ResponseHandle, TrySubmitError> {
        self.enqueue(nodes, false, Some(wake))
    }

    fn enqueue(
        &self,
        nodes: Vec<u32>,
        block: bool,
        wake: Option<&Arc<Wake>>,
    ) -> Result<ResponseHandle, TrySubmitError> {
        if nodes.is_empty() {
            return Err(TrySubmitError::Rejected(ServeError::BadRequest(
                "empty node batch".into(),
            )));
        }
        // Shard-aware for store-backed classifiers: a node whose shard
        // is not loaded fails *this* request only, before coalescing.
        if let Err(msg) = self.classifier.validate_nodes(&nodes) {
            return Err(TrySubmitError::Rejected(ServeError::BadRequest(msg)));
        }
        let slot = Arc::new(ResponseSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
            wake: wake.cloned(),
        });
        let handle = ResponseHandle {
            slot: Arc::clone(&slot),
        };
        let mut st = self.shared.lock();
        loop {
            if st.stop || st.poisoned.is_some() {
                return Err(TrySubmitError::Rejected(self.shared.fail_error(&st)));
            }
            if st.queue.len() < self.shared.cfg.queue_capacity {
                break;
            }
            match self.shared.cfg.admission {
                AdmissionControl::Shed => {
                    // Full queue: the minimum-weight request loses —
                    // either a queued one (failed via its slot) or this
                    // one, if nothing queued weighs less than a fresh
                    // arrival of this size.
                    let now = Instant::now();
                    let incoming = st.queue.weight_of(nodes.len(), Duration::ZERO);
                    let queued_min = st.queue.min_weight(now);
                    self.shared.shed.fetch_add(1, Ordering::Relaxed);
                    match queued_min {
                        Some(w) if w < incoming => {
                            let loser = st.queue.shed_min(now).expect("min_weight saw an entry");
                            loser.slot.fulfill(Err(ServeError::Overloaded));
                        }
                        _ => {
                            return Err(TrySubmitError::Rejected(ServeError::Overloaded));
                        }
                    }
                    break;
                }
                AdmissionControl::Block if !block => {
                    // Registered under the lock the claim takes, so the
                    // next claim cannot miss it.
                    if let Some(w) = wake {
                        add_once(&mut st.space_waiters, w);
                    }
                    drop(st);
                    return Err(TrySubmitError::Full(nodes));
                }
                AdmissionControl::Block => {
                    st = self
                        .shared
                        .can_submit
                        .wait(st)
                        .unwrap_or_else(|p| p.into_inner());
                }
            }
        }
        let count = nodes.len();
        st.queue.push(QueuedRequest { nodes, slot }, count);
        drop(st);
        self.shared.can_work.notify_one();
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Convenience: submit + wait.
    pub fn classify(&self, nodes: Vec<u32>) -> Result<Vec<Prediction>, ServeError> {
        self.submit(nodes)?.wait()
    }

    /// Requests accepted so far.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Forward batches executed so far (≤ requests when coalescing
    /// merges concurrent requests).
    pub fn batches(&self) -> u64 {
        self.shared.batches.load(Ordering::Relaxed)
    }

    /// Query nodes classified so far.
    pub fn nodes_classified(&self) -> u64 {
        self.shared.nodes.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control so far (Shed mode only).
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl<C: BatchClassify> Drop for BatchEngine<C> {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.stop = true;
        }
        self.shared.can_work.notify_all();
        self.shared.can_submit.notify_all();
        for handle in self.workers.drain(..) {
            // Worker panics were caught and parked in `poisoned`; an
            // escaped one has nothing better to do on drop.
            let _ = handle.join();
        }
        // Workers are gone: whatever is still queued can never be
        // served. Fail it visibly rather than leaving waiters hanging.
        let mut st = self.shared.lock();
        let err = self.shared.fail_error(&st);
        for req in st.queue.drain_all() {
            req.slot.fulfill(Err(err.clone()));
        }
        let waiters = std::mem::take(&mut st.space_waiters);
        drop(st);
        ring(waiters);
    }
}

fn add_once(wakes: &mut Vec<Arc<Wake>>, wake: &Arc<Wake>) {
    if !wakes.iter().any(|w| Arc::ptr_eq(w, wake)) {
        wakes.push(Arc::clone(wake));
    }
}

/// Ring each front-end in `wakes` (call without the state lock).
fn ring(wakes: impl IntoIterator<Item = Arc<Wake>>) {
    for wake in wakes {
        wake.wake();
    }
}

/// Worker loop: claim everything queued that fits one batch, classify
/// outside the lock, fulfill each request.
fn worker_loop<C: BatchClassify>(shared: &Shared, classifier: &C) {
    let mut ws = ClassifyWorkspace::new();
    let mut batch: Vec<QueuedRequest> = Vec::new();
    let mut flat: Vec<u32> = Vec::new();
    // Front-ends to ring: those whose requests the last batch answered,
    // then those refused queue space.
    let mut wakes: Vec<Arc<Wake>> = Vec::new();
    loop {
        // --- Claim phase (under lock) ---
        {
            let mut st = shared.lock();
            // Park only while there is nothing to do.
            loop {
                if st.stop || st.poisoned.is_some() {
                    let err = shared.fail_error(&st);
                    for req in st.queue.drain_all() {
                        req.slot.fulfill(Err(err.clone()));
                    }
                    wakes.append(&mut st.space_waiters);
                    drop(st);
                    ring(wakes.drain(..));
                    return;
                }
                if !st.queue.is_empty() {
                    break;
                }
                if !wakes.is_empty() {
                    // Answers are out and nothing is queued: ring before
                    // parking, or the answered clients never send more.
                    drop(st);
                    ring(wakes.drain(..));
                    st = shared.lock();
                    continue;
                }
                st = shared.can_work.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            // Absorb whole requests until the node budget is spent or
            // nothing queued fits what is left of it, then go: whatever
            // arrives from here on is the next batch. The first claim
            // always takes something, so an oversized request is served
            // alone. FIFO order under Block admission; weight order (aged
            // and batch-friendly requests first) under Shed.
            let weighted = shared.cfg.admission == AdmissionControl::Shed;
            let max_batch = shared.cfg.max_batch;
            let now = Instant::now();
            let mut nodes_taken = 0usize;
            while nodes_taken < max_batch {
                let (budget, first) = (max_batch - nodes_taken, nodes_taken == 0);
                let Some((req, count)) = st.queue.claim(now, budget, first, weighted) else {
                    break;
                };
                nodes_taken += count;
                batch.push(req);
            }
            let requests_remain = !st.queue.is_empty();
            wakes.append(&mut st.space_waiters);
            drop(st);
            // Queue space freed: wake parked submitters and refused
            // front-ends, and another worker if requests remain. The
            // last batch's answers are rung only now, after the claim:
            // rung before it, the woken front-end's burst of socket work
            // overlapped this hand-off, and on 2 cores the next classify
            // ran ≈ 5–10 % slower.
            shared.can_submit.notify_all();
            ring(wakes.drain(..));
            if requests_remain {
                shared.can_work.notify_one();
            }
        }

        // --- Classify phase (no lock held) ---
        flat.clear();
        flat.extend(batch.iter().flat_map(|r| r.nodes.iter().copied()));
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Prediction>, String> {
            let mut preds = Vec::new();
            classifier.classify_into(&flat, &mut ws, &mut preds)?;
            // Enforce the BatchClassify contract *inside* the panic/
            // error containment: a short list would otherwise hand some
            // request fewer predictions than it asked for.
            if preds.len() != flat.len() {
                return Err(format!(
                    "classifier returned {} predictions for {} nodes",
                    preds.len(),
                    flat.len()
                ));
            }
            Ok(preds)
        }));
        match run {
            Ok(Ok(preds)) => {
                shared.batches.fetch_add(1, Ordering::Relaxed);
                shared.nodes.fetch_add(flat.len() as u64, Ordering::Relaxed);
                // Hand the flat prediction list back per request (front
                // to back, preserving request order). Each front-end is
                // rung once per batch, after the next claim (above), and
                // takes all its answers in one sweep.
                let mut preds = preds.into_iter();
                for req in batch.drain(..) {
                    let own = preds.by_ref().take(req.nodes.len()).collect();
                    req.slot.publish(Ok(own));
                    if let Some(w) = &req.slot.wake {
                        add_once(&mut wakes, w);
                    }
                }
            }
            Ok(Err(msg)) => {
                // Classifier-reported failure (ids are validated at
                // submit, so this is a backstop for contract
                // violations, not a neighbor-tenant hazard).
                let err = ServeError::BadRequest(msg);
                for req in batch.drain(..) {
                    req.slot.fulfill(Err(err.clone()));
                }
            }
            Err(payload) => {
                let msg = panic_message(payload);
                let err = ServeError::WorkerPanicked(msg.clone());
                for req in batch.drain(..) {
                    req.slot.fulfill(Err(err.clone()));
                }
                let mut st = shared.lock();
                st.poisoned.get_or_insert(msg);
                st.stop = true;
                let sweep = shared.fail_error(&st);
                for req in st.queue.drain_all() {
                    req.slot.fulfill(Err(sweep.clone()));
                }
                wakes.append(&mut st.space_waiters);
                drop(st);
                ring(wakes.drain(..));
                shared.can_work.notify_all();
                shared.can_submit.notify_all();
                return;
            }
        }
    }
}

/// Best-effort stringification of a panic payload (PR-4 idiom).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
