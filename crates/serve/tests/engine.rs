//! BatchEngine behaviour tests: work-conserving coalescing (batches form
//! behind a busy worker, never on a timer — pinned with a gated
//! classifier, not wall-clock windows), backpressure, shed admission,
//! shutdown joins and panic poisoning (the PR-4 failure-surface pattern).

use gsgcn_graph::GraphBuilder;
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_serve::classifier::BatchClassify;
use gsgcn_serve::{
    AdmissionControl, BatchEngine, ClassifyWorkspace, EngineConfig, NodeClassifier, Prediction,
    ServeError, TrySubmitError,
};
use gsgcn_tensor::DMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn classifier() -> Arc<NodeClassifier> {
    let n = 24;
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .map(|i| (i, (i + 1) % n as u32))
        .chain((0..n as u32 / 2).map(|i| (i, i + n as u32 / 2)))
        .collect();
    let g = GraphBuilder::new(n).add_edges(edges).build();
    let x = DMatrix::from_fn(n, 6, |i, j| ((i * 5 + j) % 9) as f32 * 0.2 - 0.7);
    let model = GcnModel::new(
        GcnConfig {
            in_dim: 6,
            hidden_dims: vec![8, 8],
            num_classes: 4,
            loss: LossKind::SoftmaxCe,
            ..GcnConfig::default()
        },
        23,
    );
    Arc::new(NodeClassifier::new(Arc::new(model), Arc::new(g), Arc::new(x)).unwrap())
}

fn cfg() -> EngineConfig {
    EngineConfig {
        workers: 1,
        max_batch: 64,
        queue_capacity: 64,
        admission: AdmissionControl::Block,
        ..EngineConfig::default()
    }
}

/// A classifier whose every call parks on a gate until the test opens
/// it, and that reports how many calls have reached the gate — so a test
/// can know a worker is busy (it has claimed its batch and sits inside
/// `classify_into`) without sleeping.
struct GatedClassifier {
    inner: Arc<NodeClassifier>,
    /// (calls that have reached the gate, gate is open)
    gate: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl GatedClassifier {
    fn new() -> Arc<Self> {
        Arc::new(GatedClassifier {
            inner: classifier(),
            gate: Mutex::new((0, false)),
            changed: Condvar::new(),
        })
    }

    /// Wait until `calls` classify calls have reached the gate. The
    /// deadline only turns a hang into a failure; no assertion depends
    /// on how long anything takes.
    fn wait_entered(&self, calls: usize) -> bool {
        let guard = self.gate.lock().unwrap();
        let (guard, timeout) = self
            .changed
            .wait_timeout_while(guard, Duration::from_secs(20), |g| g.0 < calls)
            .unwrap();
        drop(guard);
        !timeout.timed_out()
    }

    /// Release every parked call and let future ones straight through.
    fn open(&self) {
        self.gate.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl BatchClassify for GatedClassifier {
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        let mut guard = self.gate.lock().unwrap();
        guard.0 += 1;
        self.changed.notify_all();
        drop(self.changed.wait_while(guard, |g| !g.1).unwrap());
        self.inner.classify_into(nodes, ws, out)
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
}

#[test]
fn responses_match_direct_classification() {
    let c = classifier();
    let engine = BatchEngine::spawn(Arc::clone(&c), cfg()).unwrap();
    let direct = c.classify(&[3, 11, 20]).unwrap();
    let served = engine.classify(vec![3, 11, 20]).unwrap();
    assert_eq!(served, direct);
}

/// Requests that arrive while the worker is busy are the next batch:
/// with the single worker held inside its first forward, k small
/// requests queue up and share one forward once it is free.
#[test]
fn requests_queued_behind_a_busy_worker_share_the_next_batch() {
    let gated = GatedClassifier::new();
    let engine = BatchEngine::spawn(Arc::clone(&gated), cfg()).unwrap();

    let first = engine.submit(vec![23]).unwrap();
    assert!(
        gated.wait_entered(1),
        "the worker never claimed the request"
    );
    let queued: Vec<_> = (0..4u32)
        .map(|i| engine.submit(vec![i, i + 8]).unwrap())
        .collect();
    gated.open();

    assert_eq!(first.wait().unwrap().len(), 1);
    for h in queued {
        assert_eq!(h.wait().unwrap().len(), 2);
    }
    assert_eq!(engine.requests(), 5);
    assert_eq!(
        engine.batches(),
        2,
        "the 4 requests queued behind the busy worker (8 nodes ≤ max_batch) \
         should share one forward"
    );
    assert_eq!(engine.nodes_classified(), 9);
}

/// A lone request is served at once — the worker never waits for company.
/// `max_wait` is an hour and the batch can never fill, so this finishes
/// only if the field is ignored.
#[test]
fn lone_request_is_served_without_waiting() {
    let mut cfg = cfg();
    cfg.max_batch = 10_000;
    cfg.max_wait = Duration::from_secs(3600);
    let engine = BatchEngine::spawn(classifier(), cfg).unwrap();
    assert_eq!(engine.classify(vec![5]).unwrap().len(), 1);
    assert_eq!(engine.batches(), 1);
}

/// Work conservation across workers: a request never stays queued while
/// a worker is idle. With one worker held inside a forward, a second
/// request must reach the classifier on the other worker — it would wait
/// forever behind the first if it did not.
#[test]
fn idle_worker_takes_what_a_busy_one_left_queued() {
    let gated = GatedClassifier::new();
    let mut cfg = cfg();
    cfg.workers = 2;
    let engine = BatchEngine::spawn(Arc::clone(&gated), cfg).unwrap();

    let a = engine.submit(vec![1]).unwrap();
    assert!(gated.wait_entered(1), "no worker claimed the first request");
    let b = engine.submit(vec![2, 3]).unwrap();
    assert!(
        gated.wait_entered(2),
        "a request stayed queued while the second worker was idle"
    );
    gated.open();
    assert_eq!(a.wait().unwrap().len(), 1);
    assert_eq!(b.wait().unwrap().len(), 2);
    assert_eq!(engine.batches(), 2);
}

/// Requests above max_batch are served alone (never split), and the
/// batch counter reflects the per-forward grouping.
#[test]
fn oversized_request_is_served_alone() {
    let c = classifier();
    let mut cfg = cfg();
    cfg.max_batch = 4;
    let engine = BatchEngine::spawn(c, cfg).unwrap();
    let nodes: Vec<u32> = (0..12).collect();
    let preds = engine.classify(nodes).unwrap();
    assert_eq!(preds.len(), 12);
    assert_eq!(engine.batches(), 1);
}

/// When the FIFO head no longer fits the batch being assembled, the
/// batch goes as it is and the head starts the next one — nothing waits,
/// nothing is reordered, nothing is split.
#[test]
fn blocked_head_flushes_batch_without_waiting() {
    let gated = GatedClassifier::new();
    let mut cfg = cfg();
    cfg.max_batch = 64;
    cfg.max_wait = Duration::from_millis(2000);
    let engine = BatchEngine::spawn(Arc::clone(&gated), cfg).unwrap();
    // Hold the worker so the four requests below are all queued when it
    // next claims.
    let primer = engine.submit(vec![0]).unwrap();
    assert!(gated.wait_entered(1), "the worker never claimed the primer");
    let t0 = Instant::now();
    // 40 + 40 > 64: B blocks A's batch → A flushes at once; B + C fill
    // the next batch exactly (64 = max_batch) → immediate flush too.
    let a = engine.submit((0..20).map(|i| i % 24).collect()).unwrap();
    let a2 = engine
        .submit((0..20).map(|i| (i + 1) % 24).collect())
        .unwrap();
    let b = engine.submit((0..40).map(|i| i % 24).collect()).unwrap();
    let c_req = engine.submit((0..24).collect()).unwrap();
    gated.open();
    for h in [primer, a, a2, b, c_req] {
        h.wait().unwrap();
    }
    assert!(
        t0.elapsed() < Duration::from_millis(1000),
        "blocked-head batch waited out the window: {:?}",
        t0.elapsed()
    );
    assert_eq!(engine.batches(), 3, "primer | a + a2 | b + c");
    assert_eq!(engine.nodes_classified(), 1 + 40 + 64);
}

#[test]
fn empty_request_is_rejected() {
    let engine = BatchEngine::spawn(classifier(), cfg()).unwrap();
    assert!(matches!(
        engine.submit(Vec::new()),
        Err(ServeError::BadRequest(_))
    ));
}

#[test]
fn out_of_range_node_fails_the_request() {
    let engine = BatchEngine::spawn(classifier(), cfg()).unwrap();
    match engine.classify(vec![0, 9999]) {
        Err(ServeError::BadRequest(m)) => assert!(m.contains("out of range"), "{m}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The engine survives a bad request.
    assert_eq!(engine.classify(vec![0]).unwrap().len(), 1);
}

/// Dropping the engine joins the workers cleanly — empty, mid-traffic
/// and with requests still queued (which must fail, not hang).
#[test]
fn drop_joins_workers_cleanly() {
    // Idle engine.
    drop(BatchEngine::spawn(classifier(), cfg()).unwrap());

    // After traffic.
    let engine = BatchEngine::spawn(classifier(), cfg()).unwrap();
    engine.classify(vec![1, 2, 3]).unwrap();
    drop(engine); // deadlock here fails via test timeout
}

/// A slow classifier delays the queue; dropping the engine while
/// requests wait must fail them with ShuttingDown instead of hanging
/// their waiters.
struct SlowClassifier {
    inner: Arc<NodeClassifier>,
    delay: Duration,
}

impl BatchClassify for SlowClassifier {
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        std::thread::sleep(self.delay);
        self.inner.classify_into(nodes, ws, out)
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
}

#[test]
fn drop_fails_queued_requests_with_shutting_down() {
    let slow = Arc::new(SlowClassifier {
        inner: classifier(),
        delay: Duration::from_millis(60),
    });
    let mut cfg = cfg();
    cfg.max_batch = 1; // no coalescing: each request is its own forward
    let engine = BatchEngine::spawn(slow, cfg).unwrap();
    // First request occupies the single worker; the rest sit queued.
    let handles: Vec<_> = (0..4u32).map(|i| engine.submit(vec![i]).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(10));
    drop(engine);
    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    // At least the tail of the queue was never served.
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(ServeError::ShuttingDown))),
        "queued requests should fail with ShuttingDown: {results:?}"
    );
    // And nothing hangs (reaching this line is the real assertion).
}

/// A classifier that panics on a trigger node.
struct PanickyClassifier {
    inner: Arc<NodeClassifier>,
    trigger: u32,
    calls: AtomicUsize,
}

impl BatchClassify for PanickyClassifier {
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if nodes.contains(&self.trigger) {
            panic!("injected classify failure");
        }
        self.inner.classify_into(nodes, ws, out)
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
}

/// A worker panic surfaces as WorkerPanicked on the failing request, on
/// everything queued behind it, and on all future submits — the engine
/// is poisoned, not hung (PR-4 pattern).
#[test]
fn panicking_worker_poisons_the_engine() {
    let panicky = Arc::new(PanickyClassifier {
        inner: classifier(),
        trigger: 7,
        calls: AtomicUsize::new(0),
    });
    let mut cfg = cfg();
    cfg.max_batch = 1;
    let engine = BatchEngine::spawn(panicky, cfg).unwrap();

    // Healthy traffic first.
    engine.classify(vec![1]).unwrap();

    match engine.classify(vec![7]) {
        Err(ServeError::WorkerPanicked(m)) => {
            assert!(m.contains("injected classify failure"), "{m}")
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // Poison is sticky: future submits fail fast.
    let mut poisoned_submit = false;
    for _ in 0..50 {
        match engine.submit(vec![1]) {
            Err(ServeError::WorkerPanicked(_)) => {
                poisoned_submit = true;
                break;
            }
            Err(e) => panic!("unexpected error {e:?}"),
            // A still-draining worker may accept a stragglers' request;
            // give the poison a moment to propagate.
            Ok(h) => {
                let _ = h.wait();
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    assert!(poisoned_submit, "submit never surfaced the poison");
    // Drop after poison must still join cleanly.
    drop(engine);
}

/// Queue backpressure: submit blocks once queue_capacity requests wait,
/// rather than growing without bound.
#[test]
fn submit_blocks_on_full_queue() {
    let slow = Arc::new(SlowClassifier {
        inner: classifier(),
        delay: Duration::from_millis(40),
    });
    let mut cfg = cfg();
    cfg.max_batch = 1;
    cfg.queue_capacity = 2;
    let engine = Arc::new(BatchEngine::spawn(slow, cfg).unwrap());

    // Fill: 1 in flight + 2 queued.
    let h: Vec<_> = (0..3u32).map(|i| engine.submit(vec![i]).unwrap()).collect();
    // The 4th submit must block until the worker frees queue space —
    // observable as elapsed time on this thread.
    let t0 = Instant::now();
    let h4 = engine.submit(vec![3]).unwrap();
    assert!(
        t0.elapsed() >= Duration::from_millis(10),
        "submit returned instantly on a full queue"
    );
    for handle in h.into_iter().chain(std::iter::once(h4)) {
        handle.wait().unwrap();
    }
}

/// Shed admission: a full queue answers `overloaded` instead of
/// blocking, the engine keeps serving, and nothing hangs.
#[test]
fn shed_admission_returns_overloaded_without_blocking() {
    let slow = Arc::new(SlowClassifier {
        inner: classifier(),
        delay: Duration::from_millis(50),
    });
    let mut cfg = cfg();
    cfg.max_batch = 1;
    cfg.queue_capacity = 2;
    cfg.admission = AdmissionControl::Shed;
    let engine = Arc::new(BatchEngine::spawn(slow, cfg).unwrap());

    // Flood far past capacity. No submit may block (each call must
    // return well under the classifier delay), and the overflow must
    // surface as Overloaded somewhere — either synchronously or on a
    // shed queued request's handle.
    let mut handles = Vec::new();
    let mut sync_overloaded = 0u32;
    for i in 0..16u32 {
        let t0 = Instant::now();
        match engine.submit(vec![i % 24]) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded) => sync_overloaded += 1,
            Err(e) => panic!("unexpected error {e:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "shed-mode submit blocked for {:?}",
            t0.elapsed()
        );
    }
    let mut served = 0u32;
    let mut shed = 0u32;
    for h in handles {
        match h.wait() {
            Ok(_) => served += 1,
            Err(ServeError::Overloaded) => shed += 1,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(served > 0, "nothing was served under overload");
    assert!(
        shed + sync_overloaded > 0,
        "16 requests into a 2-slot queue shed nothing"
    );
    assert_eq!(engine.shed(), (shed + sync_overloaded) as u64);
    // The engine is healthy afterwards.
    assert_eq!(engine.classify(vec![5]).unwrap().len(), 1);
}

/// Block admission + try_submit: a full queue hands the nodes back as
/// `TrySubmitError::Full` instead of blocking the caller.
#[test]
fn try_submit_returns_full_instead_of_blocking() {
    let slow = Arc::new(SlowClassifier {
        inner: classifier(),
        delay: Duration::from_millis(50),
    });
    let mut cfg = cfg();
    cfg.max_batch = 1;
    cfg.queue_capacity = 1;
    let engine = BatchEngine::spawn(slow, cfg).unwrap();

    let mut got_full = false;
    let mut handles = Vec::new();
    for i in 0..8u32 {
        let t0 = Instant::now();
        match engine.try_submit(vec![i % 24]) {
            Ok(h) => handles.push(h),
            Err(TrySubmitError::Full(nodes)) => {
                assert_eq!(nodes, vec![i % 24], "nodes must come back intact");
                got_full = true;
            }
            Err(TrySubmitError::Rejected(e)) => panic!("unexpected rejection {e:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "try_submit blocked for {:?}",
            t0.elapsed()
        );
    }
    assert!(got_full, "8 try_submits into a 1-slot queue never saw Full");
    for h in handles {
        h.wait().unwrap();
    }
}

/// try_take polls without blocking: None while the engine is busy, the
/// result exactly once after fulfillment.
#[test]
fn response_handle_try_take_polls() {
    let slow = Arc::new(SlowClassifier {
        inner: classifier(),
        delay: Duration::from_millis(60),
    });
    let engine = BatchEngine::spawn(slow, cfg()).unwrap();
    let h = engine.submit(vec![3]).unwrap();
    assert!(h.try_take().is_none(), "result appeared before the forward");
    let t0 = Instant::now();
    loop {
        if let Some(r) = h.try_take() {
            assert_eq!(r.unwrap().len(), 1);
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "try_take never saw the result"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}
