//! The execution engine: a fixed-size thread pool plus the scoped
//! dispatch primitive ([`run_indexed`]) that parallel iterators drive.
//!
//! Dispatch uses **atomic chunk claiming**, not a per-task queue: a
//! parallel call publishes one *runner* job per worker, and every runner
//! claims piece indices from a shared atomic counter until they run out.
//! The mutex-protected FIFO is touched once per runner (≈ once per
//! worker) instead of once per piece, so many small or skewed pieces —
//! e.g. fused aggregation tasks whose cost follows the per-row degree —
//! never convoy on the queue lock; the only shared write on the claim
//! path is one `fetch_add`.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    size: usize,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn push(&self, job: Job) {
        self.queue.lock().unwrap().push_back(job);
        self.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().pop_front()
    }
}

/// A pool of worker threads; `install` scopes parallel calls to it.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never produced in
/// practice by this shim; it exists for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(String);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Worker count; `0` means the number of available cores.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let size = if self.num_threads == 0 {
            default_parallelism()
        } else {
            self.num_threads
        };
        Ok(ThreadPool::with_size(size))
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ThreadPool {
    fn with_size(size: usize) -> ThreadPool {
        let shared = Arc::new(Shared {
            size,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // `size - 1` workers: the installing/calling thread acts as the
        // remaining participant (it helps drain the queue while waiting).
        let workers = (1..size)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Current pool size (worker threads + the installing thread).
    pub fn current_num_threads(&self) -> usize {
        self.shared.size
    }

    /// Run `f` with this pool as the target of all parallel calls.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        CURRENT.with(|cur| {
            let prev = cur.replace(Some(Arc::clone(&self.shared)));
            let out = f();
            cur.replace(prev);
            out
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Raise the flag under the queue lock. A worker that has just seen
        // an empty queue and a clear flag keeps that lock until `wait`
        // parks it, so the notification cannot fall between its check and
        // its sleep — which would leave the join below waiting forever.
        let queue = self.shared.queue.lock(); // held even if poisoned
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|w| w.set(true));
    CURRENT.with(|cur| cur.replace(Some(Arc::clone(&shared))));
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Arc<Shared>>> =
        const { std::cell::RefCell::new(None) };
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn global() -> &'static Arc<Shared> {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    &GLOBAL
        .get_or_init(|| ThreadPool::with_size(default_parallelism()))
        .shared
}

fn current_shared() -> Arc<Shared> {
    CURRENT.with(|cur| match &*cur.borrow() {
        Some(s) => Arc::clone(s),
        None => Arc::clone(global()),
    })
}

/// Number of threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    CURRENT.with(|cur| match &*cur.borrow() {
        Some(s) => s.size,
        None => global().size,
    })
}

/// Completion latch shared between the dispatching thread and workers.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn record(&self, result: std::thread::Result<()>) {
        if let Err(payload) = result {
            self.panic.lock().unwrap().get_or_insert(payload);
        }
        let mut rem = self.remaining.lock().unwrap();
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self.remaining.lock().unwrap();
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap();
        }
    }
}

/// Shared state of one indexed parallel call: the claim counter, the
/// poison flag that stops claiming after a panic, and the payload slot.
struct ClaimState {
    next: AtomicUsize,
    n: usize,
    poisoned: AtomicBool,
    latch: Latch,
}

impl ClaimState {
    /// Claim-and-run loop executed by every runner (workers and the
    /// dispatching thread alike): one `fetch_add` per piece, no lock.
    fn run_claims(&self, task: &(dyn Fn(usize) + Sync)) {
        loop {
            if self.poisoned.load(Ordering::Relaxed) {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
            if let Err(payload) = result {
                self.poisoned.store(true, Ordering::Relaxed);
                self.latch.panic.lock().unwrap().get_or_insert(payload);
            }
        }
    }
}

/// Run `task(0..n)` across the current pool by atomic chunk claiming, in
/// parallel when a pool with spare workers is current, inline otherwise.
/// Returns after every claimed index has finished; re-throws the first
/// panic observed. After a panic the batch is poisoned: indices not yet
/// claimed are skipped (in-flight ones still complete), so side effects
/// of a panicked batch may be partial — callers must not rely on the
/// remaining pieces having run, and none of this workspace's consumers
/// observe results of a panicked parallel call.
///
/// The *values* computed per index never depend on which thread runs it —
/// callers encode any order-sensitivity in the index space itself.
pub(crate) fn run_indexed<'scope, F>(n: usize, task: F)
where
    F: Fn(usize) + Sync + 'scope,
{
    let inline = IN_WORKER.with(|w| w.get());
    let shared = current_shared();
    if inline || shared.size <= 1 || n <= 1 {
        for i in 0..n {
            task(i);
        }
        return;
    }

    let runners = (shared.size - 1).min(n);
    let state = Arc::new(ClaimState {
        next: AtomicUsize::new(0),
        n,
        poisoned: AtomicBool::new(false),
        latch: Latch {
            remaining: Mutex::new(runners),
            done: Condvar::new(),
            panic: Mutex::new(None),
        },
    });

    {
        // One runner job per worker; each drains the claim counter.
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        for _ in 0..runners {
            let state = Arc::clone(&state);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                state.run_claims(task_ref);
                state.latch.record(Ok(()));
            });
            // SAFETY: `run_indexed` does not return until the latch counts
            // every runner as finished, so the borrowed environment
            // outlives all jobs.
            let job: Job = unsafe { std::mem::transmute(job) };
            shared.push(job);
        }
    }

    // The dispatching thread claims pieces too, then helps drain the
    // queue (its runner jobs, or unrelated work) while waiting so small
    // pools still make progress.
    IN_WORKER.with(|w| {
        let prev = w.replace(true);
        state.run_claims(&task);
        while let Some(job) = shared.try_pop() {
            job();
        }
        w.set(prev);
    });
    state.latch.wait();

    let payload = state.latch.panic.lock().unwrap().take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}
