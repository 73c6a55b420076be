//! Asynchronous shard prefetch: a dedicated thread that pages shard
//! sections into the CLOCK cache *ahead* of the demand reads.
//!
//! The sampler knows the next batch's vertices before the trainer gathers
//! them, the stored evaluator knows tile `t+1`'s roots while computing
//! tile `t`, and a grouped gather knows every shard it will touch up
//! front. Feeding those to the prefetcher — as the cache entries (shard ×
//! section kind) the reader is about to want — overlaps the page-in
//! (mmap + first-touch I/O) with compute, the same way the PR-4 sampler
//! pipeline overlaps sampling — and with the same shutdown discipline:
//!
//! * **Bounded queue.** At most one pending request per cache entry
//!   (dedup by id) and never more than the entry count; producers *drop*
//!   excess requests instead of blocking — prefetch is advisory, a
//!   consumer must never stall on it.
//! * **Stop flag + join on drop.** Dropping the [`Prefetcher`] raises
//!   `stop`, wakes the worker and joins it, so drop mid-epoch or at
//!   early-stop cannot deadlock and never races a store-directory
//!   removal.
//! * **Degrade on panic.** A panicking worker (caught by `catch_unwind`)
//!   flips the `degraded` flag and exits. Requests become no-ops and
//!   every read falls back to synchronous page-in; the cache itself is
//!   untouched because the worker mutates it only through
//!   [`StoreCore::prefetch_load`](super::mmap::StoreCore::prefetch_load),
//!   whose eviction is guarded and whose locks are poison-tolerant.
//!
//! Enablement follows the workspace's flag > env > default policy:
//! `--prefetch` in the CLI, `GSGCN_SHARD_PREFETCH` in the environment,
//! off by default.

use super::mmap::StoreCore;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// The `GSGCN_SHARD_PREFETCH` env default (the CLI's `--prefetch` wins by
/// setting this before stores open). Unset/empty/`0`/`off`/`false` means
/// disabled.
///
/// # Panics
/// Panics on an unparseable value — a typo silently running without
/// prefetch would invalidate exactly the out-of-core CI runs the variable
/// exists for.
pub fn prefetch_from_env() -> bool {
    match std::env::var("GSGCN_SHARD_PREFETCH") {
        Err(_) => false,
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" | "no" => false,
            "1" | "on" | "true" | "yes" => true,
            other => panic!("GSGCN_SHARD_PREFETCH: bad value {other:?}: expected 0|1|on|off"),
        },
    }
}

/// Mutex-guarded request queue (see module docs for the protocol).
struct State {
    /// Pending cache entry ids (shard × section kind), FIFO.
    queue: VecDeque<u32>,
    /// `queued[entry]`: entry is in `queue` (dedup bit, cleared on pop).
    queued: Vec<bool>,
    /// Shutdown flag (drop).
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on new requests and on shutdown.
    wake: Condvar,
    /// Set once the worker has panicked; requests become no-ops.
    degraded: AtomicBool,
    /// Test hook: panic before serving the next request.
    panic_next: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Handle to the background page-in thread of one store. Owned by
/// [`MmapStore`](super::MmapStore); dropping it joins the thread.
pub(super) struct Prefetcher {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn the worker over the store's shared cache state.
    pub(super) fn spawn(core: Arc<StoreCore>) -> Prefetcher {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                queued: vec![false; core.num_entries()],
                stop: false,
            }),
            wake: Condvar::new(),
            degraded: AtomicBool::new(false),
            panic_next: AtomicBool::new(false),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gsgcn-prefetch".into())
                .spawn(move || worker_loop(&shared, &core))
                .expect("failed to spawn shard prefetch thread")
        };
        Prefetcher {
            shared,
            worker: Some(worker),
        }
    }

    /// Enqueue cache entry ids for background page-in. Never blocks:
    /// duplicates of already-queued entries and anything past the queue
    /// bound are dropped. Returns how many requests were accepted.
    pub(super) fn request(&self, entries: &[u32]) -> usize {
        if self.degraded() {
            return 0;
        }
        let mut st = self.shared.lock();
        if st.stop {
            return 0;
        }
        let cap = st.queued.len(); // ≤ one pending request per entry
        let mut accepted = 0;
        for &entry in entries {
            let i = entry as usize;
            if i < cap && !st.queued[i] && st.queue.len() < cap {
                st.queued[i] = true;
                st.queue.push_back(entry);
                accepted += 1;
            }
        }
        drop(st);
        if accepted > 0 {
            self.shared.wake.notify_one();
        }
        accepted
    }

    /// Whether the worker has panicked (requests are no-ops; reads fall
    /// back to synchronous page-in).
    pub(super) fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Relaxed)
    }

    /// Test hook: panic the worker on its next request.
    #[cfg(test)]
    pub(super) fn inject_panic(&self) {
        self.shared.panic_next.store(true, Ordering::Relaxed);
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.stop = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.worker.take() {
            // A panic already flipped `degraded` via catch_unwind; a join
            // error here has nothing further to report.
            let _ = handle.join();
        }
    }
}

/// Worker loop: pop the next entry id, page it in through the guarded
/// prefetch path, repeat. I/O errors are swallowed (the demand read will
/// surface them loudly); a panic degrades the prefetcher permanently.
fn worker_loop(shared: &Shared, core: &StoreCore) {
    loop {
        let entry = {
            let mut st = shared.lock();
            loop {
                if st.stop {
                    return;
                }
                if let Some(entry) = st.queue.pop_front() {
                    st.queued[entry as usize] = false;
                    break entry;
                }
                st = shared.wake.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            if shared.panic_next.swap(false, Ordering::Relaxed) {
                panic!("injected prefetch failure");
            }
            // A failed load is not worth degrading over: the shard may
            // have vanished (partial deployment) and the demand path owns
            // the loud error.
            let _ = core.prefetch_load(entry as usize);
        }));
        if result.is_err() {
            shared.degraded.store(true, Ordering::Relaxed);
            return;
        }
    }
}
