//! Weighted admission control for the bounded serving queue.
//!
//! Under overload a FIFO queue lets latency collapse for everyone:
//! requests queue behind work that will itself time out. The mempool
//! alternative (the kaspa `Frontier` exemplar in SNIPPETS.md: a
//! feerate-ordered search tree sampled proportionally to weight) is to
//! *choose* what to serve. This module is that idea shrunk to serving
//! scale: each queued request carries a weight
//!
//! ```text
//! weight(t) = batch_affinity × (wait(t) + ε)
//! ```
//!
//! where `batch_affinity = min(1, max_batch / nodes)` favors requests
//! that coalesce into a batch without displacing others, and the wait
//! factor ages every request so low-affinity work is delayed, not
//! starved (the ε floor makes a just-arrived request comparable at
//! all). In [`AdmissionControl::Shed`] mode a full queue sheds the
//! minimum-weight request — the incoming one included — with an
//! explicit `overloaded` reply instead of blocking the submitter, and
//! workers claim the maximum-weight *fitting* request instead of the
//! head. p99 under 2× offered load is then bounded by the queue bound ×
//! batch time rather than growing without limit (measured in
//! `BENCH_serving.json`'s `overload` records).
//!
//! Weights are time-varying, so no static order (heap or search tree)
//! survives; with the queue bounded (default 1024) an O(Q) scan at
//! claim/shed time beats maintaining the kaspa `SearchTree` — the scan
//! touches a few KB, every mutation of a tree would touch `log Q` cache
//! lines *per tick of re-aging*. [`AdmissionControl::Block`] keeps the
//! exact FIFO/backpressure semantics the engine shipped with.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What a full queue does to new work (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionControl {
    /// Block submitters while the queue is full (lossless backpressure;
    /// FIFO claim order). The engine's original behavior.
    #[default]
    Block,
    /// Never block: a full queue sheds the minimum-weight request with
    /// an `overloaded` error, and workers claim by maximum weight.
    Shed,
}

impl std::str::FromStr for AdmissionControl {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(AdmissionControl::Block),
            "shed" => Ok(AdmissionControl::Shed),
            other => Err(format!("bad admission mode {other:?}: expected block|shed")),
        }
    }
}

/// Wait-time floor ε: makes a zero-wait arrival commensurable with aged
/// entries (pure multiplication would pin every newcomer at weight 0
/// and shed it unconditionally).
const WAIT_FLOOR: Duration = Duration::from_millis(1);

struct Queued<T> {
    payload: T,
    nodes: usize,
    enqueued: Instant,
}

/// The bounded admission queue: FIFO storage, weighted (or FIFO) claim
/// and shed policies on top. Generic over the payload so the engine
/// queues response slots and tests queue labels.
pub struct Frontier<T> {
    entries: VecDeque<Queued<T>>,
    max_batch: usize,
}

impl<T> Frontier<T> {
    /// An empty queue whose affinity weighting targets `max_batch`-node
    /// forward batches.
    pub fn new(max_batch: usize) -> Self {
        Frontier {
            entries: VecDeque::new(),
            max_batch: max_batch.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Batch affinity of an `nodes`-node request: 1 for anything that
    /// fits a batch, decaying for oversized requests that monopolise a
    /// worker.
    pub fn affinity(&self, nodes: usize) -> f64 {
        (self.max_batch as f64 / nodes.max(1) as f64).min(1.0)
    }

    /// The admission weight of a hypothetical request that has waited
    /// `waited` — also the yardstick [`BatchEngine::submit`] applies to
    /// an *incoming* request (waited = 0) before shedding it.
    ///
    /// [`BatchEngine::submit`]: crate::engine::BatchEngine::submit
    pub fn weight_of(&self, nodes: usize, waited: Duration) -> f64 {
        self.affinity(nodes) * (waited + WAIT_FLOOR).as_secs_f64()
    }

    /// Enqueue (always succeeds; the *engine* owns the capacity check so
    /// shed-vs-block policy stays in one place).
    pub fn push(&mut self, payload: T, nodes: usize) {
        self.entries.push_back(Queued {
            payload,
            nodes,
            enqueued: Instant::now(),
        });
    }

    /// Minimum weight currently queued, as of `now`.
    pub fn min_weight(&self, now: Instant) -> Option<f64> {
        self.entries
            .iter()
            .map(|e| self.weight_of(e.nodes, now.saturating_duration_since(e.enqueued)))
            .min_by(f64::total_cmp)
    }

    /// Remove and return the minimum-weight request (ties: oldest
    /// first, since the scan keeps the first minimum).
    pub fn shed_min(&mut self, now: Instant) -> Option<T> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let wa = self.weight_of(a.nodes, now.saturating_duration_since(a.enqueued));
                let wb = self.weight_of(b.nodes, now.saturating_duration_since(b.enqueued));
                wa.total_cmp(&wb)
            })
            .map(|(i, _)| i)?;
        self.entries.remove(idx).map(|e| e.payload)
    }

    /// Index of the maximum-weight entry of at most `budget` nodes.
    fn heaviest(&self, now: Instant, budget: usize) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.nodes <= budget)
            .max_by(|(_, a), (_, b)| {
                let wa = self.weight_of(a.nodes, now.saturating_duration_since(a.enqueued));
                let wb = self.weight_of(b.nodes, now.saturating_duration_since(b.enqueued));
                wa.total_cmp(&wb)
            })
            .map(|(i, _)| i)
    }

    /// Claim one request (and its node count) for a batch with `budget`
    /// node slots left; `None` ends the batch — the queue is empty or
    /// nothing queued fits, and the engine treats the two alike (it goes
    /// to work on what it has; whatever stays queued is the next batch).
    ///
    /// FIFO mode (`weighted == false`) preserves the engine's original
    /// coalescing contract exactly: the head is inspected and taken if
    /// it fits (or if the batch is still empty — oversized requests are
    /// served alone).
    ///
    /// Weighted mode picks the maximum-weight *fitting* request; if
    /// nothing fits and the batch is empty, the maximum-weight request
    /// overall (served alone).
    pub fn claim(
        &mut self,
        now: Instant,
        budget: usize,
        first: bool,
        weighted: bool,
    ) -> Option<(T, usize)> {
        let idx = if weighted {
            match self.heaviest(now, budget) {
                Some(i) => i,
                None if first => self.heaviest(now, usize::MAX)?,
                None => return None,
            }
        } else {
            let head = self.entries.front()?;
            if head.nodes > budget && !first {
                return None;
            }
            0
        };
        let e = self.entries.remove(idx).expect("index from scan");
        Some((e.payload, e.nodes))
    }

    /// Drain everything (shutdown/poison sweep).
    pub fn drain_all(&mut self) -> impl Iterator<Item = T> + '_ {
        self.entries.drain(..).map(|e| e.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn fifo_claim_preserves_head_semantics() {
        let mut f: Frontier<&str> = Frontier::new(4);
        f.push("a", 3);
        f.push("b", 3);
        // Empty batch: head taken even though budget says otherwise.
        assert_eq!(f.claim(now(), 4, true, false), Some(("a", 3)));
        // Non-empty batch (budget 1 left): the head no longer fits, so
        // the batch ends and the head stays queued.
        assert_eq!(f.claim(now(), 1, false, false), None);
        assert_eq!(f.len(), 1);
        assert_eq!(f.claim(now(), 3, false, false), Some(("b", 3)));
        assert_eq!(f.claim(now(), 4, true, false), None, "empty queue");
    }

    #[test]
    fn weighted_claim_prefers_aged_then_fitting() {
        let mut f: Frontier<&str> = Frontier::new(4);
        f.push("old", 2);
        std::thread::sleep(Duration::from_millis(5));
        f.push("new", 2);
        // Same affinity: the older request has the larger weight.
        assert_eq!(f.claim(now(), 4, true, true), Some(("old", 2)));
        // Oversized entry is skipped when something fitting exists…
        f.push("huge", 100);
        std::thread::sleep(Duration::from_millis(5));
        f.push("small", 1);
        let (x, _) = f.claim(now(), 4, false, true).expect("nothing claimed");
        assert_ne!(x, "huge");
        // …and ends a non-empty batch when nothing else fits.
        while f.claim(now(), 100, true, true).is_some() {}
        f.push("huge2", 100);
        assert_eq!(
            f.claim(now(), 4, false, true),
            None,
            "an oversized request must not join a non-empty batch"
        );
        assert_eq!(f.len(), 1);
        // Empty batch: served alone despite the budget.
        assert_eq!(f.claim(now(), 4, true, true), Some(("huge2", 100)));
    }

    #[test]
    fn shed_picks_the_lightest() {
        let mut f: Frontier<&str> = Frontier::new(4);
        f.push("aged-big", 400);
        std::thread::sleep(Duration::from_millis(150));
        f.push("fresh-big", 400);
        f.push("fresh-small", 2);
        // fresh-big: low affinity *and* no age — the loser.
        assert_eq!(f.shed_min(now()), Some("fresh-big"));
        assert_eq!(f.len(), 2);
        // Aging protects the old oversized request over a fresh small
        // one once its wait dominates: affinity 4/400 = 0.01, so
        // 0.01 × 151 ms > 1.0 × ε = 1 ms.
        assert_eq!(f.shed_min(now()), Some("fresh-small"));
    }

    #[test]
    fn incoming_weight_yardstick_is_consistent() {
        let f: Frontier<&str> = Frontier::new(64);
        // A fitting fresh request outweighs nothing but an equally
        // fresh oversized one.
        let small = f.weight_of(4, Duration::ZERO);
        let big = f.weight_of(1024, Duration::ZERO);
        assert!(small > big);
        // Aging dominates affinity eventually.
        assert!(f.weight_of(1024, Duration::from_secs(1)) > f.weight_of(4, Duration::ZERO));
    }
}
