//! Sharded hidden-layer activation cache — the serving-side realisation
//! of the paper's observation that GCN inference cost is dominated by
//! redundant neighborhood recomputation.
//!
//! A depth-L query's last GCN layer consumes `acts^{L-1}` only at the
//! closed 1-hop ball of the roots, and every such row is a pure function
//! of `(node, model_version)` — the level recursion computes it
//! bit-identically to the full-graph forward whatever else is in the
//! batch. So rows are cached under that key and probed **row by row**
//! ([`ActivationCache::probe_rows`]): the rows a request finds are copied
//! straight into the buffer its final hop reads, and only the rows it does
//! not find are computed ([`crate::classifier`]) and inserted on the way
//! out. A request's cost follows its miss count — all resident is one
//! fused layer + the root-limited head, none resident is the full level
//! recursion — and cached and uncached answers agree at the roots by
//! construction.
//!
//! Design: N independently locked shards (node id → shard by
//! multiplicative hash) each running **CLOCK** (second-chance) eviction
//! under a per-shard byte budget. CLOCK gives LRU-like behavior with an
//! O(1) hit path — a hit flips a `referenced` bit instead of splicing a
//! recency list, which matters because every serving worker probes the
//! cache concurrently. Version bumps ([`ActivationCache::bump_version`])
//! invalidate lazily: stale entries are treated as misses and reclaimed
//! by the eviction hand, so invalidation is O(1), not O(entries).
//!
//! The budget is an argument: a classifier serves uncached until one is
//! attached with `NodeClassifier::with_cache`. The `gsgcn` binary
//! resolves it from `--cache-bytes` or `GSGCN_ACTIVATION_CACHE`.
//!
//! # Row storage precision
//!
//! Rows are stored f32 by default, or bf16 when the cache is built with
//! [`ActivationCache::with_precision`] — halving bytes-per-row, so the
//! same budget keeps twice the working set resident. bf16 rows are
//! widened back to f32 on gather (widening is exact); the rounding
//! happens once, at insert, and is covered by the serving tolerance
//! band (`gsgcn_tensor::precision::rel_tolerance`) since the final
//! fused layer re-accumulates in f32 either way. The precision is fixed
//! at construction — mixing would make hit bytes depend on insert
//! history — and the `gsgcn` binary passes the session's resolved
//! precision (`--precision` flag / `GSGCN_PRECISION` env).

use gsgcn_tensor::{bf16, Bf16, DMatrix, Precision};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-entry bookkeeping overhead charged against the byte budget
/// (map entry + queue slot + flags; an estimate, deliberately coarse).
const ENTRY_OVERHEAD: usize = 48;

/// Counters exported by [`ActivationCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Row probes that found a current-version entry.
    pub hits: u64,
    /// Row probes that missed (absent or stale version).
    pub misses: u64,
    /// Rows inserted (including overwrites).
    pub insertions: u64,
    /// Rows evicted by the CLOCK hand to make room.
    pub evictions: u64,
    /// Bytes currently resident (data + bookkeeping estimate).
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction over all row probes so far (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached activation row at the cache's storage precision.
enum RowData {
    F32(Box<[f32]>),
    Bf16(Box<[Bf16]>),
}

impl RowData {
    fn quantize(row: &[f32], p: Precision) -> RowData {
        match p {
            Precision::F32 => RowData::F32(row.into()),
            Precision::Bf16 => {
                let mut q = vec![Bf16::ZERO; row.len()].into_boxed_slice();
                bf16::quantize_slice(row, &mut q);
                RowData::Bf16(q)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            RowData::F32(d) => d.len(),
            RowData::Bf16(d) => d.len(),
        }
    }

    fn data_bytes(&self) -> usize {
        match self {
            RowData::F32(d) => d.len() * std::mem::size_of::<f32>(),
            RowData::Bf16(d) => d.len() * std::mem::size_of::<Bf16>(),
        }
    }

    /// Overwrite in place from an f32 row of the same length, keeping
    /// the storage variant.
    fn overwrite(&mut self, row: &[f32]) {
        match self {
            RowData::F32(d) => d.copy_from_slice(row),
            RowData::Bf16(d) => bf16::quantize_slice(row, d),
        }
    }

    /// Copy into an f32 destination, widening bf16 exactly.
    fn copy_into(&self, out: &mut [f32]) {
        match self {
            RowData::F32(d) => out.copy_from_slice(d),
            RowData::Bf16(d) => bf16::widen_slice(d, out),
        }
    }
}

struct Entry {
    version: u64,
    referenced: bool,
    data: RowData,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.data.data_bytes() + ENTRY_OVERHEAD
    }
}

/// One lock's worth of cache: a node→entry map plus the CLOCK ring.
#[derive(Default)]
struct Shard {
    map: HashMap<u32, Entry>,
    /// CLOCK ring of candidate keys, oldest at the front. May contain
    /// keys already removed from `map` (skipped when popped); a key is
    /// enqueued exactly once per map residency, so the ring length is
    /// bounded by insertions-minus-evictions.
    ring: VecDeque<u32>,
    bytes: usize,
}

impl Shard {
    /// Evict second-chance victims until `need` bytes fit under
    /// `budget`. Returns the number of entries evicted.
    fn make_room(&mut self, need: usize, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes + need > budget {
            let Some(key) = self.ring.pop_front() else {
                break; // nothing left to evict
            };
            match self.map.get_mut(&key) {
                None => {} // removed earlier; stale ring slot
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.ring.push_back(key);
                }
                Some(_) => {
                    let e = self.map.remove(&key).expect("entry checked");
                    self.bytes -= e.bytes();
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

/// Concurrent `(node, model_version)` → `acts^{L-1}` row cache. See the
/// module docs for the exactness argument and the eviction policy.
pub struct ActivationCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard slice of the global byte budget.
    shard_budget: usize,
    /// Storage element type of cached rows (fixed at construction).
    precision: Precision,
    /// Current model version; entries with an older stamp are stale.
    version: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ActivationCache {
    /// Default shard count: enough to keep worker threads from
    /// serialising on one lock, small enough that a tiny budget still
    /// leaves room per shard.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A cache bounded by `budget_bytes` across [`Self::DEFAULT_SHARDS`]
    /// shards, storing rows as f32.
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_shards(budget_bytes, Self::DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (≥ 1; tests use 1 to make
    /// eviction order deterministic), storing rows as f32.
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        Self::with_shards_precision(budget_bytes, shards, Precision::F32)
    }

    /// As [`Self::new`] with an explicit row storage precision.
    /// [`Precision::Bf16`] halves bytes-per-row — the same budget holds
    /// twice the rows — at one bf16 rounding per cached element.
    pub fn with_precision(budget_bytes: usize, precision: Precision) -> Self {
        Self::with_shards_precision(budget_bytes, Self::DEFAULT_SHARDS, precision)
    }

    /// The fully explicit constructor: budget, shard count, precision.
    pub fn with_shards_precision(budget_bytes: usize, shards: usize, precision: Precision) -> Self {
        let shards = shards.max(1);
        ActivationCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / shards,
            precision,
            version: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total byte budget (sum of the per-shard slices).
    pub fn budget_bytes(&self) -> usize {
        self.shard_budget * self.shards.len()
    }

    /// Storage element type of cached rows.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Current model version stamp.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Invalidate every resident entry in O(1): entries stamped with an
    /// older version read as misses and are reclaimed lazily by the
    /// eviction hand. Call after swapping model weights.
    pub fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    fn shard_of(&self, node: u32) -> &Mutex<Shard> {
        // Fibonacci hash: consecutive node ids spread across shards.
        let h = (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    fn lock(&self, node: u32) -> std::sync::MutexGuard<'_, Shard> {
        self.shard_of(node)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Row-granular batch probe: reshape `out` to `nodes.len() × width`,
    /// copy every node's current-version row of width `width` into its
    /// row of `out`, and return the positions (indices into `nodes`,
    /// ascending) that have none — absent, stale or of another width.
    /// Those rows of `out` are left as they were for the caller to fill.
    /// Every probed row counts as exactly one hit or one miss.
    pub fn probe_rows(&self, nodes: &[u32], width: usize, out: &mut DMatrix) -> Vec<u32> {
        let version = self.version();
        out.ensure_shape(nodes.len(), width);
        let mut missing = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            match self.lock(node).map.get_mut(&node) {
                Some(e) if e.version == version && e.data.len() == width => {
                    e.referenced = true;
                    e.data.copy_into(out.row_mut(i));
                }
                _ => missing.push(i as u32),
            }
        }
        let misses = missing.len() as u64;
        self.hits
            .fetch_add(nodes.len() as u64 - misses, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        missing
    }

    /// [`Self::probe_rows`] found nothing missing: `out` holds every
    /// node's row.
    pub fn try_gather(&self, nodes: &[u32], width: usize, out: &mut DMatrix) -> bool {
        self.probe_rows(nodes, width, out).is_empty()
    }

    /// Insert (or refresh) one row per node, `rows` aligned with
    /// `nodes`. Rows wider than a whole shard's budget are skipped
    /// rather than evicting the entire shard for an entry that could
    /// never have company.
    pub fn insert_rows(&self, nodes: &[u32], rows: &DMatrix) {
        assert_eq!(nodes.len(), rows.rows(), "node/row count mismatch");
        let version = self.version();
        let elem = match self.precision {
            Precision::F32 => std::mem::size_of::<f32>(),
            Precision::Bf16 => std::mem::size_of::<Bf16>(),
        };
        let row_bytes = rows.cols() * elem + ENTRY_OVERHEAD;
        if row_bytes > self.shard_budget {
            return;
        }
        let mut inserted = 0u64;
        let mut evicted = 0u64;
        for (i, &node) in nodes.iter().enumerate() {
            let row = rows.row(i);
            let mut guard = self.lock(node);
            let shard = &mut *guard;
            if let Some(e) = shard.map.get_mut(&node) {
                // Refresh in place (version bump or re-computation);
                // the key keeps its ring slot.
                if e.data.len() == row.len() {
                    e.data.overwrite(row);
                } else {
                    shard.bytes -= e.bytes();
                    e.data = RowData::quantize(row, self.precision);
                    shard.bytes += e.bytes();
                }
                e.version = version;
                e.referenced = true;
                inserted += 1;
                continue;
            }
            evicted += shard.make_room(row_bytes, self.shard_budget);
            if shard.bytes + row_bytes > self.shard_budget {
                continue; // budget too small even after a full sweep
            }
            shard.map.insert(
                node,
                Entry {
                    version,
                    // New entries start unreferenced — only a *hit*
                    // earns the second chance, else a full hand sweep
                    // degenerates to FIFO and evicts hot rows.
                    referenced: false,
                    data: RowData::quantize(row, self.precision),
                },
            );
            shard.ring.push_back(node);
            shard.bytes += row_bytes;
            inserted += 1;
        }
        self.insertions.fetch_add(inserted, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Counter snapshot (relaxed; for benches, tests and dashboards).
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0;
        let mut entries = 0;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            resident_bytes += shard.bytes;
            entries += shard.map.len();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            entries,
        }
    }
}

impl std::fmt::Debug for ActivationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivationCache")
            .field("budget_bytes", &self.budget_bytes())
            .field("precision", &self.precision)
            .field("shards", &self.shards.len())
            .field("version", &self.version())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_matrix(values: &[(u32, f32)], width: usize) -> (Vec<u32>, DMatrix) {
        let nodes: Vec<u32> = values.iter().map(|&(n, _)| n).collect();
        let m = DMatrix::from_fn(values.len(), width, |i, j| values[i].1 + j as f32);
        (nodes, m)
    }

    #[test]
    fn roundtrip_and_alignment() {
        let c = ActivationCache::new(1 << 20);
        let (nodes, rows) = row_matrix(&[(3, 0.5), (9, 1.5), (7, 2.5)], 4);
        c.insert_rows(&nodes, &rows);
        let mut out = DMatrix::zeros(0, 0);
        // Probe in a different order than inserted.
        assert!(c.try_gather(&[7, 3, 9], 4, &mut out));
        assert_eq!(out.row(0), rows.row(2));
        assert_eq!(out.row(1), rows.row(0));
        assert_eq!(out.row(2), rows.row(1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 0, 3));
    }

    /// The row-granular probe: every probed row is one hit or one miss,
    /// the missing positions are exactly the rows without a current,
    /// right-width entry, present rows are copied exactly and absent rows
    /// of `out` are left alone.
    #[test]
    fn probe_counts_every_row_once_and_fills_only_present_rows() {
        let c = ActivationCache::new(1 << 20);
        // Node 9 goes stale, node 7 has the wrong width; 1, 2, 3 are good.
        c.insert_rows(&[9], &DMatrix::filled(1, 3, 9.0));
        c.bump_version();
        c.insert_rows(&[7], &DMatrix::filled(1, 2, 7.0));
        let (good, rows) = row_matrix(&[(1, 0.5), (2, 1.5), (3, 2.5)], 3);
        c.insert_rows(&good, &rows);
        let before = c.stats();

        let probe = [1u32, 5, 9, 2, 7, 3, 6];
        const UNTOUCHED: f32 = -77.0;
        let mut out = DMatrix::filled(probe.len(), 3, UNTOUCHED);
        let missing = c.probe_rows(&probe, 3, &mut out);
        assert_eq!(
            missing,
            vec![1, 2, 4, 6],
            "absent, stale and wrong-width rows"
        );
        let s = c.stats();
        assert_eq!(s.hits - before.hits, 3, "{s:?}");
        assert_eq!(s.misses - before.misses, 4, "{s:?}");
        for (at, src) in [(0usize, 0usize), (3, 1), (5, 2)] {
            assert_eq!(out.row(at), rows.row(src), "present row {at}");
        }
        for &at in &missing {
            assert_eq!(out.row(at as usize), [UNTOUCHED; 3], "absent row {at}");
        }
        // `try_gather` is "nothing missing" over the same probe.
        assert!(!c.try_gather(&probe, 3, &mut out));
        assert!(c.try_gather(&[3, 1], 3, &mut out));
        assert_eq!(c.stats().hits - s.hits, 3 + 2);
        assert_eq!(c.stats().misses - s.misses, 4);
    }

    #[test]
    fn version_bump_invalidates_everything() {
        let c = ActivationCache::new(1 << 20);
        let (nodes, rows) = row_matrix(&[(1, 0.0), (2, 1.0)], 3);
        c.insert_rows(&nodes, &rows);
        let mut out = DMatrix::zeros(0, 0);
        assert!(c.try_gather(&[1, 2], 3, &mut out));
        c.bump_version();
        assert!(!c.try_gather(&[1, 2], 3, &mut out));
        // Re-inserting under the new version serves hits again.
        c.insert_rows(&nodes, &rows);
        assert!(c.try_gather(&[1, 2], 3, &mut out));
    }

    #[test]
    fn tiny_budget_evicts_but_stays_bounded() {
        // One shard so the budget arithmetic is exact; room for ~4 rows.
        let width = 8;
        let row_bytes = width * 4 + ENTRY_OVERHEAD;
        let c = ActivationCache::with_shards(4 * row_bytes, 1);
        for node in 0u32..64 {
            let rows = DMatrix::from_fn(1, width, |_, j| node as f32 + j as f32);
            c.insert_rows(&[node], &rows);
        }
        let s = c.stats();
        assert!(s.resident_bytes <= c.budget_bytes(), "{s:?}");
        assert!(s.entries >= 1 && s.entries <= 4, "{s:?}");
        assert!(s.evictions >= 60, "{s:?}");
        // Whatever survived still round-trips correctly.
        let mut out = DMatrix::zeros(0, 0);
        let mut live = 0;
        for node in 0u32..64 {
            if c.try_gather(&[node], width, &mut out) {
                assert_eq!(out.get(0, 0), node as f32);
                live += 1;
            }
        }
        assert_eq!(live, s.entries);
    }

    #[test]
    fn clock_gives_hit_rows_a_second_chance() {
        let width = 8;
        let row_bytes = width * 4 + ENTRY_OVERHEAD;
        let c = ActivationCache::with_shards(3 * row_bytes, 1);
        for node in 0u32..3 {
            let rows = DMatrix::from_fn(1, width, |_, j| node as f32 + j as f32);
            c.insert_rows(&[node], &rows);
        }
        // Touch node 0 so its referenced bit is set…
        let mut out = DMatrix::zeros(0, 0);
        assert!(c.try_gather(&[0], width, &mut out));
        // …then force one eviction: the hand passes 0 (second chance)
        // and evicts 1, the oldest untouched entry.
        c.insert_rows(&[99], &DMatrix::zeros(1, width));
        assert!(c.try_gather(&[0], width, &mut out), "hot row evicted");
        assert!(!c.try_gather(&[1], width, &mut out), "cold row survived");
    }

    #[test]
    fn oversized_rows_are_rejected_not_thrashed() {
        let c = ActivationCache::with_shards(64, 1);
        let rows = DMatrix::zeros(1, 1024);
        c.insert_rows(&[5], &rows);
        let s = c.stats();
        assert_eq!((s.entries, s.insertions, s.evictions), (0, 0, 0));
    }

    #[test]
    fn concurrent_probes_and_inserts_are_safe() {
        let c = std::sync::Arc::new(ActivationCache::new(1 << 16));
        let width = 16;
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut out = DMatrix::zeros(0, 0);
                    for i in 0..500u32 {
                        let node = (t * 131 + i) % 97;
                        let rows = DMatrix::from_fn(1, width, |_, j| node as f32 * 2.0 + j as f32);
                        c.insert_rows(&[node], &rows);
                        if c.try_gather(&[node % 50], width, &mut out) {
                            // A hit row must be internally consistent.
                            assert_eq!(out.get(0, 1), out.get(0, 0) + 1.0);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(c.stats().resident_bytes <= c.budget_bytes() + 64);
    }

    #[test]
    fn bf16_rows_halve_bytes_and_widen_to_exact_rounding() {
        let width = 32;
        let (nodes, rows) = row_matrix(&[(3, 0.123), (9, 1.456), (7, 2.789)], width);
        let c32 = ActivationCache::with_shards(1 << 20, 1);
        let c16 = ActivationCache::with_shards_precision(1 << 20, 1, Precision::Bf16);
        assert_eq!(c16.precision(), Precision::Bf16);
        c32.insert_rows(&nodes, &rows);
        c16.insert_rows(&nodes, &rows);
        // Same rows, half the data bytes per entry.
        let per_row_32 = c32.stats().resident_bytes / 3 - ENTRY_OVERHEAD;
        let per_row_16 = c16.stats().resident_bytes / 3 - ENTRY_OVERHEAD;
        assert_eq!(per_row_32, width * 4);
        assert_eq!(per_row_16, width * 2);
        // A hit widens each element to exactly its bf16 rounding — one
        // quantisation at insert, none on the read path.
        let mut out = DMatrix::zeros(0, 0);
        assert!(c16.try_gather(&nodes, width, &mut out));
        for i in 0..nodes.len() {
            for j in 0..width {
                let want = Bf16::from_f32(rows.get(i, j)).to_f32();
                assert_eq!(out.get(i, j), want, "row {i} col {j}");
            }
        }
    }

    #[test]
    fn bf16_budget_holds_more_rows() {
        // Same budget, sized for exactly 4 f32 rows: the bf16 cache keeps
        // budget/(2·width+overhead) resident — the working-set win bf16
        // storage buys (→ 2× as width dwarfs the bookkeeping overhead).
        let width = 48;
        let budget = 4 * (width * 4 + ENTRY_OVERHEAD);
        let c32 = ActivationCache::with_shards(budget, 1);
        let c16 = ActivationCache::with_shards_precision(budget, 1, Precision::Bf16);
        for node in 0u32..64 {
            let rows = DMatrix::from_fn(1, width, |_, j| node as f32 + j as f32);
            c32.insert_rows(&[node], &rows);
            c16.insert_rows(&[node], &rows);
        }
        assert_eq!(c32.stats().entries, 4);
        assert_eq!(c16.stats().entries, budget / (width * 2 + ENTRY_OVERHEAD));
        assert!(c16.stats().entries > c32.stats().entries);
        assert!(c16.stats().resident_bytes <= c16.budget_bytes());
    }
}
