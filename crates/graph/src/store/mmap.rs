//! The memory-mapped shard backend: lazily maps shard files on demand,
//! one **section** at a time, and bounds the total mapped bytes with a
//! CLOCK (second-chance) cache — the same eviction discipline as the
//! serving activation cache.
//!
//! # Cache unit
//!
//! A cache entry is one [`SectionKind`] of one shard file: its topology
//! (header, CSR offsets, adjacency), its feature rows, its label
//! rows or its `agg` rows — the byte ranges
//! [`ShardLayout`](super::shard::ShardLayout) cuts a file into. Every
//! reader wants exactly one of them: the sampler, subgraph induction and
//! the frontier tiler read topology, a gather reads one kind of row. So a
//! degree read maps a shard's few-percent topology range, never its
//! feature payload, and on a feature-dominated store the
//! whole graph's topology fits a budget a fraction of the store's size.
//! Nothing maps a whole shard file.
//!
//! # Budget accounting
//!
//! All entries share **one CLOCK hand and one byte budget**. An entry is
//! charged its section's byte length, so a fully mapped shard costs
//! exactly its file length; a zero-width section (a store without labels,
//! say) maps nothing and costs nothing. Not charged: `mmap` offsets are
//! page-aligned, so a section that starts mid-page is mapped from the
//! page boundary below it — under one page of extra address space per
//! mapped section, backed by a page its neighbour section shares. The
//! budget is best effort in one direction
//! only: the entry being loaded is exempt from its own eviction sweep, so
//! mapped bytes can exceed the budget by the section each concurrent
//! loader has just mapped — the largest single section per loader —
//! and otherwise only when pins leave nothing to evict. The sweep takes
//! row sections before topology sections (see
//! [`StoreCore::evict_to_budget`]): as long as the store's topology plus
//! the row sections being loaded fit the budget, topology is never
//! evicted. A section evicted while a reader still holds it (a gather, a
//! topology view) stays mapped, uncharged, until that reader drops it: a
//! walk can keep up to one topology section per shard mapped past the
//! budget for as long as it runs.
//!
//! Why bound *mapped* bytes rather than resident bytes: the out-of-core CI
//! smoke asserts the RSS cap with `ulimit -v`, which limits the address
//! space — a mapping counts against it whether or not its pages are
//! resident. Bounding the mappings therefore bounds both.
//!
//! # Reader safety
//!
//! `section()` hands out `Arc<ShardSection>`. Eviction only drops the
//! cache's own `Arc`; the munmap runs when the **last** reader drops
//! theirs, so a reader never observes a partially unmapped (or remapped)
//! section — a topology view ([`TopoView`]) that fetched a section keeps
//! reading the same bytes after the cache evicts it, until the view
//! drops. Sections are independent
//! mappings of disjoint ranges (give or take a shared, read-only lead-in
//! page), so evicting one kind of a shard never disturbs a reader of
//! another. Validation is split by what can change: the file's length is
//! checked against the manifest in front of **every** map (a file that
//! shrank would otherwise fault inside the mapping), its header against
//! the manifest's shape once per shard, and the manifest's own arithmetic
//! once at open.
//!
//! # Structure
//!
//! One reader path: every section read is [`StoreCore::get`] on the
//! caller's thread — a hit hands out the mapped section, a miss maps it
//! there and then and runs the CLOCK sweep — and no thread of the store's
//! own pages anything in. A gather calls it once per section it reads; a
//! topology view once per shard, on the walk's first touch of it, and
//! then reads the section it holds without a lock. Page faults land on
//! the reader either way (a map touches no page), so the cache's job is
//! only to bound mappings and to keep the ones readers return to. The
//! cache's only exemption from the hand is the pin:
//! [`MmapStore::pin_nodes`] holds every section of a
//! shard mapped until [`MmapStore::unpin_all`].

use super::order::invert;
use super::shard::{
    shard_file_name, shard_width, SectionKind, ShardSection, ShardShape, StoreManifest,
};
use super::{scan_capped_mean_degree, TopoView, View};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A read-only mapping of one byte range of a file (unix: `mmap(2)`;
/// elsewhere: a heap copy so the store still functions, without the
/// memory bound).
///
/// `mmap` offsets must be page-aligned, so a range starting mid-page is
/// mapped from the page boundary below it: `base` is what the kernel
/// returned, `lead` the distance from there to the first requested byte,
/// and [`Self::bytes`] hides both. The lead-in (less than a page) shares
/// its page-cache page with the neighbouring range's mapping, so it costs
/// address space, not memory.
pub struct Mapping {
    #[cfg(unix)]
    base: *mut u8,
    /// Bytes mapped from `base`: `lead` + the requested length (0 = no
    /// mapping was made).
    #[cfg(unix)]
    map_len: usize,
    #[cfg(unix)]
    lead: usize,
    #[cfg(not(unix))]
    buf: Vec<u8>,
}

#[cfg(unix)]
mod sys {
    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
        pub fn getpagesize() -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
}

/// The kernel's page size (the granularity of `mmap` offsets).
#[cfg(unix)]
fn page_size() -> usize {
    static PAGE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PAGE.get_or_init(|| {
        // SAFETY: `getpagesize` takes no arguments, touches no memory and
        // cannot fail.
        let page = unsafe { sys::getpagesize() } as usize;
        assert!(page.is_power_of_two(), "page size {page} not a power of 2");
        page
    })
}

/// Distance from the page boundary at or below file offset `offset` to
/// `offset` (0 where ranges are copied rather than mapped).
#[cfg(unix)]
fn lead_of(offset: usize) -> usize {
    offset % page_size()
}

#[cfg(not(unix))]
fn lead_of(_offset: usize) -> usize {
    0
}

// SAFETY: the only fields that are not plain integers are `base` (a
// `PROT_READ` mapping nothing ever writes through or remaps before
// `Drop`) and `buf` (an owned `Vec`); shared references only read.
unsafe impl Send for Mapping {}
// SAFETY: as above — `&Mapping` exposes `bytes()` only.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map bytes `[offset, offset + len)` of `file` read-only. The caller
    /// has checked the range against the file's length; a range past the
    /// end of the file would map but fault on access.
    #[cfg(unix)]
    pub fn map_range(file: &std::fs::File, offset: usize, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Ok(Mapping {
                base: std::ptr::null_mut(),
                map_len: 0,
                lead: 0,
            });
        }
        let lead = lead_of(offset);
        let floor = offset - lead;
        let map_len = lead + len;
        debug_assert_eq!(floor % page_size(), 0, "mmap offset must be page-aligned");
        let floor = i64::try_from(floor)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "mmap offset overflows"))?;
        // SAFETY: a fresh (addr = null) read-only shared mapping of an open
        // descriptor aliases no Rust object; the kernel validates fd,
        // length and the page-aligned offset and reports failure as -1,
        // checked below.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                map_len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                floor,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        debug_assert_eq!(base as usize % page_size(), 0);
        Ok(Mapping {
            base,
            map_len,
            lead,
        })
    }

    #[cfg(not(unix))]
    pub fn map_range(file: &std::fs::File, offset: usize, len: usize) -> io::Result<Mapping> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(offset as u64))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(Mapping { buf })
    }

    /// The requested byte range (without the page lead-in).
    #[cfg(unix)]
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        if self.map_len == 0 {
            return &[];
        }
        debug_assert!(self.lead < self.map_len);
        // SAFETY: `base .. base + map_len` is one live mapping (successful
        // mmap in `map_range`, unmapped only in `Drop`), `lead < map_len`,
        // and the pages are never written through this process.
        unsafe { std::slice::from_raw_parts(self.base.add(self.lead), self.map_len - self.lead) }
    }

    #[cfg(not(unix))]
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        if self.map_len > 0 {
            // SAFETY: exactly the `(base, map_len)` the successful mmap in
            // `map_range` produced; no `bytes()` borrow can outlive `self`.
            unsafe {
                sys::munmap(self.base, self.map_len);
            }
        }
    }
}

/// What the cache holds of one [`SectionKind`], inside [`StoreCacheStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SectionStats {
    /// Sections of this kind currently mapped (≤ the shard count).
    pub resident: usize,
    /// Bytes they are charged against the budget.
    pub mapped_bytes: usize,
    /// Sections of this kind unmapped by the CLOCK hand so far.
    pub evictions: u64,
}

/// Counters exported by [`MmapStore::cache_stats`]. A *probe* is one
/// request for one section of one shard: a row gather makes one per
/// section it reads, a pin one per section it pins, and a topology view
/// ([`TopoView`]) one per shard on its walk's first touch of that shard —
/// never one per vertex read. So `hits + misses`
/// counts walks × shards touched plus gathered sections, and a low hit
/// rate with `topology evictions` 0 means row sections cycling, not
/// topology.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCacheStats {
    /// Probes answered from an already-mapped section.
    pub hits: u64,
    /// Probes that had to map the section.
    pub misses: u64,
    /// Sections unmapped by the CLOCK hand to respect the budget.
    pub evictions: u64,
    /// Bytes currently charged against the budget (all mapped sections).
    pub mapped_bytes: usize,
    /// Shards with at least one section mapped.
    pub resident_shards: usize,
    /// Always 0: the store has no prefetcher. The three `prefetch_*`
    /// fields remain only because the e2e harness still reads them.
    pub prefetch_issued: u64,
    /// Always 0 (see `prefetch_issued`).
    pub prefetch_hits: u64,
    /// Always 0 (see `prefetch_issued`).
    pub prefetch_wasted: u64,
    /// Sections currently mapped, all kinds.
    pub resident_sections: usize,
    /// Per-kind breakdown of `resident_sections`, `mapped_bytes` and
    /// `evictions`.
    pub topology: SectionStats,
    pub features: SectionStats,
    pub labels: SectionStats,
    pub agg: SectionStats,
    /// Whether the store carries the `agg` section (the summary lists
    /// `agg` only then).
    pub has_agg: bool,
    /// Shards in the store (the denominator of each kind's `resident`).
    pub num_shards: usize,
    /// The mapped-bytes budget the counters were collected under.
    pub budget_bytes: usize,
}

impl StoreCacheStats {
    /// Hit fraction over all probes so far (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The breakdown for one section kind.
    pub fn of(&self, kind: SectionKind) -> &SectionStats {
        match kind {
            SectionKind::Topology => &self.topology,
            SectionKind::Features => &self.features,
            SectionKind::Labels => &self.labels,
            SectionKind::Agg => &self.agg,
        }
    }

    /// One-line human summary for CLI reports and banners: the counters,
    /// then what is mapped right now, e.g. `topology 12/12 · features
    /// 3/12 · labels 4/12, 11.6 MiB of 12.0 MiB` (plus `· agg 2/12` on a
    /// store with the `agg` section).
    pub fn summary(&self) -> String {
        const MIB: f64 = (1 << 20) as f64;
        let mapped: Vec<String> = SectionKind::ALL
            .iter()
            .filter(|&&k| k != SectionKind::Agg || self.has_agg)
            .map(|&k| format!("{} {}/{}", k.name(), self.of(k).resident, self.num_shards))
            .collect();
        format!(
            "hits {} misses {} evictions {} ({:.1}% hit rate, topology evictions {}; \
             {}, {:.1} MiB of {:.1} MiB)",
            self.hits,
            self.misses,
            self.evictions,
            100.0 * self.hit_rate(),
            self.topology.evictions,
            mapped.join(" · "),
            self.mapped_bytes as f64 / MIB,
            self.budget_bytes as f64 / MIB,
        )
    }
}

/// One cache entry: a shard section's resident mapping (if any) plus the
/// CLOCK bookkeeping bits. `referenced` is flipped lock-free on every hit;
/// `pinned` exempts the section from eviction entirely.
#[derive(Default)]
struct Slot {
    data: Mutex<Option<Arc<ShardSection>>>,
    referenced: AtomicBool,
    pinned: AtomicBool,
}

impl Slot {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<ShardSection>>> {
        // Every update of the option is a single assignment, so the data
        // is valid even if a holder panicked.
        self.data.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// One shard of the store: what its file must look like, and the cache
/// entries of its sections.
struct Shard {
    /// Whether the shard file exists on disk (validated at open).
    present: bool,
    shape: ShardShape,
    /// Set once the file's header has passed [`ShardShape::check_header`];
    /// until then every map of one of its sections repeats the check.
    header_ok: AtomicBool,
    sections: [Slot; KINDS],
}

/// Entries per shard in the cache: one per [`SectionKind`].
const KINDS: usize = SectionKind::ALL.len();

/// Cache entry id of section `kind` of shard `sid` — the index the CLOCK
/// hand runs over.
#[inline]
fn entry_of(sid: usize, kind: SectionKind) -> usize {
    sid * KINDS + kind as usize
}

/// The cache state behind an opened store: manifest, placement, cache
/// entries and every counter.
struct StoreCore {
    dir: PathBuf,
    /// Holds the placement map, `rank` (external → internal id).
    manifest: StoreManifest,
    /// Inverse of `manifest.rank` (internal id → external vertex).
    unrank: Vec<u32>,
    /// Ranks per shard ([`shard_width`]).
    width: usize,
    shards: Vec<Shard>,
    /// Mapped-bytes budget the CLOCK hand enforces (best effort: a single
    /// section larger than the budget still loads — the alternative is
    /// livelock).
    budget: usize,
    mapped: AtomicUsize,
    hand: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Evictions per [`SectionKind`].
    evictions: [AtomicU64; KINDS],
    /// `(cap, d_eff)` memo of [`MmapStore::capped_mean_degree`].
    mean_degree_memo: Mutex<Vec<(u32, f64)>>,
}

impl StoreCore {
    fn num_vertices(&self) -> usize {
        self.manifest.n as usize
    }

    /// Number of cache entries ([`KINDS`] per shard).
    fn num_entries(&self) -> usize {
        self.shards.len() * KINDS
    }

    /// `(shard, slot in the shard)` of vertex `v`: its rank cut by the
    /// shard width. The manifest's validation makes the shard id in range.
    #[inline]
    fn place(&self, v: u32) -> (usize, usize) {
        let r = self.manifest.rank[v as usize] as usize;
        let sid = r / self.width;
        (sid, r - sid * self.width)
    }

    /// The slot and kind behind entry id `i`.
    #[inline]
    fn entry(&self, i: usize) -> (&Slot, SectionKind) {
        let kind = SectionKind::ALL[i % KINDS];
        (&self.shards[i / KINDS].sections[kind as usize], kind)
    }

    /// Map section `kind` of shard `sid` from disk (no cache involvement
    /// beyond the once-per-shard header check).
    fn map_section(&self, sid: usize, kind: SectionKind) -> io::Result<ShardSection> {
        let shard = &self.shards[sid];
        let check = !shard.header_ok.load(Ordering::Relaxed);
        let section = ShardSection::map(
            &self.dir.join(shard_file_name(sid)),
            sid,
            &shard.shape,
            kind,
            check,
        )?;
        // Relaxed: the flag publishes nothing — a racing loader that
        // still reads `false` merely repeats the check.
        shard.header_ok.store(true, Ordering::Relaxed);
        Ok(section)
    }

    /// Get section `kind` of shard `sid`, mapping it on demand and
    /// evicting others to stay under the byte budget.
    fn get(&self, sid: usize, kind: SectionKind) -> io::Result<Arc<ShardSection>> {
        let shard = self.shards.get(sid).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {sid} out of range ({} shards)", self.shards.len()),
            )
        })?;
        if !shard.present {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "shard {sid} is not present in store {} (partial deployment?)",
                    self.dir.display()
                ),
            ));
        }
        let slot = &shard.sections[kind as usize];
        // A racing second loader waits on the slot lock and then takes
        // the hit path.
        let mut guard = slot.lock();
        if let Some(d) = guard.as_ref() {
            slot.referenced.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(d));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(self.map_section(sid, kind)?);
        self.mapped
            .fetch_add(data.mapped_bytes(), Ordering::Relaxed);
        slot.referenced.store(true, Ordering::Relaxed);
        *guard = Some(Arc::clone(&data));
        // Evict with the slot lock released: eviction takes other slots'
        // locks.
        drop(guard);
        self.evict_to_budget(entry_of(sid, kind));
        Ok(data)
    }

    /// CLOCK sweep: unmap unpinned, unreferenced sections until the mapped
    /// total fits the budget. `keep` (the entry just loaded) is exempt so
    /// the caller's handout is never immediately evicted.
    ///
    /// Row sections go first: the hand passes over topology entries
    /// (without touching their referenced bits) for as long as evicting
    /// rows can still reach the budget. Every reader starts at topology —
    /// the sampler twice per pop — and it is a few percent of a store's
    /// bytes, so unmapping it buys almost nothing and puts a re-map on the
    /// sampler's path; but a gather walks its row sections cyclically,
    /// which under plain CLOCK sends the hand round the whole table once
    /// per gather and takes the topology entries with it.
    fn evict_to_budget(&self, keep: usize) {
        let n = self.num_entries();
        for spare_topology in [true, false] {
            // Two full sweeps: the first may only clear referenced bits.
            let mut steps = 2 * n;
            while self.mapped.load(Ordering::Relaxed) > self.budget && steps > 0 {
                steps -= 1;
                let i = self.hand.fetch_add(1, Ordering::Relaxed) % n;
                let (slot, kind) = self.entry(i);
                if i == keep
                    || slot.pinned.load(Ordering::Relaxed)
                    || (spare_topology && kind == SectionKind::Topology)
                {
                    continue;
                }
                if slot.referenced.swap(false, Ordering::Relaxed) {
                    continue; // second chance
                }
                self.evict_entry(i);
            }
        }
    }

    /// Unmap entry `i` if mapped (caller has already decided it is
    /// evictable).
    fn evict_entry(&self, i: usize) {
        let (slot, kind) = self.entry(i);
        if let Some(d) = slot.lock().take() {
            self.mapped.fetch_sub(d.mapped_bytes(), Ordering::Relaxed);
            self.evictions[kind as usize].fetch_add(1, Ordering::Relaxed);
            // Dropping `d` here only drops the cache's Arc; readers
            // holding clones keep the mapping alive until they finish.
        }
    }

    fn cache_stats(&self) -> StoreCacheStats {
        let mut by_kind = [SectionStats::default(); KINDS];
        let mut resident_shards = 0;
        for shard in &self.shards {
            let mut any = false;
            for (slot, stats) in shard.sections.iter().zip(&mut by_kind) {
                if let Some(d) = slot.lock().as_ref() {
                    stats.resident += 1;
                    stats.mapped_bytes += d.mapped_bytes();
                    any = true;
                }
            }
            resident_shards += any as usize;
        }
        for (stats, evictions) in by_kind.iter_mut().zip(&self.evictions) {
            stats.evictions = evictions.load(Ordering::Relaxed);
        }
        let [topology, features, labels, agg] = by_kind;
        StoreCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: by_kind.iter().map(|s| s.evictions).sum(),
            mapped_bytes: self.mapped.load(Ordering::Relaxed),
            resident_shards,
            prefetch_issued: 0,
            prefetch_hits: 0,
            prefetch_wasted: 0,
            resident_sections: by_kind.iter().map(|s| s.resident).sum(),
            topology,
            features,
            labels,
            agg,
            has_agg: self.manifest.has_agg,
            num_shards: self.shards.len(),
            budget_bytes: self.budget,
        }
    }
}

/// The mmap side of a [`TopoView`]: each shard's topology section,
/// fetched through [`StoreCore::get`] on the walk's first touch of the
/// shard (the outcome, error included, is kept for the view's life) and
/// read lock-free after that.
pub(super) struct ShardTopology<'a> {
    core: &'a StoreCore,
    sections: Box<[OnceLock<io::Result<Arc<ShardSection>>>]>,
}

impl ShardTopology<'_> {
    pub(super) fn num_vertices(&self) -> usize {
        self.core.num_vertices()
    }

    /// The neighbor list of `v`, or why its shard cannot be mapped.
    #[inline]
    pub(super) fn neighbors(&self, v: u32) -> io::Result<&[u32]> {
        let (sid, local) = self.core.place(v);
        match self.sections[sid].get_or_init(|| self.core.get(sid, SectionKind::Topology)) {
            Ok(section) => Ok(section.neighbors(local)),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        }
    }
}

/// A shard store opened for memory-mapped access. See the module docs.
pub struct MmapStore {
    /// Boxed: the core is large and `GraphStore` holds the store inline.
    core: Box<StoreCore>,
    /// When set, `Drop` removes the whole store directory (used by the
    /// temp spill of `GraphStore::spill_to_temp`, so test-suite runs leave
    /// no tmp litter).
    remove_on_drop: bool,
}

impl MmapStore {
    /// Open the store written under `dir`, bounding mapped section bytes
    /// by `budget` (bytes).
    /// Eagerly validates the manifest (its rank cut and permutation, and
    /// that each shard's counts add up to its recorded length) and every
    /// *present* shard file's length — truncation fails here, not at first
    /// access. Shard headers are checked on the first read of each shard.
    /// Missing shard files leave their shard unavailable.
    pub fn open(dir: &Path, budget: usize) -> io::Result<MmapStore> {
        let manifest = StoreManifest::load(dir)?;
        let mut shards = Vec::with_capacity(manifest.num_shards());
        for (sid, info) in manifest.shards.iter().enumerate() {
            let shape = ShardShape::from_manifest(&manifest, sid)?;
            let path = dir.join(shard_file_name(sid));
            let present = match std::fs::metadata(&path) {
                Ok(meta) => {
                    if meta.len() != info.file_len {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "shard {}: file is {} bytes but the manifest records {} \
                                 (truncated or corrupt — refusing to open the store)",
                                path.display(),
                                meta.len(),
                                info.file_len
                            ),
                        ));
                    }
                    true
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => false,
                Err(e) => return Err(e),
            };
            shards.push(Shard {
                present,
                shape,
                header_ok: AtomicBool::new(false),
                sections: Default::default(),
            });
        }
        let core = Box::new(StoreCore {
            dir: dir.to_path_buf(),
            width: shard_width(manifest.n as usize, manifest.num_shards()),
            unrank: invert(&manifest.rank),
            manifest,
            shards,
            budget: budget.max(1),
            mapped: AtomicUsize::new(0),
            hand: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: Default::default(),
            mean_degree_memo: Mutex::new(Vec::new()),
        });
        Ok(MmapStore {
            core,
            remove_on_drop: false,
        })
    }

    /// [`Self::open`]; the flag is ignored — the store has no prefetcher.
    /// Kept only because the e2e harness calls it.
    pub fn open_with_prefetch(dir: &Path, budget: usize, _prefetch: bool) -> io::Result<MmapStore> {
        Self::open(dir, budget)
    }

    /// Mark the store directory for removal when the store drops
    /// ([`GraphStore::spill_to_temp`](super::GraphStore::spill_to_temp)
    /// owns its directory).
    pub(super) fn set_remove_on_drop(&mut self) {
        self.remove_on_drop = true;
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.core.dir
    }

    pub fn manifest(&self) -> &StoreManifest {
        &self.core.manifest
    }

    pub fn num_vertices(&self) -> usize {
        self.core.num_vertices()
    }

    pub fn num_edges(&self) -> usize {
        self.core.manifest.num_edges as usize
    }

    pub fn feature_dim(&self) -> usize {
        self.core.manifest.feature_dim as usize
    }

    /// Element type of the stored feature rows (f32 unless the store was
    /// written with `--features bf16`). Gathers always return f32.
    pub fn feature_precision(&self) -> gsgcn_tensor::Precision {
        self.core.manifest.feature_precision
    }

    pub fn label_dim(&self) -> usize {
        self.core.manifest.label_dim as usize
    }

    pub fn num_shards(&self) -> usize {
        self.core.shards.len()
    }

    /// [`Topology::capped_mean_degree`](super::Topology::capped_mean_degree),
    /// memoized per `cap`: the scan reads every vertex, and the sampler
    /// asks once per subgraph.
    pub fn capped_mean_degree(&self, cap: u32) -> f64 {
        let memo = || {
            let memo = self.core.mean_degree_memo.lock();
            memo.unwrap_or_else(|p| p.into_inner())
        };
        if let Some(&(_, d)) = memo().iter().find(|&&(c, _)| c == cap) {
            return d;
        }
        let d = scan_capped_mean_degree(&self.view(), cap);
        memo().push((cap, d));
        d
    }

    /// Mapped-bytes budget.
    pub fn budget_bytes(&self) -> usize {
        self.core.budget
    }

    /// Placement order this store was written with.
    pub fn order(&self) -> super::order::StoreOrder {
        self.core.manifest.order
    }

    /// Internal (placement) id of external vertex `v`: its rank.
    #[inline]
    pub fn to_internal(&self, v: u32) -> u32 {
        self.core.manifest.rank[v as usize]
    }

    /// External vertex of internal (placement) id `i` — the inverse of
    /// [`Self::to_internal`].
    #[inline]
    pub fn to_external(&self, i: u32) -> u32 {
        self.core.unrank[i as usize]
    }

    /// Shard id of vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: u32) -> u32 {
        self.core.place(v).0 as u32
    }

    /// `(shard, slot in the shard)` of vertex `v`.
    #[inline]
    pub(super) fn place(&self, v: u32) -> (usize, usize) {
        self.core.place(v)
    }

    /// Whether `v` is a valid vertex **and** its shard file is present.
    pub fn contains(&self, v: u32) -> bool {
        (v as usize) < self.num_vertices() && self.shard_present(self.shard_of(v) as usize)
    }

    /// Whether shard `sid`'s file is present on disk.
    pub fn shard_present(&self, sid: usize) -> bool {
        self.core.shards.get(sid).is_some_and(|s| s.present)
    }

    /// Get section `kind` of shard `sid`, mapping it on demand and
    /// evicting others to stay under the byte budget.
    pub fn section(&self, sid: usize, kind: SectionKind) -> io::Result<Arc<ShardSection>> {
        self.core.get(sid, kind)
    }

    /// A topology view for one walk, no shard fetched yet.
    pub(super) fn view(&self) -> TopoView<'_> {
        TopoView(View::Shards(ShardTopology {
            core: &self.core,
            sections: (0..self.num_shards()).map(|_| OnceLock::new()).collect(),
        }))
    }

    /// Pin the shards containing `nodes`: map **all** their sections now
    /// (`agg` only on a store that has it) and exempt them from eviction
    /// until [`Self::unpin_all`]. Used by
    /// serving to keep the hot working set resident across queries.
    /// Returns how many shards were newly pinned.
    pub fn pin_nodes(&self, nodes: &[u32]) -> io::Result<usize> {
        let mut pinned = 0;
        for &v in nodes {
            if (v as usize) >= self.num_vertices() {
                continue;
            }
            let sid = self.shard_of(v) as usize;
            let shard = &self.core.shards[sid];
            if !shard.present {
                continue;
            }
            let mut newly = false;
            // A store without the `agg` section has nothing there to pin.
            let has_agg = self.core.manifest.has_agg;
            for kind in SectionKind::ALL
                .into_iter()
                .filter(|&k| has_agg || k != SectionKind::Agg)
            {
                if !shard.sections[kind as usize]
                    .pinned
                    .swap(true, Ordering::Relaxed)
                {
                    self.core.get(sid, kind)?;
                    newly = true;
                }
            }
            pinned += newly as usize;
        }
        Ok(pinned)
    }

    /// Release every pin taken by [`Self::pin_nodes`].
    pub fn unpin_all(&self) {
        for slot in self.core.shards.iter().flat_map(|s| &s.sections) {
            slot.pinned.store(false, Ordering::Relaxed);
        }
        // Re-apply the budget now that pins no longer shield sections.
        self.core.evict_to_budget(usize::MAX);
    }

    /// Unmap every unpinned row (feature, label, `agg`) section now;
    /// topology stays. For a reader that knows it is about to go idle: its
    /// row sections would otherwise sit mapped — and, once touched, resident —
    /// until this store's *own* next loads push them out, however long
    /// that is.
    pub fn release_rows(&self) {
        for i in 0..self.core.num_entries() {
            let (slot, kind) = self.core.entry(i);
            if kind != SectionKind::Topology && !slot.pinned.load(Ordering::Relaxed) {
                self.core.evict_entry(i);
            }
        }
    }

    /// Counter snapshot.
    pub fn cache_stats(&self) -> StoreCacheStats {
        self.core.cache_stats()
    }
}

impl Drop for MmapStore {
    fn drop(&mut self) {
        if self.remove_on_drop {
            let _ = std::fs::remove_dir_all(&self.core.dir);
        }
    }
}

impl std::fmt::Debug for MmapStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapStore")
            .field("dir", &self.core.dir)
            .field("n", &self.num_vertices())
            .field("shards", &self.num_shards())
            .field("budget_bytes", &self.core.budget)
            .field("order", &self.order())
            .field("stats", &self.cache_stats())
            .finish()
    }
}
