//! `GraphStore` — one abstraction over "where does the graph live".
//!
//! Every consumer in the workspace (sampler, trainer, serving
//! neighborhood extraction) historically took `&CsrGraph`, which hard-wires
//! the assumption that the whole CSR plus the feature matrix is resident.
//! This module breaks that assumption with two backends behind one type:
//!
//! * [`MemStore`] — the existing fully-resident `Arc<CsrGraph>` (plus
//!   optional feature/label matrices). Zero new indirection on the hot
//!   paths: readers that can see a CSR get the actual slices.
//! * [`MmapStore`] — CSR shards partitioned by the frontier
//!   ([`bfs_partition`](crate::partition::bfs_partition)) partitioner,
//!   written in the versioned on-disk format of [`shard`] and memory-mapped
//!   on demand, **one section (topology / features / labels / `agg`) at a
//!   time**,
//!   behind a CLOCK cache with a **mapped-bytes budget** ([`mmap`]).
//!   Training and serving a graph ≥10× physical RAM becomes a
//!   cache-management problem instead of an OOM.
//!
//! Consumers read topology through the [`Topology`] trait (object-safe, so
//! `&CsrGraph` coerces to `&dyn Topology` at existing call sites), one
//! [`TopoView`] per walk, and bulk
//! rows through [`GraphStore::gather_features_into`] /
//! [`GraphStore::gather_labels_into`] (and, on a store that carries layer
//! 1's input aggregate, [`GraphStore::par_gather_agg_into`]). Every read
//! happens on the caller's
//! thread; an mmap gather visits its rows shard by shard, so each section
//! it touches is mapped once per call however the rows are ordered.
//!
//! The backend is a value, never an environment lookup: callers build
//! [`GraphStore::mem`] over resident parts or open a shard directory
//! with an explicit mapped-bytes budget
//! ([`GraphStore::open_with_budget`]). [`GraphStore::spill_to_temp`]
//! writes resident parts to a temporary shard directory in a given
//! placement order and reopens them memory-mapped — the fixture tests use
//! to put one graph behind both backends.

pub mod mem;
pub mod mmap;
pub mod order;
pub mod shard;

pub use mem::MemStore;
pub use mmap::{MmapStore, SectionStats, StoreCacheStats};
pub use order::StoreOrder;
pub use shard::{
    verify_store, write_store, write_store_ordered, write_store_with_agg,
    write_store_with_precision, AggRows, SectionKind, ShardSection, StoreManifest,
};

use crate::csr::CsrGraph;
use gsgcn_tensor::DMatrix;
use rayon::prelude::*;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The fully-resident parts a store can be materialized into: the graph
/// plus optional feature and label matrices (see
/// [`GraphStore::materialize`]).
pub type ResidentParts = (Arc<CsrGraph>, Option<Arc<DMatrix>>, Option<Arc<DMatrix>>);

/// Read-only topology access, implemented by [`CsrGraph`] (fully resident)
/// and [`GraphStore`] (possibly shard-backed). Object-safe on purpose:
/// samplers and extractors take `&dyn Topology`, and `&CsrGraph` coerces
/// implicitly, so pre-store call sites compile unchanged.
///
/// Vertex reads go through a [`TopoView`]: a walker (a sampled subgraph,
/// an induction, a frontier cut, a ball) takes one with [`Self::view`]
/// and reads every degree and neighbor list through it.
///
/// Determinism contract: both implementations expose the *same* vertex
/// ids, degrees and neighbor orderings for the same graph — the shard
/// format stores neighbor lists verbatim — so anything derived from
/// topology alone (sampler trajectories, neighborhood balls) is
/// bit-identical across backends. `proptest_store.rs` pins this.
pub trait Topology: Sync {
    /// Number of vertices `|V|`.
    fn num_vertices(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// A read handle for one walk (see [`TopoView`]).
    fn view(&self) -> TopoView<'_>;

    /// Mean of `clamp(degree(v), 1, cap)` over all vertices — the
    /// effective average degree the frontier sampler sizes its dashboard
    /// with. The default scans every vertex on each call; shard-backed
    /// topologies memoize it, because the scan is O(|V|) and the sampler
    /// asks once per subgraph.
    fn capped_mean_degree(&self, cap: u32) -> f64 {
        scan_capped_mean_degree(&self.view(), cap)
    }

    /// Locality group (physical shard) of vertex `v`; `0` everywhere
    /// when the topology is fully resident. The frontier tiler groups a
    /// tile's frontier rows by it, so whoever reads them walks each shard
    /// once.
    fn locality_group(&self, v: u32) -> u32 {
        let _ = v;
        0
    }

    /// Number of distinct locality groups (`1` = resident, nothing worth
    /// grouping by).
    fn num_locality_groups(&self) -> usize {
        1
    }
}

/// The [`Topology::capped_mean_degree`] scan, summed in ascending vertex
/// order. Overrides must preserve this exact order and arithmetic —
/// samplers size their tables from the result, so a last-ulp difference
/// between backends would fork otherwise bit-identical trajectories.
pub fn scan_capped_mean_degree(g: &TopoView<'_>, cap: u32) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = (0..n as u32)
        .map(|v| (g.degree(v) as u32).min(cap).max(1) as f64)
        .sum();
    total / n as f64
}

/// One walk's read handle on a [`Topology`]: degrees and neighbor lists
/// as plain slice reads.
///
/// Over a resident CSR the view is the CSR. Over an mmap store it holds
/// one slot per shard, filled with the shard's topology section on the
/// walk's first touch of that shard — the view's only locking call and
/// its only cache probe (one hit or miss per shard per view, never per
/// vertex read). The view keeps each section it holds mapped until it
/// drops, even if the cache evicts its own handle meanwhile, so a walk's
/// reads never fault and never remap; the cache's budget bounds what it
/// keeps between walks. `Sync`: parallel readers share one view, and a
/// shard's first touch still counts once.
///
/// A shard that cannot be mapped fails its first touch: [`Self::try_neighbors`]
/// returns the error, the other readers panic with it.
pub struct TopoView<'a>(View<'a>);

enum View<'a> {
    Csr(&'a CsrGraph),
    Shards(mmap::ShardTopology<'a>),
}

impl<'a> TopoView<'a> {
    /// A view over a resident CSR.
    pub fn csr(g: &'a CsrGraph) -> Self {
        TopoView(View::Csr(g))
    }

    /// The resident CSR behind the view, when there is one — for readers
    /// that want its raw `offsets()` / `adjacency()` slices.
    pub fn as_csr(&self) -> Option<&'a CsrGraph> {
        match self.0 {
            View::Csr(g) => Some(g),
            View::Shards(_) => None,
        }
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        match &self.0 {
            View::Csr(g) => g.num_vertices(),
            View::Shards(s) => s.num_vertices(),
        }
    }

    /// The neighbor list of `v`, or why `v`'s shard cannot be read.
    #[inline]
    pub fn try_neighbors(&self, v: u32) -> io::Result<&[u32]> {
        match &self.0 {
            View::Csr(g) => Ok(g.neighbors(v)),
            View::Shards(s) => s.neighbors(v),
        }
    }

    /// The neighbor list of `v`.
    ///
    /// # Panics
    /// Panics if `v`'s shard cannot be read (see [`Self::try_neighbors`]).
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        self.try_neighbors(v).unwrap_or_else(|e| unreadable(v, e))
    }

    /// Out-degree of `v` (panics as [`Self::neighbors`]).
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        // The CSR arms skip the fallible path: on a resident graph it
        // doubles the sampler's per-pop cost.
        match &self.0 {
            View::Csr(g) => g.degree(v),
            View::Shards(_) => self.neighbors(v).len(),
        }
    }

    /// The `k`-th neighbor of `v`, `k < degree(v)` (panics as
    /// [`Self::neighbors`]).
    #[inline]
    pub fn neighbor(&self, v: u32, k: usize) -> u32 {
        match &self.0 {
            View::Csr(g) => g.neighbor(v, k),
            View::Shards(_) => self.neighbors(v)[k],
        }
    }
}

/// Walkers without an error channel stop loudly: a vertex whose shard
/// cannot be served is a caller bug (validate with
/// [`GraphStore::contains`] first) or a vanished or corrupt file, never
/// a wrong answer.
#[cold]
fn unreadable(v: u32, e: io::Error) -> ! {
    panic!("graph store cannot serve vertex {v}: {e}")
}

impl Topology for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn view(&self) -> TopoView<'_> {
        TopoView::csr(self)
    }
}

/// Which [`GraphStore`] backend to build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreBackend {
    /// Fully resident (the pre-store behavior).
    #[default]
    Mem,
    /// Memory-mapped shards with a bounded cache.
    Mmap,
}

impl StoreBackend {
    pub fn name(self) -> &'static str {
        match self {
            StoreBackend::Mem => "mem",
            StoreBackend::Mmap => "mmap",
        }
    }
}

impl std::str::FromStr for StoreBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mem" | "memory" => Ok(StoreBackend::Mem),
            "mmap" => Ok(StoreBackend::Mmap),
            other => Err(format!("bad graph store {other:?}: expected mem|mmap")),
        }
    }
}

/// Parse a human byte-size string: a plain byte count (`"1048576"`) or a
/// binary/decimal suffix (`KiB`/`MiB`/`GiB` = 2^10/20/30,
/// `KB`/`MB`/`GB` = 10^3/6/9, bare `K`/`M`/`G` = binary),
/// case-insensitive, optional whitespace before the suffix.
pub fn parse_byte_size(s: &str) -> Result<usize, String> {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (num, suffix) = s.split_at(split);
    let num: usize = num
        .parse()
        .map_err(|_| format!("bad byte size {s:?}: expected <number>[KiB|MiB|GiB|KB|MB|GB]"))?;
    let mult: usize = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 1,
        "k" | "kib" => 1 << 10,
        "m" | "mib" => 1 << 20,
        "g" | "gib" => 1 << 30,
        "kb" => 1_000,
        "mb" => 1_000_000,
        "gb" => 1_000_000_000,
        other => return Err(format!("bad byte size suffix {other:?} in {s:?}")),
    };
    num.checked_mul(mult)
        .ok_or_else(|| format!("byte size {s:?} overflows"))
}

/// Default mapped-bytes budget for the shard cache.
pub const DEFAULT_SHARD_CACHE_BYTES: usize = 64 << 20;

/// Shard-count heuristic for spills that do not name a count
/// ([`GraphStore::spill_to_temp`], `gsgcn shard --num-shards 0`): small
/// graphs still get ≥2 shards (so cross-shard edges are exercised
/// everywhere), large graphs get shards of ~4k vertices, capped so the
/// cache always has slack to evict into.
pub fn default_num_shards(n: usize) -> usize {
    n.div_ceil(4096).clamp(2, 64)
}

/// Create a unique, freshly-created temp directory for a spilled store.
fn fresh_temp_dir() -> io::Result<std::path::PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let base = std::env::temp_dir();
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    loop {
        let dir = base.join(format!(
            "gsgcn-store-{}-{}-{nanos}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A graph (plus optional per-vertex feature/label rows) behind one of two
/// backends. See the module docs for the architecture.
pub enum GraphStore {
    Mem(MemStore),
    Mmap(MmapStore),
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphStore::Mem(m) => f
                .debug_struct("GraphStore::Mem")
                .field("n", &m.graph().num_vertices())
                .field("feature_dim", &m.feature_dim())
                .field("label_dim", &m.label_dim())
                .finish(),
            GraphStore::Mmap(m) => m.fmt(f),
        }
    }
}

impl GraphStore {
    /// Fully-resident store over existing parts.
    pub fn mem(
        graph: Arc<CsrGraph>,
        features: Option<Arc<DMatrix>>,
        labels: Option<Arc<DMatrix>>,
    ) -> GraphStore {
        GraphStore::Mem(MemStore::new(graph, features, labels))
    }

    /// Fully-resident store over a bare graph (no features/labels).
    pub fn from_graph(graph: Arc<CsrGraph>) -> GraphStore {
        GraphStore::mem(graph, None, None)
    }

    /// Open an on-disk shard store with an explicit mapped-bytes budget.
    pub fn open_with_budget(dir: &Path, budget: usize) -> io::Result<GraphStore> {
        Ok(GraphStore::Mmap(MmapStore::open(dir, budget)?))
    }

    /// Spill resident parts to a unique temp directory in `order`, then
    /// reopen them memory-mapped behind a `budget`-byte shard cache; the
    /// directory is removed when the store drops. The test fixture for
    /// running one graph through the `mmap` backend.
    pub fn spill_to_temp(
        graph: &CsrGraph,
        features: Option<&DMatrix>,
        labels: Option<&DMatrix>,
        order: StoreOrder,
        budget: usize,
    ) -> io::Result<GraphStore> {
        let dir = fresh_temp_dir()?;
        let shards = default_num_shards(graph.num_vertices());
        shard::write_store_ordered(&dir, graph, features, labels, shards, order)?;
        let mut store = MmapStore::open(&dir, budget)?;
        store.set_remove_on_drop();
        Ok(GraphStore::Mmap(store))
    }

    /// Backend name for logs/bench tags.
    pub fn backend(&self) -> StoreBackend {
        match self {
            GraphStore::Mem(_) => StoreBackend::Mem,
            GraphStore::Mmap(_) => StoreBackend::Mmap,
        }
    }

    pub fn as_mem(&self) -> Option<&MemStore> {
        match self {
            GraphStore::Mem(m) => Some(m),
            GraphStore::Mmap(_) => None,
        }
    }

    pub fn as_mmap(&self) -> Option<&MmapStore> {
        match self {
            GraphStore::Mem(_) => None,
            GraphStore::Mmap(m) => Some(m),
        }
    }

    /// Feature columns per vertex (0 = store holds no features).
    pub fn feature_dim(&self) -> usize {
        match self {
            GraphStore::Mem(m) => m.feature_dim(),
            GraphStore::Mmap(m) => m.feature_dim(),
        }
    }

    /// Label columns per vertex (0 = store holds no labels).
    pub fn label_dim(&self) -> usize {
        match self {
            GraphStore::Mem(m) => m.label_dim(),
            GraphStore::Mmap(m) => m.label_dim(),
        }
    }

    /// Whether the store holds rows of `Â·X`, layer 1's input aggregate
    /// (the `agg` section of [`write_store_with_agg`]; never for mem).
    pub fn has_agg(&self) -> bool {
        match self {
            GraphStore::Mem(_) => false,
            GraphStore::Mmap(m) => m.manifest().has_agg,
        }
    }

    /// Shard count (the mem backend is one implicit shard).
    pub fn num_shards(&self) -> usize {
        match self {
            GraphStore::Mem(_) => 1,
            GraphStore::Mmap(m) => m.num_shards(),
        }
    }

    /// Whether `v` is a valid vertex whose data this store can actually
    /// serve (for a partial mmap deployment, the shard file must be
    /// present). Serving validates requests with this *before* batching,
    /// so one unavailable node fails one request — it cannot poison a
    /// coalesced batch.
    pub fn contains(&self, v: u32) -> bool {
        match self {
            GraphStore::Mem(m) => (v as usize) < m.graph().num_vertices(),
            GraphStore::Mmap(m) => m.contains(v),
        }
    }

    /// Shard id of `v` (mmap backend only).
    pub fn shard_of(&self, v: u32) -> Option<u32> {
        match self {
            GraphStore::Mem(_) => None,
            GraphStore::Mmap(m) => Some(m.shard_of(v)),
        }
    }

    /// Pin every section of the shards holding `nodes` into the cache
    /// (no-op for mem). Returns how many shards were newly pinned.
    pub fn pin_nodes(&self, nodes: &[u32]) -> io::Result<usize> {
        match self {
            GraphStore::Mem(_) => Ok(0),
            GraphStore::Mmap(m) => m.pin_nodes(nodes),
        }
    }

    /// Release all shard pins (no-op for mem).
    pub fn unpin_all(&self) {
        if let GraphStore::Mmap(m) = self {
            m.unpin_all();
        }
    }

    /// Unmap this store's unpinned feature and label sections now (no-op
    /// for mem; topology stays mapped). Call when the store's reader goes
    /// idle while the process keeps running: a dataset's training store
    /// and full store each own a cache budget, and without this both sit
    /// at their budgets, mapped and resident, while only one is read.
    pub fn release_rows(&self) {
        if let GraphStore::Mmap(m) = self {
            m.release_rows();
        }
    }

    /// Shard-cache counters (None for the mem backend).
    pub fn cache_stats(&self) -> Option<StoreCacheStats> {
        match self {
            GraphStore::Mem(_) => None,
            GraphStore::Mmap(m) => Some(m.cache_stats()),
        }
    }

    /// Placement order of the backing store (mem is trivially natural).
    pub fn order(&self) -> StoreOrder {
        match self {
            GraphStore::Mem(_) => StoreOrder::Natural,
            GraphStore::Mmap(m) => m.order(),
        }
    }

    /// Internal (placement) id of external vertex `v`. Identity for the
    /// mem backend and natural-order stores; every public API — the CLI's
    /// `--nodes`, the serve protocol, labels, eval splits — speaks
    /// external ids, and this is the one boundary where they translate.
    #[inline]
    pub fn to_internal(&self, v: u32) -> u32 {
        match self {
            GraphStore::Mem(_) => v,
            GraphStore::Mmap(m) => m.to_internal(v),
        }
    }

    /// External vertex id of internal (placement) id `i` — inverse of
    /// [`Self::to_internal`].
    #[inline]
    pub fn to_external(&self, i: u32) -> u32 {
        match self {
            GraphStore::Mem(_) => i,
            GraphStore::Mmap(m) => m.to_external(i),
        }
    }

    /// Always `false`: no store has a prefetcher. Kept only because the
    /// e2e harness still calls it.
    pub fn prefetch_enabled(&self) -> bool {
        false
    }

    /// No-op returning 0: no store has a prefetcher. Kept only because
    /// the e2e harness still calls it.
    pub fn prefetch_nodes(&self, _nodes: &[u32]) -> usize {
        0
    }

    /// Gather feature rows for `nodes` into `out` (reshaped to
    /// `nodes.len() × feature_dim`, rows aligned with `nodes`), on the
    /// caller's thread.
    pub fn gather_features_into(&self, nodes: &[u32], out: &mut DMatrix) -> io::Result<()> {
        self.gather_into(nodes, &mut [(SectionKind::Features, out)], 1)
    }

    /// Gather label rows for `nodes` into `out` (reshaped to
    /// `nodes.len() × label_dim`, rows aligned with `nodes`), on the
    /// caller's thread.
    pub fn gather_labels_into(&self, nodes: &[u32], out: &mut DMatrix) -> io::Result<()> {
        self.gather_into(nodes, &mut [(SectionKind::Labels, out)], 1)
    }

    /// [`Self::gather_features_into`] spread over the current rayon pool:
    /// an mmap store splits the rows into as many disjoint **shard sets**
    /// as the pool has threads, balanced by rows, and gathers the sets in
    /// parallel, so each section is still mapped once per call and every
    /// row gets the same bytes at any pool width. The mem backend is one
    /// shard and gathers on the caller's thread.
    pub fn par_gather_features_into(&self, nodes: &[u32], out: &mut DMatrix) -> io::Result<()> {
        let parts = rayon::current_num_threads();
        self.gather_into(nodes, &mut [(SectionKind::Features, out)], parts)
    }

    /// [`Self::gather_labels_into`] split by shard sets over the current
    /// rayon pool, as [`Self::par_gather_features_into`].
    pub fn par_gather_labels_into(&self, nodes: &[u32], out: &mut DMatrix) -> io::Result<()> {
        let parts = rayon::current_num_threads();
        self.gather_into(nodes, &mut [(SectionKind::Labels, out)], parts)
    }

    /// Layer 1's stored input rows of `nodes`: rows of `Â·X` — the input
    /// aggregate over the full graph, the `agg` section — into `agg` and
    /// feature rows into `features` (each reshaped to `nodes.len() ×
    /// feature_dim`, rows aligned with `nodes`). Both gathers are split by
    /// the same shard sets as [`Self::par_gather_features_into`] and run
    /// as one parallel batch over the current rayon pool, so two sections
    /// of one shard are read at once even when every row lies in that
    /// shard. Fails when the store has no `agg` section
    /// ([`Self::has_agg`]).
    pub fn par_gather_agg_into(
        &self,
        nodes: &[u32],
        agg: &mut DMatrix,
        features: &mut DMatrix,
    ) -> io::Result<()> {
        let parts = rayon::current_num_threads();
        let outs = &mut [(SectionKind::Agg, agg), (SectionKind::Features, features)];
        self.gather_into(nodes, outs, parts)
    }

    /// The row gathers: each `(kind, out)` pair (features, labels or
    /// `agg`) gets its rows of `nodes`; an mmap store splits them into up
    /// to `parts` shard sets per kind ([`gather_mmap`]).
    fn gather_into(
        &self,
        nodes: &[u32],
        outs: &mut [(SectionKind, &mut DMatrix)],
        parts: usize,
    ) -> io::Result<()> {
        let missing = |kind| {
            let msg = match kind {
                SectionKind::Features => "store holds no feature rows (feature_dim = 0)",
                SectionKind::Agg => "store holds no agg rows (written without the section)",
                _ => "store holds no label rows (label_dim = 0)",
            };
            io::Error::new(io::ErrorKind::InvalidInput, msg)
        };
        match self {
            GraphStore::Mem(m) => {
                for (kind, out) in outs.iter_mut() {
                    let rows = match kind {
                        SectionKind::Features => m.features(),
                        SectionKind::Labels => m.labels(),
                        _ => None,
                    };
                    rows.ok_or_else(|| missing(*kind))?
                        .gather_rows_into(nodes, out);
                }
                Ok(())
            }
            GraphStore::Mmap(m) => {
                for (kind, out) in outs.iter_mut() {
                    let width = match kind {
                        SectionKind::Features => m.feature_dim(),
                        SectionKind::Agg if m.manifest().has_agg => m.feature_dim(),
                        SectionKind::Labels => m.label_dim(),
                        _ => 0,
                    };
                    if width == 0 {
                        return Err(missing(*kind));
                    }
                    out.ensure_shape(nodes.len(), width);
                }
                gather_mmap(m, nodes, outs, parts)
            }
        }
    }

    /// Materialize the whole store as resident parts. For the mem backend
    /// this clones the `Arc`s; for mmap it **allocates the full graph and
    /// matrices** — that is the point: it is the negative control the
    /// out-of-core CI smoke runs under a memory cap to prove the cap is
    /// real. Requires every shard to be present.
    pub fn materialize(&self) -> io::Result<ResidentParts> {
        match self {
            GraphStore::Mem(m) => Ok((
                Arc::clone(m.graph()),
                m.features().cloned(),
                m.labels().cloned(),
            )),
            GraphStore::Mmap(m) => materialize_mmap(m),
        }
    }
}

/// Gather each `(kind, out)` pair's rows (`out` already shaped
/// `nodes.len() × width`) from the `kind` sections, shard by shard: each
/// shard's section is mapped once per call however scattered `nodes` is (a
/// scrambled row order read in sequence would remap a section per shard
/// change), and every row lands at its own position in `out`. With
/// `parts > 1` the shards are split into up to `parts` disjoint sets of
/// about equal rows; every (kind, set) pair is one task, and the tasks run
/// in parallel on the current rayon pool, each into its own rows of its
/// `out`. A section is still mapped once per call.
fn gather_mmap(
    m: &MmapStore,
    nodes: &[u32],
    outs: &mut [(SectionKind, &mut DMatrix)],
    parts: usize,
) -> io::Result<()> {
    let mut by_shard: Vec<(u32, u32)> = nodes
        .iter()
        .enumerate()
        .map(|(i, &v)| (m.shard_of(v), i as u32))
        .collect();
    by_shard.sort_unstable();
    let cuts = shard_sets(&by_shard, parts);
    if cuts.len() <= 2 && outs.len() == 1 {
        let (kind, out) = &mut outs[0];
        return copy_run(m, nodes, &by_shard, *kind, |k, section, local| {
            section.copy_row_into(local, out.row_mut(by_shard[k].1 as usize))
        });
    }
    let mut tasks = Vec::with_capacity(outs.len() * (cuts.len() - 1));
    for (kind, out) in outs.iter_mut() {
        let width = out.cols();
        // `out`'s rows in `by_shard` order: each shard set owns a
        // contiguous run of them.
        let mut rows: Vec<Option<&mut [f32]>> =
            out.data_mut().chunks_exact_mut(width).map(Some).collect();
        let mut dst = by_shard
            .iter()
            .map(|&(_, i)| rows[i as usize].take().expect("each position once"));
        for w in cuts.windows(2) {
            let set: Vec<&mut [f32]> = dst.by_ref().take(w[1] - w[0]).collect();
            tasks.push((*kind, &by_shard[w[0]..w[1]], set));
        }
    }
    let done: Vec<io::Result<()>> = tasks
        .par_iter_mut()
        .map(|(kind, run, rows)| {
            copy_run(m, nodes, run, *kind, |k, section, local| {
                section.copy_row_into(local, rows[k])
            })
        })
        .collect();
    done.into_iter().collect()
}

/// Boundaries (into shard-sorted `pairs`) of at most `parts` runs of
/// whole shards with about `pairs.len() / parts` rows each: `[0, len]`
/// when one run covers them.
fn shard_sets(pairs: &[(u32, u32)], parts: usize) -> Vec<usize> {
    let mut cuts = vec![0];
    if parts > 1 {
        let mut end = 0;
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            end += group.len();
            if end < pairs.len() && end * parts >= cuts.len() * pairs.len() {
                cuts.push(end);
            }
        }
    }
    cuts.push(pairs.len());
    cuts
}

/// Copy the rows of `run` (`(shard, position)` pairs, shard-sorted) from
/// the `kind` sections, mapping each shard's section once: `put(k,
/// section, local)` copies pair `k`'s row, local id `local` of `section`.
fn copy_run(
    m: &MmapStore,
    nodes: &[u32],
    run: &[(u32, u32)],
    kind: SectionKind,
    mut put: impl FnMut(usize, &ShardSection, usize),
) -> io::Result<()> {
    let mut k = 0;
    for group in run.chunk_by(|a, b| a.0 == b.0) {
        let section = m.section(group[0].0 as usize, kind)?;
        for &(_, i) in group {
            put(k, &section, m.local_of(nodes[i as usize]) as usize);
            k += 1;
        }
    }
    Ok(())
}

fn materialize_mmap(m: &MmapStore) -> io::Result<ResidentParts> {
    let n = m.num_vertices();
    let f = m.feature_dim();
    let l = m.label_dim();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut adj = Vec::with_capacity(m.num_edges());
    let mut features = (f > 0).then(|| DMatrix::zeros(n, f));
    let mut labels = (l > 0).then(|| DMatrix::zeros(n, l));
    // The current shard's topology, feature and label sections (a
    // zero-width row section maps nothing; `agg` is derived data and stays
    // on disk).
    let mut cached: Option<(u32, [Arc<ShardSection>; 3])> = None;
    offsets.push(0usize);
    for v in 0..n as u32 {
        let sid = m.shard_of(v);
        let [topology, feature_rows, label_rows] = match &cached {
            Some((cur, s)) if *cur == sid => s,
            _ => {
                let kinds = [
                    SectionKind::Topology,
                    SectionKind::Features,
                    SectionKind::Labels,
                ];
                let [t, f, l] = kinds.map(|kind| m.section(sid as usize, kind));
                &cached.insert((sid, [t?, f?, l?])).1
            }
        };
        let local = m.local_of(v) as usize;
        adj.extend_from_slice(topology.neighbors(local));
        offsets.push(adj.len());
        if let Some(mat) = &mut features {
            feature_rows.copy_row_into(local, mat.row_mut(v as usize));
        }
        if let Some(mat) = &mut labels {
            label_rows.copy_row_into(local, mat.row_mut(v as usize));
        }
    }
    Ok((
        Arc::new(CsrGraph::from_raw(offsets, adj)),
        features.map(Arc::new),
        labels.map(Arc::new),
    ))
}

impl Topology for GraphStore {
    fn num_vertices(&self) -> usize {
        match self {
            GraphStore::Mem(m) => m.graph().num_vertices(),
            GraphStore::Mmap(m) => m.num_vertices(),
        }
    }

    fn num_edges(&self) -> usize {
        match self {
            GraphStore::Mem(m) => m.graph().num_edges(),
            GraphStore::Mmap(m) => m.num_edges(),
        }
    }

    fn view(&self) -> TopoView<'_> {
        match self {
            GraphStore::Mem(m) => TopoView::csr(m.graph()),
            GraphStore::Mmap(m) => m.view(),
        }
    }

    fn capped_mean_degree(&self, cap: u32) -> f64 {
        match self {
            GraphStore::Mem(_) => scan_capped_mean_degree(&self.view(), cap),
            GraphStore::Mmap(m) => m.capped_mean_degree(cap),
        }
    }

    fn locality_group(&self, v: u32) -> u32 {
        match self {
            GraphStore::Mem(_) => 0,
            GraphStore::Mmap(m) => m.shard_of(v),
        }
    }

    fn num_locality_groups(&self) -> usize {
        self.num_shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn two_communities() -> CsrGraph {
        // Two dense 8-cliques bridged by one edge: bfs_partition splits
        // them cleanly, and the bridge is a guaranteed cross-shard edge.
        let mut edges = Vec::new();
        for base in [0u32, 8] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((7, 8));
        from_edges(16, &edges)
    }

    fn spill(g: &CsrGraph, shards: usize) -> (std::path::PathBuf, StoreManifest) {
        let dir = fresh_temp_dir().unwrap();
        let f = DMatrix::from_fn(g.num_vertices(), 3, |i, j| (i * 10 + j) as f32);
        let l = DMatrix::from_fn(g.num_vertices(), 2, |i, j| (i + j) as f32);
        let manifest = write_store(&dir, g, Some(&f), Some(&l), shards).unwrap();
        (dir, manifest)
    }

    #[test]
    fn mmap_matches_mem_topology_and_rows() {
        let g = two_communities();
        let (dir, manifest) = spill(&g, 2);
        assert_eq!(manifest.num_shards(), 2);
        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        assert_eq!(Topology::num_vertices(&store), g.num_vertices());
        assert_eq!(Topology::num_edges(&store), g.num_edges());
        let view = store.view();
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(view.degree(v), g.degree(v));
            assert_eq!(view.neighbors(v), g.neighbors(v), "vertex {v}");
            for k in 0..g.degree(v) {
                assert_eq!(view.neighbor(v, k), g.neighbor(v, k));
            }
        }
        let mut out = DMatrix::zeros(0, 0);
        store
            .gather_features_into(&[15, 0, 7, 8], &mut out)
            .unwrap();
        assert_eq!(out.row(0), &[150.0, 151.0, 152.0]);
        assert_eq!(out.row(2), &[70.0, 71.0, 72.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The pool-split gathers give the serial gathers' rows at every pool
    /// width, on a scrambled row list with repeats, and each call still
    /// maps each shard's section once: the shard sets are disjoint.
    #[test]
    fn split_gathers_match_the_serial_ones_at_every_width() {
        let g = two_communities();
        let (dir, manifest) = spill(&g, 5);
        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        let nodes = [15, 0, 7, 8, 3, 12, 0, 9, 4, 11, 15, 1, 6, 13];
        let shards: std::collections::BTreeSet<u32> =
            nodes.iter().map(|&v| store.shard_of(v).unwrap()).collect();
        assert!(
            shards.len() >= 4,
            "{} shards of {}",
            shards.len(),
            manifest.num_shards()
        );
        let (mut want, mut got) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
        let probes = || {
            store
                .cache_stats()
                .map(|s| (s.hits + s.misses, s.misses))
                .unwrap()
        };
        for width in 1..=4 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            for labels in [false, true] {
                if labels {
                    store.gather_labels_into(&nodes, &mut want).unwrap();
                } else {
                    store.gather_features_into(&nodes, &mut want).unwrap();
                }
                store.release_rows();
                let before = probes();
                pool.install(|| match labels {
                    true => store.par_gather_labels_into(&nodes, &mut got),
                    false => store.par_gather_features_into(&nodes, &mut got),
                })
                .unwrap();
                assert_eq!(got, want, "width {width}, labels {labels}");
                let (probed, mapped) = probes();
                let once = shards.len() as u64;
                assert_eq!((probed - before.0, mapped - before.1), (once, once));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn materialize_roundtrips() {
        let g = two_communities();
        let (dir, _) = spill(&g, 3);
        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        let (back, feats, labels) = store.materialize().unwrap();
        assert_eq!(*back, g);
        assert_eq!(feats.unwrap().get(9, 1), 91.0);
        assert_eq!(labels.unwrap().get(9, 1), 10.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_budget_evicts_but_answers_stay_exact() {
        let g = two_communities();
        let (dir, _) = spill(&g, 4);
        // Budget of 1 byte: every cross-shard hop forces an eviction.
        let store = GraphStore::open_with_budget(&dir, 1).unwrap();
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(store.view().neighbors(v), g.neighbors(v));
        }
        let stats = store.cache_stats().unwrap();
        assert!(stats.evictions > 0, "{stats:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// On a store with all four sections (its `agg` rows are stand-ins:
    /// pinning does not read them).
    #[test]
    fn pinning_keeps_shards_resident() {
        let g = two_communities();
        let dir = fresh_temp_dir().unwrap();
        let f = DMatrix::from_fn(g.num_vertices(), 3, |i, j| (i * 10 + j) as f32);
        let l = DMatrix::from_fn(g.num_vertices(), 2, |i, j| (i + j) as f32);
        let agg = |members: &[u32], out: &mut DMatrix| f.gather_rows_into(members, out);
        write_store_with_agg(&dir, &g, &f, Some(&l), 4, StoreOrder::Natural, &agg).unwrap();
        let store = GraphStore::open_with_budget(&dir, 1).unwrap();
        assert_eq!(store.pin_nodes(&[0]).unwrap(), 1, "one shard newly pinned");
        assert_eq!(store.pin_nodes(&[0]).unwrap(), 0, "already pinned");
        let sid = store.shard_of(0).unwrap() as usize;
        let m = store.as_mmap().unwrap();
        // A pin maps and holds every section of the shard, not just the
        // one a topology probe would have touched.
        let pinned = m.cache_stats();
        for kind in SectionKind::ALL {
            assert_eq!(
                pinned.of(kind).resident,
                1,
                "{kind:?} after pin: {pinned:?}"
            );
        }
        // Hammer every other shard's sections; with a 1-byte budget each
        // load evicts whatever is unpinned.
        let all: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let mut rows = DMatrix::zeros(0, 0);
        for &v in &all {
            store.view().neighbors(v);
        }
        store.gather_features_into(&all, &mut rows).unwrap();
        store.gather_labels_into(&all, &mut rows).unwrap();
        // Each pinned section is still the mapping the pin made: reading
        // it again is a hit, kind by kind.
        for kind in SectionKind::ALL {
            let before = m.cache_stats();
            m.section(sid, kind).unwrap();
            let after = m.cache_stats();
            assert_eq!(
                (after.misses, after.hits),
                (before.misses, before.hits + 1),
                "pinned {kind:?} section of shard {sid} was evicted"
            );
        }
        let held = m.cache_stats();
        assert_eq!(
            held.evictions,
            held.features.evictions + held.labels.evictions + held.topology.evictions
        );
        assert_eq!(
            held.agg.evictions, 0,
            "only the pinned shard's agg was read"
        );
        store.unpin_all();
        // With the pins gone the 1-byte budget applies to them too.
        assert_eq!(m.cache_stats().resident_sections, 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn release_rows_drops_rows_and_keeps_topology_and_pins() {
        let g = two_communities();
        let (dir, _) = spill(&g, 4);
        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        let all: Vec<u32> = (0..16).collect();
        let mut rows = DMatrix::zeros(0, 0);
        for &v in &all {
            store.view().neighbors(v);
        }
        store.gather_features_into(&all, &mut rows).unwrap();
        store.gather_labels_into(&all, &mut rows).unwrap();
        assert_eq!(store.cache_stats().unwrap().resident_sections, 12);
        store.pin_nodes(&[0]).unwrap();
        store.release_rows();
        let after = store.cache_stats().unwrap();
        assert_eq!(after.topology.resident, 4, "{after:?}");
        assert_eq!((after.features.resident, after.labels.resident), (1, 1));
        assert_eq!(after.evictions, 6);
        assert_eq!(after.mapped_bytes, {
            let t = after.topology.mapped_bytes;
            t + after.features.mapped_bytes + after.labels.mapped_bytes
        });
        // Released rows read back the same.
        let mut again = DMatrix::zeros(0, 0);
        store.gather_labels_into(&all, &mut again).unwrap();
        assert_eq!(again.data(), rows.data());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_shard_is_partial_not_fatal() {
        let g = two_communities();
        let (dir, _) = spill(&g, 2);
        let probe = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        let gone_sid = probe.shard_of(15).unwrap() as usize;
        drop(probe);
        std::fs::remove_file(dir.join(shard::shard_file_name(gone_sid))).unwrap();
        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        assert!(store.contains(0) != store.contains(15) || gone_sid == 0);
        let absent: Vec<u32> = (0..16).filter(|&v| !store.contains(v)).collect();
        assert!(!absent.is_empty());
        let m = store.as_mmap().unwrap();
        for kind in SectionKind::ALL {
            let err = m.section(gone_sid, kind).err().expect("absent shard");
            assert_eq!(err.kind(), io::ErrorKind::NotFound, "{kind:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_fails_open_loudly() {
        let g = two_communities();
        let (dir, manifest) = spill(&g, 2);
        let path = dir.join(shard::shard_file_name(0));
        let truncated = manifest.shards[0].file_len / 2;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(truncated).unwrap();
        drop(file);
        let err = GraphStore::open_with_budget(&dir, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_fails_the_first_read_of_any_section() {
        let g = two_communities();
        for (at, what) in [
            (0usize, "bad magic"),
            (8, "header says shard"),
            (16, "disagrees"),
        ] {
            let (dir, _) = spill(&g, 2);
            // Same length, so open() cannot see it: flip one header byte
            // (magic / shard id / member count).
            let path = dir.join(shard::shard_file_name(1));
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
            let m = store.as_mmap().unwrap();
            // Whichever section is asked for first, the header is held to
            // the manifest before anything is mapped — and again on the
            // next attempt: a failed check is never remembered as passed.
            for kind in [
                SectionKind::Labels,
                SectionKind::Features,
                SectionKind::Topology,
            ] {
                let err = m
                    .section(1, kind)
                    .err()
                    .expect("corrupt header must not map");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?}: {err}");
                assert!(err.to_string().contains(what), "{kind:?}: {err}");
            }
            assert!(
                m.section(0, SectionKind::Topology).is_ok(),
                "shard 0 is intact"
            );
            assert_eq!(verify_store(&dir).unwrap(), vec![1]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn shard_truncated_after_open_fails_every_map() {
        let g = two_communities();
        let (dir, manifest) = spill(&g, 2);
        let store = GraphStore::open_with_budget(&dir, 1).unwrap();
        let m = store.as_mmap().unwrap();
        // Map (and, budget 1, immediately evict) a section so the header
        // check has passed: the length check must not depend on it.
        m.section(0, SectionKind::Topology).unwrap();
        m.section(1, SectionKind::Topology).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(shard::shard_file_name(0)))
            .unwrap();
        file.set_len(manifest.shards[0].file_len - 8).unwrap();
        drop(file);
        for kind in SectionKind::ALL {
            let err = m.section(0, kind).err().expect("short file must not map");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?}");
            assert!(err.to_string().contains("truncated"), "{kind:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn self_contradictory_manifest_fails_open() {
        let g = two_communities();
        let (dir, mut manifest) = spill(&g, 2);
        // Counts that no longer add up to the recorded (and actual) file
        // length must not get as far as sizing a mapping. (Two edges: one
        // could hide in the adjacency's alignment padding, to be caught
        // by the header check instead.)
        manifest.shards[1].edges += 2;
        manifest.save(&dir).unwrap();
        let err = GraphStore::open_with_budget(&dir, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard 1"), "{err}");
        manifest.shards[1].edges = u64::MAX / 2;
        manifest.save(&dir).unwrap();
        let err = GraphStore::open_with_budget(&dir, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_says_what_is_mapped() {
        let g = two_communities();
        let (dir, manifest) = spill(&g, 4);
        let total: u64 = manifest.shards.iter().map(|s| s.file_len).sum();
        let store = GraphStore::open_with_budget(&dir, 2 * total as usize).unwrap();
        // Two walks over every vertex: each view probes each shard once.
        for _ in 0..2 {
            let view = store.view();
            for v in 0..16u32 {
                view.neighbors(v);
            }
        }
        let mut rows = DMatrix::zeros(0, 0);
        store.gather_features_into(&[0], &mut rows).unwrap();
        let stats = store.cache_stats().unwrap();
        assert_eq!(
            (stats.resident_sections, stats.resident_shards),
            (5, 4),
            "{stats:?}"
        );
        assert_eq!(
            stats.mapped_bytes,
            stats.topology.mapped_bytes + stats.features.mapped_bytes
        );
        let line = stats.summary();
        assert!(
            line.contains("topology evictions 0; topology 4/4 · features 1/4 · labels 0/4, "),
            "{line}"
        );
        assert!(
            line.starts_with("hits 4 misses 5 evictions 0 (44.4% hit rate, "),
            "{line}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_oversharded_stores_load() {
        // More shards than vertices: trailing shards are empty.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let dir = fresh_temp_dir().unwrap();
        write_store(&dir, &g, None, None, 8).unwrap();
        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        assert_eq!(store.num_shards(), 8);
        for v in 0..3u32 {
            assert_eq!(store.view().neighbors(v), g.neighbors(v));
        }
        assert!(store
            .gather_features_into(&[0], &mut DMatrix::zeros(0, 0))
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_detects_bitflip() {
        let g = two_communities();
        let (dir, manifest) = spill(&g, 2);
        assert!(verify_store(&dir).unwrap().is_empty());
        // Flip one byte in shard 1 without changing its length: open()
        // cannot see it (size matches) but verify() must.
        let path = dir.join(shard::shard_file_name(1));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(verify_store(&dir).unwrap(), vec![1]);
        assert_eq!(manifest.shards.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ordered_store_roundtrips_manifest_and_translation() {
        let g = two_communities();
        let f = DMatrix::from_fn(g.num_vertices(), 3, |i, j| (i * 10 + j) as f32);
        for order in [StoreOrder::Bfs, StoreOrder::Degree] {
            let dir = fresh_temp_dir().unwrap();
            let manifest = shard::write_store_ordered(&dir, &g, Some(&f), None, 4, order).unwrap();
            assert_eq!(manifest.order, order);
            assert_eq!(manifest.rank.len(), g.num_vertices());
            let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
            assert_eq!(store.order(), order);
            // The recorded mapping is a permutation consistent with the
            // physical layout: internal id = shard base + local slot.
            let m = store.as_mmap().unwrap();
            let mut base = vec![0u32; m.num_shards()];
            for sid in 1..m.num_shards() {
                base[sid] = base[sid - 1] + m.manifest().shards[sid - 1].members as u32;
            }
            for v in 0..g.num_vertices() as u32 {
                let internal = store.to_internal(v);
                assert_eq!(store.to_external(internal), v);
                assert_eq!(
                    internal,
                    base[m.shard_of(v) as usize] + m.local_of(v),
                    "vertex {v} placement disagrees with the manifest rank"
                );
            }
            // Observational identity: topology and rows are unchanged.
            for v in 0..g.num_vertices() as u32 {
                assert_eq!(store.view().neighbors(v), g.neighbors(v), "{order:?} v{v}");
            }
            let mut out = DMatrix::zeros(0, 0);
            store
                .gather_features_into(&[15, 0, 7, 8], &mut out)
                .unwrap();
            assert_eq!(out.row(0), &[150.0, 151.0, 152.0]);
            assert_eq!(out.row(3), &[80.0, 81.0, 82.0]);
            assert!(verify_store(&dir).unwrap().is_empty());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn natural_order_is_byte_identical_to_legacy_writer() {
        let g = two_communities();
        let f = DMatrix::from_fn(g.num_vertices(), 3, |i, j| (i + j) as f32);
        let d1 = fresh_temp_dir().unwrap();
        let d2 = fresh_temp_dir().unwrap();
        write_store(&d1, &g, Some(&f), None, 3).unwrap();
        shard::write_store_ordered(&d2, &g, Some(&f), None, 3, StoreOrder::Natural).unwrap();
        for name in [shard::MANIFEST_FILE, shard::INDEX_FILE] {
            assert_eq!(
                std::fs::read(d1.join(name)).unwrap(),
                std::fs::read(d2.join(name)).unwrap(),
                "{name} differs between legacy and natural-order writers"
            );
        }
        for sid in 0..3 {
            let name = shard::shard_file_name(sid);
            assert_eq!(
                std::fs::read(d1.join(&name)).unwrap(),
                std::fs::read(d2.join(&name)).unwrap(),
                "{name} differs"
            );
        }
        // Natural stores report identity translation.
        let store = GraphStore::open_with_budget(&d1, 1 << 20).unwrap();
        assert_eq!(store.order(), StoreOrder::Natural);
        assert_eq!(store.to_internal(13), 13);
        assert_eq!(store.to_external(13), 13);
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn f32_precision_writer_is_byte_identical_to_legacy() {
        use gsgcn_tensor::Precision;
        let g = two_communities();
        let f = DMatrix::from_fn(g.num_vertices(), 3, |i, j| (i + j) as f32 * 0.37);
        let d1 = fresh_temp_dir().unwrap();
        let d2 = fresh_temp_dir().unwrap();
        write_store(&d1, &g, Some(&f), None, 3).unwrap();
        shard::write_store_with_precision(
            &d2,
            &g,
            Some(&f),
            None,
            3,
            StoreOrder::Natural,
            Precision::F32,
        )
        .unwrap();
        let mut names = vec![
            shard::MANIFEST_FILE.to_string(),
            shard::INDEX_FILE.to_string(),
        ];
        names.extend((0..3).map(shard::shard_file_name));
        for name in names {
            assert_eq!(
                std::fs::read(d1.join(&name)).unwrap(),
                std::fs::read(d2.join(&name)).unwrap(),
                "{name} differs between legacy and f32-precision writers"
            );
        }
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn bf16_store_roundtrips_quantized_features() {
        use gsgcn_tensor::{Bf16, Precision};
        let g = two_communities();
        let n = g.num_vertices();
        // Values that do NOT round-trip bf16 exactly, so a silent f32
        // fallback would fail the equality below.
        let f = DMatrix::from_fn(n, 5, |i, j| (i * 7 + j) as f32 * 0.123 + 0.001);
        let l = DMatrix::from_fn(n, 2, |i, j| (i + j) as f32 * 0.456);
        let dir = fresh_temp_dir().unwrap();
        let manifest = shard::write_store_with_precision(
            &dir,
            &g,
            Some(&f),
            Some(&l),
            3,
            StoreOrder::Natural,
            Precision::Bf16,
        )
        .unwrap();
        assert_eq!(manifest.feature_precision, Precision::Bf16);
        // The manifest round-trips the precision through its GSFP section.
        assert_eq!(
            StoreManifest::load(&dir).unwrap().feature_precision,
            Precision::Bf16
        );
        assert!(verify_store(&dir).unwrap().is_empty());

        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        if let GraphStore::Mmap(m) = &store {
            assert_eq!(m.feature_precision(), Precision::Bf16);
        } else {
            panic!("expected mmap store");
        }
        // Gathers widen each element to exactly its bf16 rounding; labels
        // stay exact f32.
        let nodes: Vec<u32> = (0..n as u32).rev().collect();
        let mut feat = DMatrix::zeros(0, 0);
        let mut lab = DMatrix::zeros(0, 0);
        store.gather_features_into(&nodes, &mut feat).unwrap();
        store.gather_labels_into(&nodes, &mut lab).unwrap();
        for (i, &v) in nodes.iter().enumerate() {
            for j in 0..5 {
                let want = Bf16::from_f32(f.get(v as usize, j)).to_f32();
                assert_eq!(feat.get(i, j), want, "feature ({v},{j})");
            }
            for j in 0..2 {
                assert_eq!(lab.get(i, j), l.get(v as usize, j), "label ({v},{j})");
            }
        }
        // Materialize widens through the same path.
        let (back, feats, _) = store.materialize().unwrap();
        assert_eq!(*back, g);
        let feats = feats.unwrap();
        assert_eq!(feats.get(9, 3), Bf16::from_f32(f.get(9, 3)).to_f32());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bf16_store_halves_feature_bytes() {
        use gsgcn_tensor::Precision;
        let g = two_communities();
        let n = g.num_vertices();
        let f_dim = 64;
        let f = DMatrix::from_fn(n, f_dim, |i, j| (i * f_dim + j) as f32 * 0.01);
        let d32 = fresh_temp_dir().unwrap();
        let d16 = fresh_temp_dir().unwrap();
        let m32 = write_store(&d32, &g, Some(&f), None, 3).unwrap();
        let m16 = shard::write_store_with_precision(
            &d16,
            &g,
            Some(&f),
            None,
            3,
            StoreOrder::Natural,
            Precision::Bf16,
        )
        .unwrap();
        let total = |m: &StoreManifest| m.shards.iter().map(|s| s.file_len).sum::<u64>();
        // Per shard the feature section shrinks from 4·k·f to 2·k·f bytes,
        // give or take ≤8 bytes of section alignment.
        let saved = total(&m32) - total(&m16);
        let expect = 2 * (n * f_dim) as u64;
        assert!(
            saved + 8 * m32.num_shards() as u64 >= expect && saved <= expect,
            "bf16 saved {saved} bytes, expected ~{expect}"
        );
        std::fs::remove_dir_all(&d32).unwrap();
        std::fs::remove_dir_all(&d16).unwrap();
    }

    /// A store written with the `agg` section marks it in the manifest,
    /// verifies, and gathers the rows its writer was handed beside the
    /// feature rows, in any order and at any pool width; without the
    /// section the gather is an error, and a writer handed rows of the
    /// wrong shape fails.
    #[test]
    fn agg_section_roundtrips_and_gathers() {
        let g = two_communities();
        let n = g.num_vertices();
        let f = DMatrix::from_fn(n, 3, |i, j| (i * 10 + j) as f32);
        let want = DMatrix::from_fn(n, 3, |i, j| -((i * 7 + j) as f32) * 0.5);
        let rows = |members: &[u32], out: &mut DMatrix| want.gather_rows_into(members, out);
        for order in [StoreOrder::Natural, StoreOrder::Bfs] {
            let dir = fresh_temp_dir().unwrap();
            let manifest = write_store_with_agg(&dir, &g, &f, None, 3, order, &rows).unwrap();
            assert!(manifest.has_agg);
            assert_eq!(StoreManifest::load(&dir).unwrap(), manifest);
            assert!(verify_store(&dir).unwrap().is_empty());
            let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
            assert!(store.has_agg());
            let nodes = [15, 0, 7, 8, 3, 12, 0, 9];
            let (mut agg, mut x) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
            for width in 1..=3 {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap();
                pool.install(|| store.par_gather_agg_into(&nodes, &mut agg, &mut x))
                    .unwrap();
                assert_eq!(agg, want.gather_rows(&nodes), "{order:?} width {width}");
                assert_eq!(x, f.gather_rows(&nodes), "{order:?} width {width}");
            }
            let stats = store.cache_stats().unwrap();
            assert_eq!(stats.agg.resident, 3, "{stats:?}");
            assert!(
                stats.summary().contains(" · agg 3/3, "),
                "{}",
                stats.summary()
            );
            // The store materializes without its derived rows.
            let (back, feats, _) = store.materialize().unwrap();
            assert_eq!((&*back, feats.as_deref()), (&g, Some(&f)));
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let (dir, manifest) = spill(&g, 2);
        assert!(!manifest.has_agg);
        let store = GraphStore::open_with_budget(&dir, 1 << 20).unwrap();
        assert!(!store.has_agg());
        let err = store
            .par_gather_agg_into(&[0], &mut DMatrix::zeros(0, 0), &mut DMatrix::zeros(0, 0))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!store.cache_stats().unwrap().summary().contains("agg"));
        std::fs::remove_dir_all(&dir).unwrap();
        let dir = fresh_temp_dir().unwrap();
        let short = |m: &[u32], out: &mut DMatrix| want.gather_rows_into(&m[1..], out);
        let err = write_store_with_agg(&dir, &g, &f, None, 2, StoreOrder::Natural, &short);
        assert!(err.unwrap_err().to_string().contains("agg rows of shard 0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The manifest's `agg` marker round-trips after the other trailing
    /// sections, and a marker on a bf16 store is refused: its rows would
    /// not be the f32 aggregate of the rows it stores.
    #[test]
    fn agg_marker_follows_the_other_sections() {
        use gsgcn_tensor::Precision;
        let mut m = StoreManifest {
            n: 2,
            num_edges: 2,
            feature_dim: 3,
            label_dim: 0,
            shards: vec![shard::ShardInfo {
                members: 2,
                edges: 2,
                file_len: 0,
                checksum: 0,
            }],
            order: StoreOrder::Bfs,
            rank: vec![1, 0],
            feature_precision: Precision::F32,
            has_agg: true,
        };
        assert_eq!(StoreManifest::from_bytes(m.to_bytes()).unwrap(), m);
        m.has_agg = false;
        let without = m.to_bytes();
        m.has_agg = true;
        assert_eq!(m.to_bytes().len(), without.len() + 8);
        m.feature_precision = Precision::Bf16;
        let err = StoreManifest::from_bytes(m.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("non-f32"), "{err}");
    }

    #[test]
    fn order_parsing() {
        assert_eq!("bfs".parse::<StoreOrder>().unwrap(), StoreOrder::Bfs);
        assert!("zorder".parse::<StoreOrder>().is_err());
    }

    #[test]
    fn backend_parsing() {
        assert_eq!("mem".parse::<StoreBackend>().unwrap(), StoreBackend::Mem);
        assert_eq!("MMAP".parse::<StoreBackend>().unwrap(), StoreBackend::Mmap);
        assert!("disk".parse::<StoreBackend>().is_err());
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_byte_size("0").unwrap(), 0);
        assert_eq!(parse_byte_size("1234").unwrap(), 1234);
        assert_eq!(parse_byte_size("64MiB").unwrap(), 64 << 20);
        assert_eq!(parse_byte_size("64 mib").unwrap(), 64 << 20);
        assert_eq!(parse_byte_size("2g").unwrap(), 2 << 30);
        assert_eq!(parse_byte_size("10KB").unwrap(), 10_000);
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("MiB").is_err());
        assert!(parse_byte_size("64XB").is_err());
        assert!(parse_byte_size("-5").is_err());
    }
}
