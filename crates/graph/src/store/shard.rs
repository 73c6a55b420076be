//! The versioned on-disk shard format behind the mmap-backed
//! [`GraphStore`](super::GraphStore) — see the `store` module docs for the
//! architecture overview.
//!
//! A store is a directory:
//!
//! ```text
//! store/
//! ├── manifest.gss      store-wide header + per-shard sizes/checksums + rank
//! ├── shard_0000.gss    one rank range's CSR slice + feature/label rows
//! └── shard_0001.gss    …
//! ```
//!
//! Every file starts with a 4-byte magic and a format version; all integers
//! and floats are little-endian, and sections inside a shard are 8-byte
//! aligned so the loader can hand out typed slices straight from the
//! mapping. The manifest is fixed-layout:
//!
//! ```text
//! header  magic, version, n, edges, shards, f, l, order, feat-precision, agg
//! shards  [members, edges, file_len, checksum; shards]
//! rank    [u32; n]        placement of each vertex (see Placement below)
//! ```
//!
//! One shard file holds, for the `k` member vertices of one rank range, in
//! rank order:
//!
//! ```text
//! header   magic, version, shard id, feat-precision, k, e, feature_dim, label_dim
//! offsets  [u64; k+1]     shard-local CSR offsets
//! adj      [u32; e]       neighbor lists — GLOBAL ids (edges may cross shards)
//! features [f32|bf16; k·f] row-major, one row per member
//! labels   [f32; k·l]     row-major, one row per member
//! agg      [f32; k·f]     only with the manifest's agg flag: rows of `Â·X`
//! ```
//!
//! Readers never map a whole file: header through `adj` is the *topology
//! section*, `features`, `labels` and `agg` are a section each
//! ([`SectionKind`], cut at [`ShardLayout`]'s `feat_off` / `label_off` /
//! `agg_off`), and each is mapped, cached and evicted on its own
//! ([`ShardSection`]).
//!
//! # Feature precision
//!
//! Feature rows are stored as f32 or bf16 ([`write_store_with_precision`]),
//! halving the feature payload. The element type is recorded in the shard
//! header and in the manifest. Readers widen rows back to f32 on copy
//! ([`ShardSection::copy_row_into`]); labels are always f32.
//!
//! # The `agg` section: layer 1's input aggregate
//!
//! Outside training, a GCN's first layer multiplies `Â·X` (`Â = D⁻¹A` of
//! the full graph) — a constant of the stored graph and features. A store
//! written by [`write_store_with_agg`] holds it as data: one more row
//! section per shard, after the labels (8-aligned), with row `i` the
//! aggregate of member `i` in f32, exactly the floats layer 1's fused
//! producer packs for that vertex. The caller computes the rows (this
//! crate has no aggregation kernel): the writer asks for them a shard at a
//! time, as it writes that shard, so it never holds more than one shard's
//! `agg` rows. Only f32-feature stores carry it, and the manifest's `agg`
//! flag says whether the shards do.
//!
//! # Placement
//!
//! The manifest's `rank` is the one placement map: shard `sid` holds the
//! vertices of ranks `[sid·w, (sid+1)·w)`, `w = ⌈n/P⌉` (at least 1), in
//! rank order, so vertex `v` is member `rank[v] − sid·w` of shard
//! `rank[v] / w`. The placement *order* decides the rank (see
//! [`super::order`]):
//!
//! * `natural` (default): the [`bfs_partition`](crate::partition::bfs_partition)
//!   parts in sequence, members ascending by id within a part.
//! * `bfs` / `degree`: breadth-first from max-degree roots, or
//!   degree-descending ([`super::order::order_rank`]).
//!
//! All ids **on disk stay global (user numbering)** regardless of order:
//! adjacency, the CLI/serve protocol and eval splits never translate. The
//! order only decides *placement*, which is why answers are bit-identical
//! across orders while the shards an L-hop ball touches (and therefore
//! out-of-core gather cost) differ.
//!
//! Choosing an order: `bfs` is the right default for training and
//! ball-shaped serving reads — neighbors get adjacent ranks, so L-hop
//! balls stay within few shards. `degree` is the cheap alternative (one
//! sort, no traversal) that concentrates the hub vertices most gathers
//! touch; prefer it when shard-write time dominates (huge graphs,
//! re-shard pipelines). `natural` keeps the BFS-grown partition with
//! members in id order.
//!
//! Consistency rules (the crash-safety contract pinned by
//! `proptest_store.rs`):
//!
//! * Every file is written to a `*.tmp` sibling and atomically renamed, so
//!   a crash mid-write never leaves a half-written file under the final
//!   name.
//! * The manifest is written **last**; a directory without a valid
//!   manifest is not a store and fails to open loudly.
//! * The manifest is validated whole when it is read: shard `sid` must
//!   record `min(w, n − sid·w)` members (0 past the end), `rank` must be a
//!   permutation of `0..n`, and nothing may follow it. A store of another
//!   format version — every store written before the rank became the only
//!   placement record is v1 — is refused; re-shard it with `gsgcn shard`.
//! * The manifest records every shard's exact file length and FNV-1a
//!   checksum. [`open`](super::GraphStore::open) eagerly stats every
//!   present shard file against the recorded length, so truncation is a
//!   loud [`InvalidData`](std::io::ErrorKind::InvalidData) error at open
//!   time — never a silent short read later.
//! * A *missing* shard file is tolerated at open (a partial deployment
//!   serving a slice of the graph); reads of its vertices fail per-request
//!   (`GraphStore::contains` is the membership probe).

use super::order::{invert, order_rank, StoreOrder};
use crate::csr::CsrGraph;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gsgcn_tensor::{bf16, DMatrix, Precision};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Manifest magic: `GSTR` (gsgcn store).
pub const MANIFEST_MAGIC: u32 = 0x4753_5452;
/// Shard-file magic: `GSHD`.
pub const SHARD_MAGIC: u32 = 0x4753_4844;
/// Format version; bump on any layout change.
pub const FORMAT_VERSION: u32 = 2;

/// Fixed shard-file header length in bytes.
pub const SHARD_HEADER_LEN: usize = 40;
/// Fixed manifest header length in bytes.
const MANIFEST_HEADER_LEN: usize = 48;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

const fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// FNV-1a 64-bit, streamed over file bytes as they are written.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Reinterpret a slice as raw little-endian file bytes.
///
/// The format is little-endian and the loader maps files back as typed
/// slices, so writer and reader must agree on host byte order; the
/// big-endian guard in [`write_store_with_precision`] / [`ShardSection::map`] enforces it.
fn as_bytes<T: Plain>(v: &[T]) -> &[u8] {
    // SAFETY: `T: Plain` has no padding, so every byte of the slice is
    // initialised, and the length is exactly the slice's bytes.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

fn endian_guard() -> io::Result<()> {
    if cfg!(target_endian = "big") {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shard format is little-endian; big-endian hosts are unsupported",
        ));
    }
    Ok(())
}

/// Per-shard bookkeeping recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Member vertex count `k`.
    pub members: u64,
    /// Directed edge count `e` stored in the shard.
    pub edges: u64,
    /// Exact shard file length in bytes.
    pub file_len: u64,
    /// FNV-1a 64 over the whole shard file.
    pub checksum: u64,
}

/// Store-wide metadata: the contents of `manifest.gss`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreManifest {
    /// Total vertex count across all shards.
    pub n: u64,
    /// Total directed edge count.
    pub num_edges: u64,
    /// Feature columns per vertex (0 = no features stored).
    pub feature_dim: u32,
    /// Label columns per vertex (0 = no labels stored).
    pub label_dim: u32,
    /// One entry per shard, shard id = position.
    pub shards: Vec<ShardInfo>,
    /// Placement order the store was written with (see [`super::order`]).
    pub order: StoreOrder,
    /// `rank[v]` = position of vertex `v` in `order`, the internal
    /// (placement) id of `v`: shard `rank[v] / w`, slot `rank[v] mod w`
    /// ([`shard_width`]).
    pub rank: Vec<u32>,
    /// Element type of the stored feature rows. Labels are always f32.
    pub feature_precision: Precision,
    /// Whether every shard carries the `agg` section (`Â·X` rows, f32).
    pub has_agg: bool,
}

/// On-disk code for a feature precision (shard header + manifest).
pub(crate) fn precision_code(p: Precision) -> u32 {
    match p {
        Precision::F32 => 0,
        Precision::Bf16 => 1,
    }
}

pub(crate) fn precision_from_code(code: u32) -> Option<Precision> {
    match code {
        0 => Some(Precision::F32),
        1 => Some(Precision::Bf16),
        _ => None,
    }
}

/// Ranks per shard, `w = ⌈n/P⌉` (at least 1): shard `sid` holds ranks
/// `[sid·w, (sid+1)·w)`.
pub(crate) fn shard_width(n: usize, num_shards: usize) -> usize {
    n.div_ceil(num_shards).max(1)
}

impl StoreManifest {
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn to_bytes(&self) -> Bytes {
        let len = MANIFEST_HEADER_LEN + 32 * self.shards.len() + 4 * self.rank.len();
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u32_le(MANIFEST_MAGIC);
        buf.put_u32_le(FORMAT_VERSION);
        buf.put_u64_le(self.n);
        buf.put_u64_le(self.num_edges);
        buf.put_u32_le(self.shards.len() as u32);
        buf.put_u32_le(self.feature_dim);
        buf.put_u32_le(self.label_dim);
        buf.put_u32_le(self.order.code());
        buf.put_u32_le(precision_code(self.feature_precision));
        buf.put_u32_le(self.has_agg as u32);
        for s in &self.shards {
            buf.put_u64_le(s.members);
            buf.put_u64_le(s.edges);
            buf.put_u64_le(s.file_len);
            buf.put_u64_le(s.checksum);
        }
        for &r in &self.rank {
            buf.put_u32_le(r);
        }
        buf.freeze()
    }

    /// Parse and validate a manifest: every count is bounded by the bytes
    /// that hold it before anything is allocated, the shard member counts
    /// must be the contiguous rank cut, and `rank` a permutation. Any
    /// other content is [`InvalidData`](io::ErrorKind::InvalidData).
    pub fn from_bytes(mut data: Bytes) -> io::Result<Self> {
        if data.remaining() < 8 {
            return Err(bad("truncated store manifest header"));
        }
        if data.get_u32_le() != MANIFEST_MAGIC {
            return Err(bad("bad store manifest magic (not a gsgcn shard store)"));
        }
        let version = data.get_u32_le();
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported store format version {version} (this build reads \
                 v{FORMAT_VERSION}); re-shard the graph with `gsgcn shard`"
            )));
        }
        if data.remaining() < MANIFEST_HEADER_LEN - 8 {
            return Err(bad("truncated store manifest header"));
        }
        let n = data.get_u64_le();
        let num_edges = data.get_u64_le();
        let num_shards = data.get_u32_le() as usize;
        let feature_dim = data.get_u32_le();
        let label_dim = data.get_u32_le();
        let order_code = data.get_u32_le();
        let order = StoreOrder::from_code(order_code)
            .ok_or_else(|| bad(format!("manifest: unknown placement order {order_code}")))?;
        let precision = data.get_u32_le();
        let feature_precision = precision_from_code(precision).ok_or_else(|| {
            bad(format!(
                "manifest: unknown feature-precision code {precision}"
            ))
        })?;
        let has_agg = match data.get_u32_le() {
            0 => false,
            1 => true,
            flag => return Err(bad(format!("manifest: agg flag {flag} is neither 0 nor 1"))),
        };
        if has_agg && feature_precision != Precision::F32 {
            return Err(bad("manifest marks an agg section on a non-f32 store"));
        }
        if num_shards == 0 {
            return Err(bad("manifest records no shards"));
        }
        // The shard table and the rank must fill the rest exactly.
        let expect = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(4))
            .and_then(|rank| rank.checked_add(num_shards.checked_mul(32)?));
        if expect != Some(data.remaining()) {
            return Err(bad(format!(
                "manifest of {num_shards} shards and n={n} is {} bytes after its header, \
                 expected {}",
                data.remaining(),
                expect.map_or("more than memory holds".into(), |b| b.to_string()),
            )));
        }
        let n = n as usize;
        let w = shard_width(n, num_shards);
        let mut shards = Vec::with_capacity(num_shards);
        for sid in 0..num_shards {
            let info = ShardInfo {
                members: data.get_u64_le(),
                edges: data.get_u64_le(),
                file_len: data.get_u64_le(),
                checksum: data.get_u64_le(),
            };
            let want = n.saturating_sub(sid.saturating_mul(w)).min(w);
            if info.members != want as u64 {
                return Err(bad(format!(
                    "manifest inconsistent: shard {sid} records {} members, the rank cut \
                     of n={n} into {num_shards} shards gives it {want}",
                    info.members
                )));
            }
            shards.push(info);
        }
        let mut rank = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for _ in 0..n {
            let r = data.get_u32_le() as usize;
            if r >= n || std::mem::replace(&mut seen[r], true) {
                return Err(bad("manifest rank is not a permutation"));
            }
            rank.push(r as u32);
        }
        Ok(StoreManifest {
            n: n as u64,
            num_edges,
            feature_dim,
            label_dim,
            shards,
            order,
            rank,
            feature_precision,
            has_agg,
        })
    }

    pub fn save(&self, dir: &Path) -> io::Result<()> {
        write_atomic(&dir.join(MANIFEST_FILE), &self.to_bytes())
    }

    pub fn load(dir: &Path) -> io::Result<Self> {
        let path = dir.join(MANIFEST_FILE);
        let data = std::fs::read(&path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("opening store manifest {}: {e}", path.display()),
            )
        })?;
        Self::from_bytes(Bytes::from(data))
    }
}

pub const MANIFEST_FILE: &str = "manifest.gss";

/// File name of shard `i`.
pub fn shard_file_name(i: usize) -> String {
    format!("shard_{i:04}.gss")
}

/// The regions of a shard file that are mapped — and cached, and evicted
/// — separately. Every reader touches exactly one: the sampler, induction
/// and the frontier tiler read topology, gathers read one of the row
/// sections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionKind {
    /// Header, CSR offsets and adjacency.
    Topology = 0,
    /// Feature rows.
    Features = 1,
    /// Label rows.
    Labels = 2,
    /// Rows of `Â·X`, layer 1's input aggregate (empty unless the store
    /// was written with [`write_store_with_agg`]).
    Agg = 3,
}

impl SectionKind {
    /// Every kind, in file order (index = discriminant).
    pub const ALL: [SectionKind; 4] = [
        SectionKind::Topology,
        SectionKind::Features,
        SectionKind::Labels,
        SectionKind::Agg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Topology => "topology",
            SectionKind::Features => "features",
            SectionKind::Labels => "labels",
            SectionKind::Agg => "agg",
        }
    }
}

/// Byte offsets inside a shard file with `k` members, `e` edges, `f`
/// feature columns and `l` label columns. Every offset is 8-aligned.
/// `feat_off`, `label_off` and `agg_off` are also the cut points between
/// the [`SectionKind`]s: topology is `[0, feat_off)` (header at 0, then
/// `offsets_off`, `adj_off`, then padding), features are
/// `[feat_off, label_off)`, labels `[label_off, agg_off)` and `agg`
/// `[agg_off, file_len)`. A section with no columns — `agg` on a store
/// without it — is an empty range.
#[derive(Clone, Copy, Debug)]
pub struct ShardLayout {
    pub offsets_off: usize,
    pub adj_off: usize,
    pub feat_off: usize,
    pub label_off: usize,
    pub agg_off: usize,
    pub file_len: usize,
}

impl ShardLayout {
    /// Layout for a shard whose feature rows are stored at `fp` element
    /// width (f32 = 4 bytes, bf16 = 2), with `k·f` f32 `agg` elements
    /// after the labels when `agg` holds. Labels are always f32; sections
    /// stay 8-byte aligned either way, and without `agg` the file ends
    /// where the labels do.
    pub fn new(k: usize, e: usize, f: usize, l: usize, fp: Precision, agg: bool) -> Self {
        let offsets_off = SHARD_HEADER_LEN;
        let adj_off = offsets_off + 8 * (k + 1);
        let feat_off = align8(adj_off + 4 * e);
        let label_off = align8(feat_off + feature_elem_size(fp) * k * f);
        let label_end = label_off + 4 * k * l;
        let (agg_off, file_len) = if agg {
            let off = align8(label_end);
            (off, off + 4 * k * f)
        } else {
            (label_end, label_end)
        };
        ShardLayout {
            offsets_off,
            adj_off,
            feat_off,
            label_off,
            agg_off,
            file_len,
        }
    }

    /// `(file offset, byte length)` of section `kind`.
    pub fn section(&self, kind: SectionKind) -> (usize, usize) {
        match kind {
            SectionKind::Topology => (0, self.feat_off),
            SectionKind::Features => (self.feat_off, self.label_off - self.feat_off),
            SectionKind::Labels => (self.label_off, self.agg_off - self.label_off),
            SectionKind::Agg => (self.agg_off, self.file_len - self.agg_off),
        }
    }
}

/// Bytes per stored feature element at precision `p`.
pub(crate) const fn feature_elem_size(p: Precision) -> usize {
    match p {
        Precision::F32 => 4,
        Precision::Bf16 => 2,
    }
}

/// Write `bytes` to `path` atomically (temp sibling + rename).
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A buffered shard-file writer that checksums everything it writes.
struct CheckedWriter {
    w: io::BufWriter<std::fs::File>,
    hash: Fnv1a,
    written: usize,
}

impl CheckedWriter {
    fn create(path: &Path) -> io::Result<Self> {
        Ok(CheckedWriter {
            w: io::BufWriter::new(std::fs::File::create(path)?),
            hash: Fnv1a::default(),
            written: 0,
        })
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.written += bytes.len();
        self.w.write_all(bytes)
    }

    fn pad_to(&mut self, off: usize) -> io::Result<()> {
        debug_assert!(off >= self.written && off - self.written < 8);
        const ZEROS: [u8; 8] = [0; 8];
        let pad = off - self.written;
        self.put(&ZEROS[..pad])
    }

    fn finish(mut self) -> io::Result<(usize, u64)> {
        self.w.flush()?;
        Ok((self.written, self.hash.finish()))
    }
}

/// Write a complete shard store for `graph` (plus optional per-vertex
/// feature/label rows) under `dir` in `num_shards` parts. Returns the
/// manifest.
///
/// `order` ranks the vertices ([`order_rank`]); shard `sid` stores the
/// ranks `[sid·w, (sid+1)·w)` in rank order, and the manifest records the
/// rank. `num_shards` may exceed the vertex count; trailing shards are
/// then empty, which the loader handles. Existing store files in `dir`
/// are overwritten.
///
/// [`Precision::F32`] stores features verbatim; [`Precision::Bf16`]
/// rounds each feature element to bf16 (round-to-nearest-even), halving
/// the feature payload of every shard. Labels are always stored as f32.
/// Readers widen bf16 rows back to f32 on gather, so downstream code sees
/// f32 either way — rows just carry bf16 rounding.
pub fn write_store_with_precision(
    dir: &Path,
    graph: &CsrGraph,
    features: Option<&DMatrix>,
    labels: Option<&DMatrix>,
    num_shards: usize,
    order: StoreOrder,
    feature_precision: Precision,
) -> io::Result<StoreManifest> {
    let rows = StoreRows {
        features,
        labels,
        feature_precision,
        agg: None,
    };
    write_store_rows(dir, graph, rows, num_shards, order)
}

/// Computes `agg` rows for [`write_store_with_agg`]: called with one
/// shard's members (global ids, in stored order), it reshapes `out` to
/// `members.len() × feature_dim` and writes member `i`'s row of `Â·X`
/// into row `i`.
pub type AggRows<'a> = &'a dyn Fn(&[u32], &mut DMatrix);

/// As [`write_store_with_precision`] with f32 `features` and an `agg`
/// section in every shard (see the module docs): `agg` is asked for each
/// shard's rows in turn, as that shard is written, into one buffer reused
/// shard to shard — at most one shard's rows exist at a time. The
/// manifest's `agg` flag is set.
pub fn write_store_with_agg(
    dir: &Path,
    graph: &CsrGraph,
    features: &DMatrix,
    labels: Option<&DMatrix>,
    num_shards: usize,
    order: StoreOrder,
    agg: AggRows<'_>,
) -> io::Result<StoreManifest> {
    let rows = StoreRows {
        features: Some(features),
        labels,
        feature_precision: Precision::F32,
        agg: Some(agg),
    };
    write_store_rows(dir, graph, rows, num_shards, order)
}

/// The per-vertex rows a writer stores beside the topology.
#[derive(Clone, Copy)]
struct StoreRows<'a> {
    features: Option<&'a DMatrix>,
    labels: Option<&'a DMatrix>,
    feature_precision: Precision,
    /// Set only with f32 features.
    agg: Option<AggRows<'a>>,
}

fn write_store_rows(
    dir: &Path,
    graph: &CsrGraph,
    rows: StoreRows<'_>,
    num_shards: usize,
    order: StoreOrder,
) -> io::Result<StoreManifest> {
    endian_guard()?;
    let StoreRows {
        features,
        labels,
        feature_precision,
        agg,
    } = rows;
    let n = graph.num_vertices();
    for (what, m) in [("feature", features), ("label", labels)] {
        if let Some(m) = m.filter(|m| m.rows() != n) {
            return Err(bad(format!(
                "{what} matrix has {} rows for a {n}-vertex graph",
                m.rows()
            )));
        }
    }
    // With no feature rows the precision is vacuous; normalise to f32.
    let feature_precision = if features.is_none() {
        Precision::F32
    } else {
        feature_precision
    };
    let agg = agg.filter(|_| features.is_some());
    debug_assert!(agg.is_none() || feature_precision == Precision::F32);
    std::fs::create_dir_all(dir)?;
    let p = num_shards.max(1);
    let f = features.map_or(0, |m| m.cols());
    let l = labels.map_or(0, |m| m.cols());

    let rank = order_rank(graph, order, p);
    let unrank = invert(&rank);
    let width = shard_width(n, p);

    let mut shards = Vec::with_capacity(p);
    let mut qrow: Vec<bf16::Bf16> = vec![bf16::Bf16::ZERO; f];
    // One shard's `agg` rows, reused shard to shard.
    let mut agg_rows = DMatrix::zeros(0, 0);
    for sid in 0..p {
        let members = &unrank[(sid * width).min(n)..((sid + 1) * width).min(n)];
        let k = members.len();
        let e: usize = members.iter().map(|&v| graph.degree(v)).sum();
        let layout = ShardLayout::new(k, e, f, l, feature_precision, agg.is_some());
        let path = dir.join(shard_file_name(sid));
        let tmp = tmp_sibling(&path);
        let mut w = CheckedWriter::create(&tmp)?;
        let mut header = Vec::with_capacity(SHARD_HEADER_LEN);
        header.extend_from_slice(&SHARD_MAGIC.to_le_bytes());
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&(sid as u32).to_le_bytes());
        header.extend_from_slice(&precision_code(feature_precision).to_le_bytes());
        header.extend_from_slice(&(k as u64).to_le_bytes());
        header.extend_from_slice(&(e as u64).to_le_bytes());
        header.extend_from_slice(&(f as u32).to_le_bytes());
        header.extend_from_slice(&(l as u32).to_le_bytes());
        w.put(&header)?;
        let mut offsets = Vec::with_capacity(k + 1);
        let mut acc = 0u64;
        offsets.push(0u64);
        for &v in members {
            acc += graph.degree(v) as u64;
            offsets.push(acc);
        }
        w.put(as_bytes(&offsets))?;
        for &v in members {
            w.put(as_bytes(graph.neighbors(v)))?;
        }
        w.pad_to(layout.feat_off)?;
        if let Some(m) = features {
            match feature_precision {
                Precision::F32 => {
                    for &v in members {
                        w.put(as_bytes(m.row(v as usize)))?;
                    }
                }
                Precision::Bf16 => {
                    for &v in members {
                        bf16::quantize_slice(m.row(v as usize), &mut qrow);
                        w.put(as_bytes(bf16::to_bits_slice(&qrow)))?;
                    }
                }
            }
        }
        w.pad_to(layout.label_off)?;
        if let Some(m) = labels {
            for &v in members {
                w.put(as_bytes(m.row(v as usize)))?;
            }
        }
        if let Some(fill) = agg {
            fill(members, &mut agg_rows);
            if agg_rows.shape() != (k, f) {
                return Err(bad(format!(
                    "agg rows of shard {sid} come as {:?}, expected ({k}, {f})",
                    agg_rows.shape()
                )));
            }
            w.pad_to(layout.agg_off)?;
            w.put(as_bytes(agg_rows.data()))?;
        }
        let (written, checksum) = w.finish()?;
        debug_assert_eq!(written, layout.file_len, "shard writer layout drift");
        std::fs::rename(&tmp, &path)?;
        shards.push(ShardInfo {
            members: k as u64,
            edges: e as u64,
            file_len: written as u64,
            checksum,
        });
    }

    // Manifest last: its presence marks the store complete.
    let manifest = StoreManifest {
        n: n as u64,
        num_edges: graph.num_edges() as u64,
        feature_dim: f as u32,
        label_dim: l as u32,
        shards,
        order,
        rank,
        feature_precision,
        has_agg: agg.is_some(),
    };
    manifest.save(dir)?;
    Ok(manifest)
}

/// Recompute every present shard file's checksum against the manifest.
/// Returns the shard ids that failed (empty = all good). Missing shard
/// files are skipped — presence is a deployment choice, corruption is not.
pub fn verify_store(dir: &Path) -> io::Result<Vec<usize>> {
    let manifest = StoreManifest::load(dir)?;
    let mut failed = Vec::new();
    let mut buf = vec![0u8; 1 << 20];
    for (sid, info) in manifest.shards.iter().enumerate() {
        let path = dir.join(shard_file_name(sid));
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let mut hash = Fnv1a::default();
        let mut total = 0u64;
        let mut reader = io::BufReader::new(file);
        loop {
            let got = reader.read(&mut buf)?;
            if got == 0 {
                break;
            }
            hash.update(&buf[..got]);
            total += got as u64;
        }
        if total != info.file_len || hash.finish() != info.checksum {
            failed.push(sid);
        }
    }
    Ok(failed)
}

/// What the manifest says one shard file looks like: its counts, its
/// feature precision and, derived from them, where its sections lie.
/// Built (and checked for self-consistency) once per shard when a store
/// opens; [`Self::check_header`] then holds the file itself to it.
#[derive(Clone, Copy, Debug)]
pub struct ShardShape {
    /// Member vertex count.
    pub k: usize,
    /// Directed edges stored in the shard.
    pub e: usize,
    /// Feature columns per member (0 = none).
    pub f: usize,
    /// Label columns per member (0 = none).
    pub l: usize,
    /// Element type of the stored feature rows.
    pub fp: Precision,
    /// Whether the shard carries the `agg` section (`k·f` f32 elements).
    pub agg: bool,
    pub layout: ShardLayout,
}

impl ShardShape {
    /// The shape of shard `sid` per `manifest`. Fails when the recorded
    /// counts do not add up to the recorded file length — a manifest that
    /// contradicts itself must not get as far as sizing a mapping.
    pub fn from_manifest(manifest: &StoreManifest, sid: usize) -> io::Result<ShardShape> {
        let info = &manifest.shards[sid];
        let ctx = |msg: String| bad(format!("manifest entry of shard {sid}: {msg}"));
        let file_len = usize::try_from(info.file_len)
            .map_err(|_| ctx(format!("file length {} overflows", info.file_len)))?;
        let (f, l) = (manifest.feature_dim as usize, manifest.label_dim as usize);
        let (fp, agg) = (manifest.feature_precision, manifest.has_agg);
        // Bound the counts by the file length before the layout arithmetic
        // multiplies them: these are bytes read from disk.
        let fits = |count: u64, bytes_each: usize| {
            usize::try_from(count)
                .ok()
                .and_then(|c| c.checked_mul(bytes_each))
                .is_some_and(|b| b <= file_len)
        };
        let row_bytes = feature_elem_size(fp) * f + 4 * l + if agg { 4 * f } else { 0 };
        if !fits(info.members, 8 + row_bytes) || !fits(info.edges, 4) {
            return Err(ctx(format!(
                "k={} e={} cannot fit a {file_len}-byte file",
                info.members, info.edges
            )));
        }
        let (k, e) = (info.members as usize, info.edges as usize);
        let layout = ShardLayout::new(k, e, f, l, fp, agg);
        if layout.file_len != file_len {
            return Err(ctx(format!(
                "k={k} e={e} f={f} l={l} imply {} bytes but {file_len} are recorded",
                layout.file_len
            )));
        }
        Ok(ShardShape {
            k,
            e,
            f,
            l,
            fp,
            agg,
            layout,
        })
    }

    /// Read the 40-byte header at the start of `file` and hold it to this
    /// shape: magic, version, shard id, precision code and all four
    /// counts. `path` is for the error text.
    pub fn check_header(
        &self,
        mut file: &std::fs::File,
        path: &Path,
        shard_id: usize,
    ) -> io::Result<()> {
        let ctx = |msg: String| bad(format!("shard {}: {msg}", path.display()));
        let mut raw = [0u8; SHARD_HEADER_LEN];
        file.read_exact(&mut raw)
            .map_err(|e| ctx(format!("reading the header: {e} (truncated write?)")))?;
        let mut header = Bytes::from(raw.to_vec());
        if header.get_u32_le() != SHARD_MAGIC {
            return Err(ctx("bad magic (not a gsgcn shard file)".into()));
        }
        let version = header.get_u32_le();
        if version != FORMAT_VERSION {
            return Err(ctx(format!(
                "format version {version}, this build reads v{FORMAT_VERSION}"
            )));
        }
        let id = header.get_u32_le() as usize;
        if id != shard_id {
            return Err(ctx(format!("header says shard {id}, expected {shard_id}")));
        }
        let prec_code = header.get_u32_le();
        let fp = precision_from_code(prec_code).ok_or_else(|| {
            ctx(format!(
                "unknown feature-precision code {prec_code} (written by a newer build?)"
            ))
        })?;
        let k = header.get_u64_le();
        let e = header.get_u64_le();
        let f = header.get_u32_le() as usize;
        let l = header.get_u32_le() as usize;
        if (k, e, f, l, fp) != (self.k as u64, self.e as u64, self.f, self.l, self.fp) {
            return Err(ctx(format!(
                "header (k={k}, e={e}, f={f}, l={l}, {fp} features) disagrees with the \
                 manifest (k={}, e={}, f={}, l={}, {} features) — truncated or corrupt, \
                 refusing to read",
                self.k, self.e, self.f, self.l, self.fp
            )));
        }
        Ok(())
    }
}

/// Element types a mapped section is viewed as, and a written one is
/// viewed from ([`as_bytes`]).
///
/// # Safety
/// Implementors have no invalid bit patterns and no padding.
unsafe trait Plain: Copy {}
// SAFETY: integers and IEEE floats accept every bit pattern.
unsafe impl Plain for u16 {}
// SAFETY: as above.
unsafe impl Plain for u32 {}
// SAFETY: as above.
unsafe impl Plain for u64 {}
// SAFETY: as above.
unsafe impl Plain for f32 {}

/// One mapped section of one shard file — the unit the store's cache
/// holds, charges and evicts. Readers hold an `Arc<ShardSection>` handed
/// out by the cache, so eviction can never unmap pages a reader is still
/// walking: the munmap happens when the last `Arc` drops.
///
/// The accessors belong to one [`SectionKind`] each and panic on a
/// section of another kind (a bug in the caller, never a data condition).
pub struct ShardSection {
    map: super::mmap::Mapping,
    kind: SectionKind,
    shape: ShardShape,
}

impl ShardSection {
    /// Map section `kind` of the shard file at `path`, which must be
    /// exactly as long as `shape` says: a file that shrank or grew since
    /// the store was opened is a loud
    /// [`InvalidData`](io::ErrorKind::InvalidData) error here, in front of
    /// every map, never a fault inside one. With `check_header` the
    /// file's header is held to `shape` first (the cache asks for this
    /// until one check per shard has passed).
    pub fn map(
        path: &Path,
        shard_id: usize,
        shape: &ShardShape,
        kind: SectionKind,
        check_header: bool,
    ) -> io::Result<Self> {
        endian_guard()?;
        let file = std::fs::File::open(path).map_err(|e| {
            io::Error::new(e.kind(), format!("opening shard {}: {e}", path.display()))
        })?;
        let file_len = file.metadata()?.len();
        if file_len != shape.layout.file_len as u64 {
            return Err(bad(format!(
                "shard {}: file is {file_len} bytes but the manifest records {} \
                 (truncated or corrupt — refusing to read)",
                path.display(),
                shape.layout.file_len
            )));
        }
        if check_header {
            shape.check_header(&file, path, shard_id)?;
        }
        let (offset, len) = shape.layout.section(kind);
        debug_assert_eq!(offset % 8, 0, "section offsets are 8-aligned");
        debug_assert!(offset + len <= shape.layout.file_len);
        let map = super::mmap::Mapping::map_range(&file, offset, len)?;
        debug_assert_eq!(map.bytes().len(), len);
        // Page-aligned mapping base + 8-aligned lead-in: every typed view
        // below is aligned if its offset inside the section is.
        debug_assert!(len == 0 || (map.bytes().as_ptr() as usize).is_multiple_of(8));
        Ok(ShardSection {
            map,
            kind,
            shape: *shape,
        })
    }

    /// Byte length of the section — what it is charged against the cache
    /// budget while mapped.
    pub fn mapped_bytes(&self) -> usize {
        self.map.bytes().len()
    }

    #[inline]
    fn expect_kind(&self, kind: SectionKind) {
        assert!(
            self.kind == kind,
            "{} read from a {} section",
            kind.name(),
            self.kind.name()
        );
    }

    /// `count` elements of `T` starting `off` bytes into the section.
    #[inline]
    fn view<T: Plain>(&self, off: usize, count: usize) -> &[T] {
        let size = std::mem::size_of::<T>();
        // Slicing range-checks `[off, off + count·size)` against the
        // mapped section.
        let bytes = &self.map.bytes()[off..off + size * count];
        debug_assert_eq!(
            off % size,
            0,
            "view offset not a multiple of the element size"
        );
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: `bytes` is an in-bounds subslice of a live read-only
        // mapping that `self` keeps alive for the returned lifetime; it
        // is aligned for `T` because the section base is 8-aligned (see
        // `map`) and `off` is a multiple of `size_of::<T>()` ≤ 8; it is
        // exactly `count · size_of::<T>()` bytes; and `T: Plain` has no
        // invalid bit patterns.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, count) }
    }

    /// Neighbor list (global ids) of member `local`. Topology sections
    /// only.
    #[inline]
    pub fn neighbors(&self, local: usize) -> &[u32] {
        self.expect_kind(SectionKind::Topology);
        let layout = &self.shape.layout;
        let offsets: &[u64] = self.view(layout.offsets_off, self.shape.k + 1);
        let (start, end) = (offsets[local] as usize, offsets[local + 1] as usize);
        &self.view::<u32>(layout.adj_off, self.shape.e)[start..end]
    }

    /// Copy member `local`'s row into `out` as f32. On a feature section
    /// that is its feature row, widened from the stored precision (memcpy
    /// for f32 shards, exact bf16→f32 widen for bf16 shards — widening
    /// never rounds); on a label section its label row; on an `agg`
    /// section its row of `Â·X`.
    pub fn copy_row_into(&self, local: usize, out: &mut [f32]) {
        assert!(
            local < self.shape.k,
            "row {local} of a {}-member shard",
            self.shape.k
        );
        match (self.kind, self.shape.fp) {
            (SectionKind::Features, Precision::F32) => {
                let f = self.shape.f;
                out.copy_from_slice(self.view(4 * local * f, f));
            }
            (SectionKind::Features, Precision::Bf16) => {
                let f = self.shape.f;
                assert_eq!(out.len(), f, "feature row destination length mismatch");
                let bits: &[u16] = self.view(2 * local * f, f);
                bf16::widen_slice(bf16::from_bits_slice(bits), out);
            }
            (SectionKind::Labels, _) => {
                let l = self.shape.l;
                out.copy_from_slice(self.view(4 * local * l, l));
            }
            (SectionKind::Agg, _) => {
                let f = self.shape.f;
                out.copy_from_slice(self.view(4 * local * f, f));
            }
            (SectionKind::Topology, _) => panic!("row read from a topology section"),
        }
    }
}
