//! Spill-to-shards dataset path: persist a [`Dataset`] as a versioned
//! on-disk store directory and reopen it through [`GraphStore`] backends.
//!
//! Layout of a spilled dataset directory:
//!
//! ```text
//! <dir>/
//!   full/          shard store of the full graph (+features +labels, and
//!                  `Â·X` rows when the features are f32)
//!   train/         shard store of the training-induced view
//!   dataset.gss    name, task kind, split, train-view origin map
//! ```
//!
//! The full store of an f32 spill carries the `agg` section: each shard's
//! rows of `Â·X`, layer 1's input aggregate over the full graph
//! ([`write_full_store`]), so stored evaluation reads two rows per
//! layer-1 vertex instead of aggregating its neighbours' feature rows.
//! The training store never does: training aggregates over each sampled
//! subgraph's own `Â_s`.
//!
//! The `train/` store holds the *induced training subgraph* — the same
//! topology and gathered rows [`Dataset::train_view`] builds in memory —
//! so sampling from it out-of-core is bit-identical to sampling from the
//! resident `TrainView` for a fixed seed. `dataset.gss` is written last
//! (via a temp-file rename), so a crash mid-spill leaves a directory that
//! [`StoreDataset::open_with`] loudly refuses instead of a silently truncated
//! dataset.

use crate::dataset::{Dataset, Split, TaskKind};
use gsgcn_graph::store::{
    default_num_shards, write_store_with_agg, write_store_with_precision, StoreBackend,
    StoreManifest,
};
use gsgcn_graph::{CsrGraph, GraphStore, StoreOrder, Topology};
use gsgcn_prop::fused::AggregatedRows;
use gsgcn_tensor::{DMatrix, Precision};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic for `dataset.gss` ("GSDS").
const META_MAGIC: u32 = 0x4753_4453;
/// On-disk metadata format version.
const META_VERSION: u32 = 1;
/// Metadata file name inside a spilled dataset directory.
pub const META_FILE: &str = "dataset.gss";
/// Subdirectory holding the full-graph shard store.
pub const FULL_SUBDIR: &str = "full";
/// Subdirectory holding the training-view shard store.
pub const TRAIN_SUBDIR: &str = "train";

impl Dataset {
    /// Spill this dataset to `dir` as two shard stores plus metadata, in
    /// placement order `order` (`gsgcn shard --order`).
    ///
    /// `num_shards = 0` picks the size-based default per store. Existing
    /// store files in `dir` are overwritten. Both the full and the train
    /// store are laid out in `order`; vertex ids in the metadata (splits,
    /// train origins) stay in the user's numbering — translation happens
    /// once at the store boundary, so results are bit-identical across
    /// orders.
    pub fn spill_to_dir_ordered(
        &self,
        dir: &Path,
        num_shards: usize,
        order: StoreOrder,
    ) -> io::Result<()> {
        self.spill_to_dir_with_precision(dir, num_shards, order, Precision::F32)
    }

    /// Spill with an explicit feature storage precision (`gsgcn shard
    /// --features bf16`): bf16 halves both stores' feature payload, at
    /// one bf16 rounding per feature element. Labels stay f32; gathers
    /// widen rows back to f32 on read. An f32 full store also carries
    /// `Â·X` ([`write_full_store`]), doubling its feature bytes; a bf16
    /// one does not.
    pub fn spill_to_dir_with_precision(
        &self,
        dir: &Path,
        num_shards: usize,
        order: StoreOrder,
        feature_precision: Precision,
    ) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let full_dir = dir.join(FULL_SUBDIR);
        std::fs::create_dir_all(&full_dir)?;
        let shards = |n: usize| match num_shards {
            0 => default_num_shards(n),
            k => k,
        };
        let full_shards = shards(self.graph.num_vertices());
        let write_full = || match feature_precision {
            Precision::F32 => write_full_store(
                &full_dir,
                &self.graph,
                &self.features,
                Some(&self.labels),
                full_shards,
                order,
            ),
            Precision::Bf16 => write_store_with_precision(
                &full_dir,
                &self.graph,
                Some(&self.features),
                Some(&self.labels),
                full_shards,
                order,
                feature_precision,
            ),
        };

        let tv = self.train_view();
        let train_dir = dir.join(TRAIN_SUBDIR);
        std::fs::create_dir_all(&train_dir)?;
        let write_train = || {
            write_store_with_precision(
                &train_dir,
                &tv.graph,
                Some(&*tv.features),
                Some(&*tv.labels),
                shards(tv.graph.num_vertices()),
                order,
                feature_precision,
            )
        };
        // The training store is written on a second thread while this one
        // writes the full store: each writer spends most of its time in the
        // serial checksum of its own files, and the full store's `agg` rows
        // would otherwise add theirs to the spill's wall time.
        let (full, train) = std::thread::scope(|scope| {
            let train = scope.spawn(write_train);
            let full = write_full();
            (full, train.join().expect("training store writer panicked"))
        });
        full?;
        train?;

        // Metadata last: its presence certifies both stores are complete.
        write_meta(dir, &self.name, self.task, &self.split, &tv.origin)
    }
}

/// Write the shard store of a full graph with f32 `features`, optional
/// `labels` and the `agg` section: each shard's rows of `Â·X` (`Â = D⁻¹A`
/// of `graph`), computed as that shard is written by layer 1's own fused
/// producer ([`AggregatedRows::spill_into`] at the shard's members, one
/// row-parallel pass per shard) — so every row is, bit for bit, the f32
/// panel row layer 1 would aggregate for that vertex.
pub fn write_full_store(
    dir: &Path,
    graph: &CsrGraph,
    features: &DMatrix,
    labels: Option<&DMatrix>,
    num_shards: usize,
    order: StoreOrder,
) -> io::Result<StoreManifest> {
    let agg = |members: &[u32], out: &mut DMatrix| {
        AggregatedRows::mean(graph, features.view())
            .target_rows(members)
            .spill_into(out)
    };
    write_store_with_agg(dir, graph, features, labels, num_shards, order, &agg)
}

/// A dataset whose graph/feature/label data lives behind [`GraphStore`]
/// backends instead of resident matrices. Opened from a directory written
/// by [`Dataset::spill_to_dir_ordered`].
#[derive(Debug)]
pub struct StoreDataset {
    /// Dataset name (for reports).
    pub name: String,
    /// Task kind.
    pub task: TaskKind,
    /// Vertex split over the full graph.
    pub split: Split,
    /// Store over the full graph (+features +labels).
    pub full: Arc<GraphStore>,
    /// Store over the training-induced subgraph (+gathered rows).
    pub train: Arc<GraphStore>,
    /// Train-store local id → original vertex id (ascending).
    pub train_origin: Vec<u32>,
}

impl StoreDataset {
    /// Open with an explicit backend and per-store cache budget.
    ///
    /// The `mem` backend materializes both stores fully resident — the
    /// negative control for the out-of-core RSS cap: a capped process
    /// that survives `mmap` here must die on `mem`.
    pub fn open_with(dir: &Path, backend: StoreBackend, budget: usize) -> io::Result<StoreDataset> {
        let (name, task, split, train_origin) = read_meta(dir)?;
        let full = GraphStore::open_with_budget(&dir.join(FULL_SUBDIR), budget)?;
        let train = GraphStore::open_with_budget(&dir.join(TRAIN_SUBDIR), budget)?;

        let n = full.num_vertices();
        let covered = split.train.len() + split.val.len() + split.test.len();
        if covered != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("dataset metadata split covers {covered} of {n} vertices"),
            ));
        }
        if train.num_vertices() != train_origin.len() || train_origin.len() != split.train.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "train store has {} vertices but metadata lists {} origins / {} train ids",
                    train.num_vertices(),
                    train_origin.len(),
                    split.train.len()
                ),
            ));
        }

        let (full, train) = match backend {
            StoreBackend::Mmap => (full, train),
            StoreBackend::Mem => (materialize_to_mem(full)?, materialize_to_mem(train)?),
        };
        Ok(StoreDataset {
            name,
            task,
            split,
            full: Arc::new(full),
            train: Arc::new(train),
            train_origin,
        })
    }

    /// Vertices in the full graph.
    pub fn num_vertices(&self) -> usize {
        self.full.num_vertices()
    }

    /// Feature width `f^{(0)}`.
    pub fn feature_dim(&self) -> usize {
        self.full.feature_dim()
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> usize {
        self.full.label_dim()
    }
}

/// Rebuild a store fully resident (negative-control `mem` backend).
fn materialize_to_mem(store: GraphStore) -> io::Result<GraphStore> {
    let (g, f, l) = store.materialize()?;
    Ok(GraphStore::mem(g, f, l))
}

fn put_u32s(buf: &mut Vec<u8>, ids: &[u32]) {
    buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &v in ids {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn write_meta(
    dir: &Path,
    name: &str,
    task: TaskKind,
    split: &Split,
    train_origin: &[u32],
) -> io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&META_MAGIC.to_le_bytes());
    buf.extend_from_slice(&META_VERSION.to_le_bytes());
    buf.push(match task {
        TaskKind::MultiLabel => 0,
        TaskKind::SingleLabel => 1,
    });
    buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    put_u32s(&mut buf, &split.train);
    put_u32s(&mut buf, &split.val);
    put_u32s(&mut buf, &split.test);
    put_u32s(&mut buf, train_origin);

    let tmp = dir.join(format!("{META_FILE}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(META_FILE))
}

/// Cursor over the metadata byte buffer with loud truncation errors.
struct MetaReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> MetaReader<'a> {
    fn take(&mut self, len: usize) -> io::Result<&'a [u8]> {
        if self.pos + len > self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "dataset.gss truncated or corrupt",
            ));
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32s(&mut self) -> io::Result<Vec<u32>> {
        let len = self.u32()? as usize;
        let raw = self.take(len * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn read_meta(dir: &Path) -> io::Result<(String, TaskKind, Split, Vec<u32>)> {
    let bytes = std::fs::read(dir.join(META_FILE)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "cannot read {} in {} — not a spilled dataset directory? ({e})",
                META_FILE,
                dir.display()
            ),
        )
    })?;
    let mut r = MetaReader {
        buf: &bytes,
        pos: 0,
    };
    if r.u32()? != META_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "dataset.gss has wrong magic",
        ));
    }
    let version = r.u32()?;
    if version != META_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("dataset.gss format version {version} (expected {META_VERSION})"),
        ));
    }
    let task = match r.u8()? {
        0 => TaskKind::MultiLabel,
        1 => TaskKind::SingleLabel,
        t => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("dataset.gss has unknown task kind {t}"),
            ))
        }
    };
    let name_len = r.u32()? as usize;
    let name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "dataset name not UTF-8"))?;
    let split = Split {
        train: r.u32s()?,
        val: r.u32s()?,
        test: r.u32s()?,
    };
    let train_origin = r.u32s()?;
    Ok((name, task, split, train_origin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gsgcn-sds-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_dataset() -> Dataset {
        let spec = presets::scale_spec(&presets::ppi_spec(), 120);
        spec.generate(7)
    }

    #[test]
    fn spill_and_reopen_mmap_roundtrips() {
        let d = small_dataset();
        let dir = tmp_dir("roundtrip");
        d.spill_to_dir_ordered(&dir, 4, StoreOrder::Natural)
            .unwrap();
        let sd = StoreDataset::open_with(&dir, StoreBackend::Mmap, 1 << 20).unwrap();

        assert_eq!(sd.name, d.name);
        assert_eq!(sd.task, d.task);
        assert_eq!(sd.split.train, d.split.train);
        assert_eq!(sd.num_vertices(), d.graph.num_vertices());
        assert_eq!(sd.feature_dim(), d.feature_dim());
        assert_eq!(sd.num_classes(), d.num_classes());

        // Full-store topology and rows match the resident dataset bit-for-bit.
        for v in 0..d.graph.num_vertices() as u32 {
            assert_eq!(
                sd.full.view().neighbors(v).to_vec(),
                d.graph.neighbors(v).to_vec(),
                "vertex {v} adjacency"
            );
        }
        let probe: Vec<u32> = (0..d.graph.num_vertices() as u32).step_by(7).collect();
        let mut rows = DMatrix::zeros(probe.len(), sd.feature_dim());
        sd.full.gather_features_into(&probe, &mut rows).unwrap();
        for (i, &v) in probe.iter().enumerate() {
            assert_eq!(rows.row(i), d.features.row(v as usize), "feature row {v}");
        }

        // Train store equals the in-memory train view.
        let tv = d.train_view();
        assert_eq!(sd.train_origin, tv.origin);
        assert_eq!(sd.train.num_vertices(), tv.graph.num_vertices());
        for v in 0..tv.graph.num_vertices() as u32 {
            assert_eq!(
                sd.train.view().neighbors(v).to_vec(),
                tv.graph.neighbors(v).to_vec(),
                "train vertex {v} adjacency"
            );
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ordered_spill_is_observationally_identical() {
        let d = small_dataset();
        for order in [StoreOrder::Bfs, StoreOrder::Degree] {
            let dir = tmp_dir(&format!("ordered-{}", order.name()));
            d.spill_to_dir_ordered(&dir, 4, order).unwrap();
            let sd = StoreDataset::open_with(&dir, StoreBackend::Mmap, 1 << 20).unwrap();
            assert_eq!(sd.full.order(), order);
            assert_eq!(sd.train.order(), order);
            // Same user-facing numbering: adjacency and rows unchanged.
            for v in 0..d.graph.num_vertices() as u32 {
                assert_eq!(
                    sd.full.view().neighbors(v).to_vec(),
                    d.graph.neighbors(v).to_vec(),
                    "{order:?} vertex {v}"
                );
            }
            let probe: Vec<u32> = (0..d.graph.num_vertices() as u32).step_by(5).collect();
            let mut rows = DMatrix::zeros(probe.len(), sd.feature_dim());
            sd.full.gather_features_into(&probe, &mut rows).unwrap();
            for (i, &v) in probe.iter().enumerate() {
                assert_eq!(rows.row(i), d.features.row(v as usize), "{order:?} row {v}");
            }
            assert_eq!(sd.train_origin, d.train_view().origin);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// An f32 spill's full store holds `Â·X` — bit for bit the rows layer
    /// 1's producer spills for the whole graph, in every placement order —
    /// and its training store does not; a bf16 spill holds none.
    #[test]
    fn full_store_carries_the_input_aggregate() {
        let d = small_dataset();
        let mut want = DMatrix::zeros(0, 0);
        AggregatedRows::mean(&d.graph, d.features.view()).spill_into(&mut want);
        let all: Vec<u32> = (0..d.graph.num_vertices() as u32).rev().collect();
        for order in [StoreOrder::Natural, StoreOrder::Bfs] {
            let dir = tmp_dir(&format!("agg-{}", order.name()));
            d.spill_to_dir_ordered(&dir, 3, order).unwrap();
            let sd = StoreDataset::open_with(&dir, StoreBackend::Mmap, 1 << 20).unwrap();
            assert!(sd.full.has_agg() && !sd.train.has_agg(), "{order:?}");
            let (mut agg, mut x) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
            sd.full.par_gather_agg_into(&all, &mut agg, &mut x).unwrap();
            assert_eq!(agg, want.gather_rows(&all), "{order:?}");
            assert_eq!(x, d.features.gather_rows(&all), "{order:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let dir = tmp_dir("agg-bf16");
        d.spill_to_dir_with_precision(&dir, 3, StoreOrder::Natural, Precision::Bf16)
            .unwrap();
        let sd = StoreDataset::open_with(&dir, StoreBackend::Mmap, 1 << 20).unwrap();
        assert!(!sd.full.has_agg() && !sd.train.has_agg());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_backend_materializes_and_matches() {
        let d = small_dataset();
        let dir = tmp_dir("membackend");
        d.spill_to_dir_ordered(&dir, 3, StoreOrder::Natural)
            .unwrap();
        let sd = StoreDataset::open_with(&dir, StoreBackend::Mem, 1 << 20).unwrap();
        assert_eq!(sd.full.backend(), StoreBackend::Mem);
        let (graph, features, labels) = sd.full.materialize().unwrap();
        assert_eq!(*graph, d.graph);
        assert_eq!(features.unwrap().data(), d.features.data());
        assert_eq!(labels.unwrap().data(), d.labels.data());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_truncated_meta_fails_loudly() {
        let d = small_dataset();
        let dir = tmp_dir("badmeta");
        assert!(StoreDataset::open_with(&dir, StoreBackend::Mmap, 1 << 20).is_err());

        d.spill_to_dir_ordered(&dir, 2, StoreOrder::Natural)
            .unwrap();
        let meta = dir.join(META_FILE);
        let len = std::fs::metadata(&meta).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&meta).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);
        let err = StoreDataset::open_with(&dir, StoreBackend::Mmap, 1 << 20).unwrap_err();
        assert!(
            err.to_string().contains("truncated"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
