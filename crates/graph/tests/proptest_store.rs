//! Property-based tests of the sharded `GraphStore`: whatever random
//! graph, shard count, or cache budget the generator picks, the mmap
//! backend must be observationally identical to the resident graph —
//! and any on-disk corruption must surface as an error, never as
//! silently different data.

use gsgcn_graph::builder::from_edges;
use gsgcn_graph::partition::bfs_partition;
use gsgcn_graph::store::shard::{
    shard_file_name, verify_store, write_store_with_precision, ShardShape,
};
use gsgcn_graph::store::{SectionKind, StoreManifest};
use gsgcn_graph::{l_hop_ball, CsrGraph, GraphStore, StoreOrder, Topology};
use gsgcn_tensor::{DMatrix, Precision};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a case's cache budget sits relative to the store's section
/// sizes — the boundaries at which the section cache changes behaviour.
#[derive(Clone, Copy, Debug)]
enum Budget {
    /// One byte: nothing stays beside the section being read.
    OneByte,
    /// Less than the smallest topology section.
    UnderOneTopology,
    /// Exactly all topology sections: any row section overflows it.
    TopologyOnly,
    /// All topology plus the largest feature section.
    TopologyPlusOneFeature,
    /// The whole store: nothing is ever evicted.
    WholeStore,
}

const BUDGETS: [Budget; 5] = [
    Budget::OneByte,
    Budget::UnderOneTopology,
    Budget::TopologyOnly,
    Budget::TopologyPlusOneFeature,
    Budget::WholeStore,
];

impl Budget {
    fn bytes(self, manifest: &StoreManifest) -> usize {
        let lens = |kind| {
            (0..manifest.num_shards()).map(move |sid| {
                let shape = ShardShape::from_manifest(manifest, sid).unwrap();
                shape.layout.section(kind).1
            })
        };
        let topology: usize = lens(SectionKind::Topology).sum();
        match self {
            Budget::OneByte => 1,
            Budget::UnderOneTopology => lens(SectionKind::Topology).min().unwrap() - 1,
            Budget::TopologyOnly => topology,
            Budget::TopologyPlusOneFeature => topology + lens(SectionKind::Features).max().unwrap(),
            Budget::WholeStore => manifest.shards.iter().map(|s| s.file_len as usize).sum(),
        }
    }
}

/// Strategy: a random graph — in three cases of four a ring plus random
/// chords, so L-hop balls actually grow; otherwise the chords alone, so
/// components and isolated vertices meet the partitioner — plus a shard
/// count that forces boundary vertices (down to one-vertex shards) and a
/// cache budget placed at one of the section-size boundaries ([`Budget`];
/// resolve it against the written store with [`Budget::bytes`]), so
/// eviction churn of every flavour is part of the case mix.
fn store_case() -> impl Strategy<Value = (CsrGraph, usize, Budget)> {
    (
        3usize..48,
        proptest::collection::vec((0u32..48, 0u32..48), 0..96),
        1usize..9,
        0usize..BUDGETS.len(),
        0u8..4,
    )
        .prop_map(|(n, extra, shards, budget, ring)| {
            let ring_len = if ring > 0 { n as u32 } else { 0 };
            let mut edges: Vec<(u32, u32)> =
                (0..ring_len).map(|i| (i, (i + 1) % n as u32)).collect();
            edges.extend(
                extra
                    .into_iter()
                    .filter(|&(a, b)| (a as usize) < n && (b as usize) < n && a != b),
            );
            (from_edges(n, &edges), shards, BUDGETS[budget])
        })
}

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gsgcn-proptest-store-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic per-vertex rows so bitwise comparison is meaningful.
fn feature_rows(n: usize, dim: usize) -> DMatrix {
    DMatrix::from_fn(n, dim, |i, j| ((i * 31 + j * 7) as f32).sin())
}

fn label_rows(n: usize, dim: usize) -> DMatrix {
    DMatrix::from_fn(n, dim, |i, j| ((i * 13 + j * 3) % 2) as f32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The mmap store answers every topology probe, L-hop ball, and
    /// row gather bit-identically to the resident graph it was spilled
    /// from — across shard boundaries, under eviction at every budget
    /// boundary, and when a row section is zero-width (a store written
    /// without features or without labels).
    #[test]
    fn mmap_store_is_observationally_identical(
        (g, shards, budget) in store_case(),
        root_seed in any::<u64>(),
        with_features in any::<bool>(),
        with_labels in any::<bool>(),
    ) {
        let n = g.num_vertices();
        let f = with_features.then(|| feature_rows(n, 5));
        let l = with_labels.then(|| label_rows(n, 2));
        let dir = fresh_dir();
        let manifest = write_store_with_precision(
            &dir,
            &g,
            f.as_ref(),
            l.as_ref(),
            shards,
            StoreOrder::Natural,
            Precision::F32,
        ).unwrap();
        let store = GraphStore::open_with_budget(&dir, budget.bytes(&manifest)).unwrap();

        prop_assert_eq!(Topology::num_vertices(&store), n);
        prop_assert_eq!(Topology::num_edges(&store), g.num_edges());
        // Each natural shard is one `bfs_partition` part, however many
        // components the graph has.
        let parts = bfs_partition(&g, shards).part;
        let view = store.view();
        for v in 0..n as u32 {
            prop_assert!(store.contains(v));
            prop_assert_eq!(store.shard_of(v), Some(parts[v as usize]));
            prop_assert_eq!(view.degree(v), g.degree(v));
            prop_assert_eq!(view.neighbors(v), g.neighbors(v), "vertex {}", v);
        }
        drop(view);

        // Bit-identical L-hop balls from a few pseudo-random root sets.
        for hops in 1..=3usize {
            let roots: Vec<u32> = (0..4u64)
                .map(|k| ((root_seed.wrapping_mul(2654435761).wrapping_add(k * 97)) % n as u64) as u32)
                .collect();
            let ball_mem = l_hop_ball(&g, &roots, hops);
            let ball_mmap = l_hop_ball(&store, &roots, hops);
            prop_assert_eq!(ball_mem, ball_mmap, "hops {}", hops);
        }

        // Bitwise-equal row gathers, including duplicate rows; a section
        // the store was written without is an error, never empty rows.
        let rows: Vec<u32> = (0..n as u32).chain([0, (n - 1) as u32]).collect();
        let mut got = DMatrix::zeros(0, 0);
        match &f {
            Some(f) => {
                store.gather_features_into(&rows, &mut got).unwrap();
                for (i, &v) in rows.iter().enumerate() {
                    prop_assert_eq!(got.row(i), f.row(v as usize), "feature row {}", v);
                }
            }
            None => prop_assert!(store.gather_features_into(&rows, &mut got).is_err()),
        }
        match &l {
            Some(l) => {
                store.gather_labels_into(&rows, &mut got).unwrap();
                for (i, &v) in rows.iter().enumerate() {
                    prop_assert_eq!(got.row(i), l.row(v as usize), "label row {}", v);
                }
            }
            None => prop_assert!(store.gather_labels_into(&rows, &mut got).is_err()),
        }

        // Pinning maps every section, zero-width ones included, and a
        // fully materialized copy still round-trips.
        prop_assert!(store.pin_nodes(&rows).unwrap() > 0);
        store.unpin_all();
        let (back, feats, labels) = store.materialize().unwrap();
        prop_assert_eq!(&*back, &g);
        prop_assert_eq!(feats.as_deref(), f.as_ref());
        prop_assert_eq!(labels.as_deref(), l.as_ref());

        let stats = store.cache_stats().unwrap();
        prop_assert_eq!(
            stats.evictions,
            stats.topology.evictions + stats.features.evictions + stats.labels.evictions
        );
        if matches!(budget, Budget::WholeStore) {
            prop_assert_eq!(stats.evictions, 0, "{:?}", stats);
        }

        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A view keeps reading the same bytes after the cache has evicted
    /// (and unmapped its own handle on) a topology section the view holds.
    #[test]
    fn view_survives_eviction_of_its_section((g, shards, _) in store_case(), pick in any::<u64>()) {
        prop_assume!(shards >= 2);
        let n = g.num_vertices();
        let dir = fresh_dir();
        write_store_with_precision(
            &dir,
            &g,
            Some(&feature_rows(n,
            5)),
            None,
            shards,
            StoreOrder::Natural,
            Precision::F32,
        ).unwrap();
        let store = GraphStore::open_with_budget(&dir, 1).unwrap();
        let v = (pick % n as u64) as u32;
        let view = store.view();
        let held = view.neighbors(v);
        // A one-byte budget evicts v's section as soon as any other
        // section loads; walk every other shard's topology and rows.
        let before = store.cache_stats().unwrap().topology.evictions;
        let others: Vec<u32> = (0..n as u32)
            .filter(|&u| store.shard_of(u) != store.shard_of(v))
            .collect();
        prop_assume!(!others.is_empty());
        let walk = store.view();
        for &u in &others {
            prop_assert_eq!(walk.neighbors(u), g.neighbors(u));
        }
        drop(walk);
        let mut rows = DMatrix::zeros(0, 0);
        store.gather_features_into(&others, &mut rows).unwrap();
        prop_assert!(store.cache_stats().unwrap().topology.evictions > before);
        prop_assert_eq!(held, g.neighbors(v), "held list changed under eviction");
        prop_assert_eq!(view.neighbors(v), g.neighbors(v));
        drop(view);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two readers at once — one walking topology the way a sampler does,
    /// one gathering rows — each see exactly what the resident graph
    /// would have given them, whatever the budget makes them evict from
    /// under each other.
    #[test]
    fn concurrent_walk_and_gather_match_mem(
        (g, shards, budget) in store_case(),
        seed in any::<u64>(),
    ) {
        let n = g.num_vertices();
        let f = feature_rows(n, 5);
        let l = label_rows(n, 2);
        let dir = fresh_dir();
        let manifest = write_store_with_precision(
            &dir,
            &g,
            Some(&f),
            Some(&l),
            shards,
            StoreOrder::Bfs,
            Precision::F32,
        ).unwrap();
        let store = GraphStore::open_with_budget(&dir, budget.bytes(&manifest)).unwrap();
        let mem = GraphStore::mem(
            std::sync::Arc::new(g.clone()),
            Some(std::sync::Arc::new(f)),
            Some(std::sync::Arc::new(l)),
        );

        // A degree-then-neighbor random walk: the sampler's access
        // pattern. A vertex without neighbors restarts the walk at a
        // random vertex.
        let walk = |s: &GraphStore| -> Vec<u32> {
            let s = s.view();
            let mut x = seed | 1;
            let mut v = (x % n as u64) as u32;
            (0..400)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    v = match s.degree(v) {
                        0 => (x % n as u64) as u32,
                        deg => s.neighbor(v, (x % deg as u64) as usize),
                    };
                    v
                })
                .collect()
        };
        let gather = |s: &GraphStore| -> Vec<f32> {
            let mut out = Vec::new();
            let (mut x, mut y) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
            for round in 0..6u64 {
                let rows: Vec<u32> = (0..n as u64)
                    .map(|k| ((seed.wrapping_add(round).wrapping_mul(6364136223846793005).wrapping_add(k * 1442695041)) % n as u64) as u32)
                    .collect();
                s.gather_features_into(&rows, &mut x).unwrap();
                s.gather_labels_into(&rows, &mut y).unwrap();
                out.extend_from_slice(x.data());
                out.extend_from_slice(y.data());
            }
            out
        };

        let start = std::sync::Barrier::new(2);
        let (walked, gathered) = std::thread::scope(|scope| {
            let walker = scope.spawn(|| {
                start.wait();
                walk(&store)
            });
            let gatherer = scope.spawn(|| {
                start.wait();
                gather(&store)
            });
            (walker.join().unwrap(), gatherer.join().unwrap())
        });
        prop_assert_eq!(walked, walk(&mem));
        prop_assert_eq!(gathered, gather(&mem));

        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Materializing the store back to memory round-trips the graph and
    /// rows exactly, whatever the partition looked like.
    #[test]
    fn materialize_roundtrips_any_partition((g, shards, budget) in store_case()) {
        let n = g.num_vertices();
        let f = feature_rows(n, 3);
        let dir = fresh_dir();
        let manifest = write_store_with_precision(
            &dir,
            &g,
            Some(&f),
            None,
            shards,
            StoreOrder::Natural,
            Precision::F32,
        ).unwrap();
        let store = GraphStore::open_with_budget(&dir, budget.bytes(&manifest)).unwrap();
        let (graph, feats, labels) = store.materialize().unwrap();
        prop_assert_eq!(&*graph, &g);
        prop_assert_eq!(&**feats.as_ref().unwrap(), &f);
        prop_assert!(labels.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash safety: truncating any shard at any point must fail the
    /// open loudly — a partially-written spill can never be read back as
    /// a plausible-but-wrong graph.
    #[test]
    fn truncated_shard_never_reads_back((g, shards, _) in store_case(), pick in any::<u64>()) {
        let n = g.num_vertices();
        let f = feature_rows(n, 3);
        let dir = fresh_dir();
        let manifest = write_store_with_precision(
            &dir,
            &g,
            Some(&f),
            None,
            shards,
            StoreOrder::Natural,
            Precision::F32,
        ).unwrap();
        let sid = (pick % manifest.shards.len() as u64) as usize;
        let file_len = manifest.shards[sid].file_len;
        prop_assume!(file_len > 0);
        let keep = (pick / 7) % file_len; // strictly shorter than written
        let path = dir.join(shard_file_name(sid));
        let fh = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        fh.set_len(keep).unwrap();
        drop(fh);
        let err = GraphStore::open_with_budget(&dir, 1 << 20).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corruption that preserves file length is invisible to open() but
    /// must be flagged by verify_store — or, if it hits the header, fail
    /// the open. Either way it can never pass both checks.
    #[test]
    fn bitflip_is_always_detected((g, shards, _) in store_case(), pick in any::<u64>()) {
        let n = g.num_vertices();
        let f = feature_rows(n, 3);
        let dir = fresh_dir();
        let manifest = write_store_with_precision(
            &dir,
            &g,
            Some(&f),
            None,
            shards,
            StoreOrder::Natural,
            Precision::F32,
        ).unwrap();
        let sid = (pick % manifest.shards.len() as u64) as usize;
        let path = dir.join(shard_file_name(sid));
        let mut bytes = std::fs::read(&path).unwrap();
        prop_assume!(!bytes.is_empty());
        let at = ((pick / 3) % bytes.len() as u64) as usize;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let open_failed = GraphStore::open_with_budget(&dir, 1 << 20).is_err();
        let flagged = verify_store(&dir).map(|bad| bad.contains(&sid)).unwrap_or(true);
        prop_assert!(open_failed || flagged, "corrupt shard {} passed open AND verify", sid);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A bfs- or degree-ordered store is observationally identical to the
    /// natural one: placement moved, but every topology probe, L-hop
    /// ball, and feature gather answers in the user's vertex numbering,
    /// bit for bit — and the recorded mapping is a true inverse pair.
    #[test]
    fn reordered_store_is_observationally_identical((g, shards, budget) in store_case(), root_seed in any::<u64>()) {
        let n = g.num_vertices();
        let f = feature_rows(n, 5);
        for order in [StoreOrder::Bfs, StoreOrder::Degree] {
            let dir = fresh_dir();
            let manifest = write_store_with_precision(
                &dir,
                &g,
                Some(&f),
                None,
                shards,
                order,
                Precision::F32,
            ).unwrap();
            prop_assert!(verify_store(&dir).unwrap().is_empty());
            let store = GraphStore::open_with_budget(&dir, budget.bytes(&manifest)).unwrap();
            prop_assert_eq!(store.order(), order);

            let view = store.view();
            for v in 0..n as u32 {
                prop_assert_eq!(store.to_external(store.to_internal(v)), v);
                prop_assert_eq!(view.degree(v), g.degree(v));
                prop_assert_eq!(view.neighbors(v), g.neighbors(v), "{:?} vertex {}", order, v);
            }
            drop(view);

            let roots: Vec<u32> = (0..4u64)
                .map(|k| ((root_seed.wrapping_mul(2654435761).wrapping_add(k * 97)) % n as u64) as u32)
                .collect();
            for hops in 1..=3usize {
                prop_assert_eq!(l_hop_ball(&g, &roots, hops), l_hop_ball(&store, &roots, hops));
            }

            let rows: Vec<u32> = (0..n as u32).chain([0, (n - 1) as u32]).collect();
            let mut got = DMatrix::zeros(rows.len(), 5);
            store.gather_features_into(&rows, &mut got).unwrap();
            for (i, &v) in rows.iter().enumerate() {
                prop_assert_eq!(got.row(i), f.row(v as usize), "{:?} row {}", order, v);
            }

            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
