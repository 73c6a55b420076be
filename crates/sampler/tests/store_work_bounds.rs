//! Work bounds of the frontier sampler over a shard store, stated as
//! counts the store itself keeps (probes, misses, evictions, mapped
//! bytes) — never as time: what a walk (a sampled subgraph, an induction,
//! a frontier cut) may cost in store probes, and what a feature-dominated
//! store may cost the sampler in mappings.

use gsgcn_graph::store::mmap::MmapStore;
use gsgcn_graph::store::shard::{write_store_ordered, ShardShape};
use gsgcn_graph::store::{SectionKind, StoreManifest};
use gsgcn_graph::{
    induced_subgraph, CsrGraph, FrontierScratch, GraphBuilder, GraphStore, StoreOrder, Topology,
};
use gsgcn_sampler::dashboard::{DashboardSampler, FrontierConfig};
use gsgcn_sampler::GraphSampler;
use gsgcn_tensor::DMatrix;
use std::path::PathBuf;

const N: usize = 1200;
const SHARDS: usize = 6;
const FEATURE_DIM: usize = 64;
const LABEL_DIM: usize = 8;

/// Ring plus chords: connected, no isolated vertex (so the sampler never
/// takes its redraw path), degrees 4–6.
fn graph() -> CsrGraph {
    let n = N as u32;
    GraphBuilder::new(N)
        .add_edges((0..n).map(|i| (i, (i + 1) % n)))
        .add_edges(
            (0..n)
                .map(|i| (i, (i * 7 + 3) % n))
                .filter(|&(a, b)| a != b),
        )
        .build()
}

fn spill(tag: &str) -> (PathBuf, CsrGraph, StoreManifest) {
    let g = graph();
    let dir = std::env::temp_dir().join(format!("gsgcn-work-bounds-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let f = DMatrix::from_fn(N, FEATURE_DIM, |i, j| (i * 31 + j) as f32);
    let l = DMatrix::from_fn(N, LABEL_DIM, |i, j| (i + j) as f32);
    let manifest =
        write_store_ordered(&dir, &g, Some(&f), Some(&l), SHARDS, StoreOrder::Bfs).unwrap();
    (dir, g, manifest)
}

/// Byte length of each shard's `kind` section.
fn section_lens(manifest: &StoreManifest, kind: SectionKind) -> Vec<usize> {
    (0..manifest.num_shards())
        .map(|sid| {
            let shape = ShardShape::from_manifest(manifest, sid).unwrap();
            shape.layout.section(kind).1
        })
        .collect()
}

/// `v` in a seeded pseudo-random order (Fisher–Yates over xorshift).
fn scrambled(v: &[u32], seed: u64) -> Vec<u32> {
    let mut out = v.to_vec();
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..out.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.swap(i, (x % (i as u64 + 1)) as usize);
    }
    out
}

fn sampler() -> DashboardSampler {
    DashboardSampler::new(FrontierConfig {
        frontier_size: 40,
        budget: 300,
        ..FrontierConfig::default()
    })
}

/// Topology fits the budget, rows do not: however many batches are
/// sampled, induced, cut and gathered, each topology section is mapped
/// exactly once and never evicted, a walk probes each shard at most once
/// (one view per walk, never a probe per vertex read), and a gather maps
/// each row section at most once whatever its row order.
#[test]
fn resident_topology_is_mapped_once_and_a_walk_probes_each_shard_once() {
    let (dir, g, manifest) = spill("resident");
    let topology: usize = section_lens(&manifest, SectionKind::Topology).iter().sum();
    let features = section_lens(&manifest, SectionKind::Features);
    let largest_row = *features.iter().max().unwrap();
    // All topology plus one and a half feature sections: the rows
    // (six feature sections, six label sections) cannot all stay.
    let budget = topology + largest_row + largest_row / 2;
    assert!(budget < topology + features.iter().sum::<usize>() / 2);
    let store = GraphStore::Mmap(MmapStore::open(&dir, budget).unwrap());
    let stats = || store.cache_stats().unwrap();
    let probes = |s: &gsgcn_graph::StoreCacheStats| s.hits + s.misses;

    // The sampler sizes its table from a degree scan the store memoizes;
    // run it first so the counts below are the per-batch work alone. It
    // reads every vertex through one view: one cold miss per topology
    // section and nothing else.
    let d_eff = store.capped_mean_degree(u32::MAX);
    assert!((4.0..=6.0).contains(&d_eff));
    let cold = stats();
    assert_eq!(cold.misses, SHARDS as u64);
    assert_eq!(probes(&cold), SHARDS as u64);
    assert_eq!(cold.topology.resident, SHARDS);

    let s = sampler();
    let (mut x, mut y) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
    let mut scratch = FrontierScratch::new();
    let mut row_misses = 0;
    for seed in 0..8u64 {
        let before = stats();
        let (verts, run) = s.sample_with_stats(&store, seed);
        let sampled = stats();
        assert_eq!(run.isolated_redraws, 0);
        assert_eq!(verts, s.sample_with_stats(&g, seed).0, "seed {seed}");
        // The frontier init reads m degrees and every pop a neighbor and
        // a degree, all through one view: at most one probe per shard,
        // and all of them hit.
        let reads = probes(&sampled) - probes(&before);
        assert!(
            reads <= SHARDS as u64,
            "seed {seed}: {reads} probes, {run:?}"
        );
        assert_eq!(sampled.misses, before.misses, "seed {seed}");

        let sub = induced_subgraph(&store, &verts);
        assert_eq!(sub.graph, induced_subgraph(&g, &verts).graph);
        let induced = stats();
        // Both parallel passes share one view.
        let reads = probes(&induced) - probes(&sampled);
        assert!(
            reads <= SHARDS as u64,
            "seed {seed}: induction probed {reads}"
        );
        assert_eq!(
            induced.misses, before.misses,
            "induction re-mapped topology"
        );

        // A frontier cut reads its roots' neighbor lists: one probe per
        // shard among the roots it takes.
        let roots = scrambled(&verts, seed ^ 0x5eed);
        let (ball, used) = scratch.capped(&store, &roots, 200).unwrap();
        // The store groups frontier rows by shard, the resident graph does
        // not: the cut takes the same roots.
        let (want, want_used) = FrontierScratch::new().capped(&g, &roots, 200).unwrap();
        assert_eq!(used, want_used, "seed {seed}");
        assert_eq!(ball.origin[..used], want.origin[..used], "seed {seed}");
        let touched: std::collections::BTreeSet<u32> = roots[..used]
            .iter()
            .map(|&v| store.shard_of(v).unwrap())
            .collect();
        let cut = stats();
        assert_eq!(
            probes(&cut) - probes(&induced),
            touched.len() as u64,
            "seed {seed}: a cut of {used} roots"
        );
        assert_eq!(cut.misses, before.misses, "the cut re-mapped topology");
        let induced = cut;

        // Gathered in a scrambled order (as `train_ooc`'s relabelled ids
        // arrive), each call still maps each (shard, kind) section at
        // most once.
        let rows = scrambled(&sub.origin, seed);
        store.gather_features_into(&rows, &mut x).unwrap();
        store.gather_labels_into(&rows, &mut y).unwrap();
        let gathered = stats();
        assert!(
            gathered.misses - induced.misses <= 2 * SHARDS as u64,
            "seed {seed}: a gather re-mapped a section: {gathered:?}"
        );
        for (i, &v) in rows.iter().enumerate() {
            assert_eq!(x.get(i, 5), (v as usize * 31 + 5) as f32);
            assert_eq!(y.get(i, 3), (v as usize + 3) as f32);
        }
        row_misses += gathered.misses - induced.misses;
        assert!(
            gathered.mapped_bytes <= budget + largest_row,
            "{gathered:?}"
        );
    }
    let end = stats();
    assert!(
        row_misses > 2 * SHARDS as u64,
        "the rows were meant to thrash: {end:?}"
    );
    assert!(end.features.evictions > 0, "{end:?}");
    assert_eq!(end.topology.evictions, 0, "{end:?}");
    assert_eq!(end.topology.resident, SHARDS, "{end:?}");
    assert_eq!(end.misses, SHARDS as u64 + row_misses, "{end:?}");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One-byte budget: nothing may stay mapped beside the section being
/// read, yet every answer is exact, and what is mapped at any moment is
/// bounded by the budget plus the largest single section.
#[test]
fn one_byte_budget_stays_exact_and_bounded() {
    let (dir, g, manifest) = spill("one-byte");
    let largest = SectionKind::ALL
        .iter()
        .flat_map(|&k| section_lens(&manifest, k))
        .max()
        .unwrap();
    let store = GraphStore::Mmap(MmapStore::open(&dir, 1).unwrap());
    let stats = || store.cache_stats().unwrap();
    let s = sampler();
    let (mut x, mut y) = (DMatrix::zeros(0, 0), DMatrix::zeros(0, 0));
    for seed in 0..3u64 {
        let from_store = s.sample_subgraph(&store, seed);
        assert!(stats().mapped_bytes <= 1 + largest);
        let from_mem = s.sample_subgraph(&g, seed);
        assert_eq!(from_store.origin, from_mem.origin);
        assert_eq!(from_store.graph, from_mem.graph);
        store
            .gather_features_into(&from_store.origin, &mut x)
            .unwrap();
        assert!(stats().mapped_bytes <= 1 + largest);
        store
            .gather_labels_into(&from_store.origin, &mut y)
            .unwrap();
        assert!(stats().mapped_bytes <= 1 + largest);
        for (i, &v) in from_store.origin.iter().enumerate() {
            assert_eq!(x.get(i, 5), (v as usize * 31 + 5) as f32);
            assert_eq!(y.get(i, 3), (v as usize + 3) as f32);
        }
    }
    let end = stats();
    assert!(
        end.topology.evictions > 0 && end.features.evictions > 0,
        "{end:?}"
    );
    assert!(end.resident_sections <= 1, "{end:?}");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
