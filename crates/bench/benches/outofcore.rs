//! Out-of-core store benchmark (`BENCH_outofcore.json` in CI): the same
//! yelp-shaped dataset driven through a matrix of store configurations.
//!
//! Three variants run, each against its own spill of the same graph:
//!
//! * `mmap_natural` — mmap backend, natural shard order (BFS-grown
//!   parts, members in id order). The out-of-core baseline every PR
//!   before the locality work shipped.
//! * `mmap_bfs` — mmap backend, BFS shard order. The tuned out-of-core
//!   path.
//! * `mem` — fully materialized store (order is irrelevant once
//!   resident). The in-memory floor both gaps are measured against.
//!
//! Per variant the benchmark measures every access path the trainer and
//! server exercise:
//!
//! * `outofcore/open_V` — `StoreDataset::open_with` cost. The mem
//!   backend pays full materialization up front; mmap only maps headers.
//! * `outofcore/gather_V` — scattered 4096-row feature gathers, the
//!   trainer's per-iteration hot path. Rows are multiplicatively
//!   scrambled so consecutive rows land in unrelated shards; under the
//!   deliberately undersized cache (`CACHE_BUDGET` ≪ store size) a
//!   gather still maps each shard's feature section once (the gather
//!   visits its rows shard by shard).
//! * `outofcore/ball2_V` — 2-hop ball expansion of 64 scattered roots
//!   through the `Topology` trait (adjacency-only traffic).
//! * `outofcore/train_epoch_V` — one full `GsGcnTrainer` epoch from the
//!   sharded store (pipelined sampler).
//!
//! After the matrix, `outofcore/gather_gap_V` and `outofcore/epoch_gap_V`
//! record each mmap variant's out-of-core *penalty* (mmap minus mem
//! median) and the tuned records carry `*_gap_improvement` tags — the
//! headline "close the out-of-core gap" numbers.
//!
//! Records are tagged `backend=`, `order=`, `cache=` (the mapped-bytes
//! budget), `shards=`; mmap train records additionally carry the
//! **training store's** shard-cache hit/miss/eviction counts, how many
//! sections of each kind the budget left mapped at the end of the epochs
//! (`resident_topology` / `resident_features` / `resident_labels`, out of
//! `shards`) and `topology_evictions`; each variant carries `peak_rss`
//! (`VmHWM`). The mmap variants run FIRST so
//! their reported peak RSS is a true bound on the out-of-core working
//! set — VmHWM is monotone, so once the mem backend materializes the
//! store the watermark stops being attributable.

use criterion::{criterion_group, criterion_main, Criterion};
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::presets;
use gsgcn_data::store_dataset::StoreDataset;
use gsgcn_graph::{l_hop_ball, GraphStore, StoreBackend, StoreOrder, Topology};
use gsgcn_metrics::mem::{format_bytes, peak_rss_bytes};
use gsgcn_sampler::dashboard::FrontierConfig;
use std::path::PathBuf;
use std::time::Instant;

/// Yelp-shaped fixture: big enough that the shard cache genuinely
/// cannot hold the store, small enough to spill in CI seconds.
const GRAPH_VERTICES: usize = 30_000;
const NUM_SHARDS: usize = 12;
/// Shard-cache budget for the mmap backend — roughly a quarter of the
/// on-disk store, so gathers and balls must evict to make progress.
const CACHE_BUDGET: usize = 24 << 20;
const GATHER_ROWS: usize = 4096;
const SAMPLES: usize = 30;

/// One cell of the benchmark matrix.
struct Variant {
    backend: StoreBackend,
    order: StoreOrder,
    label: &'static str,
}

/// Medians the gap summary needs from each variant.
struct Medians {
    gather: f64,
    epoch: f64,
}

fn shard_dir(order: StoreOrder) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gsgcn-bench-outofcore-{}-{}",
        std::process::id(),
        order.name()
    ))
}

/// Deterministic id scramble (LCG Fisher–Yates). The synthetic generator
/// lays communities out as contiguous id blocks, which would hand the
/// natural order the very locality the BFS order has to *recover*; real
/// inputs number vertices by crawl order or hash, so the fixture
/// relabels to match.
fn scramble_perm(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (s >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Spill the fixture once per order; later opens reuse it.
fn ensure_spilled(order: StoreOrder) -> PathBuf {
    let dir = shard_dir(order);
    if !dir.join("dataset.gss").exists() {
        let d = presets::scale_spec(&presets::yelp_spec(), GRAPH_VERTICES)
            .generate(3)
            .relabeled(&scramble_perm(GRAPH_VERTICES, 0xC0FFEE));
        d.spill_to_dir_ordered(&dir, NUM_SHARDS, order)
            .expect("spill fixture");
    }
    dir
}

/// Genuinely scattered rows: a multiplicative scramble, so consecutive
/// rows land in unrelated shards. (A strided walk would visit shards in
/// ascending order and hand the unoptimized path free locality.)
fn scattered_rows(iter: usize, count: usize, n: usize) -> Vec<u32> {
    (0..count)
        .map(|k| {
            let x = (k as u64)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(iter as u64 * 7_919);
            (x % n as u64) as u32
        })
        .collect()
}

fn variant_tags(v: &Variant, extra: &[(&str, String)]) -> Vec<(String, String)> {
    let mut tags = vec![
        (
            "backend".to_string(),
            format!("{:?}", v.backend).to_lowercase(),
        ),
        ("order".to_string(), v.order.name().to_string()),
        ("cache".to_string(), format_bytes(CACHE_BUDGET)),
        ("shards".to_string(), NUM_SHARDS.to_string()),
    ];
    for (k, val) in extra {
        tags.push((k.to_string(), val.clone()));
    }
    tags
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn bench_variant(v: &Variant) -> Medians {
    let dir = ensure_spilled(v.order);
    let label = v.label;

    // Open / materialization cost.
    let open_lat: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let sd = StoreDataset::open_with(&dir, v.backend, CACHE_BUDGET).expect("open store");
            std::hint::black_box(sd.num_vertices());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    criterion::set_json_tags(variant_tags(v, &[]));
    criterion::record_latency_distribution(&format!("outofcore/open_{label}"), &open_lat, None);

    let sd = StoreDataset::open_with(&dir, v.backend, CACHE_BUDGET).expect("open store");
    let full: &GraphStore = &sd.full;
    let n = full.num_vertices();
    let fdim = full.feature_dim();

    // Scattered feature gathers — the trainer's per-iteration hot path.
    let mut buf = gsgcn_tensor::DMatrix::zeros(GATHER_ROWS, fdim);
    let gather_lat: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let rows = scattered_rows(i, GATHER_ROWS, n);
            let t0 = Instant::now();
            full.gather_features_into(&rows, &mut buf).expect("gather");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let gather_median = median(&gather_lat);
    criterion::record_latency_distribution(
        &format!("outofcore/gather_{label}"),
        &gather_lat,
        Some(GATHER_ROWS as f64 / gather_median),
    );

    // Adjacency traffic: 2-hop balls of scattered roots via `Topology`.
    let g: &dyn Topology = full;
    let ball_lat: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let roots = scattered_rows(7 * i + 1, 64, n);
            let t0 = Instant::now();
            std::hint::black_box(l_hop_ball(g, &roots, 2).len());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    criterion::record_latency_distribution(&format!("outofcore/ball2_{label}"), &ball_lat, None);

    // One full training epoch from the sharded store. A single sampler
    // worker keeps the pipeline on the measured path for every variant.
    let cfg = TrainerConfig {
        sampler: FrontierConfig {
            frontier_size: 200,
            budget: 2000,
            ..FrontierConfig::default()
        },
        hidden_dims: vec![128],
        epochs: 1,
        eval_every: 0,
        seed: 5,
        sampler_threads: 1,
        ..TrainerConfig::default()
    };
    let mut trainer = GsGcnTrainer::from_store(&sd, cfg).expect("trainer");
    trainer.train_epoch().expect("warm-up epoch");
    let epoch_lat: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            trainer.train_epoch().expect("epoch");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    // The epochs read the training store; `full` served the gathers and
    // balls above.
    let train_stats = sd.train.cache_stats();
    let mut extra = Vec::new();
    if let Some(stats) = &train_stats {
        extra.push(("cache_hits", stats.hits.to_string()));
        extra.push(("cache_misses", stats.misses.to_string()));
        extra.push(("cache_evictions", stats.evictions.to_string()));
        extra.push(("resident_topology", stats.topology.resident.to_string()));
        extra.push(("resident_features", stats.features.resident.to_string()));
        extra.push(("resident_labels", stats.labels.resident.to_string()));
        extra.push(("topology_evictions", stats.topology.evictions.to_string()));
    }
    if let Some(rss) = peak_rss_bytes() {
        extra.push(("peak_rss", format_bytes(rss)));
    }
    criterion::set_json_tags(variant_tags(v, &extra));
    criterion::record_latency_distribution(
        &format!("outofcore/train_epoch_{label}"),
        &epoch_lat,
        None,
    );
    if let Some(stats) = &train_stats {
        println!("  {label}: train-store shard cache {}", stats.summary());
    }
    if let Some(rss) = peak_rss_bytes() {
        println!("  {label}: peak RSS so far {}", format_bytes(rss));
    }
    Medians {
        gather: gather_median,
        epoch: median(&epoch_lat),
    }
}

fn bench_outofcore(c: &mut Criterion) {
    let _ = c;
    gsgcn_bench::announce_kernel_tier();
    let baseline = Variant {
        backend: StoreBackend::Mmap,
        order: StoreOrder::Natural,
        label: "mmap_natural",
    };
    let tuned = Variant {
        backend: StoreBackend::Mmap,
        order: StoreOrder::Bfs,
        label: "mmap_bfs",
    };
    let resident = Variant {
        backend: StoreBackend::Mem,
        order: StoreOrder::Natural,
        label: "mem",
    };
    // mmap variants FIRST: VmHWM is monotone, so the out-of-core phases
    // must set their watermarks before the mem backend materializes
    // everything.
    let base = bench_variant(&baseline);
    let tuned_m = bench_variant(&tuned);
    let mem = bench_variant(&resident);

    // The headline numbers: each mmap variant's out-of-core penalty over
    // the in-memory floor, and how much the tuned variant shrinks it.
    let gather_gap = (base.gather - mem.gather).max(0.0);
    let gather_gap_tuned = (tuned_m.gather - mem.gather).max(0.0);
    let epoch_gap = (base.epoch - mem.epoch).max(0.0);
    let epoch_gap_tuned = (tuned_m.epoch - mem.epoch).max(0.0);
    let gather_improvement = gather_gap / gather_gap_tuned.max(1e-12);
    let epoch_improvement = epoch_gap / epoch_gap_tuned.max(1e-12);
    criterion::set_json_tags(variant_tags(&baseline, &[]));
    criterion::record_latency_distribution(
        "outofcore/gather_gap_mmap_natural",
        &[gather_gap],
        None,
    );
    criterion::record_latency_distribution("outofcore/epoch_gap_mmap_natural", &[epoch_gap], None);
    criterion::set_json_tags(variant_tags(
        &tuned,
        &[
            (
                "gather_gap_improvement",
                format!("{gather_improvement:.2}x"),
            ),
            ("epoch_gap_improvement", format!("{epoch_improvement:.2}x")),
        ],
    ));
    criterion::record_latency_distribution(
        "outofcore/gather_gap_mmap_bfs",
        &[gather_gap_tuned],
        None,
    );
    criterion::record_latency_distribution(
        "outofcore/epoch_gap_mmap_bfs",
        &[epoch_gap_tuned],
        None,
    );
    println!(
        "  gather gap: natural {:.3}ms vs bfs {:.3}ms ({gather_improvement:.2}x smaller)",
        gather_gap * 1e3,
        gather_gap_tuned * 1e3,
    );
    println!(
        "  epoch gap: natural {:.3}ms vs bfs {:.3}ms ({epoch_improvement:.2}x smaller)",
        epoch_gap * 1e3,
        epoch_gap_tuned * 1e3,
    );

    criterion::set_json_tags([] as [(&str, &str); 0]);
    std::fs::remove_dir_all(shard_dir(StoreOrder::Natural)).ok();
    std::fs::remove_dir_all(shard_dir(StoreOrder::Bfs)).ok();
}

criterion_group!(benches, bench_outofcore);
criterion_main!(benches);
