//! Criterion end-to-end benchmark of one training iteration (sample →
//! gather → forward → backward → Adam) — the unit whose scaling Fig. 3
//! reports — plus the subgraph-extraction step alone and whole-epoch
//! variants comparing the sampler pipeline without workers (inline
//! sampling) against it with two (`BENCH_training.json` in CI).

use criterion::{criterion_group, criterion_main, Criterion};
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::presets;
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_sampler::dashboard::{DashboardSampler, FrontierConfig};
use gsgcn_sampler::GraphSampler;
use std::hint::black_box;

fn bench_training_iteration(c: &mut Criterion) {
    gsgcn_bench::announce_kernel_tier();
    let d = presets::ppi_scaled(3);
    let tv = d.train_view();
    let sampler = DashboardSampler::new(FrontierConfig {
        frontier_size: 100,
        budget: 800,
        ..FrontierConfig::default()
    });

    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    group.bench_function("sample_subgraph", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(sampler.sample_subgraph(&*tv.graph, seed))
        });
    });

    group.bench_function("train_iteration_2layer_h128", |b| {
        let cfg = GcnConfig {
            in_dim: d.feature_dim(),
            hidden_dims: vec![128, 128],
            num_classes: d.num_classes(),
            loss: LossKind::SigmoidBce,
            ..GcnConfig::default()
        };
        let mut model = GcnModel::new(cfg, 5);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let sub = sampler.sample_subgraph(&*tv.graph, seed);
            let x = tv.features.gather_rows(&sub.origin);
            let y = tv.labels.gather_rows(&sub.origin);
            black_box(model.train_step(&sub.graph, &x, &y))
        });
    });

    group.finish();
}

/// Whole-epoch wall-clock: the sampler pipeline without workers (inline
/// sampling) vs with dedicated worker threads, on a sampling-heavy
/// configuration (dense reddit-shaped graph, frontier sampler, modest
/// hidden dims so sampling is a large fraction of the iteration).
///
/// The two consume the identical subgraph stream, so any epoch-time
/// difference is pure overlap (or, on a single core, pipeline overhead).
/// Each JSON record is tagged `sampler=synchronous|pipelined_<N>w`.
fn bench_epoch_sync_vs_pipelined(c: &mut Criterion) {
    gsgcn_bench::announce_kernel_tier();
    let kernel = gsgcn_tensor::gemm::selected_tier().name();
    let d = presets::reddit_scaled(3);

    let cfg_for = |sampler_threads: usize| {
        let mut cfg = TrainerConfig::default();
        cfg.sampler.frontier_size = 256;
        cfg.sampler.budget = 512;
        cfg.hidden_dims = vec![32, 32];
        cfg.epochs = 1;
        cfg.eval_every = 0;
        cfg.p_inter = 4;
        cfg.seed = 7;
        cfg.sampler_threads = sampler_threads;
        cfg
    };

    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    for (name, sampler_threads) in [("epoch_synchronous", 0usize), ("epoch_pipelined_2w", 2)] {
        criterion::set_json_tags([
            ("kernel", kernel.to_string()),
            (
                "sampler",
                if sampler_threads == 0 {
                    "synchronous".to_string()
                } else {
                    format!("pipelined_{sampler_threads}w")
                },
            ),
        ]);
        let mut trainer = GsGcnTrainer::new(&d, cfg_for(sampler_threads)).expect("trainer");
        group.bench_function(name, |b| {
            b.iter(|| black_box(trainer.train_epoch().expect("epoch")))
        });
        let bd = trainer.breakdown();
        println!(
            "  {name}: cumulative sampling stalled {:.1} ms, hidden {:.1} ms (overlap {:.0}%)",
            1e3 * bd.sampling_secs,
            1e3 * bd.sampling_hidden_secs,
            100.0 * bd.sampling_overlap_fraction(),
        );
    }
    criterion::set_json_tags([("kernel", kernel.to_string())]);

    group.finish();
}

criterion_group!(
    benches,
    bench_training_iteration,
    bench_epoch_sync_vs_pipelined
);
criterion_main!(benches);
