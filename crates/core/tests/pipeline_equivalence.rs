//! Regression pins for the pipelined sampler→trainer path: the loss
//! trajectory must be bit-identical to the synchronous reference path for
//! a fixed seed, invariant to the sampler-worker count, and shutdown must
//! be deadlock-free in every early-exit scenario.

use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::dataset::Dataset;
use gsgcn_data::presets;

fn quick_dataset() -> Dataset {
    presets::scale_spec(&presets::ppi_spec(), 600).generate(11)
}

fn quick_cfg(sampler_threads: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 3;
    cfg.sampler_threads = sampler_threads;
    cfg
}

/// Per-epoch mean losses (bit patterns) plus final validation F1.
fn trajectory(d: &Dataset, sampler_threads: usize) -> (Vec<u32>, f64) {
    let mut t = GsGcnTrainer::new(d, quick_cfg(sampler_threads)).unwrap();
    let report = t.train().unwrap();
    let losses = report
        .epochs
        .iter()
        .map(|e| e.mean_loss.to_bits())
        .collect();
    (losses, report.final_val_f1)
}

#[test]
fn pipelined_loss_trajectory_bit_identical_to_synchronous() {
    let d = quick_dataset();
    let reference = trajectory(&d, 0);
    for workers in [1usize, 2, 4] {
        let got = trajectory(&d, workers);
        assert_eq!(
            got, reference,
            "{workers} sampler workers diverged from the synchronous path"
        );
    }
}

#[test]
fn pipelined_path_accounts_hidden_sampling() {
    let d = quick_dataset();
    let mut t = GsGcnTrainer::new(&d, quick_cfg(2)).unwrap();
    t.train_epoch().unwrap();
    t.train_epoch().unwrap();
    let b = t.breakdown();
    // Workers sample continuously: some sampler wall-clock must exist,
    // split between consumer stall and compute-hidden time.
    let pipe = t.sampler_pipeline();
    assert_eq!(pipe.workers(), 2);
    assert!(pipe.producer_sampling_secs() > 0.0);
    assert!(b.sampling_wall_secs() > 0.0);
    assert!(b.sampling_hidden_secs >= 0.0);
    let f = b.sampling_overlap_fraction();
    assert!((0.0..=1.0).contains(&f), "overlap fraction {f}");
}

#[test]
fn drop_mid_training_joins_workers_without_deadlock() {
    let d = quick_dataset();
    // Drop at several pipeline states: untouched (queue full of
    // presampled subgraphs), mid-epoch, and after a full epoch.
    {
        let _t = GsGcnTrainer::new(&d, quick_cfg(2)).unwrap();
        // Give workers time to fill the queue and park on backpressure.
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    {
        let mut t = GsGcnTrainer::new(&d, quick_cfg(3)).unwrap();
        t.train_epoch().unwrap();
    } // drop with in-flight presampling joins cleanly or the test hangs
}

#[test]
fn early_stopping_shuts_pipeline_down() {
    let d = quick_dataset();
    let mut cfg = quick_cfg(2);
    cfg.epochs = 100;
    cfg.eval_every = 1;
    cfg.patience = Some(2);
    cfg.adam.lr = 0.0; // frozen weights → F1 never improves after eval 1
    let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
    let report = t.train().unwrap();
    assert!(
        report.epochs.len() <= 4,
        "early stop ran {} epochs",
        report.epochs.len()
    );
    drop(t); // join the still-running workers
}

#[test]
fn pipelined_training_learns() {
    let d = quick_dataset();
    let mut cfg = quick_cfg(2);
    cfg.epochs = 40;
    cfg.sampler.budget = 150;
    cfg.sampler.frontier_size = 30;
    let mut t = GsGcnTrainer::new(&d, cfg).unwrap();
    let report = t.train().unwrap();
    assert!(report.final_val_f1 > 0.3, "F1 {}", report.final_val_f1);
    let first = report.epochs.first().unwrap().mean_loss;
    let last = report.epochs.last().unwrap().mean_loss;
    assert!(last < first, "loss {first} → {last}");
}
