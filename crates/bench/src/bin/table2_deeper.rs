//! Table II — training-time speedup of the graph-sampling GCN over the
//! parallelized GraphSAGE-style baseline on the Reddit-shaped dataset,
//! for 1/2/3-layer models across core counts.
//!
//! Both systems train the same number of epochs (full traversals of the
//! training vertices); the ratio of wall-clock epoch times is the
//! speedup. The paper's 1306× at 3 layers folds in Python/Tensorflow
//! overhead; with both sides in Rust the measured ratio isolates the
//! algorithmic neighbor-explosion factor (`∝ d_LS^(L-1)` work per
//! vertex), so expect large-but-smaller numbers with the same growth
//! pattern: speedup increases with depth and with cores.

use gsgcn_baselines::sage::{SageConfig, SageTrainer};
use gsgcn_bench::{core_sweep, full_mode, header, seed, time, with_threads};
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::Dataset;
use gsgcn_metrics::timing::format_speedup_table;
use gsgcn_nn::adam::AdamHyper;

fn proposed_epoch_secs(d: &Dataset, layers: usize, cores: usize, epochs: usize) -> f64 {
    let mut cfg = TrainerConfig {
        hidden_dims: vec![128; layers],
        adam: AdamHyper::default(),
        epochs,
        eval_every: 0,
        threads: cores,
        p_inter: cores,
        ..TrainerConfig::default()
    };
    cfg.sampler.frontier_size = 150;
    cfg.sampler.budget = 1500;
    cfg.seed = seed();
    let mut t = GsGcnTrainer::new(d, cfg).expect("trainer");
    for _ in 0..epochs {
        t.train_epoch().expect("epoch");
    }
    t.train_secs() / epochs as f64
}

fn sage_epoch_secs(d: &Dataset, layers: usize, cores: usize, epochs: usize) -> f64 {
    let cfg = SageConfig {
        fanout: 10,
        batch_size: 512,
        hidden_dims: vec![128; layers],
        adam: AdamHyper::default(),
        seed: seed(),
    };
    with_threads(cores, || {
        let mut t = SageTrainer::new(d, cfg).expect("sage trainer");
        let (_, secs) = time(|| {
            for _ in 0..epochs {
                t.train_epoch();
            }
        });
        secs / epochs as f64
    })
}

fn main() {
    let d = gsgcn_data::presets::reddit_scaled(seed() + 1);
    let cores = core_sweep();
    let max_layers = 3;
    let epochs = if full_mode() { 3 } else { 1 };

    header("Table II: speedup vs parallelized GraphSAGE-style baseline (Reddit-shaped)");
    let mut rows = Vec::new();
    for layers in 1..=max_layers {
        let mut row = Vec::new();
        for &c in &cores {
            let ours = proposed_epoch_secs(&d, layers, c, epochs);
            let theirs = sage_epoch_secs(&d, layers, c, epochs);
            row.push(theirs / ours);
        }
        rows.push((format!("{layers}-layer"), row));
    }
    println!("{}", format_speedup_table("layers\\cores", &cores, &rows));

    // Show how far the neighbor explosion actually reaches at this graph
    // scale (it saturates at |V_train|, compressing the depth ratios
    // relative to the paper's 233k-vertex Reddit).
    let mut probe = SageTrainer::new(
        &d,
        SageConfig {
            fanout: 10,
            batch_size: 512,
            hidden_dims: vec![128; max_layers],
            adam: AdamHyper::default(),
            seed: seed(),
        },
    )
    .expect("probe trainer");
    probe.train_batch(&(0..512u32).collect::<Vec<_>>());
    println!(
        "layer-sampler node counts for one 512-vertex batch (3-layer): {:?} of {} train vertices",
        probe.last_layer_sizes(),
        d.split.train.len()
    );

    println!("\npaper reference (40-core Xeon, vs Tensorflow implementation):");
    println!("  1-layer: 2.03x → 23.93x | 2-layer: 7.74x → 37.44x | 3-layer: 335x → 1306x");
    println!("expected shape here: speedup grows with depth. The paper's growth with");
    println!("cores and its 1306x include the Tensorflow baseline's overhead and poor");
    println!("scaling; with both systems on the same Rust substrate the ratio isolates");
    println!("the algorithmic work difference, compressed further by explosion");
    println!("saturation at |V_train| on scaled graphs (see EXPERIMENTS.md).");
}
