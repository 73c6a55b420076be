//! Figure 3 — scaling of overall training iteration, feature propagation
//! and weight application with core count, plus the execution-time
//! breakdown, for hidden dimensions 512 and 1024.
//!
//! For each dataset × hidden size × core count we train a fixed number of
//! iterations and read the trainer's per-phase breakdown; speedups are
//! relative to the 1-core run of the same configuration.

use gsgcn_bench::{core_sweep, full_mode, header, seed, time, with_threads};
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::Dataset;
use gsgcn_metrics::timing::Breakdown;
use gsgcn_nn::adam::AdamHyper;
use gsgcn_prop::propagator::FeaturePropagator;
use gsgcn_tensor::DMatrix;

/// One measured configuration.
struct Meas {
    cores: usize,
    total: f64,
    breakdown: Breakdown,
}

fn measure(d: &Dataset, hidden: usize, cores: usize, epochs: usize) -> Meas {
    let mut cfg = TrainerConfig {
        hidden_dims: vec![hidden, hidden],
        adam: AdamHyper {
            lr: 1e-2,
            ..AdamHyper::default()
        },
        epochs,
        eval_every: 0,
        threads: cores,
        p_inter: cores,
        // Unfused: Fig. 3 splits time into feature propagation vs weight
        // application, and only the unfused path books the neighbor-half
        // GEMM under weight application (see `KernelTimings` — fused mode
        // folds it into the propagation bucket, skewing this breakdown).
        fused: false,
        ..TrainerConfig::default()
    };
    cfg.sampler.frontier_size = 200;
    cfg.sampler.budget = 2000;
    cfg.seed = seed();
    let mut t = GsGcnTrainer::new(d, cfg).expect("trainer");
    for _ in 0..epochs {
        t.train_epoch().expect("epoch");
    }
    Meas {
        cores,
        total: t.train_secs(),
        breakdown: *t.breakdown(),
    }
}

/// Standalone feature-propagation scaling (paper Fig. 3B): forward +
/// backward mean aggregation with an `f`-wide feature matrix, min of
/// `reps`, per core count. Measured on the dataset's *full* graph — the
/// scaled training subgraphs finish in microseconds, where fork-join
/// overhead would hide the kernel's real scaling.
fn feature_prop_scaling(d: &Dataset, f: usize, cores: &[usize], reps: usize) -> Vec<f64> {
    let g = &d.graph;
    let n = g.num_vertices();
    let h = DMatrix::from_fn(n, f, |i, j| ((i * 31 + j * 7) % 13) as f32 * 0.2 - 1.0);
    let prop = FeaturePropagator::default();
    cores
        .iter()
        .map(|&c| {
            with_threads(c, || {
                // Warm-up.
                let y = prop.forward(g, &h);
                let _ = prop.backward(g, &y);
                let mut best = f64::INFINITY;
                for _ in 0..reps {
                    let (_, secs) = time(|| {
                        let y = prop.forward(g, &h);
                        std::hint::black_box(prop.backward(g, &y));
                    });
                    best = best.min(secs);
                }
                best
            })
        })
        .collect()
}

fn main() {
    let (epochs, hiddens): (usize, Vec<usize>) = if full_mode() {
        (6, vec![512, 1024])
    } else {
        (3, vec![512])
    };
    let datasets: Vec<Dataset> = if full_mode() {
        gsgcn_data::presets::all_scaled(seed())
    } else {
        vec![
            gsgcn_data::presets::ppi_scaled(seed()),
            gsgcn_data::presets::reddit_scaled(seed() + 1),
        ]
    };
    let cores = core_sweep();

    for hidden in &hiddens {
        header(&format!("Fig. 3 (hidden dimension = {hidden})"));
        for d in &datasets {
            println!("--- dataset {} ---", d.name);
            let runs: Vec<Meas> = cores
                .iter()
                .map(|&c| measure(d, *hidden, c, epochs))
                .collect();
            // Panel B: standalone feature-propagation scaling (the phase
            // is <1% of in-training time at these sizes, so the in-loop
            // numbers would be timer noise).
            let fp = feature_prop_scaling(d, *hidden, &cores, 5);
            let base = &runs[0];
            println!(
                "{:>6} {:>12} {:>12} {:>12}  breakdown (samp/feat/weight/other %)",
                "cores", "iter_spdup", "feat_spdup", "weight_spdup"
            );
            for (i, r) in runs.iter().enumerate() {
                let b = &r.breakdown;
                let s = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
                println!(
                    "{:>6} {:>11.2}x {:>11.2}x {:>11.2}x  {:>4.1}/{:>4.1}/{:>4.1}/{:>4.1}",
                    r.cores,
                    s(base.total, r.total),
                    s(fp[0], fp[i]),
                    s(base.breakdown.weight_app_secs, b.weight_app_secs),
                    100.0 * b.fraction(gsgcn_metrics::timing::Phase::Sampling),
                    100.0 * b.fraction(gsgcn_metrics::timing::Phase::FeatureProp),
                    100.0 * b.fraction(gsgcn_metrics::timing::Phase::WeightApp),
                    100.0 * b.fraction(gsgcn_metrics::timing::Phase::Other),
                );
            }
        }
    }
    println!(
        "\nExpected shape (paper, 40 cores): ~20x iteration, ~25x feature propagation, ~16x weight application;"
    );
    println!("sampling a small fraction of total time; weight application the scaling bottleneck.");
}
