//! The paper's experiments, as `gsgcn reproduce <name>` runs them.
//!
//! | Name | Paper artifact | What runs |
//! |---|---|---|
//! | `table1` | Table I | target statistics of the four datasets, and the realised statistics of the scaled presets |
//! | `fig2` | Fig. 2, Sec. VI-B | F1-micro against sequential training time, proposed vs GraphSAGE-style vs full-batch GCN, and the speedup to the baselines' best accuracy |
//! | `fig3` | Fig. 3 | iteration, feature-propagation and weight-application speedup over a core sweep, with the per-phase breakdown |
//! | `fig4` | Fig. 4, Theorem 1 | sampling speedup against `p_inter`, lane-batched against scalar probing, and the Theorem 1 cost model |
//! | `table2` | Table II | per-epoch speedup over the parallel GraphSAGE-style baseline, by depth and cores |
//! | `a1` | Sec. IV-A | the Dashboard frontier sampler against the naive `O(m)`-per-pop one |
//! | `a2` | Sec. V, Theorem 2 | the propagation kernels (row-parallel, Alg. 6 feature-partitioned, 2-D) and the Theorem 2 cost model |
//! | `a3` | Sec. III-C | subgraph statistics and final validation F1 under five samplers |
//!
//! `all` runs the eight in this order. Every experiment runs on the scaled
//! synthetic presets (`gsgcn_data::presets`): shape-matched stand-ins of a
//! few thousand vertices, since the real datasets are not available, so
//! absolute F1 and absolute speedups are out of scope and the output says
//! which *shape* the paper predicts. Options:
//!
//! * `--full` runs heavier configurations, closer to paper scale: more
//!   epochs and repetitions, wider layers, all four datasets where the
//!   quick run takes two, and `table1` also generates and checks the
//!   full-scale PPI graph.
//! * `--seed N` is the master seed (default 42). Dataset `i` of Table I's
//!   order is generated with seed `N + i`.
//! * `--max-cores N` caps the core sweep of `fig3`, `fig4`, `table2` and
//!   `a2` (default: every core). The sweep is 1, the powers of two below
//!   the cap, and the cap.
//!
//! Lines made of counts, statistics, cost-model values and F1 are
//! deterministic for a seed; seconds, speedups and phase shares come from
//! the clock.
//!
//! # What the scaled data can and cannot show
//!
//! * **Fig. 2.** The paper's strict threshold is the baselines' best F1
//!   less 0.0025. At a few thousand vertices a 1000-vertex subgraph covers
//!   a large share of the training graph, so the subgraph/full-graph gap
//!   the paper exploits is small, all three systems end within ≈ 0.03 F1
//!   of each other, and the proposed curve need not cross the strict
//!   threshold at all (`n/a`; at seed 42 on none of the four datasets).
//!   The relaxed column (97 % of the baselines' best) shows the ordering
//!   the paper reports.
//! * **Fig. 4B.** The paper gains ≈ 4× from AVX2 intrinsics in the probe
//!   loop. Here the scalar probe loop is auto-vectorised by LLVM already,
//!   so the lane-batched gain that is left is small. The RNG
//!   microbenchmark below it isolates the part that vectorises.
//! * **Table II.** The paper's 1306× at three layers includes the
//!   TensorFlow baseline's overhead and its poor scaling with cores. With
//!   both systems in Rust, the ratio isolates the algorithmic work
//!   difference (`∝ d_LS^(L−1)` per vertex), and the neighbor explosion
//!   saturates at `|V_train|` on a scaled graph: the printed layer sizes
//!   show the 3-layer sampler touching every training vertex. Expect the
//!   ratio to grow with depth, by less than the paper's.
//! * **A2.** Alg. 6 pays off when the source matrix misses a small
//!   (256 KiB) fast memory. On a modern core the hardware prefetcher makes
//!   the row-parallel kernel's sequential full-row reads more
//!   bandwidth-efficient than any column-block schedule, so no crossover
//!   appears even at 125 MB of features, and `PropMode::Auto` keeps the
//!   row-parallel kernel. The Theorem 2 ratio is computed from the cost
//!   model, not measured.
//! * **A3.** At 30 epochs every sampler learns (val F1 ≈ 0.50–0.54 at
//!   seed 42), but the expected ordering does not hold on the scaled PPI:
//!   frontier 0.499 against uniform-node 0.537. The closing line says
//!   which way it went.

use crate::baselines::fullbatch::{FullBatchConfig, FullBatchTrainer};
use crate::baselines::sage::{SageConfig, SageTrainer};
use crate::core::trainer::EvalSplit;
use crate::core::{GsGcnTrainer, TrainerConfig};
use crate::data::dataset::TaskKind;
use crate::data::generators::{community_powerlaw, CommunityGraphSpec};
use crate::data::{presets, Dataset};
use crate::graph::partition::{bfs_partition, range_partition};
use crate::graph::{stats, CsrGraph};
use crate::metrics::convergence::{speedup_at, threshold_speedup, Curve};
use crate::metrics::f1;
use crate::metrics::timing::{format_speedup_table, Breakdown, Phase};
use crate::nn::adam::AdamHyper;
use crate::nn::model::{GcnConfig, GcnModel, LossKind};
use crate::prop::cost_model::PropCostModel;
use crate::prop::kernels;
use crate::prop::propagator::FeaturePropagator;
use crate::sampler::alt::{
    ForestFireSampler, RandomWalkSampler, UniformEdgeSampler, UniformNodeSampler,
};
use crate::sampler::cost_model::SamplerCostModel;
use crate::sampler::dashboard::{DashboardSampler, FrontierConfig, ProbeMode};
use crate::sampler::naive::NaiveFrontierSampler;
use crate::sampler::pool::{instance_seed, sample_many};
use crate::sampler::rng::{LaneRng, Xorshift128Plus, LANES};
use crate::sampler::GraphSampler;
use crate::tensor::DMatrix;
use rayon::prelude::*;
use std::time::Instant;

/// How the experiments run (`gsgcn reproduce`'s flags).
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Heavier configurations, closer to paper scale (`--full`).
    pub full: bool,
    /// Master seed (`--seed`, default 42).
    pub seed: u64,
    /// Cap on the core sweep (`--max-cores`); `None` sweeps every core.
    pub max_cores: Option<usize>,
}

/// An experiment: it prints its tables to stdout.
type Experiment = fn(&Options);

/// The experiments by name, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("table1", table1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("table2", table2),
    ("a1", a1),
    ("a2", a2),
    ("a3", a3),
];

/// Run the experiment `name`, or all of them for `"all"`. An unknown name
/// is an error that lists the known ones.
pub fn run(name: &str, o: &Options) -> Result<(), String> {
    let mut chosen = EXPERIMENTS
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .peekable();
    if chosen.peek().is_none() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown experiment {name:?} (one of {} all)",
            names.join(" ")
        ));
    }
    chosen.for_each(|(_, f)| f(o));
    Ok(())
}

/// Table I's four datasets, scaled, in its order.
const SCALED: [fn(u64) -> Dataset; 4] = [
    presets::ppi_scaled,
    presets::reddit_scaled,
    presets::yelp_scaled,
    presets::amazon_scaled,
];

/// Table I's dataset `i`, scaled, generated with seed `seed + i`.
fn scaled(o: &Options, i: usize) -> Dataset {
    SCALED[i](o.seed.wrapping_add(i as u64))
}

/// The datasets `quick` names, or all four with `--full`.
fn datasets(o: &Options, quick: &[usize]) -> Vec<Dataset> {
    let which = if o.full { &[0, 1, 2, 3][..] } else { quick };
    which.iter().map(|&i| scaled(o, i)).collect()
}

fn adam(lr: f32) -> AdamHyper {
    AdamHyper {
        lr,
        ..AdamHyper::default()
    }
}

/// The proposed trainer as the experiments configure it: Adam at `lr`, a
/// frontier of `frontier` vertices in a budget of ten times that, and
/// `threads` compute threads, each sampling one subgraph per refill.
fn proposed_config(
    o: &Options,
    hidden_dims: Vec<usize>,
    lr: f32,
    frontier: usize,
    threads: usize,
    epochs: usize,
) -> TrainerConfig {
    let mut cfg = TrainerConfig {
        hidden_dims,
        adam: adam(lr),
        epochs,
        eval_every: 0,
        threads,
        p_inter: threads,
        seed: o.seed,
        ..TrainerConfig::default()
    };
    cfg.sampler.frontier_size = frontier;
    cfg.sampler.budget = 10 * frontier;
    cfg
}

/// A trainer for `cfg` after `cfg.epochs` epochs.
fn train_proposed(d: &Dataset, cfg: TrainerConfig) -> GsGcnTrainer<'_> {
    let epochs = cfg.epochs;
    let mut t = GsGcnTrainer::new(d, cfg).expect("trainer");
    for _ in 0..epochs {
        t.train_epoch().expect("epoch");
    }
    t
}

/// The GraphSAGE-style baseline: fanout 10, batches of 512.
fn sage_config(o: &Options, hidden_dims: Vec<usize>, lr: f32) -> SageConfig {
    SageConfig {
        fanout: 10,
        batch_size: 512,
        hidden_dims,
        adam: adam(lr),
        seed: o.seed,
    }
}

/// Wall-clock a closure, returning `(result, seconds)`.
pub(crate) fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The fewest seconds of `reps` runs of `f(rep)` in a pool of `threads`,
/// after one warm-up run.
fn min_secs(threads: usize, reps: usize, mut f: impl FnMut(u64) + Send) -> f64 {
    with_threads(threads, || {
        f(0);
        (0..reps as u64)
            .map(|r| time(|| f(r)).1)
            .fold(f64::INFINITY, f64::min)
    })
}

/// The speedup of `threads` workers over one on `f(rep)`: the median over
/// `reps` pairs of a serial and a `threads`-wide run of the same rep,
/// alternating which goes first, after one warm-up run of each. A burst
/// of load on a shared box then lands on both runs of a pair instead of on
/// one column's base.
fn paired_speedup(threads: usize, reps: usize, f: impl Fn(u64) + Sync) -> f64 {
    let pool = |n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool")
    };
    let (serial, wide) = (pool(1), pool(threads));
    let run = |p: &rayon::ThreadPool, r| p.install(|| time(|| f(r)).1);
    run(&serial, 0);
    run(&wide, 0);
    let mut ratios: Vec<f64> = (0..reps as u64)
        .map(|r| {
            if r % 2 == 0 {
                let s = run(&serial, r);
                s / run(&wide, r)
            } else {
                let w = run(&wide, r);
                run(&serial, r) / w
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[reps / 2]
}

/// Run a closure inside a rayon pool of `threads` workers.
pub(crate) fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

/// The cores this machine has, capped by `--max-cores`.
pub(crate) fn max_cores(o: &Options) -> usize {
    let avail = std::thread::available_parallelism().map_or(4, |n| n.get());
    o.max_cores.map_or(avail, |m| m.min(avail).max(1))
}

/// Core sweep: 1, the powers of two below [`max_cores`], and the max
/// itself (the shape of the paper's 1/5/10/20/40 sweep).
pub(crate) fn core_sweep(o: &Options) -> Vec<usize> {
    let max = max_cores(o);
    let mut cores: Vec<usize> = (0..).map(|k| 1 << k).take_while(|&c| c < max).collect();
    cores.push(max);
    cores
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// A row of column headers, `{:>8}` each.
fn columns(cores: &[usize]) -> String {
    cores.iter().map(|c| format!("{c:>8}")).collect()
}

/// A row of ratios, `{:>7.2}x` each.
fn ratios(values: impl IntoIterator<Item = f64>) -> String {
    values.into_iter().map(|v| format!("{v:>7.2}x")).collect()
}

fn table1(o: &Options) {
    header("Table I: dataset statistics (paper targets)");
    println!(
        "{:<10} {:>10} {:>12} {:>8} {:>6} Task",
        "Dataset", "#Vertices", "#Edges", "Attr", "Cls"
    );
    for spec in [
        presets::ppi_spec(),
        presets::reddit_spec(),
        presets::yelp_spec(),
        presets::amazon_spec(),
    ] {
        println!(
            "{:<10} {:>10} {:>12} {:>8} {:>6} {}",
            spec.name,
            spec.vertices,
            spec.edges,
            spec.feature_dim,
            spec.classes,
            spec.task.mark()
        );
    }

    header("Realised scaled datasets (experiment defaults)");
    println!(
        "{:<10} {:>10} {:>12} {:>8} {:>6} {:>6} {:>8} {:>8} {:>8}",
        "Dataset", "#Vertices", "#Edges(und)", "Attr", "Cls", "Task", "AvgDeg", "MaxDeg", "LCC%"
    );
    for d in datasets(o, &[0, 1, 2, 3]) {
        d.validate().expect("generated dataset must validate");
        let ds = stats::degree_stats(&d.graph);
        let lcc =
            stats::largest_component_size(&d.graph) as f64 / d.graph.num_vertices() as f64 * 100.0;
        println!(
            "{:<10} {:>10} {:>12} {:>8} {:>6} {:>6} {:>8.1} {:>8} {:>7.1}%",
            d.name,
            d.graph.num_vertices(),
            d.num_undirected_edges(),
            d.feature_dim(),
            d.num_classes(),
            d.task.mark(),
            ds.mean,
            ds.max,
            lcc
        );
    }

    if o.full {
        header("Full-scale PPI (--full)");
        let d = presets::ppi_full(o.seed);
        d.validate().expect("full PPI must validate");
        println!("{}", d.table1_row());
        let ds = stats::degree_stats(&d.graph);
        let paper = 2.0 * 225_270.0 / 14_755.0;
        println!(
            "avg degree {:.1} (paper: {paper:.1}), max degree {}",
            ds.mean, ds.max
        );
    } else {
        println!("\n(run with --full to also generate + verify full-scale PPI)");
    }
}

/// All three systems run on one thread (the paper "eliminates the impact
/// of different parallelization strategies") with 2-layer models.
fn fig2(o: &Options) {
    let (epochs, sage_epochs, batched_epochs, hidden) = if o.full {
        (100, 60, 300, 256)
    } else {
        (60, 25, 100, 128)
    };
    header("Fig. 2: accuracy vs sequential training time (2-layer GCN, 1 thread)");
    println!(
        "paper reference speedups at threshold: PPI 1.9x, Reddit 7.8x, Yelp 4.7x, Amazon 2.1x\n"
    );

    let mut summary = Vec::new();
    for d in &datasets(o, &[0, 1, 2, 3]) {
        println!("--- dataset {} ---", d.name);
        let hidden_dims = vec![hidden; 2];
        let mut proposed = Curve::new("proposed");
        let cfg = proposed_config(o, hidden_dims.clone(), 2e-2, 100, 1, epochs);
        with_threads(1, || {
            let mut t = GsGcnTrainer::new(d, cfg).expect("trainer");
            for e in 0..epochs {
                t.train_epoch().expect("epoch");
                // Every other epoch: evaluation is full-graph inference
                // and would otherwise dominate the serial run.
                if e % 2 == 1 || e == epochs - 1 {
                    proposed.push(t.train_secs(), t.evaluate(EvalSplit::Val));
                }
            }
        });
        let mut sage = Curve::new("graphsage");
        let cfg = sage_config(o, hidden_dims.clone(), 2e-2);
        with_threads(1, || {
            let mut t = SageTrainer::new(d, cfg).expect("sage trainer");
            for _ in 0..sage_epochs {
                t.train_epoch();
                sage.push(t.train_secs(), t.evaluate_val());
            }
        });
        let mut batched = Curve::new("batched-gcn");
        let cfg = FullBatchConfig {
            hidden_dims,
            adam: adam(2e-2),
            seed: o.seed,
        };
        with_threads(1, || {
            let mut t = FullBatchTrainer::new(d, cfg).expect("fullbatch trainer");
            for e in 0..batched_epochs {
                t.train_epoch();
                // Evaluation costs more than one full-batch step.
                if e % 5 == 4 || e == batched_epochs - 1 {
                    batched.push(t.train_secs(), t.evaluate_val());
                }
            }
        });

        println!("method,time_secs,val_f1");
        for c in [&proposed, &sage, &batched] {
            print!("{}", c.to_csv());
        }
        let baselines = [&sage, &batched];
        // 97 % of the baselines' best: informative where the strict paper
        // rule is out of reach at scaled sizes.
        let relaxed = sage.best_metric().max(batched.best_metric()) * 0.97;
        summary.push((
            d.name.clone(),
            threshold_speedup(&proposed, &baselines),
            speedup_at(&proposed, &baselines, relaxed),
            [&proposed, &sage, &batched].map(Curve::best_metric),
        ));
    }

    header("Sec. VI-B summary: serial speedup to baseline-best threshold");
    println!(
        "{:<10} {:>12} {:>14} {:>12} {:>12} {:>12}",
        "Dataset", "Strict(a0)", "Relaxed(97%)", "F1 proposed", "F1 sage", "F1 batched"
    );
    let fmt = |o: Option<f64>| o.map_or_else(|| "n/a".into(), |s| format!("{s:.2}x"));
    for (name, strict, relaxed, [fp, fs, fb]) in summary {
        let (strict, relaxed) = (fmt(strict), fmt(relaxed));
        println!("{name:<10} {strict:>12} {relaxed:>14} {fp:>12.4} {fs:>12.4} {fb:>12.4}");
    }
    println!("\nPaper reference: 1.9x (PPI), 7.8x (Reddit), 4.7x (Yelp), 2.1x (Amazon).");
    println!("Expected shape: proposed reaches the baselines' accuracy band faster (relaxed");
    println!("speedup > 1); at a few thousand vertices the subgraph/full-graph gap");
    println!("compresses the strict-threshold comparison (see the gsgcn::reproduce docs).");
}

/// A fixed number of iterations per dataset × hidden size × core count,
/// read through the trainer's per-phase breakdown; speedups are relative to
/// the 1-core run of the same configuration.
fn fig3(o: &Options) {
    let (epochs, hiddens) = if o.full {
        (6, vec![512, 1024])
    } else {
        (3, vec![512])
    };
    let datasets = datasets(o, &[0, 1]);
    let cores = core_sweep(o);

    for hidden in hiddens {
        header(&format!("Fig. 3 (hidden dimension = {hidden})"));
        for d in &datasets {
            println!("--- dataset {} ---", d.name);
            let runs: Vec<(f64, Breakdown)> = cores
                .iter()
                .map(|&c| {
                    let mut cfg = proposed_config(o, vec![hidden; 2], 1e-2, 200, c, epochs);
                    // Fig. 3 splits feature propagation from weight
                    // application, and only the unfused path books the
                    // neighbor-half GEMM under weight application.
                    cfg.fused = false;
                    let t = train_proposed(d, cfg);
                    (t.train_secs(), *t.breakdown())
                })
                .collect();
            // Panel B, standalone: in training, propagation is < 1 % of
            // the time at these sizes, and the scaled subgraphs finish in
            // microseconds, where fork-join overhead hides the kernel's
            // scaling. So forward + backward on the full graph, min of 5.
            let (g, prop) = (&d.graph, FeaturePropagator::default());
            let h = DMatrix::from_fn(g.num_vertices(), hidden, |i, j| {
                ((i * 31 + j * 7) % 13) as f32 * 0.2 - 1.0
            });
            let fp: Vec<f64> = cores
                .iter()
                .map(|&c| {
                    min_secs(c, 5, |_| {
                        std::hint::black_box(prop.backward(g, &prop.forward(g, &h)));
                    })
                })
                .collect();
            let (base_total, base) = &runs[0];
            println!(
                "{:>6} {:>12} {:>12} {:>12}  breakdown (samp/feat/weight/other %)",
                "cores", "iter_spdup", "feat_spdup", "weight_spdup"
            );
            for (i, (total, b)) in runs.iter().enumerate() {
                let s = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
                println!(
                    "{:>6} {:>11.2}x {:>11.2}x {:>11.2}x  {:>4.1}/{:>4.1}/{:>4.1}/{:>4.1}",
                    cores[i],
                    s(*base_total, *total),
                    s(fp[0], fp[i]),
                    s(base.weight_app_secs, b.weight_app_secs),
                    100.0 * b.fraction(Phase::Sampling),
                    100.0 * b.fraction(Phase::FeatureProp),
                    100.0 * b.fraction(Phase::WeightApp),
                    100.0 * b.fraction(Phase::Other),
                );
            }
        }
    }
    println!(
        "\nExpected shape (paper, 40 cores): ~20x iteration, ~25x feature propagation, ~16x weight application;"
    );
    println!("sampling a small fraction of total time; weight application the scaling bottleneck.");
}

/// Wall-clock seconds one Fig. 4 rep must take on one core: a dataset's
/// batch doubles until it does, so a column's ratio is a measured speedup,
/// not timer and scheduling noise on a few milliseconds of sampling.
const FIG4_MIN_REP_SECS: f64 = 0.2;

/// Part A: sampling speedup against `p_inter` with lane-batched probing
/// (the paper's `p_intra = 8`). Part B: lane-batched over scalar probing,
/// on the vertex-sampling phase alone (probing, invalidation and appends,
/// the operations Alg. 4 vectorises; induced-subgraph extraction is the
/// same in both modes). A dataset's batch is sized by time
/// ([`FIG4_MIN_REP_SECS`]); a Part A point is the median of serial /
/// parallel rep pairs ([`paired_speedup`]), so the `p_inter = 1` column
/// reads its own noise, ≈ 1.00x; Part B is min of 3 after a warm-up.
fn fig4(o: &Options) {
    let datasets = datasets(o, &[0, 3]);
    let cores = core_sweep(o);
    let reps = 3;
    let sampler = |d: &Dataset, probe_mode| {
        let budget = (d.split.train.len() / 2).clamp(200, 8000);
        DashboardSampler::new(FrontierConfig {
            frontier_size: (budget / 8).max(16),
            budget,
            eta: 2.0,
            degree_cap: Some(30),
            probe_mode,
        })
    };
    let speedup = |g: &CsrGraph, s: &DashboardSampler, batch: usize, p| {
        paired_speedup(p, 2 * reps - 1, |r| {
            assert_eq!(sample_many(s, g, batch, o.seed + r, 0).len(), batch);
        })
    };
    let vertex_secs = |g: &CsrGraph, s: &DashboardSampler, batch: usize, p| {
        min_secs(p, reps, |r| {
            let total: usize = (0..batch as u64)
                .into_par_iter()
                .map(|i| s.sample_vertices(g, instance_seed(o.seed + r, 0, i)).len())
                .sum();
            assert!(total > 0);
        })
    };
    // Each dataset's batch: from 8 subgraphs per core of the sweep's
    // widest point, doubled until one serial rep of Fig. 4A's lane-batched
    // sampling takes `FIG4_MIN_REP_SECS`. Fig. 4B reuses it.
    let batches: Vec<usize> = datasets
        .iter()
        .map(|d| {
            let (tv, s) = (d.train_view(), sampler(d, ProbeMode::Lanes));
            let mut batch = cores.last().unwrap() * 8;
            while with_threads(1, || {
                time(|| sample_many(&s, &*tv.graph, batch, o.seed, 0)).1
            }) < FIG4_MIN_REP_SECS
            {
                batch *= 2;
            }
            batch
        })
        .collect();

    header("Fig. 4A: sampling speedup vs p_inter (lane-batched probing)");
    println!("{:<10} {}", "dataset", columns(&cores));
    for (d, &batch) in datasets.iter().zip(&batches) {
        let (tv, s) = (d.train_view(), sampler(d, ProbeMode::Lanes));
        let row = ratios(cores.iter().map(|&c| speedup(&tv.graph, &s, batch, c)));
        println!("{:<10}{row}", d.name);
    }
    let sizes: Vec<String> = datasets
        .iter()
        .zip(&batches)
        .map(|(d, b)| format!("{} {b}", d.name))
        .collect();
    println!(
        "(paper: near-linear to 20 cores, NUMA knee beyond; subgraphs per point: {} — \
         a serial rep ≥ {FIG4_MIN_REP_SECS} s; median of {} serial/parallel pairs)",
        sizes.join(", "),
        2 * reps - 1
    );

    header("Fig. 4B: lane-batched (AVX analogue) gain over scalar probing (vertex phase)");
    let pinters: Vec<usize> = cores.iter().copied().filter(|&c| c > 1).collect();
    let pinters = if pinters.is_empty() { vec![1] } else { pinters };
    println!("{:<10} {:>8} {}", "dataset", "serial", columns(&pinters));
    for (d, &batch) in datasets.iter().zip(&batches) {
        let tv = d.train_view();
        let (scalar, lanes) = (sampler(d, ProbeMode::Scalar), sampler(d, ProbeMode::Lanes));
        let gain = |p| {
            vertex_secs(&tv.graph, &scalar, batch, p) / vertex_secs(&tv.graph, &lanes, batch, p)
        };
        let serial = gain(1);
        let row = ratios(pinters.iter().map(|&p| gain(p)));
        println!("{:<10} {serial:>7.2}x{row}", d.name);
    }
    println!("(paper reports ~4x from AVX2 intrinsics; our scalar baseline is already");
    println!(
        " auto-vectorised by LLVM, so the residual probing gain is smaller — see the gsgcn::reproduce docs)"
    );

    header("Fig. 4B microbench: lane-batched RNG throughput (the vectorisable component)");
    let n = 4_000_000usize;
    let mut srng = Xorshift128Plus::new(o.seed);
    let (_, scalar_secs) = time(|| {
        let sum = (0..n).fold(0u64, |acc, _| acc.wrapping_add(srng.next_u64()));
        std::hint::black_box(sum)
    });
    let mut lrng = LaneRng::new(o.seed);
    let (_, lane_secs) = time(|| {
        let sum = (0..n / LANES).fold(0u64, |acc, _| {
            lrng.next_batch()
                .iter()
                .fold(acc, |a, &v| a.wrapping_add(v))
        });
        std::hint::black_box(sum)
    });
    println!(
        "scalar: {:.0} Mu64/s | lane-batched: {:.0} Mu64/s | gain {:.2}x",
        n as f64 / scalar_secs / 1e6,
        n as f64 / lane_secs / 1e6,
        scalar_secs / lane_secs
    );

    header("Theorem 1 cost model (analytic, for the measured graphs)");
    for d in &datasets {
        let capped = d.train_view().graph.avg_degree().min(30.0);
        let m = SamplerCostModel::unit(2.0, capped);
        println!(
            "{:<10} d̄(capped)={:>6.1}  theorem-1 bound p ≤ {:>6.1}  modeled speedup at p=8: {:.2}x (guarantee {:.2}x)",
            d.name,
            capped,
            m.theorem1_max_p(0.5),
            m.speedup(8000, 1000, 8),
            m.theorem1_guarantee(8, 0.5),
        );
    }
}

/// Both systems train the same number of epochs (full traversals of the
/// training vertices) on the Reddit-shaped dataset; the speedup is the
/// ratio of their wall-clock epoch times.
fn table2(o: &Options) {
    let d = scaled(o, 1);
    let cores = core_sweep(o);
    let epochs = if o.full { 3 } else { 1 };

    header("Table II: speedup vs parallelized GraphSAGE-style baseline (Reddit-shaped)");
    let rows: Vec<(String, Vec<f64>)> = (1..=3)
        .map(|layers| {
            let row = cores.iter().map(|&c| {
                let cfg = proposed_config(o, vec![128; layers], 1e-2, 150, c, epochs);
                let ours = train_proposed(&d, cfg).train_secs();
                let theirs = with_threads(c, || {
                    let cfg = sage_config(o, vec![128; layers], 1e-2);
                    let mut t = SageTrainer::new(&d, cfg).expect("sage trainer");
                    time(|| (0..epochs).for_each(|_| _ = t.train_epoch())).1
                });
                theirs / ours
            });
            (format!("{layers}-layer"), row.collect())
        })
        .collect();
    println!("{}", format_speedup_table("layers\\cores", &cores, &rows));

    // How far the neighbor explosion reaches at this scale: it saturates
    // at |V_train|.
    let mut probe = SageTrainer::new(&d, sage_config(o, vec![128; 3], 1e-2)).expect("trainer");
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
    println!("saturation at |V_train| on scaled graphs (see the gsgcn::reproduce docs).");
}

/// The naive sampler pays `O(m)` per pop (a prefix-sum scan of the
/// frontier); the Dashboard pays amortised `O(η/(η−1)·d̄)` slot work and
/// `O(η)` expected probes, so its lead grows with `m`.
fn a1(o: &Options) {
    let d = scaled(o, 0);
    let tv = d.train_view();
    let g = &*tv.graph;
    let reps = if o.full { 20 } else { 5 };

    header("A1: Dashboard vs naive frontier sampler (serial, per-subgraph seconds)");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>9} {:>10} {:>9}",
        "m", "budget", "naive_secs", "dashboard_secs", "speedup", "probes/pop", "cleanups"
    );
    for (m, budget) in [(50usize, 400usize), (200, 800), (500, 1200), (1000, 1350)] {
        let budget = budget.min(g.num_vertices());
        let m = m.min(budget / 2);
        let naive = NaiveFrontierSampler::new(m, budget);
        let dash = DashboardSampler::new(FrontierConfig {
            frontier_size: m,
            budget,
            eta: 2.0,
            degree_cap: None,
            probe_mode: ProbeMode::Lanes,
        });
        let (_, naive_secs) = time(|| {
            for r in 0..reps {
                assert!(!naive.sample_vertices(g, o.seed + r).is_empty());
            }
        });
        let (mut probes, mut pops, mut cleanups) = (0, 0, 0);
        let (_, dash_secs) = time(|| {
            for r in 0..reps {
                let (v, stats) = dash.sample_with_stats(g, o.seed + r);
                assert!(!v.is_empty());
                probes += stats.probes;
                pops += stats.pops;
                cleanups += stats.cleanups;
            }
        });
        println!(
            "{:>6} {:>8} {:>14.6} {:>14.6} {:>8.2}x {:>10.2} {:>9}",
            m,
            budget,
            naive_secs / reps as f64,
            dash_secs / reps as f64,
            naive_secs / dash_secs,
            probes as f64 / pops.max(1) as f64,
            cleanups
        );
    }
    println!("\nExpected shape: speedup grows with m (naive is O(m) per pop; Dashboard is O(1) amortised).");
}

/// Part 1 times the kernels on a paper-typical subgraph (n ≈ 4000–8000,
/// f = 256–512, d ≈ 15); part 2 looks for the cache crossover where the
/// source matrix exceeds the LLC; part 3 prints the Theorem 2 cost model.
fn a2(o: &Options) {
    let graph = |n: usize| {
        let spec = CommunityGraphSpec {
            vertices: n,
            edges: n * 15 / 2,
            communities: 16,
            ..CommunityGraphSpec::default()
        };
        community_powerlaw(&spec, o.seed).graph
    };
    let secs = |c, reps, kernel: &(dyn Fn() -> DMatrix + Sync)| {
        min_secs(c, reps, |_| {
            std::hint::black_box(kernel());
        })
    };
    let (n, f) = if o.full { (8000, 512) } else { (4000, 256) };
    let reps = if o.full { 10 } else { 5 };
    let g = graph(n);
    let h = DMatrix::from_fn(n, f, |i, j| ((i * 31 + j * 7) % 23) as f32 * 0.1 - 1.0);
    let cache = 256 * 1024;
    let cores = core_sweep(o);

    header(&format!(
        "A2 part 1: kernels at subgraph scale (n={n}, f={f}, d̄={:.1}, min of {reps})",
        g.avg_degree()
    ));
    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>12}  (seconds per propagation)",
        "cores", "naive", "feat-part(Q)", "2D bfs P=4", "2D range P=4"
    );
    let (bfs, range) = (bfs_partition(&g, 4), range_partition(n, 4));
    for &c in &cores {
        let q = (c / 4).max(1);
        let naive = secs(c, reps, &|| kernels::aggregate_naive(&g, &h));
        let part = secs(c, reps, &|| {
            kernels::aggregate_feature_partitioned(&g, &h, cache)
        });
        let twod_bfs = secs(c, reps, &|| kernels::aggregate_2d(&g, &h, &bfs, q));
        let twod_range = secs(c, reps, &|| kernels::aggregate_2d(&g, &h, &range, q));
        println!("{c:>6} {naive:>12.6} {part:>14.6} {twod_bfs:>12.6} {twod_range:>12.6}");
    }
    println!(
        "At this scale the source matrix ({} MB) is LLC-resident → naive wins;",
        n * f * 4 / (1 << 20)
    );
    println!("PropMode::Auto picks it automatically.");

    // Alg. 6's intended regime: a small-n subgraph with *long* feature
    // vectors. Sweep the fast-memory parameter (and with it Q).
    header("A2 part 2: crossover search (long feature vectors, matrix ≫ LLC)");
    let (n_big, f_big) = (8000, if o.full { 8192 } else { 4096 });
    let g_big = graph(n_big);
    let h_big = DMatrix::from_fn(n_big, f_big, |i, j| {
        ((i * 13 + j * 5) % 17) as f32 * 0.1 - 0.8
    });
    let c = *cores.last().unwrap();
    let naive = secs(c, 3, &|| kernels::aggregate_naive(&g_big, &h_big));
    let mb = n_big * f_big * 4 / (1 << 20);
    println!("n={n_big}, f={f_big} ({mb} MB source), {c} cores");
    println!("naive row-parallel: {naive:.4}s");
    for s_cache in [256 * 1024usize, 1 << 20, 4 << 20, 16 << 20] {
        let q = kernels::num_feature_partitions(n_big, f_big, s_cache, c);
        let part = secs(c, 3, &|| {
            kernels::aggregate_feature_partitioned(&g_big, &h_big, s_cache)
        });
        println!(
            "feat-part S_cache={s_cache:>9} (Q={q:>4}): {part:.4}s → Alg.6 gain {:.2}x",
            naive / part
        );
    }
    println!("Honest finding: on this container the hardware prefetcher makes the naive");
    println!("kernel's sequential full-row reads more bandwidth-efficient than any");
    println!("random-line column-block scheme, so no crossover appears — unlike the");
    println!(
        "paper's 2016 Xeon with 256 KiB effective fast memory. See the gsgcn::reproduce docs."
    );

    header("A2 part 3: Theorem 2 cost model");
    let model = PropCostModel::paper(n, g.avg_degree(), f, c, cache);
    println!(
        "applicable (C ≤ 4f/d and 2nd ≤ S): {} (C={}, 4f/d={:.0}, 2nd={:.0}, S={})",
        model.theorem2_applicable(),
        c,
        4.0 * f as f64 / g.avg_degree(),
        2.0 * n as f64 * g.avg_degree(),
        cache
    );
    println!("feature-only Q = {}", model.feature_only_q());
    println!(
        "g_comm(feature-only) = {:.3e} bytes; brute-force optimum ≥ {:.3e} bytes",
        model.feature_only_comm(),
        model.bruteforce_optimum(64, 8192)
    );
    println!(
        "approximation ratio = {:.3} (Theorem 2 bound: ≤ 2)",
        model.approximation_ratio(64, 8192)
    );
}

/// Train the GCN on subgraphs drawn by `sampler` (the core trainer's loop
/// without its Dashboard-specific pool) and return full-graph validation
/// F1.
fn train_with_sampler(o: &Options, d: &Dataset, sampler: &dyn GraphSampler, epochs: usize) -> f64 {
    let tv = d.train_view();
    let cfg = GcnConfig {
        in_dim: d.feature_dim(),
        hidden_dims: vec![64, 64],
        num_classes: d.num_classes(),
        loss: match d.task {
            TaskKind::MultiLabel => LossKind::SigmoidBce,
            TaskKind::SingleLabel => LossKind::SoftmaxCe,
        },
        adam: adam(2e-2),
        dropout: 0.0,
        fused: true,
    };
    let mut model = GcnModel::new(cfg, o.seed);
    let budget = 500.min(tv.graph.num_vertices());
    let iters_per_epoch = tv.graph.num_vertices().div_ceil(budget).max(1);
    for it in 0..(epochs * iters_per_epoch) as u64 {
        let sub = sampler.sample_subgraph(&*tv.graph, o.seed ^ it.wrapping_mul(0x9E37));
        if sub.num_vertices() > 0 {
            let x = tv.features.gather_rows(&sub.origin);
            let y = tv.labels.gather_rows(&sub.origin);
            model.train_step(&sub.graph, &x, &y);
        }
    }
    let probs = model.infer_probs(&d.graph, &d.features);
    let idx = &d.split.val;
    f1::f1_micro_from_probs(
        &probs.gather_rows(idx),
        &d.labels.gather_rows(idx),
        d.task == TaskKind::SingleLabel,
    )
}

/// The same GCN trained on subgraphs from each sampler (the paper's
/// future-work item on "evaluating impact on accuracy using various
/// sampling algorithms"): samplers that preserve connectivity should beat
/// topology-blind uniform-node sampling on final F1.
fn a3(o: &Options) {
    let d = scaled(o, 0);
    let tv = d.train_view();
    // At 12 epochs (36 steps) no sampler's model gets past predicting no
    // labels, and every F1 reads 0.
    let epochs = 30;
    let budget = 500.min(tv.graph.num_vertices());
    let frontier = FrontierConfig {
        frontier_size: budget / 8,
        budget,
        ..FrontierConfig::default()
    };
    let walk = RandomWalkSampler {
        walkers: budget / 8,
        budget,
        restart_prob: 0.1,
    };
    let fire = ForestFireSampler {
        budget,
        burn_prob: 0.7,
    };
    let samplers: [(&str, &dyn GraphSampler); 5] = [
        ("frontier", &DashboardSampler::new(frontier)),
        ("uniform-node", &UniformNodeSampler { budget }),
        ("uniform-edge", &UniformEdgeSampler { budget }),
        ("random-walk", &walk),
        ("forest-fire", &fire),
    ];

    header("A3: subgraph statistics per sampler (training graph)");
    println!(
        "training graph: |V|={} d̄={:.1} clustering={:.4}",
        tv.graph.num_vertices(),
        stats::degree_stats(&tv.graph).mean,
        stats::clustering_coefficient(&tv.graph)
    );
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>12} {:>10}",
        "sampler", "|V_sub|", "d̄_sub", "cluster", "deg-TV-dist", "LCC%"
    );
    for (name, s) in samplers {
        let sub = s.sample_subgraph(&*tv.graph, o.seed);
        let n = sub.num_vertices();
        let lcc = stats::largest_component_size(&sub.graph) as f64 / n.max(1) as f64 * 100.0;
        println!(
            "{:<14} {:>8} {:>8.1} {:>10.4} {:>12.4} {:>9.1}%",
            name,
            n,
            stats::degree_stats(&sub.graph).mean,
            stats::clustering_coefficient(&sub.graph),
            stats::degree_distribution_distance(&tv.graph, &sub.graph),
            lcc
        );
    }

    header(&format!(
        "A3: final validation F1 after {epochs} epochs per sampler"
    ));
    let f1s = samplers.map(|(name, s)| {
        let f1 = train_with_sampler(o, &d, s, epochs);
        println!("{name:<14} val F1 = {f1:.4}");
        f1
    });
    let (frontier, uniform) = (f1s[0], f1s[1]);
    let verdict = if frontier >= uniform {
        "holds"
    } else {
        "does not hold"
    };
    println!("\nExpected shape: connectivity-preserving samplers (frontier/walk/fire)");
    println!("≥ topology-blind uniform-node. frontier {frontier:.4} vs uniform-node {uniform:.4}: {verdict}");
}
