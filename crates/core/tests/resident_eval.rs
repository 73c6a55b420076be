//! The resident arm of `GsGcnTrainer::try_evaluate` — layer 1 packing
//! kept rows of a per-trainer `Â·X`, the last layer and the head on the
//! split's rows (`GcnModel::infer_probs_at_into`) — must reproduce the
//! full-graph forward **bit for bit**: for depths 1–3, the fused layer and
//! the unfused reference, every split, before and after more training and
//! after `import_weights`, with every row of `Â·X` kept (PPI's narrow
//! features) and with a few (Reddit's wide ones). The model-level rows are
//! checked in both activation precisions; the trainer, whose pool threads
//! see only the process-wide precision, in that one (CI runs the suite
//! again under `GSGCN_PRECISION=bf16`). `Â·X` is computed once per trainer,
//! and the work report says so.

use gsgcn_core::trainer::EvalSplit;
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::dataset::TaskKind;
use gsgcn_data::{presets, Dataset};
use gsgcn_metrics::f1;
use gsgcn_nn::InferenceWorkspace;
use gsgcn_tensor::precision::{with_precision, ALL_PRECISIONS};
use gsgcn_tensor::DMatrix;

fn config(depth: usize, fused: bool, seed: u64) -> TrainerConfig {
    let mut cfg = TrainerConfig::quick_test();
    cfg.hidden_dims = vec![16; depth];
    cfg.fused = fused;
    cfg.seed = seed;
    cfg
}

fn splits(d: &Dataset) -> [(EvalSplit, &Vec<u32>); 3] {
    [
        (EvalSplit::Train, &d.split.train),
        (EvalSplit::Val, &d.split.val),
        (EvalSplit::Test, &d.split.test),
    ]
}

/// Hold the model's split rows (both precisions) and the trainer's F1 on
/// every split (ambient precision) to the full-graph forward. `filled`
/// says whether this trainer has computed its `Â·X` yet.
fn check(t: &mut GsGcnTrainer<'_>, d: &Dataset, filled: &mut bool, at: &str) {
    let (g, x) = (&d.graph, &d.features);
    let n = g.num_vertices();
    let depth = t.model().num_layers();
    let mut ws = InferenceWorkspace::new();
    let mut full = DMatrix::zeros(0, 0);
    let mut probs = DMatrix::zeros(0, 0);

    // Model level: the split's rows, plus a repeated and an out-of-order
    // target, equal the full forward's rows.
    for precision in ALL_PRECISIONS {
        with_precision(precision, || {
            let model = t.model();
            model.infer_probs_into(g, x, &mut ws, &mut full);
            let ax = model.aggregate_input(g, x);
            for (split, idx) in splits(d) {
                let at = format!("{at} {precision} {split:?} depth {depth}");
                let mut targets = idx.clone();
                targets.extend([idx[0], 0, idx[0]]);
                let stats = model.infer_probs_at_into(g, x, &ax, &targets, &mut ws, &mut probs);
                assert_eq!(probs.rows(), targets.len(), "{at}");
                for (r, &v) in targets.iter().enumerate() {
                    assert_eq!(probs.row(r), full.row(v as usize), "{at}: vertex {v}");
                }
                let mut rows = vec![n; depth];
                rows[depth - 1] = targets.len();
                assert_eq!(stats.rows_computed, rows, "{at}");
            }
        });
    }

    // Trainer level: the F1 of exactly the full forward's split rows.
    let single = d.task == TaskKind::SingleLabel;
    t.model().infer_probs_into(g, x, &mut ws, &mut full);
    let kept = t.model().aggregate_input(g, x).kept_rows();
    for (split, idx) in splits(d) {
        let at = format!("{at} {split:?} depth {depth}");
        let want =
            f1::f1_micro_from_probs(&full.gather_rows(idx), &d.labels.gather_rows(idx), single);
        assert_eq!(t.evaluate(split), want, "{at}");
        let stats = t.last_eval_stats().expect("resident evaluation reports");
        let mut rows = vec![n; depth];
        rows[depth - 1] = idx.len();
        assert_eq!(stats.rows_computed, rows, "{at}");
        assert_eq!(stats.tiles, vec![1; depth], "{at}");
        assert_eq!(stats.rows_gathered, 0, "{at}");
        // The first evaluation of the trainer fills its `Â·X`; none after.
        let fill = if *filled { 0 } else { kept };
        assert_eq!(stats.input_rows_aggregated, fill, "{at}: Â·X fills");
        *filled = true;
    }
}

fn run(d: &Dataset, depth: usize, fused: bool) {
    let mut t = GsGcnTrainer::new(d, config(depth, fused, 42)).unwrap();
    let mut filled = false;
    check(&mut t, d, &mut filled, "untrained");
    for _ in 0..2 {
        t.train_epoch().unwrap();
    }
    check(&mut t, d, &mut filled, "trained");
    let mut other = GsGcnTrainer::new(d, config(depth, fused, 7)).unwrap();
    other.train_epoch().unwrap();
    t.import_weights(&other.model().export_weights()).unwrap();
    check(&mut t, d, &mut filled, "imported");
}

/// Kept rows of `Â·X` under `fused`, in the ambient precision.
fn kept_rows(d: &Dataset, fused: bool) -> usize {
    let t = GsGcnTrainer::new(d, config(2, fused, 42)).unwrap();
    t.model().aggregate_input(&d.graph, &d.features).kept_rows()
}

#[test]
fn resident_evaluation_is_bit_identical_multi_label() {
    let d = presets::scale_spec(&presets::ppi_spec(), 300).generate(5);
    for fused in [true, false] {
        // Narrow features: the last layer's freed rows hold all of `Â·X`.
        assert_eq!(kept_rows(&d, fused), d.graph.num_vertices());
        for depth in 1..=3 {
            run(&d, depth, fused);
        }
    }
}

#[test]
fn resident_evaluation_is_bit_identical_single_label() {
    let d = presets::scale_spec(&presets::reddit_spec(), 300).generate(9);
    assert_eq!(d.task, TaskKind::SingleLabel);
    for fused in [true, false] {
        // Wide features: only some rows are kept, the rest aggregated.
        let kept = kept_rows(&d, fused);
        assert!(0 < kept && kept < d.graph.num_vertices(), "kept {kept}");
        for depth in 1..=2 {
            run(&d, depth, fused);
        }
    }
}
