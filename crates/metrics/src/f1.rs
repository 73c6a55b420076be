//! F1 scores — the paper's accuracy measure ("Accuracy (F1 Mic)", Fig. 2).

use gsgcn_tensor::DMatrix;

/// Binary confusion counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Confusion {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
    pub tn: usize,
}

impl Confusion {
    /// Precision `tp / (tp + fp)` (0 when undefined).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)` (0 when undefined).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 = harmonic mean of precision and recall (0 when undefined).
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// The multi-label decision threshold used across evaluation and
/// serving: a class is predicted when its probability reaches this.
pub const MULTI_LABEL_THRESHOLD: f32 = 0.5;

/// First-maximum argmax of one probability row — the single tie rule
/// shared by [`argmax_onehot`], the streaming [`f1_micro_from_probs`]
/// and the serving-side label decision (`gsgcn-serve`).
pub fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Task-appropriate decision rule for one probability row: the argmax
/// class for single-label models, every class reaching
/// [`MULTI_LABEL_THRESHOLD`] (possibly none) for multi-label.
pub fn decide_labels(row: &[f32], single_label: bool) -> Vec<u32> {
    if single_label {
        vec![argmax_row(row) as u32]
    } else {
        row.iter()
            .enumerate()
            .filter(|(_, &p)| p >= MULTI_LABEL_THRESHOLD)
            .map(|(j, _)| j as u32)
            .collect()
    }
}

/// Threshold probabilities into binary predictions (multi-label).
pub fn binarize(probs: &DMatrix, threshold: f32) -> DMatrix {
    let mut out = probs.clone();
    out.data_mut()
        .iter_mut()
        .for_each(|x| *x = if *x >= threshold { 1.0 } else { 0.0 });
    out
}

/// One-hot argmax predictions (single-label).
pub fn argmax_onehot(probs: &DMatrix) -> DMatrix {
    let mut out = DMatrix::zeros(probs.rows(), probs.cols());
    for i in 0..probs.rows() {
        out.set(i, argmax_row(probs.row(i)), 1.0);
    }
    out
}

/// Per-class confusion counts from binary predictions/targets.
pub fn per_class_confusion(pred: &DMatrix, target: &DMatrix) -> Vec<Confusion> {
    assert_eq!(pred.shape(), target.shape(), "pred/target shape mismatch");
    let mut per = vec![Confusion::default(); pred.cols()];
    for i in 0..pred.rows() {
        let (pr, tr) = (pred.row(i), target.row(i));
        for (c, conf) in per.iter_mut().enumerate() {
            match (pr[c] > 0.5, tr[c] > 0.5) {
                (true, true) => conf.tp += 1,
                (true, false) => conf.fp += 1,
                (false, true) => conf.fn_ += 1,
                (false, false) => conf.tn += 1,
            }
        }
    }
    per
}

/// Micro-averaged F1: pool all classes' counts, then compute F1.
pub fn f1_micro(pred: &DMatrix, target: &DMatrix) -> f64 {
    let per = per_class_confusion(pred, target);
    let pooled = per.iter().fold(Confusion::default(), |acc, c| Confusion {
        tp: acc.tp + c.tp,
        fp: acc.fp + c.fp,
        fn_: acc.fn_ + c.fn_,
        tn: acc.tn + c.tn,
    });
    pooled.f1()
}

/// Streaming micro-F1 accumulator: feed probability/target row pairs in
/// any order — full matrices at once, or chunk by chunk as an out-of-core
/// evaluation produces them — and read the pooled F1 at the end. The
/// decision rule per row is the task-appropriate one (argmax for
/// single-label, the 0.5 threshold for multi-label), identical to
/// [`f1_micro_from_probs`], which is the one-shot wrapper over this type.
#[derive(Clone, Copy, Debug, Default)]
pub struct F1Accumulator {
    pooled: Confusion,
    single_label: bool,
    rows: usize,
}

impl F1Accumulator {
    /// Fresh accumulator for the given task kind.
    pub fn new(single_label: bool) -> Self {
        F1Accumulator {
            pooled: Confusion::default(),
            single_label,
            rows: 0,
        }
    }

    /// Fold one probability row against its binary target row.
    pub fn push_row(&mut self, probs: &[f32], target: &[f32]) {
        debug_assert_eq!(probs.len(), target.len(), "probs/target width mismatch");
        let best = if self.single_label {
            argmax_row(probs)
        } else {
            0
        };
        for (c, (&p, &t)) in probs.iter().zip(target).enumerate() {
            let predicted = if self.single_label {
                c == best
            } else {
                p >= MULTI_LABEL_THRESHOLD
            };
            match (predicted, t > 0.5) {
                (true, true) => self.pooled.tp += 1,
                (true, false) => self.pooled.fp += 1,
                (false, true) => self.pooled.fn_ += 1,
                (false, false) => self.pooled.tn += 1,
            }
        }
        self.rows += 1;
    }

    /// Fold every row of a probability matrix against its target matrix.
    pub fn push_rows(&mut self, probs: &DMatrix, target: &DMatrix) {
        assert_eq!(probs.shape(), target.shape(), "probs/target shape mismatch");
        for i in 0..probs.rows() {
            self.push_row(probs.row(i), target.row(i));
        }
    }

    /// Rows folded so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Micro-averaged F1 of everything folded so far.
    pub fn f1(&self) -> f64 {
        self.pooled.f1()
    }
}

/// Convenience: F1-micro of probability outputs against targets, with the
/// task-appropriate decision rule (argmax for single-label, a 0.5
/// threshold for multi-label).
///
/// Streams the confusion counts row by row instead of materialising a
/// prediction matrix, so the per-epoch `evaluate` hot path performs zero
/// matrix allocations (equivalent to
/// `f1_micro(&argmax_onehot(probs) | &binarize(probs, 0.5), target)`,
/// pinned by a test below).
pub fn f1_micro_from_probs(probs: &DMatrix, target: &DMatrix, single_label: bool) -> f64 {
    let mut acc = F1Accumulator::new(single_label);
    acc.push_rows(probs, target);
    acc.f1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_perfect_prediction() {
        let y = DMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(f1_micro(&y, &y), 1.0);
    }

    #[test]
    fn confusion_all_wrong() {
        let p = DMatrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let t = DMatrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 1.0]);
        assert_eq!(f1_micro(&p, &t), 0.0);
    }

    #[test]
    fn micro_f1_hand_computed() {
        // 3 rows, 2 classes.
        // Class 0: pred [1,1,0], true [1,0,0] → tp=1, fp=1, fn=0.
        // Class 1: pred [0,1,1], true [1,1,1] → tp=2, fp=0, fn=1.
        // Pooled: tp=3, fp=1, fn=1 → P=3/4, R=3/4, F1=3/4.
        let p = DMatrix::from_vec(3, 2, vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0]);
        let t = DMatrix::from_vec(3, 2, vec![1.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        assert!((f1_micro(&p, &t) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn binarize_threshold() {
        let p = DMatrix::from_vec(1, 3, vec![0.2, 0.5, 0.9]);
        let b = binarize(&p, 0.5);
        assert_eq!(b.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn argmax_picks_largest() {
        let p = DMatrix::from_vec(2, 3, vec![0.1, 0.7, 0.2, 0.5, 0.2, 0.3]);
        let a = argmax_onehot(&p);
        assert_eq!(a.row(0), &[0.0, 1.0, 0.0]);
        assert_eq!(a.row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_predictions_degenerate() {
        let e = DMatrix::zeros(0, 3);
        assert_eq!(f1_micro(&e, &e), 0.0);
    }

    #[test]
    fn f1_from_probs_single_vs_multi() {
        let probs = DMatrix::from_vec(2, 2, vec![0.6, 0.55, 0.3, 0.4]);
        let t = DMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        // Single-label: argmax rows → [1,0] and [0,1]: perfect.
        assert_eq!(f1_micro_from_probs(&probs, &t, true), 1.0);
        // Multi-label at 0.5: row0 predicts both classes (fp), row1 none (fn).
        let m = f1_micro_from_probs(&probs, &t, false);
        assert!(m < 1.0 && m > 0.0);
    }

    /// The streaming `f1_micro_from_probs` must agree exactly with the
    /// matrix-materialising composition it replaced.
    #[test]
    fn f1_from_probs_matches_materialised_composition() {
        let probs = DMatrix::from_fn(17, 5, |i, j| (((i * 31 + j * 17) % 23) as f32) / 22.0);
        let target = DMatrix::from_fn(17, 5, |i, j| (((i * 7 + j * 3) % 3) == 0) as u8 as f32);
        let single = f1_micro(&argmax_onehot(&probs), &target);
        assert_eq!(f1_micro_from_probs(&probs, &target, true), single);
        let multi = f1_micro(&binarize(&probs, 0.5), &target);
        assert_eq!(f1_micro_from_probs(&probs, &target, false), multi);
    }

    /// Chunked accumulation must pool to the same F1 as a single pass —
    /// the invariant out-of-core evaluation relies on.
    #[test]
    fn accumulator_chunking_is_order_free() {
        let probs = DMatrix::from_fn(23, 4, |i, j| (((i * 13 + j * 5) % 19) as f32) / 18.0);
        let target = DMatrix::from_fn(23, 4, |i, j| (((i * 3 + j) % 4) == 0) as u8 as f32);
        for single in [true, false] {
            let oneshot = f1_micro_from_probs(&probs, &target, single);
            let mut acc = F1Accumulator::new(single);
            // Feed rows in a scrambled order, one at a time.
            for k in 0..23usize {
                let i = (k * 7) % 23;
                acc.push_row(probs.row(i), target.row(i));
            }
            assert_eq!(acc.rows(), 23);
            assert_eq!(acc.f1(), oneshot, "single_label={single}");
        }
    }

    #[test]
    fn undefined_f1_is_zero_not_nan() {
        let p = DMatrix::zeros(2, 2);
        let t = DMatrix::zeros(2, 2);
        let f = f1_micro(&p, &t);
        assert_eq!(f, 0.0);
        assert!(!f.is_nan());
    }
}
