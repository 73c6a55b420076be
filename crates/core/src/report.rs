//! Training reports: everything an experiment binary needs to print the
//! paper's tables and figures.

use gsgcn_graph::StoreCacheStats;
use gsgcn_metrics::convergence::Curve;
use gsgcn_metrics::timing::Breakdown;

/// Work and phase times of one evaluation, resident or stored: frontier
/// tiles and rows computed per layer, feature rows gathered, input rows
/// aggregated, and frontier / gather / infer seconds.
pub use gsgcn_nn::model::LevelStats as EvalStats;

/// Statistics of one training epoch.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mini-batches (subgraphs) trained on.
    pub batches: usize,
    /// Mean training loss over the epoch's batches.
    pub mean_loss: f32,
    /// Mean subgraph size `|V_sub|`.
    pub mean_subgraph_vertices: f64,
    /// Mean subgraph directed edge count.
    pub mean_subgraph_edges: f64,
    /// Wall-clock seconds of this epoch (training work only).
    pub secs: f64,
}

/// Result of a full training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Validation F1-micro at the end of training.
    pub final_val_f1: f64,
    /// Test F1-micro at the end of training.
    pub test_f1: f64,
    /// Training-time vs validation-F1 curve (Fig. 2 series).
    pub curve: Curve,
    /// Cumulative per-phase breakdown (Fig. 3 bars).
    pub breakdown: Breakdown,
    /// Total training seconds (excluding evaluation).
    pub total_train_secs: f64,
    /// Shard-cache counters of the training store at the end of the run
    /// (`None` when training read a fully-resident store).
    pub shard_cache: Option<StoreCacheStats>,
    /// Work of the run's last evaluation — the final test pass, resident
    /// or stored.
    pub eval: Option<EvalStats>,
}

impl TrainReport {
    /// Mean per-iteration wall time.
    pub fn secs_per_iteration(&self) -> f64 {
        let iters: usize = self.epochs.iter().map(|e| e.batches).sum();
        if iters == 0 {
            0.0
        } else {
            self.total_train_secs / iters as f64
        }
    }

    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.mean_loss).unwrap_or(f32::NAN)
    }

    /// Fraction of sampler wall-clock hidden behind compute (0 on the
    /// synchronous path — there, sampling always stalls the trainer).
    pub fn sampling_overlap_fraction(&self) -> f64 {
        self.breakdown.sampling_overlap_fraction()
    }

    /// One-line human summary. The breakdown segment reports the
    /// sampling-overlap percentage when the pipelined sampler hid any
    /// sampling time behind compute.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} epochs, {:.2}s train, loss {:.4}, val F1 {:.4}, test F1 {:.4} [{}]",
            self.epochs.len(),
            self.total_train_secs,
            self.final_loss(),
            self.final_val_f1,
            self.test_f1,
            self.breakdown.report()
        );
        if let Some(cache) = &self.shard_cache {
            s.push_str(&format!(" [shard cache: {}]", cache.summary()));
        }
        if let Some(eval) = &self.eval {
            s.push_str(&format!(" [last eval: {}]", eval.summary()));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_metrics::timing::Phase;

    fn dummy() -> TrainReport {
        TrainReport {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    batches: 4,
                    mean_loss: 1.0,
                    mean_subgraph_vertices: 100.0,
                    mean_subgraph_edges: 500.0,
                    secs: 2.0,
                },
                EpochStats {
                    epoch: 1,
                    batches: 4,
                    mean_loss: 0.5,
                    mean_subgraph_vertices: 100.0,
                    mean_subgraph_edges: 500.0,
                    secs: 2.0,
                },
            ],
            final_val_f1: 0.8,
            test_f1: 0.79,
            curve: Curve::new("test"),
            breakdown: Breakdown::default(),
            total_train_secs: 4.0,
            shard_cache: None,
            eval: None,
        }
    }

    #[test]
    fn per_iteration_math() {
        assert!((dummy().secs_per_iteration() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn final_loss_from_last_epoch() {
        assert_eq!(dummy().final_loss(), 0.5);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let s = dummy().summary();
        assert!(s.contains("2 epochs"));
        assert!(s.contains("0.8000"));
    }

    #[test]
    fn summary_reports_overlap_when_pipelined() {
        let mut r = dummy();
        r.breakdown.add(Phase::Sampling, 1.0);
        r.breakdown.add_hidden_sampling(1.0);
        assert!((r.sampling_overlap_fraction() - 0.5).abs() < 1e-12);
        let s = r.summary();
        assert!(s.contains("sampling overlap 50.0%"), "{s}");
    }

    #[test]
    fn empty_report_degenerate() {
        let r = TrainReport {
            epochs: vec![],
            final_val_f1: 0.0,
            test_f1: 0.0,
            curve: Curve::new("x"),
            breakdown: Breakdown::default(),
            total_train_secs: 0.0,
            shard_cache: None,
            eval: None,
        };
        assert_eq!(r.secs_per_iteration(), 0.0);
        assert!(r.final_loss().is_nan());
    }
}
