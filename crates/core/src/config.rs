//! Trainer configuration.

use gsgcn_nn::adam::AdamHyper;
use gsgcn_prop::propagator::PropMode;
use gsgcn_sampler::dashboard::FrontierConfig;

/// Full configuration of a graph-sampling GCN training run.
///
/// Model dimensions that depend on the dataset (`in_dim`, `num_classes`,
/// loss kind) are filled in by the trainer from the dataset itself; this
/// struct holds everything the *user* chooses.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Frontier-sampler parameters (`m`, `n`, `η`, degree cap, probe mode).
    pub sampler: FrontierConfig,
    /// Hidden layer widths (`L` = length; each must be even).
    pub hidden_dims: Vec<usize>,
    /// Adam hyperparameters.
    pub adam: AdamHyper,
    /// Dropout on layer inputs.
    pub dropout: f32,
    /// Training epochs (one epoch ≈ `|V_train| / budget` iterations —
    /// "one full traversal of all training vertices", Sec. III-B).
    pub epochs: usize,
    /// Sampler instances launched per pool refill (`p_inter`, Alg. 5).
    pub p_inter: usize,
    /// Compute threads: the trainer's rayon pool, which runs the training
    /// step (aggregation, GEMMs, loss, Adam) and, with no sampler
    /// workers, the inline sampling. `0` = one per core. Together with
    /// [`Self::sampler_threads`] this is the trainer's thread budget.
    /// Evaluation runs on all of it — `threads + sampler_threads` threads
    /// — when both are set, since it leaves the workers idle; otherwise
    /// on the compute pool (see the trainer module's *Threads*). No
    /// thread count changes a result bit.
    pub threads: usize,
    /// Dedicated worker threads of the trainer's sampler pipeline, on top
    /// of [`Self::threads`]: each samples a subgraph and gathers its
    /// feature and label rows from the training store concurrently with
    /// training compute, one subgraph ahead per worker, hiding sampler
    /// latency and the (out-of-core) row copy behind the GEMMs. Worker
    /// gathers pause while a stored evaluation reads the full store, and
    /// with `threads > 0` evaluation takes the workers' cores. With `0`
    /// the same pipeline samples each seed batch inline on the compute
    /// pool and gathers each subgraph's rows on the training thread.
    /// Every worker count consumes subgraphs in the same
    /// `(batch, instance)` ticket order with the same seeds and rows, so
    /// the loss trajectory is bit-identical for a fixed seed.
    pub sampler_threads: usize,
    /// Evaluate validation F1 every this many epochs (0 = only at end).
    pub eval_every: usize,
    /// Propagation kernel for the *unfused* path (Alg. 6 by default).
    /// Only consulted when `fused` is off — the fused pipeline has its
    /// own fixed blocking and ignores this for both training and
    /// inference, so kernel ablations over `prop_mode` must also set
    /// `fused: false`.
    pub prop_mode: PropMode,
    /// Run GCN layers on the fused aggregate→GEMM pipeline (default).
    /// `false` falls back to the unfused aggregate-then-GEMM reference
    /// path (ablations, equivalence tests).
    pub fused: bool,
    /// Early stopping: end training when validation F1 has not improved
    /// for this many consecutive evaluations (`None` disables; requires
    /// `eval_every > 0`).
    pub patience: Option<usize>,
    /// Master seed for weights, sampling and splits-independent RNG.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            sampler: FrontierConfig {
                frontier_size: 1000,
                budget: 8000,
                ..FrontierConfig::default()
            },
            hidden_dims: vec![512, 512],
            adam: AdamHyper {
                lr: 1e-2,
                ..AdamHyper::default()
            },
            dropout: 0.0,
            epochs: 20,
            p_inter: num_cpus_estimate(),
            threads: 0,
            sampler_threads: 0,
            eval_every: 1,
            prop_mode: PropMode::default(),
            fused: true,
            patience: None,
            seed: 1,
        }
    }
}

impl TrainerConfig {
    /// Small/fast settings for unit tests and doc examples: tiny frontier,
    /// small hidden layers, few epochs, deterministic single pool refill.
    pub fn quick_test() -> Self {
        TrainerConfig {
            sampler: FrontierConfig {
                frontier_size: 40,
                budget: 300,
                ..FrontierConfig::default()
            },
            hidden_dims: vec![64, 64],
            adam: AdamHyper {
                lr: 2e-2,
                ..AdamHyper::default()
            },
            dropout: 0.0,
            epochs: 15,
            p_inter: 4,
            threads: 0,
            sampler_threads: 0,
            eval_every: 5,
            prop_mode: PropMode::default(),
            fused: true,
            patience: None,
            seed: 42,
        }
    }

    /// Single-threaded variant (serial baseline of Figs. 2–3). Also
    /// forces synchronous sampling: a serial measurement must not hide
    /// sampler time on extra threads.
    pub fn serial(mut self) -> Self {
        self.threads = 1;
        self.p_inter = 1;
        self.sampler_threads = 0;
        self
    }

    /// Set the compute thread count ([`Self::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validate user-chosen parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.sampler.validate()?;
        if self.hidden_dims.is_empty() {
            return Err("hidden_dims must be non-empty".into());
        }
        if let Some(d) = self.hidden_dims.iter().find(|&&d| d == 0 || d % 2 != 0) {
            return Err(format!("hidden dims must be positive and even; got {d}"));
        }
        if self.epochs == 0 {
            return Err("epochs must be ≥ 1".into());
        }
        if self.p_inter == 0 {
            return Err("p_inter must be ≥ 1".into());
        }
        if self.sampler_threads > MAX_SAMPLER_THREADS {
            return Err(format!(
                "sampler_threads {} exceeds the maximum of {MAX_SAMPLER_THREADS}; \
                 use 0 for the synchronous in-loop sampler",
                self.sampler_threads
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout must be in [0,1); got {}", self.dropout));
        }
        if self.patience.is_some() && self.eval_every == 0 {
            return Err("patience requires eval_every > 0".into());
        }
        if self.patience == Some(0) {
            return Err("patience must be ≥ 1".into());
        }
        Ok(())
    }
}

/// Upper bound on `sampler_threads` — beyond this a config is almost
/// certainly a typo, and each worker pins a subgraph-sized buffer slot.
pub const MAX_SAMPLER_THREADS: usize = 256;

/// Conservative CPU estimate without extra dependencies.
fn num_cpus_estimate() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The `auto` sampler-thread count: `min(2, cores/4)`. Sampling is far
/// cheaper than training compute, so a couple of dedicated producers
/// saturate the queue; on small machines (`cores < 4`) this yields `0` —
/// inline sampling — because there is no spare core to overlap on.
pub fn auto_sampler_threads() -> usize {
    (num_cpus_estimate() / 4).min(2)
}

/// Parse a sampler-thread spec: a worker count, `auto`
/// ([`auto_sampler_threads`]), or `0` for the synchronous in-loop
/// sampler. The `gsgcn` binary parses both `--sampler-threads` and
/// `GSGCN_SAMPLER_THREADS` with it.
pub fn parse_sampler_threads(spec: &str) -> Result<usize, String> {
    if spec.eq_ignore_ascii_case("auto") {
        return Ok(auto_sampler_threads());
    }
    spec.parse().map_err(|_| {
        format!(
            "invalid sampler-threads value {spec:?}: expected a worker count, \
             `auto`, or `0` for the synchronous in-loop sampler"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(TrainerConfig::default().validate().is_ok());
        assert!(TrainerConfig::quick_test().validate().is_ok());
    }

    #[test]
    fn serial_sets_both_knobs() {
        let c = TrainerConfig::default().serial();
        assert_eq!(c.threads, 1);
        assert_eq!(c.p_inter, 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = TrainerConfig::quick_test();
        c.hidden_dims = vec![63];
        assert!(c.validate().is_err());
        let mut c = TrainerConfig::quick_test();
        c.epochs = 0;
        assert!(c.validate().is_err());
        let mut c = TrainerConfig::quick_test();
        c.p_inter = 0;
        assert!(c.validate().is_err());
        let mut c = TrainerConfig::quick_test();
        c.sampler.budget = 0;
        assert!(c.validate().is_err());
        let mut c = TrainerConfig::quick_test();
        c.dropout = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_threads_builder() {
        let c = TrainerConfig::quick_test().with_threads(3);
        assert_eq!(c.threads, 3);
    }

    #[test]
    fn sampler_threads_validation() {
        let mut c = TrainerConfig::quick_test();
        c.sampler_threads = 2;
        assert!(c.validate().is_ok());
        c.sampler_threads = MAX_SAMPLER_THREADS + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("synchronous"), "{err}");
        assert!(err.contains('0'), "{err}");
    }

    #[test]
    fn parse_sampler_threads_spec() {
        assert_eq!(parse_sampler_threads("0"), Ok(0));
        assert_eq!(parse_sampler_threads("3"), Ok(3));
        assert_eq!(parse_sampler_threads("auto"), Ok(auto_sampler_threads()));
        assert_eq!(parse_sampler_threads("AUTO"), Ok(auto_sampler_threads()));
        let err = parse_sampler_threads("two").unwrap_err();
        assert!(err.contains("synchronous"), "{err}");
    }

    #[test]
    fn auto_sampler_threads_bounded() {
        // min(2, cores/4): never more than 2, and 0 on small machines.
        assert!(auto_sampler_threads() <= 2);
    }

    #[test]
    fn serial_forces_synchronous_sampling() {
        let c = TrainerConfig {
            sampler_threads: 4,
            ..TrainerConfig::default()
        }
        .serial();
        assert_eq!(c.sampler_threads, 0);
    }
}
