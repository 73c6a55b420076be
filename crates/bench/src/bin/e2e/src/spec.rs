//! The benchmark's fixed definition: metric tables and every workload
//! constant. Sizes, F1 thresholds, open-loop rates and latency limits were
//! pinned when the benchmark was defined (2-core box, see README.md) and
//! are never re-derived at run time, so a parent commit and a change see
//! identical load.

use gsgcn_tensor::Precision;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// End-to-end metrics, `(name, unit, better)`. Every workload reports every
/// one; README.md says what each means per workload family.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mib", "MiB", Better::Lower),
    ("to_target_s", "s", Better::Lower),
    ("op_ms", "ms", Better::Lower),
    ("slow_op_ms", "ms", Better::Lower),
    ("quality", "ratio", Better::Higher),
];

/// Per-layer metrics, `(name, unit, better)`. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, Better); 64] = [
    ("data.generate_s", "s", Better::Lower),
    ("data.spill_s", "s", Better::Lower),
    ("graph.store.open_s", "s", Better::Lower),
    ("sampler.frontier_s", "s", Better::Lower),
    ("sampler.subgraphs", "count", Better::Lower),
    ("sampler.vertices", "count", Better::Higher),
    ("sampler.probes_per_pop", "ratio", Better::Lower),
    ("sampler.pipeline_stall_s", "s", Better::Lower),
    ("sampler.pipeline_hidden_ratio", "ratio", Better::Higher),
    ("graph.induce_s", "s", Better::Lower),
    ("graph.ball_s", "s", Better::Lower),
    ("graph.ball_rows", "count", Better::Lower),
    ("graph.store.gather_s", "s", Better::Lower),
    ("graph.store.gather_rows", "count", Better::Lower),
    ("graph.store.gather_gbps", "GB/s", Better::Higher),
    ("graph.store.cache_hit_ratio", "ratio", Better::Higher),
    ("graph.store.cache_misses", "count", Better::Lower),
    ("graph.store.cache_evictions", "count", Better::Lower),
    ("graph.store.prefetch_issued", "count", Better::Lower),
    ("graph.store.prefetch_useful_ratio", "ratio", Better::Higher),
    ("graph.store.prefetch_wasted", "count", Better::Lower),
    ("prop.fused_s", "s", Better::Lower),
    ("prop.fused_gelems", "Gelem/s", Better::Higher),
    ("prop.fused_vs_stream", "ratio", Better::Higher),
    ("tensor.gemm_s", "s", Better::Lower),
    ("tensor.gemm_gflops", "GFLOP/s", Better::Higher),
    ("tensor.gemm_flops", "count", Better::Lower),
    ("tensor.gemm_ops_per_byte", "flop/B", Better::Higher),
    ("tensor.gemm_vs_peak", "ratio", Better::Higher),
    ("nn.step_self_s", "s", Better::Lower),
    ("nn.infer_s", "s", Better::Lower),
    ("core.epoch_s", "s", Better::Lower),
    ("core.eval_s", "s", Better::Lower),
    ("core.eval_ball_s", "s", Better::Lower),
    ("core.eval_gather_s", "s", Better::Lower),
    ("core.eval_infer_s", "s", Better::Lower),
    ("core.par_speedup_2t", "ratio", Better::Higher),
    ("core.trace_sum_ratio", "ratio", Better::Higher),
    ("core.trace_overhead_ratio", "ratio", Better::Lower),
    ("serve.wire_encode_us", "us", Better::Lower),
    ("serve.wire_decode_us", "us", Better::Lower),
    ("serve.socket_ms", "ms", Better::Lower),
    ("serve.poll.self_ms", "ms", Better::Lower),
    ("serve.engine.self_ms", "ms", Better::Lower),
    ("serve.engine.batch_size", "nodes", Better::Higher),
    ("serve.engine.shed", "count", Better::Lower),
    ("serve.classifier.classify_ms", "ms", Better::Lower),
    ("serve.ladder_sum_ratio", "ratio", Better::Higher),
    ("serve.cache.hit_ratio", "ratio", Better::Higher),
    ("serve.cache.gather_us", "us", Better::Lower),
    ("serve.cache.insert_us", "us", Better::Lower),
    ("serve.cache.evictions", "count", Better::Lower),
    ("serve.rate_lo_p99_ms", "ms", Better::Lower),
    ("serve.rate_mid_p99_ms", "ms", Better::Lower),
    ("serve.rate_hi_p99_ms", "ms", Better::Lower),
    ("serve.rate_hi_miss_frac", "ratio", Better::Lower),
    ("serve.max_ok_rps", "1/s", Better::Higher),
    ("serve.loadgen_late_ms", "ms", Better::Lower),
    ("probe.stream_gbps", "GB/s", Better::Higher),
    ("probe.stream_array_mib", "MiB", Better::Higher),
    ("probe.llc_mib", "MiB", Better::Higher),
    ("probe.fma_gflops", "GFLOP/s", Better::Higher),
    ("trace.spans", "count", Better::Lower),
    ("trace.run_s", "s", Better::Lower),
];

/// `quality` sits near 1, where a share of the base says little, so
/// `e2e compare` judges it by distance instead: validation F1 on the
/// training workloads, miss fraction on the serving ones. (`BENCHMARK.json`
/// has room only for the relative bound the driver applies.)
pub const VAL_F1_BOUND: f64 = 0.005;
pub const MISS_FRAC_BOUND: f64 = 0.01;

/// How many times set-up runs in one invocation; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// `run_seconds` of `BENCHMARK.json`: the window every constant below was
/// sized for, and the default of `e2e run`.
pub const RUN_SECONDS: f64 = 15.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Reddit-shaped: f = 602, 41 classes, single-label, avg degree ≈ 100.
    Reddit,
    /// Yelp-shaped: f = 300, 100 classes, multi-label, avg degree ≈ 19.
    Yelp,
}

/// Out-of-core placement of a training workload.
#[derive(Clone, Copy, Debug)]
pub struct Ooc {
    pub shards: usize,
    pub cache_bytes: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub shape: Shape,
    pub vertices: usize,
    pub hidden: &'static [usize],
    pub budget: usize,
    pub frontier: usize,
    pub lr: f32,
    /// Compute threads (rayon pool of the trainer) and `p_inter`.
    pub threads: usize,
    pub p_inter: usize,
    /// 0 = synchronous in-loop sampler.
    pub sampler_threads: usize,
    pub precision: Precision,
    /// One training = this many epochs, validating every `eval_every`.
    pub epochs: usize,
    pub eval_every: usize,
    /// Validation F1-micro that `to_target_s` times; also the floor the
    /// final F1 must clear for the run to count as correct.
    pub f1_threshold: f64,
    pub ooc: Option<Ooc>,
}

/// `train_dense`: resident, GEMM- and aggregation-bound.
pub const TRAIN_DENSE: TrainSpec = TrainSpec {
    shape: Shape::Reddit,
    vertices: 16_384,
    hidden: &[256, 256],
    budget: 2000,
    frontier: 250,
    // 3e-3 (not the 1e-2 default): the synthetic graph is easy enough that
    // the default reaches F1 0.97 in one epoch, which would make "time to
    // F1" the time of the first epoch. At 3e-3 validation F1 climbs
    // 0.95 → 0.98 → 0.99+ over epochs 2–4 and the threshold sits in the gap
    // between epochs 3 and 4 for every seed tried.
    lr: 3e-3,
    threads: 2,
    p_inter: 2,
    sampler_threads: 0,
    precision: Precision::F32,
    epochs: 8,
    eval_every: 1,
    f1_threshold: 0.9845,
    ooc: None,
};

/// `train_bf16`: `train_dense` under half-width activation storage.
pub const TRAIN_BF16: TrainSpec = TrainSpec {
    precision: Precision::Bf16,
    ..TRAIN_DENSE
};

/// `train_ooc`: scrambled ids, BFS-ordered mmap shards behind a cache a
/// quarter of the store, prefetch on, pipelined sampler.
pub const TRAIN_OOC: TrainSpec = TrainSpec {
    shape: Shape::Yelp,
    vertices: 30_000,
    hidden: &[64, 64],
    budget: 2000,
    frontier: 250,
    lr: 1e-2,
    threads: 1,
    p_inter: 1,
    sampler_threads: 1,
    precision: Precision::F32,
    epochs: 12,
    eval_every: 4,
    f1_threshold: 0.45,
    ooc: Some(Ooc {
        shards: 12,
        cache_bytes: 12 << 20,
    }),
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Roots drawn uniformly without reuse: every request is cold.
    UniformNoReuse,
    /// Roots drawn Zipf(1.1) from a pre-warmed hot set.
    ZipfHot,
}

#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub mix: Mix,
    pub vertices: usize,
    pub hidden: &'static [usize],
    /// Epochs the served model is trained for during set-up.
    pub train_epochs: usize,
    pub roots_per_request: usize,
    pub hot_set: usize,
    pub zipf_s: f64,
    pub cache_bytes: usize,
    /// Compute threads of the single engine worker.
    pub threads: usize,
    pub connections: usize,
    /// Closed-loop callers per connection (requests kept in flight):
    /// enough to keep the worker saturated — two full 64-node batches on
    /// the cold mix, a deep queue on the warm one. With one caller per
    /// connection the engine's batcher is left to chance: the two callers
    /// either fall into step and share every batch or fall out of step and
    /// never do, and warm capacity reads 15.9k or 9.5k requests a phase,
    /// run by run.
    pub callers_per_connection: usize,
    /// `to_target_s` is closed-loop capacity stated as a time: seconds per
    /// this many classified nodes.
    pub quota_nodes: u64,
    /// Open-loop request rates (requests/s over both connections):
    /// ≈ 30 / 60 / 90 % of the closed-loop rate seen at definition time.
    pub rates: [f64; 3],
    /// A request slower than this (from when it was due) misses.
    pub latency_limit_ms: f64,
    /// Requests replayed at each rung of the traced direct-call ladder.
    pub ladder_requests: usize,
}

/// `serve_cold`: the cache's write path; ball extraction + gather + pruned
/// forward dominate.
pub const SERVE_COLD: ServeSpec = ServeSpec {
    mix: Mix::UniformNoReuse,
    vertices: 32_768,
    hidden: &[128, 128],
    train_epochs: 2,
    roots_per_request: 32,
    hot_set: 0,
    zipf_s: 0.0,
    // 2048 activation rows, 1/16 of the graph's.
    cache_bytes: 1 << 20,
    threads: 1,
    connections: 2,
    callers_per_connection: 2,
    quota_nodes: 1_200,
    rates: [12.0, 24.0, 36.0],
    latency_limit_ms: 150.0,
    ladder_requests: 100,
};

/// `serve_warm`: the cache's read path; parse → queue → one-hop gather →
/// final hop → reply, so the front door dominates.
pub const SERVE_WARM: ServeSpec = ServeSpec {
    mix: Mix::ZipfHot,
    roots_per_request: 8,
    hot_set: 4096,
    zipf_s: 1.1,
    callers_per_connection: 16,
    // Holds the hot set's closed one-hop ball (≈ 17 MiB) with room to spare.
    cache_bytes: 32 << 20,
    quota_nodes: 100_000,
    rates: [2000.0, 3000.0, 4000.0],
    latency_limit_ms: 10.0,
    ladder_requests: 1500,
    ..SERVE_COLD
};

pub enum Workload {
    Train(&'static TrainSpec),
    Serve(&'static ServeSpec),
}

/// Workload names in report order, with the spec each runs.
pub const WORKLOADS: [(&str, Workload); 5] = [
    ("train_dense", Workload::Train(&TRAIN_DENSE)),
    ("train_bf16", Workload::Train(&TRAIN_BF16)),
    ("train_ooc", Workload::Train(&TRAIN_OOC)),
    ("serve_cold", Workload::Serve(&SERVE_COLD)),
    ("serve_warm", Workload::Serve(&SERVE_WARM)),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` and the tables above must describe the same
    /// benchmark: same metric names, units and directions, same workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = json::parse(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str, Better)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.name().to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(RUN_SECONDS)
        );
        for m in doc.get("end_to_end").and_then(|v| v.as_arr()).unwrap() {
            let bound = m.get("bound").and_then(|v| v.as_f64()).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
