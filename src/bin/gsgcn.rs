//! `gsgcn` — command-line interface for the graph-sampling GCN.
//!
//! ```text
//! gsgcn datasets
//! gsgcn shard --dataset ppi --out DIR [--vertices N] [--num-shards K]
//! gsgcn train --dataset ppi [--epochs 30] [--hidden 128,128] [--budget 1000]
//!             [--frontier 100] [--lr 0.02] [--threads 0]
//!             [--sampler-threads auto] [--patience N] [--seed 42]
//!             [--save model.gcn] [--shards DIR] [--graph-store mem|mmap]
//! gsgcn eval    --load model.gcn [--dataset ppi] [--hidden 128,128] [--seed 42]
//! gsgcn predict --load model.gcn --nodes 3,17,204
//! gsgcn serve   --load model.gcn [--addr 127.0.0.1:7878] [--workers 1]
//! gsgcn kernel
//! gsgcn reproduce <table1|fig2|fig3|fig4|table2|a1|a2|a3|all> [--full] [--seed 42]
//!                 [--max-cores N]
//! ```
//!
//! # Out-of-core operation
//!
//! `shard` writes a dataset as a partitioned on-disk graph store
//! (`gsgcn_data::StoreDataset`); `train`/`eval`/`predict`/`serve` accept
//! `--shards DIR` to run against it without regenerating (or fully
//! loading) the dataset. `--graph-store mmap` keeps the resident set
//! bounded by the shard-cache budget, `mem` (the default) materialises
//! everything (the negative control for the RSS-capped CI smoke test);
//! without `--shards`, naming a backend is an error. `train`,
//! `predict` and `eval --shards` report the kernel-measured peak RSS on
//! exit; `eval --shards` and the `train --shards` summary also print the
//! work of the stored evaluation (tiles and rows computed per layer,
//! feature rows gathered, phase seconds).
//!
//! `eval`, `predict` and `serve` default the dataset, seed, scale and
//! hidden dims to the values stored in the checkpoint (v2 provenance), so
//! a bare `--load` always runs against the dataset the model was trained
//! on. `predict` answers a one-shot node batch through the batched
//! inference engine (layer-at-a-time over the batch's frontier balls, not a
//! full-graph pass);
//! `serve` keeps the engine running behind an event-driven TCP
//! front-end speaking the line protocol or a pipelined binary framing,
//! with weighted admission control and an optional activation cache
//! (see `gsgcn_serve`). `kernel` reports the GEMM microkernel tier
//! `GSGCN_KERNEL` resolves to and the tiers this CPU has, with the unit
//! each one's bf16 panels run on (`bf16:amx` on the AMX tile unit,
//! plain `bf16` on the tier's widen kernel). `reproduce` runs the paper's
//! experiments ([`gsgcn::reproduce`]).
//!
//! # Runtime settings
//!
//! The settings the libraries take as arguments are resolved once per
//! command into a [`RuntimeConfig`], flag > environment > default:
//!
//! | setting | flag | environment | default |
//! |---|---|---|---|
//! | backend of a `--shards` store | `--graph-store` | `GSGCN_GRAPH_STORE` | `mem` |
//! | mapped bytes per mmap store | — | `GSGCN_SHARD_CACHE` | 64 MiB |
//! | activation cache (`predict`, `serve`) | `--cache-bytes` | `GSGCN_ACTIVATION_CACHE` | off |
//! | sampler workers (`train`) | `--sampler-threads` | `GSGCN_SAMPLER_THREADS` | `auto` |
//! | activation storage precision | `--precision` | `GSGCN_PRECISION` | `f32` (= `auto`) |
//! | GEMM microkernel tier | — | `GSGCN_KERNEL` | `auto` (the best this CPU has) |
//!
//! A malformed value is an `error:` exit 1, as a bad flag is, and
//! `train`/`eval`/`predict`/`serve` print the resolved values on a
//! `runtime:` line. This is the only code that reads these variables.
//! The kernel tier is pinned process-wide ([`gemm::pin_default_tier`]).
//!
//! Argument parsing is hand-rolled (the workspace has no CLI dependency).
//! Each subcommand lists the flags it accepts; any other flag is an
//! `error: unknown flag` exit with usage help.

use gsgcn::core::config::{auto_sampler_threads, parse_sampler_threads};
use gsgcn::core::trainer::EvalSplit;
use gsgcn::core::{GsGcnTrainer, TrainerConfig};
use gsgcn::data::{presets, Dataset, StoreDataset};
use gsgcn::graph::store::{parse_byte_size, DEFAULT_SHARD_CACHE_BYTES};
use gsgcn::graph::StoreBackend;
use gsgcn::nn::checkpoint::{CheckpointMeta, ModelWeights};
use gsgcn::tensor::gemm::{self, Tier};
use gsgcn::tensor::Precision;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "usage:
  gsgcn datasets
  gsgcn shard --dataset <ppi|reddit|yelp|amazon> --out DIR [--vertices N]
              [--num-shards K] [--order <natural|bfs|degree>] [--seed N]
              [--features <f32|bf16>] [--full]
              — generate the dataset and write it as a partitioned
              on-disk graph store; --vertices scales the graph to N
              vertices, --num-shards 0 (default) picks a shard count
              from the graph size, --order picks the locality-aware
              placement (bfs groups neighborhoods into the same shard;
              ids the store answers to are unchanged), --features bf16
              stores feature rows at half width (labels stay f32;
              gathers widen back to f32)
  gsgcn train --dataset <ppi|reddit|yelp|amazon> [--epochs N] [--hidden A,B,..]
              [--budget N] [--frontier N] [--lr F] [--threads N]
              [--sampler-threads N|auto] [--patience N] [--seed N] [--full]
              [--save PATH] [--shards DIR] [--graph-store <mem|mmap>]
              (--shards trains from a pre-sharded store dir instead of
               generating the dataset; --graph-store picks that store's
               backend, flag > GSGCN_GRAPH_STORE env > mem, and is an
               error without --shards; GSGCN_SHARD_CACHE sets each mmap store's
               mapped-byte budget, default 64MiB)
              (--threads: compute threads of the training step, 0 = one
               per core; --sampler-threads: worker threads that sample
               the next subgraphs and gather their rows beside compute,
               flag > GSGCN_SAMPLER_THREADS env > auto = min(2, cores/4),
               0 = sample inline on the compute threads; with both set,
               evaluation runs on threads + sampler-threads threads,
               since it leaves the workers idle)
              (--precision <f32|bf16|auto> on train/eval/predict/serve picks
               the activation storage precision, flag > GSGCN_PRECISION
               env > f32 (auto = f32); `kernel` reads the env only;
               bf16 stores activations at half width and trains
               mixed precision — bf16 panels in the forward and backward
               GEMMs, f32 accumulation, f32 master weights and Adam)
  gsgcn eval  --load PATH [--dataset <name>] [--hidden A,B,..] [--seed N]
              [--full|--scaled] [--shards DIR] [--graph-store <mem|mmap>]
              [--threads N]
              (dataset/seed/scale/hidden default to the checkpoint's training
               values; an explicit flag overrides with a warning)
  gsgcn predict --load PATH --nodes N,N,.. [--probs] [--shards DIR]
              [--graph-store <mem|mmap>] [dataset overrides as for eval]
              — classify a node batch layer by layer on its frontier
              through the batch engine; --probs prints full class rows,
              each probability in its shortest round-trip form;
              GSGCN_ACTIVATION_CACHE=SIZE attaches an activation cache
  gsgcn serve --load PATH [--addr HOST:PORT] [--workers N] [--max-batch N]
              [--queue N] [--admission <block|shed>]
              [--protocol <line|binary>]
              [--cache-bytes SIZE] [--max-conns N] [--idle-timeout-ms N]
              [dataset overrides as for eval]
              — line protocol: send `3 17 204\\n`, receive
              `ok 3:<labels>:<p> ..\\n` (`err ..\\n` on failure,
              `overloaded\\n` when admission sheds, `quit` to close);
              --protocol binary selects the pipelined length-prefixed
              framing (see gsgcn_serve docs).
              SIZE accepts 64MiB/1GB/..; --cache-bytes sizes the
              activation cache, flag > GSGCN_ACTIVATION_CACHE env > off
              (0 = off); accepts --shards/--graph-store as for predict
  gsgcn kernel — the GEMM kernel tier every command runs on, from
              GSGCN_KERNEL=<scalar|avx2|avx512|amx|auto> (auto = the best
              this CPU has), and the tiers this CPU has
  gsgcn reproduce <table1|fig2|fig3|fig4|table2|a1|a2|a3|all> [--full]
              [--seed N] [--max-cores N]
              — run the paper's experiments on the scaled presets (see the
              gsgcn::reproduce docs); --full runs heavier configurations,
              --max-cores caps the core sweep";

/// The flags each subcommand accepts (`None`: no such subcommand), as
/// `(flags taking a value, presence-only flags)`. A flag missing from its
/// command's lists is an error rather than ignored: a stale or misspelt
/// flag would otherwise run with the default it meant to change — or,
/// read as taking a value, swallow the next argument.
fn accepted_flags(cmd: &str) -> Option<(&'static str, &'static str)> {
    Some(match cmd {
        "datasets" => ("", ""),
        "shard" => (
            "dataset out vertices num-shards order seed features",
            "full",
        ),
        "train" => (
            "dataset vertices seed hidden epochs budget frontier lr threads sampler-threads \
             eval-every patience save shards graph-store precision",
            "full",
        ),
        "eval" => (
            "load dataset vertices seed hidden threads shards graph-store precision",
            "full scaled",
        ),
        "predict" => (
            "load nodes dataset vertices seed hidden shards graph-store precision",
            "full scaled probs",
        ),
        "serve" => (
            "load addr workers max-batch queue admission protocol cache-bytes max-conns \
             idle-timeout-ms dataset vertices seed hidden shards graph-store precision",
            "full scaled",
        ),
        "kernel" => ("", ""),
        "reproduce" => ("seed max-cores", "full"),
        _ => return None,
    })
}

/// Parse `args` against `cmd`'s accepted flags (see [`accepted_flags`]);
/// presence-only flags map to `"1"`.
fn parse_flags(
    cmd: &str,
    (valued, presence): (&str, &str),
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if presence.split_whitespace().any(|f| f == key) {
            flags.insert(key.to_string(), "1".to_string());
            i += 1;
        } else if valued.split_whitespace().any(|f| f == key) {
            let val = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), val.clone());
            i += 2;
        } else {
            return Err(format!("unknown flag --{key} for {cmd}"));
        }
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value {v:?} for --{key}")),
    }
}

/// The dataset-generation seed. The single place its default lives: the
/// generated dataset, the trainer seed and the checkpoint provenance must
/// all agree or `eval --load` regenerates a different random graph than
/// the one trained on.
fn dataset_seed(flags: &HashMap<String, String>) -> Result<u64, String> {
    get(flags, "seed", 42u64)
}

fn load_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let name = flags
        .get("dataset")
        .ok_or("missing --dataset")?
        .to_lowercase();
    let seed = dataset_seed(flags)?;
    let full = flags.contains_key("full");
    // --vertices N: scale the named dataset's spec to an explicit vertex
    // count (used by `shard` to size out-of-core fixtures).
    if let Some(v) = flags.get("vertices") {
        let nv: usize = v
            .parse()
            .map_err(|_| format!("invalid value {v:?} for --vertices"))?;
        let spec = match name.as_str() {
            "ppi" => presets::ppi_spec(),
            "reddit" => presets::reddit_spec(),
            "yelp" => presets::yelp_spec(),
            "amazon" => presets::amazon_spec(),
            _ => return Err(format!("unknown dataset {name:?} (ppi|reddit|yelp|amazon)")),
        };
        return Ok(presets::scale_spec(&spec, nv).generate(seed));
    }
    let d = match (name.as_str(), full) {
        ("ppi", false) => presets::ppi_scaled(seed),
        ("reddit", false) => presets::reddit_scaled(seed),
        ("yelp", false) => presets::yelp_scaled(seed),
        ("amazon", false) => presets::amazon_scaled(seed),
        ("ppi", true) => presets::ppi_full(seed),
        ("reddit", true) => presets::reddit_full(seed),
        ("yelp", true) => presets::yelp_full(seed),
        ("amazon", true) => presets::amazon_full(seed),
        _ => return Err(format!("unknown dataset {name:?} (ppi|reddit|yelp|amazon)")),
    };
    Ok(d)
}

/// The settings the libraries take as arguments, resolved once per
/// command (see "Runtime settings" in the module docs).
struct RuntimeConfig {
    store: StoreBackend,
    shard_cache: usize,
    /// Activation-cache bytes; 0 = off.
    activation_cache: usize,
    sampler_threads: usize,
    /// Activation storage precision of the model and the activation cache.
    precision: Precision,
    /// The GEMM microkernel tier, pinned process-wide by [`Self::resolve`].
    kernel: Tier,
}

impl RuntimeConfig {
    fn resolve(flags: &HashMap<String, String>) -> Result<Self, String> {
        let store = setting(flags, "graph-store", "GSGCN_GRAPH_STORE", None, |s| {
            s.parse().map(Some)
        })?;
        if store.is_some() && !flags.contains_key("shards") {
            let why = "a store backend needs --shards DIR; write one with `gsgcn shard`";
            return Err(format!("--graph-store / GSGCN_GRAPH_STORE: {why}"));
        }
        let shard_cache = |s: &str| match parse_byte_size(s)? {
            0 => Err("a 0-byte shard cache maps nothing".to_string()),
            bytes => Ok(bytes),
        };
        let kernel = kernel_setting(flags)?;
        // Before the first GEMM, so pool, engine and sampler threads all
        // dispatch to it.
        gemm::pin_default_tier(kernel);
        Ok(RuntimeConfig {
            store: store.unwrap_or_default(),
            shard_cache: setting(
                flags,
                "",
                "GSGCN_SHARD_CACHE",
                DEFAULT_SHARD_CACHE_BYTES,
                shard_cache,
            )?,
            activation_cache: setting(
                flags,
                "cache-bytes",
                "GSGCN_ACTIVATION_CACHE",
                0,
                parse_byte_size,
            )?,
            sampler_threads: setting(
                flags,
                "sampler-threads",
                "GSGCN_SAMPLER_THREADS",
                auto_sampler_threads(),
                parse_sampler_threads,
            )?,
            precision: precision_setting(flags)?,
            kernel,
        })
    }

    fn open_store_dataset(&self, dir: &str) -> Result<StoreDataset, String> {
        StoreDataset::open_with(std::path::Path::new(dir), self.store, self.shard_cache)
            .map_err(|e| format!("opening shard dir {dir:?}: {e}"))
    }

    /// `c` with the resolved activation cache attached, its rows in the
    /// resolved activation precision (bf16 serving halves bytes-per-row).
    /// A 1-layer model has no hidden rows to cache: the cache is left off
    /// with a warning.
    fn attach_cache(&self, c: gsgcn::serve::NodeClassifier) -> gsgcn::serve::NodeClassifier {
        use gsgcn::serve::ActivationCache;
        match self.activation_cache {
            0 => c,
            _ if c.hops() < 2 => {
                eprintln!("warning: activation cache ignored for a 1-layer model");
                c
            }
            bytes => c.with_cache(Some(std::sync::Arc::new(ActivationCache::with_precision(
                bytes,
                self.precision,
            )))),
        }
    }
}

impl std::fmt::Display for RuntimeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use gsgcn::metrics::mem::format_bytes;
        let cache = match self.activation_cache {
            0 => "off".to_string(),
            bytes => format_bytes(bytes),
        };
        write!(
            f,
            "runtime: graph store {}, shard cache {}, activation cache {cache}, \
             sampler threads {}, precision {}, kernel {}",
            self.store.name(),
            format_bytes(self.shard_cache),
            self.sampler_threads,
            self.precision,
            self.kernel.name()
        )
    }
}

/// One setting: `--flag` (`""`: none), else a non-empty `var`, else
/// `default`; a value that does not parse is an error naming its source.
fn setting<T>(
    flags: &HashMap<String, String>,
    flag: &str,
    var: &str,
    default: T,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let (source, raw) = match flags.get(flag) {
        Some(v) => (format!("--{flag}"), v.clone()),
        None => match std::env::var(var) {
            Ok(v) if !v.trim().is_empty() => (var.to_string(), v),
            _ => return Ok(default),
        },
    };
    parse(raw.trim()).map_err(|e| format!("{source}: {e}"))
}

/// The activation storage precision: `--precision`, else
/// `GSGCN_PRECISION`, else f32; `auto` is f32.
fn precision_setting(flags: &HashMap<String, String>) -> Result<Precision, String> {
    setting(
        flags,
        "precision",
        "GSGCN_PRECISION",
        Precision::F32,
        |s| match Precision::parse(s) {
            Some(p) => Ok(p),
            None if s.eq_ignore_ascii_case("auto") => Ok(Precision::F32),
            None => Err(format!("bad precision {s:?}: expected f32|bf16|auto")),
        },
    )
}

/// The GEMM microkernel tier: `GSGCN_KERNEL`, else the best this CPU
/// has (`auto`); a tier this CPU lacks is an error.
fn kernel_setting(flags: &HashMap<String, String>) -> Result<Tier, String> {
    let best = gemm::best_available_tier();
    setting(flags, "", "GSGCN_KERNEL", best, |s| match Tier::parse(s) {
        Some(t) if t.is_available() => Ok(t),
        Some(t) => Err(format!("this CPU cannot run the {} kernel", t.name())),
        None if s.eq_ignore_ascii_case("auto") => Ok(best),
        None => Err(format!(
            "bad kernel {s:?}: expected scalar|avx2|avx512|amx|auto"
        )),
    })
}

/// One-line shard-cache report printed by `train`/`eval`/`predict`
/// whenever the command read through an mmap store.
fn print_cache_stats(store: &gsgcn::graph::GraphStore) {
    if let Some(stats) = store.cache_stats() {
        println!("shard cache: {}", stats.summary());
    }
}

/// Report the kernel-measured peak resident set (`VmHWM`) and peak
/// address space (`VmPeak`) — the numbers the out-of-core CI smoke test
/// caps (via `ulimit -v`, which limits virtual memory).
fn print_peak_rss() {
    use gsgcn::metrics::mem::{format_bytes, peak_rss_bytes, peak_vm_bytes};
    if let Some(peak) = peak_rss_bytes() {
        let vm = peak_vm_bytes()
            .map(|b| format!(" (peak VM {})", format_bytes(b)))
            .unwrap_or_default();
        println!("peak RSS {}{vm}", format_bytes(peak));
    }
}

fn parse_hidden(flags: &HashMap<String, String>) -> Result<Vec<usize>, String> {
    match flags.get("hidden") {
        None => Ok(vec![128, 128]),
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("invalid hidden dim {s:?}"))
            })
            .collect(),
    }
}

fn build_config(
    flags: &HashMap<String, String>,
    rt: &RuntimeConfig,
) -> Result<TrainerConfig, String> {
    let mut cfg = TrainerConfig {
        hidden_dims: parse_hidden(flags)?,
        ..TrainerConfig::default()
    };
    cfg.epochs = get(flags, "epochs", 30usize)?;
    cfg.sampler.budget = get(flags, "budget", 1000usize)?;
    cfg.sampler.frontier_size = get(flags, "frontier", cfg.sampler.budget / 10)?;
    cfg.adam.lr = get(flags, "lr", 2e-2f32)?;
    cfg.threads = get(flags, "threads", 0usize)?;
    cfg.seed = dataset_seed(flags)?;
    cfg.eval_every = get(flags, "eval-every", 5usize)?;
    let patience: usize = get(flags, "patience", 0usize)?;
    cfg.patience = if patience > 0 { Some(patience) } else { None };
    cfg.p_inter = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.threads
    };
    cfg.sampler_threads = rt.sampler_threads;
    Ok(cfg)
}

fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<10} {:>10} {:>12} {:>6} {:>6} task",
        "name", "#vertices", "#edges", "attr", "cls"
    );
    for spec in [
        presets::ppi_spec(),
        presets::reddit_spec(),
        presets::yelp_spec(),
        presets::amazon_spec(),
    ] {
        println!(
            "{:<10} {:>10} {:>12} {:>6} {:>6} {}",
            spec.name.to_lowercase(),
            spec.vertices,
            spec.edges,
            spec.feature_dim,
            spec.classes,
            spec.task.mark()
        );
    }
    println!("\nscaled versions are the default; pass --full for Table-I scale");
    Ok(())
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn cmd_shard(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = flags.get("out").ok_or("missing --out")?;
    let num_shards = get(flags, "num-shards", 0usize)?;
    let order: gsgcn::graph::StoreOrder = match flags.get("order") {
        None => gsgcn::graph::StoreOrder::Natural,
        Some(v) => v.parse().map_err(|e| format!("--order: {e}"))?,
    };
    let feat_prec = match flags.get("features") {
        None => Precision::F32,
        Some(v) => {
            Precision::parse(v).ok_or_else(|| format!("bad --features {v:?}: expected f32|bf16"))?
        }
    };
    let dataset = load_dataset(flags)?;
    let dir = std::path::Path::new(out);
    println!(
        "sharding {} (|V|={}, |E|={}, f={}, classes={}) into {out}, {} order, {feat_prec} features",
        dataset.name,
        dataset.graph.num_vertices(),
        dataset.graph.num_edges(),
        dataset.feature_dim(),
        dataset.num_classes(),
        order.name(),
    );
    dataset
        .spill_to_dir_with_precision(dir, num_shards, order, feat_prec)
        .map_err(|e| format!("sharding into {out:?}: {e}"))?;
    // Report what landed on disk so operators can sanity-check sizes.
    let mut bytes = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if let Ok(entries) = std::fs::read_dir(&d) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if let Ok(m) = e.metadata() {
                    bytes += m.len();
                }
            }
        }
    }
    println!(
        "wrote full + train stores ({} on disk); open with --shards {out}",
        gsgcn::metrics::mem::format_bytes(bytes as usize)
    );
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let rt = RuntimeConfig::resolve(flags)?;
    println!("{rt}");
    if let Some(dir) = flags.get("shards") {
        return train_from_shards(flags, &rt, dir);
    }
    let dataset = load_dataset(flags)?;
    let cfg = build_config(flags, &rt)?;
    println!(
        "training on {} (|V|={}, f={}, classes={}) — {} epochs, hidden {:?}",
        dataset.name,
        dataset.graph.num_vertices(),
        dataset.feature_dim(),
        dataset.num_classes(),
        cfg.epochs,
        cfg.hidden_dims
    );
    let mut trainer = GsGcnTrainer::new(&dataset, cfg)?.with_precision(rt.precision);
    print_threads(&trainer);
    let report = trainer.train()?;
    println!("{}", report.summary());
    save_checkpoint(flags, &trainer, &dataset.name)?;
    print_peak_rss();
    Ok(())
}

/// `--save PATH`: write the trained weights with the training-time
/// dataset provenance. The datasets are synthetic (regenerated from
/// name+seed), so a later `eval` must regenerate the *same* one or the
/// F1 it reports is meaningless.
fn save_checkpoint(
    flags: &HashMap<String, String>,
    trainer: &GsGcnTrainer<'_>,
    dataset: &str,
) -> Result<(), String> {
    let Some(path) = flags.get("save") else {
        return Ok(());
    };
    let meta = CheckpointMeta {
        dataset: dataset.to_lowercase(),
        seed: dataset_seed(flags)?,
        full: flags.contains_key("full"),
        hidden_dims: parse_hidden(flags)?,
    };
    let weights = trainer.model().export_weights().with_meta(meta);
    weights
        .save(path)
        .map_err(|e| format!("saving {path:?}: {e}"))?;
    println!("saved {} parameters to {path}", weights.num_params());
    Ok(())
}

/// The `sampler:` line of `train`, resident or `--shards`: where the
/// pipeline samples and how many threads evaluation runs on.
fn print_threads(trainer: &GsGcnTrainer<'_>) {
    let eval = trainer.eval_threads();
    let sampler = match trainer.config().sampler_threads {
        0 => "inline (no worker threads)".to_string(),
        n => format!("{n} worker thread{}", plural(n)),
    };
    println!(
        "sampler: {sampler}; evaluation on {eval} thread{}",
        plural(eval)
    );
}

/// `gsgcn train --shards DIR`: train against a pre-sharded on-disk
/// store. On the `mmap` backend nothing is materialised — sampling and
/// evaluation stream through the shard cache, so the resident set stays
/// bounded regardless of graph size.
fn train_from_shards(
    flags: &HashMap<String, String>,
    rt: &RuntimeConfig,
    dir: &str,
) -> Result<(), String> {
    let sd = rt.open_store_dataset(dir)?;
    let cfg = build_config(flags, rt)?;
    println!(
        "training on sharded {} from {dir} (|V|={}, f={}, classes={}, backend {:?}, \
         {} shard{}, {} order) — {} epochs, hidden {:?}",
        sd.name,
        sd.num_vertices(),
        sd.feature_dim(),
        sd.num_classes(),
        sd.full.backend(),
        sd.full.num_shards(),
        plural(sd.full.num_shards()),
        sd.full.order().name(),
        cfg.epochs,
        cfg.hidden_dims
    );
    let mut trainer = GsGcnTrainer::from_store(&sd, cfg)?.with_precision(rt.precision);
    print_threads(&trainer);
    let report = trainer.train()?;
    println!("{}", report.summary());
    print_cache_stats(&sd.full);
    save_checkpoint(flags, &trainer, &sd.name)?;
    print_peak_rss();
    Ok(())
}

/// Fill `flags` defaults from the checkpoint's provenance and warn when an
/// explicit flag contradicts it (the model is then scored on a different
/// dataset than it was trained on — almost always a mistake). Mismatch is
/// judged on the *parsed* values, so `--seed 07` or `--hidden "128, 128"`
/// do not trigger false warnings.
fn apply_checkpoint_meta(flags: &mut HashMap<String, String>, meta: &CheckpointMeta) {
    let warn = |key: &str, got: &str, want: &dyn std::fmt::Display| {
        eprintln!(
            "warning: --{key} {got} differs from the checkpoint's \
             training value ({want}); evaluating against --{key} {got}"
        );
    };
    match flags.get("dataset") {
        None => {
            flags.insert("dataset".into(), meta.dataset.clone());
        }
        Some(got) if !got.eq_ignore_ascii_case(&meta.dataset) => {
            warn("dataset", got, &meta.dataset);
        }
        _ => {}
    }
    match flags.get("seed") {
        None => {
            flags.insert("seed".into(), meta.seed.to_string());
        }
        // An unparseable value is left for build_config's error path.
        Some(got) if got.parse::<u64>().is_ok_and(|s| s != meta.seed) => {
            warn("seed", got, &meta.seed);
        }
        _ => {}
    }
    let hidden_csv = meta
        .hidden_dims
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(",");
    match flags.get("hidden").cloned() {
        None => {
            flags.insert("hidden".into(), hidden_csv);
        }
        Some(got) => {
            if parse_hidden(flags).is_ok_and(|dims| dims != meta.hidden_dims) {
                warn("hidden", &got, &hidden_csv);
            }
        }
    }
    // `--full` is presence-only, so `--scaled` is the explicit opt-out
    // needed to override a full-scale checkpoint in the other direction.
    match (
        meta.full,
        flags.contains_key("full"),
        flags.contains_key("scaled"),
    ) {
        (true, _, true) => eprintln!(
            "warning: --scaled given but the checkpoint was trained on the full-scale dataset"
        ),
        (true, false, false) => {
            flags.insert("full".into(), "1".into());
        }
        (false, true, _) => {
            eprintln!("warning: --full given but the checkpoint was trained on the scaled dataset")
        }
        _ => {}
    }
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    // Evaluation never consumes training subgraphs: don't spin up sampler
    // workers that would immediately fill their queue for nothing.
    let rt = RuntimeConfig {
        sampler_threads: 0,
        ..RuntimeConfig::resolve(flags)?
    };
    println!("{rt}");
    let path = flags.get("load").ok_or("missing --load")?;
    let weights = ModelWeights::load(path).map_err(|e| format!("loading {path:?}: {e}"))?;
    let mut flags = flags.clone();
    match &weights.meta {
        Some(meta) => apply_checkpoint_meta(&mut flags, meta),
        None => {
            if !flags.contains_key("seed") {
                eprintln!(
                    "warning: {path} is a v1 checkpoint without dataset provenance; \
                     regenerating with --seed 42 — pass the training --seed if it differed"
                );
            }
        }
    }
    let mut cfg = build_config(&flags, &rt)?;
    cfg.epochs = 1;
    // The sharded store and the regenerated dataset are mutually
    // exclusive sources; a StoreDataset needs no provenance (its graph
    // is on disk, not regenerated).
    let sd: Option<StoreDataset>;
    let dataset;
    let mut trainer = match flags.get("shards") {
        Some(dir) => {
            sd = Some(rt.open_store_dataset(dir)?);
            GsGcnTrainer::from_store(sd.as_ref().unwrap(), cfg)?
        }
        None => {
            sd = None;
            dataset = load_dataset(&flags)?;
            GsGcnTrainer::new(&dataset, cfg)?
        }
    }
    .with_precision(rt.precision);
    trainer.import_weights(&weights)?;
    println!("loaded {} parameters from {path}", weights.num_params());
    for (name, split) in [
        ("train", EvalSplit::Train),
        ("val", EvalSplit::Val),
        ("test", EvalSplit::Test),
    ] {
        println!("{name:<6} F1-micro {:.4}", trainer.try_evaluate(split)?);
        if let Some(stats) = trainer.last_eval_stats() {
            println!("       {}", stats.summary());
        }
    }
    if let Some(sd) = &sd {
        print_cache_stats(&sd.full);
        print_peak_rss();
    }
    Ok(())
}

/// Shared by `predict`/`serve`: load a checkpoint, regenerate its
/// training dataset (provenance-defaulted, as in `eval`), assemble the
/// serving classifier around the restored model and attach the resolved
/// activation cache.
fn build_classifier(
    flags: &HashMap<String, String>,
    rt: &RuntimeConfig,
) -> Result<gsgcn::serve::NodeClassifier, String> {
    use gsgcn::nn::model::{GcnConfig, GcnModel, LossKind};
    use std::sync::Arc;

    let path = flags.get("load").ok_or("missing --load")?;
    let weights = ModelWeights::load(path).map_err(|e| format!("loading {path:?}: {e}"))?;
    let mut flags = flags.clone();
    if let Some(meta) = &weights.meta {
        apply_checkpoint_meta(&mut flags, meta);
    }
    // `--shards DIR` serves straight from the on-disk store; otherwise
    // the training dataset is regenerated from checkpoint provenance.
    if let Some(dir) = flags.get("shards") {
        let sd = rt.open_store_dataset(dir)?;
        let loss = match sd.task {
            gsgcn::data::TaskKind::MultiLabel => LossKind::SigmoidBce,
            gsgcn::data::TaskKind::SingleLabel => LossKind::SoftmaxCe,
        };
        let cfg = GcnConfig {
            in_dim: sd.feature_dim(),
            hidden_dims: parse_hidden(&flags)?,
            num_classes: sd.num_classes(),
            loss,
            ..GcnConfig::default()
        };
        cfg.validate()?;
        let mut model = GcnModel::new(cfg, 1);
        model.import_weights(&weights)?;
        model.set_precision(rt.precision);
        // A `mem` store is resident and has no shard cache.
        let shard_cache = match sd.full.cache_stats() {
            Some(stats) => gsgcn::metrics::mem::format_bytes(stats.budget_bytes),
            None => "none".to_string(),
        };
        println!(
            "loaded {} parameters from {path} — serving sharded {} from {dir} \
             (|V|={}, {} classes, backend {:?}, {}-hop queries, {} order, \
             shard cache {shard_cache})",
            weights.num_params(),
            sd.name,
            sd.num_vertices(),
            sd.num_classes(),
            sd.full.backend(),
            model.num_layers(),
            sd.full.order().name(),
        );
        let classifier = gsgcn::serve::NodeClassifier::from_store(Arc::new(model), sd.full)?;
        return Ok(rt.attach_cache(classifier));
    }
    let dataset = load_dataset(&flags)?;
    let loss = match dataset.task {
        gsgcn::data::TaskKind::MultiLabel => LossKind::SigmoidBce,
        gsgcn::data::TaskKind::SingleLabel => LossKind::SoftmaxCe,
    };
    let cfg = GcnConfig {
        in_dim: dataset.feature_dim(),
        hidden_dims: parse_hidden(&flags)?,
        num_classes: dataset.num_classes(),
        loss,
        ..GcnConfig::default()
    };
    cfg.validate()?;
    let mut model = GcnModel::new(cfg, 1);
    model.import_weights(&weights)?;
    model.set_precision(rt.precision);
    println!(
        "loaded {} parameters from {path} — serving {} (|V|={}, {} classes, {}-hop queries)",
        weights.num_params(),
        dataset.name,
        dataset.graph.num_vertices(),
        dataset.num_classes(),
        model.num_layers(),
    );
    let graph = Arc::new(dataset.graph);
    let classifier =
        gsgcn::serve::NodeClassifier::new(Arc::new(model), graph, Arc::new(dataset.features))?;
    Ok(rt.attach_cache(classifier))
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<(), String> {
    use gsgcn::serve::{BatchEngine, EngineConfig};
    use std::sync::Arc;

    let rt = RuntimeConfig::resolve(flags)?;
    println!("{rt}");
    // Same id syntax as one TCP request line (commas and/or spaces).
    let nodes = gsgcn::serve::poll::parse_request(flags.get("nodes").ok_or("missing --nodes")?)
        .map_err(|e| format!("--nodes: {e}"))?;
    let classifier = Arc::new(build_classifier(flags, &rt)?);
    let want_probs = flags.contains_key("probs");
    let store = Arc::clone(classifier.store());
    // One-shot batch through the engine — the same path `serve` runs.
    let engine =
        BatchEngine::spawn(classifier, EngineConfig::default()).map_err(|e| e.to_string())?;
    let preds = engine.classify(nodes).map_err(|e| e.to_string())?;
    for p in &preds {
        print!(
            "node {:>8}  label(s) {:<12} p_max {:.4}",
            p.node,
            p.labels_display(),
            p.max_prob()
        );
        if want_probs {
            let row = p
                .probs
                .iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(" ");
            print!("  probs [{row}]");
        }
        println!();
    }
    print_cache_stats(&store);
    print_peak_rss();
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use gsgcn::serve::poll::{EventFrontend, FrontendConfig, Protocol};
    use gsgcn::serve::{AdmissionControl, BatchEngine, EngineConfig};
    use std::sync::Arc;

    let rt = RuntimeConfig::resolve(flags)?;
    println!("{rt}");
    let classifier = build_classifier(flags, &rt)?;
    let cache_note = match classifier.cache() {
        Some(c) => format!("activation cache {} bytes", c.budget_bytes()),
        None => "activation cache off".to_string(),
    };
    let classifier = Arc::new(classifier);

    let cfg = EngineConfig {
        workers: get(flags, "workers", 1usize)?,
        max_batch: get(flags, "max-batch", 64usize)?,
        queue_capacity: get(flags, "queue", 1024usize)?,
        // Serving default is shed: an overloaded server answers
        // `overloaded` fast instead of letting every client's p99
        // collapse (the library default stays Block).
        admission: get(flags, "admission", AdmissionControl::Shed)?,
        ..EngineConfig::default()
    };
    let max_conns = get(flags, "max-conns", 1024usize)?;
    if max_conns == 0 {
        return Err("--max-conns must be ≥ 1 (0 would refuse every connection)".into());
    }
    let idle_ms = get(flags, "idle-timeout-ms", 60_000u64)?;
    if idle_ms == 0 {
        return Err("--idle-timeout-ms must be ≥ 1 (0 would evict every connection)".into());
    }
    let idle_timeout = std::time::Duration::from_millis(idle_ms);
    let protocol: Protocol = get(flags, "protocol", Protocol::Line)?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());

    let engine = Arc::new(BatchEngine::spawn(classifier, cfg)?);
    let fe = EventFrontend::spawn(
        engine,
        &addr,
        FrontendConfig {
            protocol,
            max_conns,
            idle_timeout,
            ..FrontendConfig::default()
        },
    )
    .map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "serving on {} [{}] — {} worker{}, max batch {} nodes, \
         admission {:?}, {cache_note}, max {max_conns} conns, \
         idle timeout {idle_ms}ms",
        fe.local_addr(),
        match protocol {
            Protocol::Line => "line",
            Protocol::Binary => "binary",
        },
        cfg.workers,
        plural(cfg.workers),
        cfg.max_batch,
        cfg.admission,
    );
    fe.join();
    Ok(())
}

/// Report the GEMM microkernel tier dispatch: the tier `GSGCN_KERNEL`
/// resolves to, the precision `GSGCN_PRECISION` resolves to, and every
/// tier this CPU has with the unit its bf16 panels run on.
fn cmd_kernel(flags: &HashMap<String, String>) -> Result<(), String> {
    println!(
        "selected  {} (storing {})",
        kernel_setting(flags)?.name(),
        precision_setting(flags)?
    );
    println!(
        "available {}",
        gemm::available_tiers()
            .iter()
            .map(|t| match gemm::bf16_engine(*t) {
                "widen" => format!("{}[f32,bf16]", t.name()),
                engine => format!("{}[f32,bf16:{engine}]", t.name()),
            })
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(())
}

/// Run the paper experiment `experiment` (or `all`).
fn cmd_reproduce(experiment: Option<&str>, flags: &HashMap<String, String>) -> Result<(), String> {
    let max_cores = flags.contains_key("max-cores");
    let opts = gsgcn::reproduce::Options {
        full: flags.contains_key("full"),
        seed: dataset_seed(flags)?,
        max_cores: max_cores.then(|| get(flags, "max-cores", 0)).transpose()?,
    };
    gsgcn::reproduce::run(experiment.ok_or("reproduce needs an experiment")?, &opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let cmd = cmd.as_str();
    // `reproduce` names its experiment as the one positional argument.
    let (experiment, rest) = match rest.split_first() {
        Some((name, tail)) if cmd == "reproduce" && !name.starts_with("--") => {
            (Some(name.as_str()), tail)
        }
        _ => (None, rest),
    };
    let result = match accepted_flags(cmd).map(|accepted| parse_flags(cmd, accepted, rest)) {
        None => Err(format!("unknown command {cmd:?}")),
        Some(Err(e)) => Err(e),
        Some(Ok(flags)) => match cmd {
            "datasets" => cmd_datasets(),
            "kernel" => cmd_kernel(&flags),
            "reproduce" => cmd_reproduce(experiment, &flags),
            "shard" => cmd_shard(&flags),
            "train" => cmd_train(&flags),
            "eval" => cmd_eval(&flags),
            "predict" => cmd_predict(&flags),
            _ => cmd_serve(&flags),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
