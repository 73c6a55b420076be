//! The `gsgcn` binary's argument handling, driven as a child process.

use gsgcn::tensor::gemm;
use std::process::{Command, Output};

/// The variables the binary resolves its runtime settings from.
const SETTINGS: [&str; 6] = [
    "GSGCN_GRAPH_STORE",
    "GSGCN_SHARD_CACHE",
    "GSGCN_ACTIVATION_CACHE",
    "GSGCN_SAMPLER_THREADS",
    "GSGCN_PRECISION",
    "GSGCN_KERNEL",
];

/// Run `gsgcn args…` with exactly `env` of the [`SETTINGS`] variables set.
fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gsgcn"));
    for var in SETTINGS {
        cmd.env_remove(var);
    }
    cmd.args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run gsgcn")
}

/// Run `gsgcn args…` under `env`, expect exit 1, and return its stderr.
fn refused_with(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = run(args, env);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?} {env:?}: {stderr}");
    stderr
}

fn refused(args: &[&str]) -> String {
    refused_with(args, &[])
}

/// A tiny training run, cheap enough to finish in a test, plus `extra`.
fn tiny_train<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    "train --dataset ppi --vertices 100 --epochs 1 --eval-every 0 --hidden 8,8 --budget 50"
        .split_whitespace()
        .chain(extra.iter().copied())
        .collect()
}

/// `--max-wait-us` named the coalescing window the engine no longer has:
/// `serve` does not accept it, like any other flag it does not list.
#[test]
fn serve_refuses_the_removed_max_wait_flag() {
    let stderr = refused(&["serve", "--load", "unused.gcn", "--max-wait-us", "200"]);
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error:") && first.contains("--max-wait-us"),
        "{stderr}"
    );
    // The usage text that follows no longer offers it.
    assert_eq!(stderr.matches("max-wait-us").count(), 1, "{stderr}");
}

/// A removed flag or a typo is an error, not a run with the default it
/// meant to change. `--prefetch` (gone with the shard prefetcher) read as
/// a value flag would also swallow `--epochs`.
#[test]
fn unknown_flags_are_refused_by_name() {
    for (args, flag, cmd) in [
        (
            &["train", "--dataset", "ppi", "--prefetch", "--epochs", "1"][..],
            "--prefetch",
            "train",
        ),
        (
            &["train", "--dataset", "ppi", "--sampler-treads", "2"][..],
            "--sampler-treads",
            "train",
        ),
        (
            &["serve", "--load", "unused.gcn", "--frontend", "event"][..],
            "--frontend",
            "serve",
        ),
    ] {
        let stderr = refused(args);
        assert_eq!(
            stderr.lines().next().unwrap_or_default(),
            format!("error: unknown flag {flag} for {cmd}"),
            "{stderr}"
        );
    }
}

/// A malformed setting is an `error:` exit 1 naming where it came from,
/// as a bad flag is — not a warning and a default, and not a panic. It
/// is refused before anything is printed. A kernel tier this CPU lacks
/// is malformed here.
#[test]
fn malformed_settings_are_errors() {
    let missing_tier = gemm::ALL_TIERS.into_iter().find(|t| !t.is_available());
    for (var, value) in [
        ("GSGCN_SHARD_CACHE", "garbage"),
        ("GSGCN_SHARD_CACHE", "0"),
        ("GSGCN_ACTIVATION_CACHE", "garbage"),
        ("GSGCN_SAMPLER_THREADS", "two"),
        ("GSGCN_GRAPH_STORE", "disk"),
        ("GSGCN_PRECISION", "fp16"),
        ("GSGCN_KERNEL", "bogus"),
    ]
    .into_iter()
    .chain(missing_tier.map(|t| ("GSGCN_KERNEL", t.name())))
    {
        let out = run(&tiny_train(&[]), &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{var}={value}: printed before refusing"
        );
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: {var}: ")),
            "{var}={value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{var}={value}: {stderr}");
    }
    let stderr = refused_with(&tiny_train(&[]), &[("GSGCN_KERNEL", "bogus")]);
    assert_eq!(
        stderr.lines().next(),
        Some(r#"error: GSGCN_KERNEL: bad kernel "bogus": expected scalar|avx2|avx512|amx|auto"#)
    );
    let stderr = refused(&["serve", "--load", "unused.gcn", "--cache-bytes", "lots"]);
    assert!(stderr.starts_with("error: --cache-bytes: "), "{stderr}");
    let stderr = refused(&tiny_train(&["--precision", "fp16"]));
    assert!(stderr.starts_with("error: --precision: "), "{stderr}");
}

/// A store backend picks how a `--shards` store is opened; with no
/// `--shards` there is nothing to open it for.
#[test]
fn graph_store_needs_shards() {
    for (args, env) in [
        (
            &["train", "--dataset", "ppi", "--graph-store", "mmap"][..],
            &[][..],
        ),
        (
            &["serve", "--load", "unused.gcn", "--graph-store", "mem"][..],
            &[][..],
        ),
        (
            &["train", "--dataset", "ppi"][..],
            &[("GSGCN_GRAPH_STORE", "mmap")][..],
        ),
    ] {
        let stderr = refused_with(args, env);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error:") && first.contains("`gsgcn shard`"),
            "{args:?} {env:?}: {stderr}"
        );
    }
}

/// The resolved settings head the output: flag over environment over
/// default. The kernel tier defaults to the best this CPU has.
#[test]
fn banner_prints_resolved_settings() {
    let best = gemm::best_available_tier().name();
    for (flags, env, want) in [
        (
            &["--sampler-threads", "0"][..],
            &[][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision f32, kernel {best}",
        ),
        (
            &["--sampler-threads", "1"][..],
            &[
                ("GSGCN_SAMPLER_THREADS", "3"),
                ("GSGCN_SHARD_CACHE", "2MiB"),
                ("GSGCN_ACTIVATION_CACHE", "64KiB"),
            ][..],
            "runtime: graph store mem, shard cache 2.0 MiB, activation cache 64.0 KiB, \
             sampler threads 1, precision f32, kernel {best}",
        ),
        (
            &[][..],
            &[("GSGCN_SAMPLER_THREADS", "2"), ("GSGCN_PRECISION", "bf16")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 2, precision bf16, kernel {best}",
        ),
        (
            &["--sampler-threads", "0", "--precision", "auto"][..],
            &[("GSGCN_PRECISION", "bf16")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision f32, kernel {best}",
        ),
        (
            &["--sampler-threads", "0", "--precision", "bf16"][..],
            &[("GSGCN_PRECISION", "auto")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision bf16, kernel {best}",
        ),
        (
            &["--sampler-threads", "0"][..],
            &[("GSGCN_KERNEL", "scalar")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision f32, kernel scalar",
        ),
        (
            &["--sampler-threads", "0"][..],
            &[("GSGCN_KERNEL", "auto")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision f32, kernel {best}",
        ),
    ] {
        let want = want.replace("{best}", best);
        let args = tiny_train(flags);
        let out = run(&args, env);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?} {env:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            stdout.lines().next(),
            Some(want.as_str()),
            "{args:?} {env:?}: {stdout}"
        );
    }
}

/// `gsgcn kernel` reports the precision `GSGCN_PRECISION` resolves to,
/// by the same rule as the other commands, and refuses a bad value.
#[test]
fn kernel_reports_the_resolved_precision() {
    for (value, want) in [("bf16", "bf16"), ("auto", "f32"), ("", "f32")] {
        let out = run(&["kernel"], &[("GSGCN_PRECISION", value)]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{value:?}: {stdout}");
        let first = stdout.lines().next().unwrap_or_default();
        assert!(
            first.ends_with(&format!("(storing {want})")),
            "{value:?}: {stdout}"
        );
    }
    let stderr = refused_with(&["kernel"], &[("GSGCN_PRECISION", "fp16")]);
    assert!(stderr.starts_with("error: GSGCN_PRECISION: "), "{stderr}");
}

/// `gsgcn kernel` reports the tier `GSGCN_KERNEL` resolves to and lists
/// every tier this CPU has; only the `amx` tier runs bf16 on the AMX unit.
#[test]
fn kernel_reports_the_resolved_tier() {
    let best = gemm::best_available_tier().name();
    for (value, want) in [("scalar", "scalar"), ("", best)] {
        let out = run(&["kernel"], &[("GSGCN_KERNEL", value)]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{value:?}: {stdout}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines[0], format!("selected  {want} (storing f32)"));
        for t in gemm::ALL_TIERS {
            let amx = if t == gemm::Tier::Amx { ":amx" } else { "" };
            let listed = format!(" {}[f32,bf16{amx}]", t.name());
            assert_eq!(lines[1].contains(&listed), t.is_available(), "{stdout}");
        }
    }
}

/// `train` says where the sampler runs and how wide evaluation is, on the
/// resident path and on `--shards`: evaluation takes the workers' cores
/// when the compute width is fixed.
#[test]
fn train_banner_names_sampler_and_evaluation_threads() {
    let dir = std::env::temp_dir().join(format!("gsgcn-cli-banner-{}", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    let shard = run(
        &[
            "shard",
            "--dataset",
            "ppi",
            "--vertices",
            "100",
            "--out",
            dir_arg,
        ],
        &[],
    );
    assert!(
        shard.status.success(),
        "{}",
        String::from_utf8_lossy(&shard.stderr)
    );
    for (flags, want) in [
        (
            &["--threads", "1", "--sampler-threads", "0"][..],
            "sampler: inline (no worker threads); evaluation on 1 thread",
        ),
        (
            &["--threads", "1", "--sampler-threads", "1"][..],
            "sampler: 1 worker thread; evaluation on 2 threads",
        ),
        (
            &["--threads", "2", "--sampler-threads", "2"][..],
            "sampler: 2 worker threads; evaluation on 4 threads",
        ),
    ] {
        for shards in [None, Some(dir_arg)] {
            let mut extra = flags.to_vec();
            extra.extend(shards.map(|d| ["--shards", d]).into_iter().flatten());
            let args = tiny_train(&extra);
            let out = run(&args, &[]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout
                .lines()
                .filter(|l| l.starts_with("sampler:"))
                .collect();
            assert_eq!(lines, [want], "{args:?}: {stdout}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A 1-layer model has no hidden rows to cache: the binary leaves the
/// activation cache off and says so on stderr; a deeper model takes the
/// cache without a word.
#[test]
fn predict_warns_when_the_cache_cannot_apply() {
    let dir = std::env::temp_dir().join(format!("gsgcn-cli-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (hidden, warns) in [("8", true), ("8,8", false)] {
        let model = dir.join(format!("{}-layer.gcn", hidden.split(',').count()));
        let model = model.to_str().unwrap();
        let args: Vec<&str> = "train --dataset ppi --vertices 100 --epochs 1 --eval-every 0 \
                               --budget 50 --hidden"
            .split_whitespace()
            .chain([hidden, "--save", model])
            .collect();
        let trained = run(&args, &[]);
        assert!(
            trained.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&trained.stderr)
        );
        let out = run(
            &["predict", "--load", model, "--nodes", "1,2"],
            &[("GSGCN_ACTIVATION_CACHE", "64KiB")],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--hidden {hidden}: {stderr}");
        assert_eq!(
            stderr.contains("warning: activation cache ignored for a 1-layer model"),
            warns,
            "--hidden {hidden}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `predict --probs` prints each probability in its shortest round-trip
/// form, so a CLI diff pins bits: every printed value parses back to the
/// bits `NodeClassifier::classify` gives in-process on the same
/// checkpoint and regenerated dataset.
#[test]
fn predict_probs_round_trip_to_the_classifier_bits() {
    use gsgcn::data::presets;
    use gsgcn::nn::checkpoint::ModelWeights;
    use gsgcn::nn::model::{GcnConfig, GcnModel, LossKind};
    use gsgcn::serve::NodeClassifier;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("gsgcn-cli-probs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.gcn");
    let model_path = model_path.to_str().unwrap();
    let trained = run(&tiny_train(&["--save", model_path]), &[]);
    assert!(
        trained.status.success(),
        "{}",
        String::from_utf8_lossy(&trained.stderr)
    );
    let nodes = [3u32, 17, 42, 99];
    let out = run(
        &[
            "predict",
            "--load",
            model_path,
            "--vertices",
            "100",
            "--nodes",
            "3,17,42,99",
            "--probs",
        ],
        &[],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let printed: Vec<(u32, Vec<f32>)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("node"))
        .map(|l| {
            let node = l.split_whitespace().next().unwrap().parse().unwrap();
            let row = l.split("probs [").nth(1).unwrap().trim_end_matches(']');
            let probs = row.split(' ').map(|x| x.parse().unwrap()).collect();
            (node, probs)
        })
        .collect();

    // The binary's own reconstruction: `tiny_train`'s dataset (ppi scaled
    // to 100 vertices, the default seed 42) and hidden sizes, f32.
    let dataset = presets::scale_spec(&presets::ppi_spec(), 100).generate(42);
    let cfg = GcnConfig {
        in_dim: dataset.feature_dim(),
        hidden_dims: vec![8, 8],
        num_classes: dataset.num_classes(),
        loss: LossKind::SigmoidBce,
        ..GcnConfig::default()
    };
    let mut model = GcnModel::new(cfg, 1);
    model
        .import_weights(&ModelWeights::load(model_path).unwrap())
        .unwrap();
    let classifier = NodeClassifier::new(
        Arc::new(model),
        Arc::new(dataset.graph),
        Arc::new(dataset.features),
    )
    .unwrap();
    let want = classifier.classify(&nodes).unwrap();

    assert_eq!(printed.len(), nodes.len(), "{stdout}");
    for ((node, probs), p) in printed.iter().zip(&want) {
        assert_eq!(*node, p.node);
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(probs), bits(&p.probs), "node {node}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
