//! The `gsgcn` binary's argument handling, driven as a child process.

use std::process::{Command, Output};

/// The variables the binary resolves its runtime settings from.
const SETTINGS: [&str; 5] = [
    "GSGCN_GRAPH_STORE",
    "GSGCN_SHARD_CACHE",
    "GSGCN_ACTIVATION_CACHE",
    "GSGCN_SAMPLER_THREADS",
    "GSGCN_PRECISION",
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
/// as a bad flag is — not a warning and a default, and not a panic.
#[test]
fn malformed_settings_are_errors() {
    for (var, value) in [
        ("GSGCN_SHARD_CACHE", "garbage"),
        ("GSGCN_SHARD_CACHE", "0"),
        ("GSGCN_ACTIVATION_CACHE", "garbage"),
        ("GSGCN_SAMPLER_THREADS", "two"),
        ("GSGCN_GRAPH_STORE", "disk"),
        ("GSGCN_PRECISION", "fp16"),
    ] {
        let stderr = refused_with(&tiny_train(&[]), &[(var, value)]);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: {var}: ")),
            "{var}={value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{var}={value}: {stderr}");
    }
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
/// default.
#[test]
fn banner_prints_resolved_settings() {
    for (flags, env, want) in [
        (
            &["--sampler-threads", "0"][..],
            &[][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision f32",
        ),
        (
            &["--sampler-threads", "1"][..],
            &[
                ("GSGCN_SAMPLER_THREADS", "3"),
                ("GSGCN_SHARD_CACHE", "2MiB"),
                ("GSGCN_ACTIVATION_CACHE", "64KiB"),
            ][..],
            "runtime: graph store mem, shard cache 2.0 MiB, activation cache 64.0 KiB, \
             sampler threads 1, precision f32",
        ),
        (
            &[][..],
            &[("GSGCN_SAMPLER_THREADS", "2"), ("GSGCN_PRECISION", "bf16")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 2, precision bf16",
        ),
        (
            &["--sampler-threads", "0", "--precision", "auto"][..],
            &[("GSGCN_PRECISION", "bf16")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision f32",
        ),
        (
            &["--sampler-threads", "0", "--precision", "bf16"][..],
            &[("GSGCN_PRECISION", "auto")][..],
            "runtime: graph store mem, shard cache 64.0 MiB, activation cache off, \
             sampler threads 0, precision bf16",
        ),
    ] {
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
            Some(want),
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
