//! The `gsgcn` binary's argument handling, driven as a child process.

use std::process::Command;

/// Run `gsgcn args…`, expect exit 1, and return its stderr.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gsgcn"))
        .args(args)
        .output()
        .expect("run gsgcn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    stderr
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
