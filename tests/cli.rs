//! The `gsgcn` binary's argument handling, driven as a child process.

use std::process::Command;

/// `--max-wait-us` named the coalescing window the engine no longer has.
/// The flag parser keeps flags it does not know, so `serve` refuses this
/// one by name instead of accepting a setting that does nothing.
#[test]
fn serve_refuses_the_removed_max_wait_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_gsgcn"))
        .args(["serve", "--load", "unused.gcn", "--max-wait-us", "200"])
        .output()
        .expect("run gsgcn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error:") && first.contains("--max-wait-us"),
        "{stderr}"
    );
    // The usage text that follows no longer offers it.
    assert_eq!(stderr.matches("max-wait-us").count(), 1, "{stderr}");
}
