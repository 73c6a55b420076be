//! Shared helpers for the benchmark harness.
//!
//! Every paper table/figure has a dedicated binary in `src/bin/`:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_datasets` | Table I — dataset statistics |
//! | `fig2_time_accuracy` | Fig. 2 — accuracy vs sequential training time + Sec. VI-B speedups |
//! | `fig3_scaling` | Fig. 3 — iteration / feature-prop / weight-app scaling + breakdown |
//! | `fig4_sampling` | Fig. 4 — sampler scaling (`p_inter`) and lane/AVX gain |
//! | `table2_deeper` | Table II — speedup vs parallelized GraphSAGE by depth × cores |
//! | `ablation_sampler` | A1 — Dashboard vs naive frontier sampler |
//! | `ablation_partitioning` | A2 — propagation kernels + Theorem 2 cost model |
//! | `ablation_samplers` | A3 — accuracy under different sampling algorithms |
//!
//! Environment knobs (all optional):
//! * `GSGCN_FULL=1` — run heavier configurations (longer, closer to paper scale).
//! * `GSGCN_MAX_CORES=N` — cap the core sweep (default: all available).
//! * `GSGCN_SEED=N` — master seed (default 42).

use std::time::Instant;

/// The JSON tags every bench record should carry: the dispatched GEMM
/// microkernel tier, the storage precision (f32; a group that measures
/// bf16 storage overrides the tag), the compute pool's
/// thread count and the commit the tree was built from (`-dirty` when it
/// has uncommitted changes). Benches that set record-specific tags must
/// extend this base (the shim's `set_json_tags` replaces tags wholesale)
/// so archived numbers stay attributable.
pub fn base_tags() -> Vec<(String, String)> {
    // Benches re-tag per record; ask git once.
    static GIT_SHA: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let git_sha = GIT_SHA.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=12"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    });
    vec![
        (
            "kernel".to_string(),
            gsgcn_tensor::gemm::selected_tier().name().to_string(),
        ),
        ("precision".to_string(), "f32".to_string()),
        (
            "threads".to_string(),
            rayon::current_num_threads().to_string(),
        ),
        ("git_sha".to_string(), git_sha.clone()),
    ]
}

/// Print the dispatched GEMM microkernel tier (once per process) and tag
/// all subsequent criterion JSON records with it (see [`base_tags`]), so
/// every bench artifact is attributable to an ISA and a precision. Call at the top of each criterion bench group; CI greps
/// the line to attribute archived numbers.
pub fn announce_kernel_tier() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let selected = gsgcn_tensor::gemm::selected_tier();
        let available: Vec<&str> = gsgcn_tensor::gemm::available_tiers()
            .iter()
            .map(|t| t.name())
            .collect();
        println!(
            "GEMM kernel tier: {} (available: {}), bf16 via {}",
            selected.name(),
            available.join(", "),
            gsgcn_tensor::gemm::bf16_engine(selected),
        );
        criterion::set_json_tags(base_tags());
    });
}

/// Whether heavy "full" mode was requested.
pub fn full_mode() -> bool {
    std::env::var("GSGCN_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Master seed.
pub fn seed() -> u64 {
    std::env::var("GSGCN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Available cores, honouring `GSGCN_MAX_CORES`.
pub fn max_cores() -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    std::env::var("GSGCN_MAX_CORES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|m: usize| m.min(avail).max(1))
        .unwrap_or(avail)
}

/// Core sweep: powers of two up to [`max_cores`], always including 1 and
/// the max itself (mirrors the paper's 1/5/10/20/40 sweep shape).
pub fn core_sweep() -> Vec<usize> {
    let max = max_cores();
    let mut cores = vec![1usize];
    let mut c = 2;
    while c < max {
        cores.push(c);
        c *= 2;
    }
    if max > 1 {
        cores.push(max);
    }
    cores
}

/// Wall-clock a closure, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run a closure inside a rayon pool of `threads` workers.
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_starts_at_one_and_is_sorted() {
        let s = core_sweep();
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() <= max_cores());
    }

    #[test]
    fn time_measures() {
        let (v, secs) = time(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.004);
    }

    #[test]
    fn with_threads_runs_in_sized_pool() {
        let n = with_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
    }
}
