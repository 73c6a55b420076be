//! Shared helpers for the criterion benches in `benches/`.
//!
//! The paper's tables and figures are not benches: `gsgcn reproduce`
//! runs them (see the `gsgcn::reproduce` docs).
//!
//! | `gsgcn reproduce …` | Paper artifact |
//! |---|---|
//! | `table1` | Table I — dataset statistics |
//! | `fig2` | Fig. 2 — accuracy vs sequential training time + Sec. VI-B speedups |
//! | `fig3` | Fig. 3 — iteration / feature-prop / weight-app scaling + breakdown |
//! | `fig4` | Fig. 4 — sampler scaling (`p_inter`) and lane/AVX gain |
//! | `table2` | Table II — speedup vs parallelized GraphSAGE by depth × cores |
//! | `a1` | A1 — Dashboard vs naive frontier sampler |
//! | `a2` | A2 — propagation kernels + Theorem 2 cost model |
//! | `a3` | A3 — accuracy under different sampling algorithms |

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
