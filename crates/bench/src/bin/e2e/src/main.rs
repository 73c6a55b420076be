//! `e2e`: the repository's end-to-end benchmark harness.
//!
//! One workload per process:
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! generates its inputs from the seed, measures for about `S` seconds,
//! checks the program's outputs, and prints as its last line one JSON
//! object `{correct, attempted, failed, metrics}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `e2e run`,
//! `e2e trace` and `e2e compare` wrap that for people (see README.md).
//!
//! The harness drives only public surfaces that stay (`GsGcnTrainer`, the
//! fused layers, `EventFrontend`'s binary protocol, `BatchEngine`,
//! `NodeClassifier`, `GraphStore`), changes no code outside its own
//! directory, and claims no gain.

mod compare;
mod inputs;
mod json;
mod probe;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use json::{obj, Json};
use report::Report;
use spec::{Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Value of `--name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
        .transpose()
}

/// Scratch space inside the checkout: under the cargo target directory the
/// driver names, which `.gitignore` already covers.
fn work_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("e2e-work")
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The resolved configuration a record was measured under.
fn tags(name: &str, workload: &Workload, seed: u64, seconds: f64) -> Json {
    let tier = gsgcn_tensor::ukernel::selected_tier();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut t = vec![
        ("workload", Json::Str(name.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("kernel_tier", Json::Str(tier.name().into())),
        (
            "bf16_engine",
            Json::Str(gsgcn_tensor::ukernel::bf16_engine(tier).into()),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("git_sha", Json::Str(git_sha())),
    ];
    match workload {
        Workload::Train(s) => {
            t.push(("precision", Json::Str(s.precision.name().into())));
            t.push(("threads", Json::Num(s.threads as f64)));
            t.push(("sampler_threads", Json::Num(s.sampler_threads as f64)));
            let cache = s.ooc.map_or(0, |o| o.cache_bytes);
            t.push(("shard_cache_bytes", Json::Num(cache as f64)));
        }
        Workload::Serve(s) => {
            t.push(("precision", Json::Str("f32".into())));
            t.push(("threads", Json::Num(s.threads as f64)));
            t.push(("generator_connections", Json::Num(s.connections as f64)));
            t.push(("activation_cache_bytes", Json::Num(s.cache_bytes as f64)));
        }
    }
    obj(t)
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let precision = match workload {
        Workload::Train(s) => s.precision,
        Workload::Serve(_) => gsgcn_tensor::Precision::F32,
    };
    // Before anything resolves the process-wide default.
    gsgcn_tensor::precision::force_global(precision);
    println!("tags {}", tags(name, workload, seed, seconds).render());

    let root = work_root();
    let work = root.join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let started = Instant::now();
    let result = if traced {
        let tracer = Arc::new(trace::Tracer::new());
        let result = match workload {
            Workload::Train(s) => train::run_traced(name, s, seed, seconds, &work, &tracer),
            Workload::Serve(s) => serve::run_traced(s, seed, seconds, &tracer),
        };
        result.and_then(|mut out| {
            let path = root.join(format!("trace-{name}.jsonl"));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            out.set("trace.spans", tracer.spans().len() as f64);
            out.set("trace.run_s", started.elapsed().as_secs_f64());
            out.note(format!("spans written to {}", path.display()));
            Ok(out)
        })
    } else {
        let result = match workload {
            Workload::Train(s) => train::run(name, s, seed, seconds, &work),
            Workload::Serve(s) => serve::run(s, seed, seconds),
        };
        result.map(|mut out| {
            // `VmHWM`: the high-water mark of this one-workload process.
            let peak = gsgcn_metrics::mem::peak_rss_bytes().unwrap_or(0);
            out.set("peak_rss_mib", peak as f64 / (1 << 20) as f64);
            out
        })
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Print the human-readable part, then the result line. Returns whether
/// the run was correct.
fn print_result(mut out: Report, traced: bool) -> bool {
    for line in &out.notes {
        println!("{line}");
    }
    let table: &[(&str, &str, spec::Better)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit, _) in table {
        let value = out.get(name);
        // Every end-to-end metric is a real measurement on every workload;
        // a per-layer 0 means the workload does not exercise that layer.
        if !value.is_finite() || (!traced && value == 0.0) {
            out.error(format!("metric {name} has no usable value ({value})"));
        }
        println!("{name:<36} {value:>16.6} {unit}");
        metrics.push((
            name,
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    for e in &out.errors {
        println!("FAILED CHECK: {e}");
    }
    println!("ops attempted {} failed {}", out.attempted, out.failed);
    let line = obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", line.render());
    out.correct()
}

fn usage() -> String {
    "usage:\n  e2e --workload NAME --seed N --seconds S --trace 0|1\n  e2e run|trace [--seed N] [--seconds S] [--repeat K] [--workload NAME] [--out FILE]\n  e2e compare BASE.json NEW.json [--benchmark BENCHMARK.json]".into()
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some(mode @ ("run" | "trace")) => compare::run_suite(mode == "trace", &args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some("spill") => {
            let name = flag(args, "--workload").ok_or_else(usage)?;
            let seed = parsed(args, "--seed")?.ok_or_else(usage)?;
            let dir = flag(args, "--dir").ok_or_else(usage)?;
            match spec::workload(name) {
                Some(Workload::Train(s)) => {
                    train::spill_child(s, seed, dir.as_ref()).map(|()| true)
                }
                _ => Err(format!("{name:?} is not a training workload")),
            }
        }
        _ => {
            let name = flag(args, "--workload").ok_or_else(usage)?;
            let seed = parsed(args, "--seed")?.ok_or_else(usage)?;
            let seconds: f64 = parsed(args, "--seconds")?.ok_or_else(usage)?;
            let traced = match flag(args, "--trace") {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(usage()),
            };
            run_workload(name, seed, seconds, traced).map(|out| print_result(out, traced))
        }
    }
}

fn main() -> ExitCode {
    // Ambient knobs must not leak into a measurement (or into the children
    // `run` spawns): every setting goes through the API.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("GSGCN_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
