//! `e2e run` / `e2e trace`: every workload, each in a fresh child process
//! (so `VmHWM` is attributable to one workload), collected into one run
//! file. `e2e compare BASE NEW`: the bounds of `BENCHMARK.json` applied to
//! two run files.

use crate::json::{self, obj, Json};
use crate::spec::{Workload, MISS_FRAC_BOUND, RUN_SECONDS, VAL_F1_BOUND, WORKLOADS};
use crate::stats::{median, spread};
use crate::{flag, parsed};
use std::collections::BTreeMap;

/// Run `--workload` (default: all five) `--repeat` times each and write
/// the collected results to `--out`. Returns whether every run was correct.
pub fn run_suite(traced: bool, args: &[String]) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(42);
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(RUN_SECONDS);
    let repeat: usize = parsed(args, "--repeat")?.unwrap_or(1);
    let only = flag(args, "--workload");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: BTreeMap<String, Json> = BTreeMap::new();
    let mut tags = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS
        .iter()
        .filter(|(n, _)| only.is_none_or(|o| o == *n))
    {
        let mut results = Vec::new();
        for _ in 0..repeat {
            // The child inherits this process's already scrubbed
            // environment: no GSGCN_* variable reaches it.
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("== {name}\n{text}");
            let last = text.lines().last().unwrap_or("");
            let result = json::parse(last).map_err(|e| format!("{name} printed no result: {e}"))?;
            all_correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
            if let Some(t) = text.lines().find_map(|l| l.strip_prefix("tags ")) {
                tags.push(json::parse(t)?);
            }
            results.push(result);
        }
        runs.insert(name.to_string(), Json::Arr(results));
    }
    let doc = obj([
        ("trace", Json::Bool(traced)),
        ("tags", Json::Arr(tags)),
        ("runs", Json::Obj(runs)),
    ]);
    if let Some(path) = flag(args, "--out") {
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

/// Values of `metric` over the runs of `workload` in a run file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(|r| r.get(workload))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread on one side exceeds the bound: the data
    /// cannot tell a regression from noise.
    Unresolved,
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// A share of the base median (`BENCHMARK.json`'s `bound`).
    Relative(f64),
    /// A distance in the metric's own unit.
    Absolute(f64),
}

/// Apply one metric's bound to the two sides' samples.
pub fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: Bound) -> Verdict {
    let (b, n) = (median(base), median(new));
    if b == 0.0 {
        return Verdict::Unresolved;
    }
    // Differences and spreads in the bound's terms: shares of a median, or
    // the metric's own unit.
    let (bound, relative) = match bound {
        Bound::Relative(r) => (r, true),
        Bound::Absolute(a) => (a, false),
    };
    let scale = |med: f64| if relative { med } else { 1.0 };
    let worse_by = if lower_is_better { n - b } else { b - n } / scale(b);
    let spread = |xs: &[f64]| spread(xs) * median(xs) / scale(median(xs));
    if spread(base) > bound || spread(new) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per workload × end-to-end metric. Returns false when any row is
/// worse or either file holds an incorrect run.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let (Some(base_path), Some(new_path)) = (args.first(), args.get(1)) else {
        return Err(crate::usage());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let bench = load(flag(args, "--benchmark").unwrap_or("BENCHMARK.json"))?;
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;

    let mut ok = true;
    for doc in [&base, &new] {
        let runs = doc
            .get("runs")
            .and_then(Json::as_obj)
            .ok_or("run file has no runs")?;
        for run in runs.values().filter_map(Json::as_arr).flatten() {
            ok &= run.get("correct") == Some(&Json::Bool(true));
        }
    }
    if !ok {
        println!("a run file holds an incorrect run");
    }
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>8} {:>16}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for (workload, kind) in WORKLOADS.iter() {
        for m in metrics {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("");
            let name = field("name");
            let bound = match (name, kind) {
                ("quality", Workload::Train(_)) => Bound::Absolute(VAL_F1_BOUND),
                ("quality", Workload::Serve(_)) => Bound::Absolute(MISS_FRAC_BOUND),
                _ => Bound::Relative(m.get("bound").and_then(Json::as_f64).unwrap_or(0.0)),
            };
            let (b, n) = (values(&base, workload, name), values(&new, workload, name));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let verdict = judge(&b, &n, field("better") == "lower", bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<12} {name:<14} {:>14.5} {:>14.5} {:>8.4} {:>8.4} {:>16}  {}",
                median(&b),
                median(&n),
                median(&n) / median(&b),
                spread(&b).max(spread(&n)),
                format!("{bound:?}"),
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&steady, &[10.3, 10.4, 10.2], true, Bound::Relative(0.10)),
            Verdict::Same
        );
        assert_eq!(
            judge(&steady, &[11.5, 11.6, 11.4], true, Bound::Relative(0.10)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9], true, Bound::Relative(0.10)),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9], false, Bound::Relative(0.10)),
            Verdict::Worse
        );
        // A side noisier than the bound resolves nothing.
        assert_eq!(
            judge(
                &[10.0, 14.0, 7.0, 12.0],
                &[20.0, 20.1],
                true,
                Bound::Relative(0.10)
            ),
            Verdict::Unresolved
        );
        // An absolute bound ignores the size of the base: 0.990 → 0.984 is
        // 0.6 % of the base but more than 0.005.
        let f1 = [0.990, 0.990, 0.990];
        assert_eq!(
            judge(&f1, &[0.984, 0.984], false, Bound::Relative(0.03)),
            Verdict::Same
        );
        assert_eq!(
            judge(&f1, &[0.984, 0.984], false, Bound::Absolute(0.005)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&f1, &[0.987, 0.987], false, Bound::Absolute(0.005)),
            Verdict::Same
        );
        // Single runs have no spread to object to.
        assert_eq!(
            judge(&[10.0], &[12.0], true, Bound::Relative(0.10)),
            Verdict::Worse
        );
    }

    #[test]
    fn values_are_read_per_workload_and_metric() {
        let doc = json::parse(
            r#"{"runs": {"w": [{"metrics": {"m": {"value": 1.5, "unit": "s"}}},
                               {"metrics": {"m": {"value": 2.5, "unit": "s"}}}]}}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "w", "m"), vec![1.5, 2.5]);
        assert!(values(&doc, "w", "other").is_empty());
        assert!(values(&doc, "x", "m").is_empty());
    }
}
