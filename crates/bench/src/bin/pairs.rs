//! `pairs` — paired, order-alternating runs of two `e2e` harness builds.
//!
//! ```text
//! pairs BASE_E2E NEW_E2E --workload W --seed S --pairs N \
//!       [--trace 0|1] [--benchmark BENCHMARK.json] [--out BENCH_pairs.jsonl]
//! ```
//!
//! `BASE_E2E` and `NEW_E2E` are two built `e2e` binaries (the harness of
//! `BENCHMARK.json`, e.g. `<checkout>/.bench_build/release/e2e`). Pair `i`
//! runs both on the same workload and seed for the benchmark's
//! `run_seconds`, base first when `i` is even and new first when it is odd, so a drift of the machine over the
//! session lands on both sides alike. Each child runs in the git work tree
//! that holds its binary (its `tags` line then names that tree's commit)
//! and its last standard-output line — the harness's JSON result — is the
//! pair's sample.
//!
//! Per metric the report gives both medians, the base interquartile
//! range, the median of the per-pair ratios `new / base` and the pairs the
//! new side won (`better` direction from `BENCHMARK.json`), with a verdict:
//! `gain` (or `loss`) when the new side wins (loses) at least nine pairs in
//! ten and the medians differ by more than the base IQR, `level`
//! otherwise, and `few` under ten pairs. A ratio survives the
//! session-to-session drift of a shared box that absolute numbers do not.
//!
//! A pair is excluded — listed, never dropped silently — when a side's
//! run failed (it could not start, exited non-zero, printed no JSON result
//! line or reported a failed check), or when its `probe.*` rows (the machine probes of a
//! `--trace 1` run: stream bandwidth and FMA peak) read below
//! [`STALL_SHARE`] of that probe's median over the invocation: the
//! machine, not the code, was slow then. Untraced runs carry no probe
//! rows, so nothing is excluded as a stall there.
//!
//! Every invocation appends one JSON record to `--out` (default
//! `BENCH_pairs.jsonl`): the two commits, workload, seed, pair count,
//! exclusions, per-metric statistics and the probe medians. Each
//! end-to-end metric also carries its per-pair `base` and `new` values in
//! pair order, excluded pairs left out, so a bimodal metric can be read
//! from the record.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A probe reading below this share of the probe's median over the
/// invocation marks its run as stalled.
const STALL_SHARE: f64 = 0.75;

/// Share of pairs the new side must win (or lose) for a verdict.
const VERDICT_WINS: f64 = 0.9;

/// Pairs a verdict needs; fewer read `few`, whatever the wins.
const VERDICT_PAIRS: usize = 10;

// The harness's own JSON and order-statistics modules, read as they are:
// this tool parses whatever the harness prints, and its IQR is the one the
// harness reports. The percentile helpers of `stats` go unused here.
#[path = "e2e/src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "e2e/src/stats.rs"]
mod stats;

use json::{obj, Json};
use stats::{median, quartiles};

/// Third minus first quartile (0 under two samples).
fn iqr(xs: &[f64]) -> f64 {
    quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// One metric over the included pairs.
#[derive(Clone, Debug, PartialEq)]
struct MetricStats {
    base_median: f64,
    new_median: f64,
    base_iqr: f64,
    /// Median over pairs of `new / base`.
    ratio_median: f64,
    /// Pairs the new side won (strictly better).
    wins: usize,
    /// Pairs it lost (strictly worse).
    losses: usize,
    n: usize,
}

impl MetricStats {
    fn of(pairs: &[(f64, f64)], better: Better) -> MetricStats {
        let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let new: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let ratios: Vec<f64> = pairs
            .iter()
            .filter(|p| p.0 != 0.0)
            .map(|p| p.1 / p.0)
            .collect();
        let won = |&&(b, n): &&(f64, f64)| match better {
            Better::Lower => n < b,
            Better::Higher => n > b,
        };
        let lost = |&&(b, n): &&(f64, f64)| match better {
            Better::Lower => n > b,
            Better::Higher => n < b,
        };
        MetricStats {
            base_median: median(&base),
            new_median: median(&new),
            base_iqr: iqr(&base),
            ratio_median: median(&ratios),
            wins: pairs.iter().filter(won).count(),
            losses: pairs.iter().filter(lost).count(),
            n: pairs.len(),
        }
    }

    /// `gain` / `loss` when one side wins at least [`VERDICT_WINS`] of at
    /// least [`VERDICT_PAIRS`] pairs and the medians are further apart
    /// than the base IQR; `few` under that many pairs.
    fn verdict(&self) -> &'static str {
        if self.n < VERDICT_PAIRS {
            return "few";
        }
        let apart = (self.new_median - self.base_median).abs() > self.base_iqr;
        let share = |k: usize| k as f64 >= VERDICT_WINS * self.n as f64;
        match (apart, share(self.wins), share(self.losses)) {
            (true, true, _) => "gain",
            (true, _, true) => "loss",
            _ => "level",
        }
    }
}

/// One run of one side: its commit and metric values.
#[derive(Clone, Debug, Default, PartialEq)]
struct Run {
    sha: String,
    /// Why the run cannot count — it did not start, exited non-zero,
    /// printed no result line or reported a failed check — or `None`.
    failed: Option<String>,
    metrics: BTreeMap<String, f64>,
}

impl Run {
    /// A run that produced nothing to read.
    fn failed(why: String) -> Run {
        Run {
            sha: "unknown".into(),
            failed: Some(why),
            metrics: BTreeMap::new(),
        }
    }

    /// Parse a child's standard output: the `tags {…}` line for the
    /// commit, the last non-empty line for the result. Output without a
    /// JSON result line (a crash, a kill, a panic) is a failed run.
    fn parse(stdout: &str) -> Run {
        let sha = stdout
            .lines()
            .find_map(|l| l.strip_prefix("tags "))
            .and_then(|t| json::parse(t).ok())
            .and_then(|t| t.get("git_sha").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| "unknown".into());
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        let result = match last.map(json::parse) {
            Some(Ok(result)) => result,
            Some(Err(e)) => return Run::failed(format!("no JSON result line ({e})")),
            None => return Run::failed("no output".into()),
        };
        let failed = (result.get("correct") != Some(&Json::Bool(true)))
            .then(|| "reported a failed check".to_string());
        let mut metrics = BTreeMap::new();
        if let Some(fields) = result.get("metrics").and_then(Json::as_obj) {
            for (name, m) in fields {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    metrics.insert(name.clone(), v);
                }
            }
        }
        Run {
            sha,
            failed,
            metrics,
        }
    }

    /// The run's `probe.*` readings.
    fn probes(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics
            .iter()
            .filter(|(k, _)| k.starts_with("probe."))
            .map(|(k, &v)| (k.as_str(), v))
    }
}

/// Why each pair is excluded, by pair index: a failed side, or a probe
/// reading below [`STALL_SHARE`] of that probe's median over every run.
/// Only higher-is-better probes (bandwidth, peak) can mark a stall.
fn exclusions(pairs: &[(Run, Run)], better: &BTreeMap<String, Better>) -> Vec<(usize, String)> {
    let mut by_probe: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (b, n) in pairs {
        for (k, v) in b.probes().chain(n.probes()) {
            by_probe.entry(k).or_default().push(v);
        }
    }
    let medians: BTreeMap<&str, f64> = by_probe.iter().map(|(k, v)| (*k, median(v))).collect();
    let mut out = Vec::new();
    for (i, (b, n)) in pairs.iter().enumerate() {
        let sides = [("base", b), ("new", n)];
        let failed = sides
            .iter()
            .find_map(|(side, run)| Some(format!("{side} run failed: {}", run.failed.as_ref()?)));
        let stall = || {
            sides.iter().find_map(|(side, run)| {
                run.probes()
                    .filter(|(k, _)| better.get(*k) == Some(&Better::Higher))
                    .find(|(k, v)| *v < STALL_SHARE * medians[k])
                    .map(|(k, v)| {
                        format!(
                            "stall: {side} {k} {v:.3} < {STALL_SHARE} × median {:.3}",
                            medians[k]
                        )
                    })
            })
        };
        if let Some(why) = failed.or_else(stall) {
            out.push((i, why));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Args {
    base: PathBuf,
    new: PathBuf,
    workload: String,
    seed: u64,
    pairs: usize,
    trace: u8,
    benchmark: PathBuf,
    out: PathBuf,
}

fn usage() -> String {
    "usage: pairs BASE_E2E NEW_E2E --workload W --seed S --pairs N [--trace 0|1] \
     [--benchmark BENCHMARK.json] [--out BENCH_pairs.jsonl]"
        .into()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(name) => {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), v.clone());
            }
            None => positional.push(PathBuf::from(a)),
        }
    }
    let [base, new] = <[PathBuf; 2]>::try_from(positional).map_err(|_| usage())?;
    let num = |v: Option<String>, name: &str| -> Result<Option<f64>, String> {
        v.map(|s| {
            s.parse()
                .map_err(|_| format!("--{name} {s:?} is not a number"))
        })
        .transpose()
    };
    let workload = flags.remove("workload").ok_or_else(usage)?;
    let seed = num(flags.remove("seed"), "seed")?.ok_or_else(usage)? as u64;
    let pairs = num(flags.remove("pairs"), "pairs")?.ok_or_else(usage)? as usize;
    let trace = num(flags.remove("trace"), "trace")?.unwrap_or(0.0) as u8;
    let benchmark = flags
        .remove("benchmark")
        .unwrap_or_else(|| "BENCHMARK.json".into());
    let out = flags
        .remove("out")
        .unwrap_or_else(|| "BENCH_pairs.jsonl".into());
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag --{unknown}\n{}", usage()));
    }
    if pairs == 0 || trace > 1 {
        return Err(usage());
    }
    Ok(Args {
        base,
        new,
        workload,
        seed,
        pairs,
        trace,
        benchmark: benchmark.into(),
        out: out.into(),
    })
}

/// What a pair run needs of `BENCHMARK.json`.
#[derive(Debug)]
struct Benchmark {
    /// Each metric's `better` direction (its `end_to_end` and `per_layer`
    /// lists).
    better: BTreeMap<String, Better>,
    /// The names of the `end_to_end` list.
    end_to_end: BTreeSet<String>,
    /// `run_seconds`, the window every child runs for.
    seconds: f64,
}

fn read_benchmark(benchmark: &Path) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("cannot read {}: {e}", benchmark.display()))?;
    let spec = json::parse(&text)?;
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{} has no run_seconds", benchmark.display()))?;
    let mut better = BTreeMap::new();
    let mut end_to_end = BTreeSet::new();
    for list in ["end_to_end", "per_layer"] {
        for m in spec.get(list).and_then(Json::as_arr).unwrap_or_default() {
            let (Some(name), Some(dir)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
            ) else {
                continue;
            };
            let b = if dir == "higher" {
                Better::Higher
            } else {
                Better::Lower
            };
            better.insert(name.to_string(), b);
            if list == "end_to_end" {
                end_to_end.insert(name.to_string());
            }
        }
    }
    Ok(Benchmark {
        better,
        end_to_end,
        seconds,
    })
}

/// The git work tree holding `bin` (the nearest ancestor with `.git`).
fn work_tree(bin: &Path) -> Option<PathBuf> {
    let abs = std::fs::canonicalize(bin).ok()?;
    abs.ancestors()
        .find(|d| d.join(".git").exists())
        .map(Path::to_path_buf)
}

/// One child run; a child that cannot start or exits non-zero is a
/// failed run, never an error that ends the invocation.
fn run_side(bin: &Path, a: &Args, seconds: f64) -> Run {
    let mut cmd = Command::new(bin);
    cmd.args(["--workload", &a.workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &a.trace.to_string()]);
    if let Some(dir) = work_tree(bin) {
        cmd.current_dir(dir);
    }
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => return Run::failed(format!("cannot run {}: {e}", bin.display())),
    };
    let mut run = Run::parse(&String::from_utf8_lossy(&out.stdout));
    if !out.status.success() {
        run.failed = Some(format!("{} exited with {}", bin.display(), out.status));
    }
    run
}

/// One metric's `(base, new)` values over the kept pairs, in pair order;
/// a pair where either side lacks the metric is left out.
fn metric_values(kept: &[&(Run, Run)], name: &str) -> Vec<(f64, f64)> {
    kept.iter()
        .filter_map(|(b, n)| Some((*b.metrics.get(name)?, *n.metrics.get(name)?)))
        .collect()
}

/// One metric's entry in the record: its statistics and, for an
/// end-to-end metric, the per-pair `base` and `new` values of `values`.
fn metric_record(s: &MetricStats, values: &[(f64, f64)], end_to_end: bool) -> Json {
    let mut fields = vec![
        ("base_median", Json::Num(s.base_median)),
        ("new_median", Json::Num(s.new_median)),
        ("base_iqr", Json::Num(s.base_iqr)),
        ("ratio_median", Json::Num(s.ratio_median)),
        ("wins", Json::Num(s.wins as f64)),
        ("n", Json::Num(s.n as f64)),
        ("verdict", Json::Str(s.verdict().into())),
    ];
    if end_to_end {
        let side = |pick: fn(&(f64, f64)) -> f64| {
            Json::Arr(values.iter().map(|p| Json::Num(pick(p))).collect())
        };
        fields.push(("base", side(|p| p.0)));
        fields.push(("new", side(|p| p.1)));
    }
    obj(fields)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(a: &Args) -> Result<(), String> {
    let Benchmark {
        better,
        end_to_end,
        seconds,
    } = read_benchmark(&a.benchmark)?;
    let mut pairs = Vec::with_capacity(a.pairs);
    for i in 0..a.pairs {
        let (b, n) = if i % 2 == 0 {
            let b = run_side(&a.base, a, seconds);
            (b, run_side(&a.new, a, seconds))
        } else {
            let n = run_side(&a.new, a, seconds);
            (run_side(&a.base, a, seconds), n)
        };
        let first = if i % 2 == 0 { "base" } else { "new" };
        eprintln!("pair {}/{} done ({first} first)", i + 1, a.pairs);
        pairs.push((b, n));
    }
    let excluded = exclusions(&pairs, &better);
    let kept: Vec<&(Run, Run)> = pairs
        .iter()
        .enumerate()
        .filter(|(i, _)| !excluded.iter().any(|(j, _)| j == i))
        .map(|(_, p)| p)
        .collect();

    println!(
        "{} pairs of {} (seed {}), {} excluded",
        a.pairs,
        a.workload,
        a.seed,
        excluded.len()
    );
    for (i, why) in &excluded {
        println!("  excluded pair {}: {why}", i + 1);
    }
    println!(
        "{:<36} {:>12} {:>12} {:>10} {:>8} {:>7} verdict",
        "metric", "base median", "new median", "base IQR", "ratio", "wins"
    );
    let names: std::collections::BTreeSet<&String> = pairs
        .iter()
        .flat_map(|(b, n)| b.metrics.keys().chain(n.metrics.keys()))
        .collect();
    let mut metrics = Vec::new();
    for name in names {
        let Some(&dir) = better.get(name.as_str()) else {
            continue;
        };
        let values = metric_values(&kept, name);
        let s = MetricStats::of(&values, dir);
        println!(
            "{name:<36} {:>12.4} {:>12.4} {:>10.4} {:>8.3} {:>3}/{:<3} {}",
            s.base_median,
            s.new_median,
            s.base_iqr,
            s.ratio_median,
            s.wins,
            s.n,
            s.verdict()
        );
        let record = metric_record(&s, &values, end_to_end.contains(name));
        metrics.push((name.clone(), record));
    }
    let mut probes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (b, n) in &pairs {
        for (k, v) in b.probes().chain(n.probes()) {
            probes.entry(k).or_default().push(v);
        }
    }
    // The first commit a side's runs name ("unknown" if none started).
    let sha = |side: fn(&(Run, Run)) -> &Run| {
        let known = pairs.iter().map(side).find(|r| r.sha != "unknown");
        Json::Str(known.map_or("unknown", |r| &r.sha).to_string())
    };
    let record = obj([
        ("base_sha", sha(|p| &p.0)),
        ("new_sha", sha(|p| &p.1)),
        ("workload", Json::Str(a.workload.clone())),
        ("seed", Json::Num(a.seed as f64)),
        ("pairs", Json::Num(a.pairs as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Num(a.trace as f64)),
        (
            "excluded",
            Json::Arr(
                excluded
                    .iter()
                    .map(|(i, why)| {
                        obj([
                            ("pair", Json::Num((i + 1) as f64)),
                            ("why", Json::Str(why.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", obj(metrics)),
        (
            "probes",
            obj(probes.iter().map(|(k, v)| (*k, Json::Num(median(v))))),
        ),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&a.out)
        .map_err(|e| format!("cannot open {}: {e}", a.out.display()))?;
    writeln!(file, "{}", record.render()).map_err(|e| e.to_string())?;
    println!("record appended to {}", a.out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_on_fixed_samples() {
        // Python: statistics.quantiles([1..=10], n=4) = [2.75, 5.5, 8.25].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&xs) - 5.5).abs() < 1e-12);
        // [1, 2, 3, 4] → quartiles 1.25 and 3.75.
        assert!((iqr(&[4.0, 1.0, 3.0, 2.0]) - 2.5).abs() < 1e-12);
        assert_eq!(iqr(&[7.0]), 0.0);
    }

    #[test]
    fn pair_statistics_count_wins_by_direction() {
        // Ten pairs where new is 20 % lower on nine and higher on one.
        let mut pairs: Vec<(f64, f64)> = (0..9)
            .map(|i| (100.0 + i as f64, 80.0 + i as f64 * 0.8))
            .collect();
        pairs.push((100.0, 110.0));
        let lower = MetricStats::of(&pairs, Better::Lower);
        assert_eq!((lower.wins, lower.losses, lower.n), (9, 1, 10));
        assert!((lower.ratio_median - 0.8).abs() < 1e-12, "{lower:?}");
        assert_eq!(lower.base_median, 103.5);
        assert_eq!(lower.verdict(), "gain");
        let higher = MetricStats::of(&pairs, Better::Higher);
        assert_eq!((higher.wins, higher.losses), (1, 9));
        assert_eq!(higher.verdict(), "loss");
        // Within the base IQR: level, however the wins fall.
        let close: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + 10.0 * i as f64, 99.0 + 10.0 * i as f64))
            .collect();
        let s = MetricStats::of(&close, Better::Lower);
        assert_eq!(s.wins, 10);
        assert_eq!(s.verdict(), "level");
        // Eight wins in ten is not enough, and nine pairs are too few.
        let mut eight = pairs.clone();
        eight[0] = (100.0, 120.0);
        assert_eq!(MetricStats::of(&eight, Better::Lower).verdict(), "level");
        assert_eq!(MetricStats::of(&pairs[1..], Better::Lower).verdict(), "few");
    }

    fn run(sha: &str, metrics: &[(&str, f64)]) -> Run {
        Run {
            sha: sha.into(),
            failed: None,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    const HARNESS_STDOUT: &str = "tags {\"workload\": \"train_ooc\", \"git_sha\": \"abc123\", \"seed\": 7}\n\
        op_ms 1.0 ms\n\
        {\"attempted\": 3, \"correct\": true, \"failed\": 0, \"metrics\": \
        {\"op_ms\": {\"unit\": \"ms\", \"value\": 61.5}, \"quality\": {\"unit\": \"ratio\", \"value\": 6.2e-1}}}\n\n";

    #[test]
    fn stalled_and_failed_pairs_are_listed() {
        let better: BTreeMap<String, Better> = [
            ("probe.stream_gbps".to_string(), Better::Higher),
            ("op_ms".to_string(), Better::Lower),
        ]
        .into();
        let ok = |gbps: f64| run("a", &[("probe.stream_gbps", gbps), ("op_ms", 1.0)]);
        let mut failed_check = run("a", &[("op_ms", 1.0)]);
        failed_check.failed = Some("reported a failed check".into());
        // A child that died before its result line: the stdout it left has
        // the tags and a progress line, but no JSON.
        let died = HARNESS_STDOUT
            .lines()
            .take(2)
            .collect::<Vec<_>>()
            .join("\n");
        let pairs = vec![
            (ok(10.0), ok(10.5)),
            (ok(9.8), ok(5.0)), // new side stalled
            (failed_check, ok(10.0)),
            (ok(10.1), ok(9.9)),
            (ok(10.0), Run::parse(&died)),
            (Run::failed("cannot run base: not found".into()), ok(10.2)),
        ];
        let ex = exclusions(&pairs, &better);
        let at: Vec<usize> = ex.iter().map(|e| e.0).collect();
        assert_eq!(at, [1, 2, 4, 5], "{ex:?}");
        assert!(
            ex[0].1.starts_with("stall: new probe.stream_gbps 5.000"),
            "{}",
            ex[0].1
        );
        assert_eq!(ex[1].1, "base run failed: reported a failed check");
        assert!(
            ex[2].1.starts_with("new run failed: no JSON result line"),
            "{}",
            ex[2].1
        );
        assert_eq!(ex[3].1, "base run failed: cannot run base: not found");
        // Untraced runs have no probes: nothing is a stall.
        let plain = vec![(run("a", &[("op_ms", 1.0)]), run("b", &[("op_ms", 2.0)]))];
        assert!(exclusions(&plain, &better).is_empty());
    }

    /// An end-to-end metric's entry lists the kept pairs' values in pair
    /// order on each side; an excluded pair's values are not among them,
    /// and a per-layer metric's entry has no per-pair values.
    #[test]
    fn the_record_carries_each_end_to_end_metrics_pair_values() {
        let pairs = vec![
            (run("a", &[("op_ms", 10.0)]), run("b", &[("op_ms", 8.0)])),
            (run("a", &[("op_ms", 30.0)]), Run::failed("crashed".into())),
            (run("a", &[("op_ms", 12.0)]), run("b", &[("op_ms", 7.5)])),
            (run("a", &[("op_ms", 11.0)]), run("b", &[("op_ms", 15.0)])),
        ];
        let better = [("op_ms".to_string(), Better::Lower)].into();
        let excluded = exclusions(&pairs, &better);
        assert_eq!(excluded.len(), 1);
        let kept: Vec<&(Run, Run)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| !excluded.iter().any(|(j, _)| j == i))
            .map(|(_, p)| p)
            .collect();
        let values = metric_values(&kept, "op_ms");
        assert_eq!(values, [(10.0, 8.0), (12.0, 7.5), (11.0, 15.0)]);
        let s = MetricStats::of(&values, Better::Lower);
        let back = json::parse(&metric_record(&s, &values, true).render()).unwrap();
        let side = |k: &str| -> Vec<f64> {
            let arr = back.get(k).and_then(Json::as_arr).unwrap();
            arr.iter().map(|v| v.as_f64().unwrap()).collect()
        };
        assert_eq!(side("base"), [10.0, 12.0, 11.0]);
        assert_eq!(side("new"), [8.0, 7.5, 15.0]);
        assert_eq!(back.get("wins").and_then(Json::as_f64), Some(2.0));
        let per_layer = metric_record(&s, &values, false);
        assert!(per_layer.get("base").is_none() && per_layer.get("new").is_none());
    }

    #[test]
    fn a_harness_output_parses_to_its_commit_and_metrics() {
        let r = Run::parse(HARNESS_STDOUT);
        assert_eq!(r.sha, "abc123");
        assert_eq!(r.failed, None);
        assert_eq!(r.metrics["op_ms"], 61.5);
        assert_eq!(r.metrics["quality"], 0.62);
        assert_eq!(Run::parse("").failed.as_deref(), Some("no output"));
        let failing = HARNESS_STDOUT.replace("\"correct\": true", "\"correct\": false");
        assert_eq!(
            Run::parse(&failing).failed.as_deref(),
            Some("reported a failed check")
        );
    }

    #[test]
    fn the_run_length_is_the_benchmarks() {
        let dir = std::env::temp_dir().join(format!("pairs-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCHMARK.json");
        std::fs::write(
            &path,
            r#"{"run_seconds": 12, "end_to_end": [{"name": "op_ms", "better": "lower"}],
                "per_layer": [{"name": "probe.fma_gflops", "better": "higher"}]}"#,
        )
        .unwrap();
        let spec = read_benchmark(&path).unwrap();
        assert_eq!(spec.seconds, 12.0);
        assert_eq!(spec.better["op_ms"], Better::Lower);
        assert_eq!(spec.better["probe.fma_gflops"], Better::Higher);
        assert_eq!(Vec::from_iter(&spec.end_to_end), ["op_ms"]);
        std::fs::write(&path, r#"{"end_to_end": []}"#).unwrap();
        assert!(read_benchmark(&path).unwrap_err().contains("run_seconds"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args: Vec<String> = "base new --workload train_ooc --seed 31 --pairs 10"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!((a.seed, a.pairs, a.trace), (31, 10, 0));
        assert_eq!(a.out, PathBuf::from("BENCH_pairs.jsonl"));
        assert!(parse_args(&args[..4]).is_err());
        let mut bad = args.clone();
        bad.extend(["--seconds".into(), "5".into()]);
        assert!(parse_args(&bad).unwrap_err().contains("--seconds"));
    }
}
