//! `gsgcn reproduce`, driven as a child process at the default seed (42).
//! Every experiment fast enough for a test runs here: it must exit 0 and
//! print each of its sections, and the rows that do not come from a clock
//! must read exactly as pinned. `fig2` and `a2` take too long for a test;
//! CI runs `gsgcn reproduce all`.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsgcn"))
        .arg("reproduce")
        .args(args)
        .output()
        .expect("run gsgcn")
}

/// Run `gsgcn reproduce args…`, expect exit 0 and every header in
/// `sections`, and return stdout.
fn sections(args: &[&str], sections: &[&str]) -> String {
    let out = reproduce(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    for title in sections {
        assert!(
            stdout.contains(&format!("\n=== {title} ===\n")),
            "{args:?}: no section {title:?}\n{stdout}"
        );
    }
    stdout
}

/// Assert that `rows` appear in `stdout` as consecutive lines.
fn assert_rows(stdout: &str, rows: &str) {
    assert!(
        stdout.contains(&format!("{rows}\n")),
        "rows not found:\n{rows}\nin:\n{stdout}"
    );
}

/// The core sweep under `--max-cores 2`.
fn sweep_to_two() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        vec![1, 2]
    } else {
        vec![1]
    }
}

#[test]
fn table1_pins_the_realised_statistics() {
    let stdout = sections(
        &["table1"],
        &[
            "Table I: dataset statistics (paper targets)",
            "Realised scaled datasets (experiment defaults)",
        ],
    );
    assert_rows(
        &stdout,
        "\
Dataset     #Vertices  #Edges(und)     Attr    Cls   Task   AvgDeg   MaxDeg     LCC%
PPI              2048        25255       50    121    (M)     24.7      101   100.0%
Reddit           4096       138133      602     41    (S)     67.4      347   100.0%
Yelp             4096        37678      300    100    (M)     18.4      176   100.0%
Amazon           4096       161224      200    107    (M)     78.7      801   100.0%",
    );
    assert!(stdout.contains("(run with --full to also generate + verify full-scale PPI)"));
}

#[test]
fn a1_compares_the_samplers_at_four_frontier_sizes() {
    let stdout = sections(
        &["a1"],
        &["A1: Dashboard vs naive frontier sampler (serial, per-subgraph seconds)"],
    );
    for (m, budget) in [(50, 400), (200, 800), (500, 1200), (675, 1350)] {
        let prefix = format!("{m:>6} {budget:>8} ");
        assert!(
            stdout.lines().any(|l| l.starts_with(&prefix)),
            "no row {prefix:?}\n{stdout}"
        );
    }
}

#[test]
fn a3_pins_the_subgraph_statistics_and_the_frontier_learns() {
    let stdout = sections(
        &["a3"],
        &[
            "A3: subgraph statistics per sampler (training graph)",
            "A3: final validation F1 after 30 epochs per sampler",
        ],
    );
    assert_rows(
        &stdout,
        "\
training graph: |V|=1352 d̄=16.5 clustering=0.2320
sampler         |V_sub|   d̄_sub    cluster  deg-TV-dist       LCC%
frontier            352      7.6     0.3005       0.5044     100.0%
uniform-node        500      6.1     0.2227       0.7325      99.0%
uniform-edge        500      7.6     0.2404       0.5745     100.0%
random-walk         500      8.6     0.2756       0.4485     100.0%
forest-fire         500      9.4     0.2679       0.3635     100.0%",
    );
    let frontier: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("frontier       val F1 = "))
        .expect("frontier F1 row")
        .parse()
        .expect("an F1 value");
    assert!(frontier > 0.0, "{stdout}");
    // The closing line says whether the expected ordering held.
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.ends_with(": holds") || last.ends_with(": does not hold"),
        "{last}"
    );
}

#[test]
fn fig3_sweeps_the_capped_cores() {
    let stdout = sections(
        &["fig3", "--max-cores", "2"],
        &["Fig. 3 (hidden dimension = 512)"],
    );
    for dataset in ["PPI", "Reddit"] {
        assert!(stdout.contains(&format!("--- dataset {dataset} ---\n")));
    }
    for cores in sweep_to_two() {
        let rows = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(&cores.to_string()))
            .count();
        assert_eq!(rows, 2, "{cores} cores: one row per dataset\n{stdout}");
    }
}

#[test]
fn fig4_pins_the_theorem_1_rows() {
    let stdout = sections(
        &["fig4", "--max-cores", "2"],
        &[
            "Fig. 4A: sampling speedup vs p_inter (lane-batched probing)",
            "Fig. 4B: lane-batched (AVX analogue) gain over scalar probing (vertex phase)",
            "Fig. 4B microbench: lane-batched RNG throughput (the vectorisable component)",
            "Theorem 1 cost model (analytic, for the measured graphs)",
        ],
    );
    let columns: String = sweep_to_two().iter().map(|c| format!("{c:>8}")).collect();
    assert!(
        stdout.contains(&format!("dataset    {columns}\n")),
        "{stdout}"
    );
    assert_rows(
        &stdout,
        "\
PPI        d̄(capped)=  16.5  theorem-1 bound p ≤   55.7  modeled speedup at p=8: 7.61x (guarantee 5.33x)
Amazon     d̄(capped)=  30.0  theorem-1 bound p ≤  103.0  modeled speedup at p=8: 7.78x (guarantee 5.33x)",
    );
}

#[test]
fn table2_prints_one_row_per_depth() {
    let stdout = sections(
        &["table2", "--max-cores", "2"],
        &["Table II: speedup vs parallelized GraphSAGE-style baseline (Reddit-shaped)"],
    );
    for layers in 1..=3 {
        let prefix = format!("{layers}-layer ");
        assert!(stdout.lines().any(|l| l.starts_with(&prefix)), "{stdout}");
    }
    assert!(stdout.contains(
        "layer-sampler node counts for one 512-vertex batch (3-layer): \
         [2703, 2604, 1253, 512] of 2703 train vertices\n"
    ));
}

#[test]
fn an_unknown_experiment_is_refused_with_the_names() {
    for args in [&["bogus"][..], &[]] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.starts_with("error:"), "{stderr}");
        if !args.is_empty() {
            assert!(
                first.contains("\"bogus\"")
                    && first.contains("table1 fig2 fig3 fig4 table2 a1 a2 a3 all"),
                "{stderr}"
            );
        }
    }
}
