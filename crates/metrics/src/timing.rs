//! Per-phase timing: the execution-time breakdown of Fig. 3 and the
//! speedup arithmetic of Figs. 3–4 / Table II.

use std::time::Instant;

/// The three phases the paper breaks training time into (Fig. 3, rightmost
/// panels), plus a bucket for everything else (loss, optimiser, glue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Graph sampling as the *consumer* sees it (Alg. 5 lines 3–5): on
    /// the synchronous path this is the full sampling wall-clock; on the
    /// pipelined path it is only the time the training loop actually
    /// stalled waiting on the sampler queue — sampling that ran hidden
    /// behind compute is accounted separately
    /// ([`Breakdown::sampling_hidden_secs`]).
    Sampling,
    /// Sparse feature propagation (forward + backward).
    FeatureProp,
    /// Dense weight application (all GEMMs).
    WeightApp,
    /// Loss, optimiser state updates, bookkeeping.
    Other,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 4] = [
        Phase::Sampling,
        Phase::FeatureProp,
        Phase::WeightApp,
        Phase::Other,
    ];

    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Sampling => "Sampling",
            Phase::FeatureProp => "Feat Propagation",
            Phase::WeightApp => "Weight Application",
            Phase::Other => "Other",
        }
    }
}

/// Accumulated seconds per phase.
///
/// All four phase fields are *consumer wall-clock* — they sum
/// ([`Breakdown::total`]) to the time the training loop itself spent.
/// `sampling_hidden_secs` is the exception: sampler wall-clock that ran
/// concurrently with compute on the pipelined path. It overlaps the other
/// phases rather than adding to them, so it is excluded from `total()`
/// and reported as an overlap percentage instead.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    pub sampling_secs: f64,
    pub feature_prop_secs: f64,
    pub weight_app_secs: f64,
    pub other_secs: f64,
    /// Sampler wall-clock hidden behind compute (pipelined path only;
    /// `0` on the synchronous path, where every sampling second stalls
    /// the consumer).
    pub sampling_hidden_secs: f64,
}

impl Breakdown {
    /// Add seconds to one phase.
    pub fn add(&mut self, phase: Phase, secs: f64) {
        match phase {
            Phase::Sampling => self.sampling_secs += secs,
            Phase::FeatureProp => self.feature_prop_secs += secs,
            Phase::WeightApp => self.weight_app_secs += secs,
            Phase::Other => self.other_secs += secs,
        }
    }

    /// Seconds of one phase.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Sampling => self.sampling_secs,
            Phase::FeatureProp => self.feature_prop_secs,
            Phase::WeightApp => self.weight_app_secs,
            Phase::Other => self.other_secs,
        }
    }

    /// Record sampler wall-clock that overlapped compute (pipelined path).
    pub fn add_hidden_sampling(&mut self, secs: f64) {
        self.sampling_hidden_secs += secs;
    }

    /// Total sampler wall-clock: consumer stall + compute-hidden time.
    pub fn sampling_wall_secs(&self) -> f64 {
        self.sampling_secs + self.sampling_hidden_secs
    }

    /// Fraction of sampler wall-clock hidden behind compute
    /// (`0` when no sampling was recorded or nothing overlapped).
    pub fn sampling_overlap_fraction(&self) -> f64 {
        let wall = self.sampling_wall_secs();
        if wall == 0.0 {
            0.0
        } else {
            self.sampling_hidden_secs / wall
        }
    }

    /// Total consumer seconds across phases (hidden sampling overlaps
    /// these and is deliberately not included).
    pub fn total(&self) -> f64 {
        self.sampling_secs + self.feature_prop_secs + self.weight_app_secs + self.other_secs
    }

    /// Fraction of total per phase (0 when total is 0).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(phase) / t
        }
    }

    /// One-line report: `Sampling 12.3% | Feat 45.6% | Weight 40.0% | ...`,
    /// with the sampling-overlap percentage appended when any sampling ran
    /// hidden behind compute.
    pub fn report(&self) -> String {
        let mut out = Phase::ALL
            .iter()
            .map(|p| format!("{} {:.1}%", p.name(), 100.0 * self.fraction(*p)))
            .collect::<Vec<_>>()
            .join(" | ");
        if self.sampling_hidden_secs > 0.0 {
            out.push_str(&format!(
                " | sampling overlap {:.1}%",
                100.0 * self.sampling_overlap_fraction()
            ));
        }
        out
    }
}

/// Stopwatch that adds its elapsed time to a [`Breakdown`] phase.
pub struct PhaseTimer<'a> {
    breakdown: &'a mut Breakdown,
    phase: Phase,
    start: Instant,
}

impl<'a> PhaseTimer<'a> {
    /// Start timing `phase`.
    pub fn start(breakdown: &'a mut Breakdown, phase: Phase) -> Self {
        PhaseTimer {
            breakdown,
            phase,
            start: Instant::now(),
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.breakdown
            .add(self.phase, self.start.elapsed().as_secs_f64());
    }
}

/// Speedup of `baseline` over `measured` (`baseline/measured`; 0 guard).
pub fn speedup(baseline_secs: f64, measured_secs: f64) -> f64 {
    if measured_secs <= 0.0 {
        0.0
    } else {
        baseline_secs / measured_secs
    }
}

/// Format a speedup table: one row per labelled series, one column per
/// x-axis point (e.g. core counts) — the layout of Table II.
pub fn format_speedup_table(
    col_header: &str,
    cols: &[usize],
    rows: &[(String, Vec<f64>)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{col_header:<12}"));
    for c in cols {
        out.push_str(&format!("{c:>12}"));
    }
    out.push('\n');
    for (label, vals) in rows {
        out.push_str(&format!("{label:<12}"));
        for v in vals {
            out.push_str(&format!("{:>11.2}x", v));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates() {
        let mut b = Breakdown::default();
        b.add(Phase::Sampling, 1.0);
        b.add(Phase::Sampling, 0.5);
        b.add(Phase::WeightApp, 2.5);
        assert_eq!(b.sampling_secs, 1.5);
        assert_eq!(b.total(), 4.0);
        assert!((b.fraction(Phase::WeightApp) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn timer_records_elapsed() {
        let mut b = Breakdown::default();
        {
            let _t = PhaseTimer::start(&mut b, Phase::FeatureProp);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(b.feature_prop_secs >= 0.004, "{}", b.feature_prop_secs);
    }

    #[test]
    fn hidden_sampling_overlap_accounting() {
        let mut b = Breakdown::default();
        // 1 s stalled, 3 s hidden behind compute.
        b.add(Phase::Sampling, 1.0);
        b.add_hidden_sampling(3.0);
        b.add(Phase::WeightApp, 9.0);
        assert_eq!(b.sampling_wall_secs(), 4.0);
        assert!((b.sampling_overlap_fraction() - 0.75).abs() < 1e-12);
        // Hidden time overlaps compute: not part of the consumer total.
        assert_eq!(b.total(), 10.0);
        let r = b.report();
        assert!(r.contains("sampling overlap 75.0%"), "{r}");
    }

    #[test]
    fn overlap_zero_cases() {
        let b = Breakdown::default();
        assert_eq!(b.sampling_overlap_fraction(), 0.0);
        assert!(!b.sampling_overlap_fraction().is_nan());
        // Synchronous path: stall only, no overlap segment in the report.
        let mut b = Breakdown::default();
        b.add(Phase::Sampling, 2.0);
        assert_eq!(b.sampling_overlap_fraction(), 0.0);
        assert!(!b.report().contains("overlap"), "{}", b.report());
    }

    #[test]
    fn fraction_of_empty_is_zero() {
        let b = Breakdown::default();
        assert_eq!(b.fraction(Phase::Sampling), 0.0);
        assert!(!b.fraction(Phase::Sampling).is_nan());
    }

    #[test]
    fn report_contains_phases() {
        let mut b = Breakdown::default();
        b.add(Phase::WeightApp, 1.0);
        let r = b.report();
        assert!(r.contains("Weight Application 100.0%"), "{r}");
        assert!(r.contains("Sampling 0.0%"));
    }

    #[test]
    fn speedup_math() {
        assert_eq!(speedup(10.0, 2.0), 5.0);
        assert_eq!(speedup(10.0, 0.0), 0.0);
    }

    #[test]
    fn table_layout() {
        let t = format_speedup_table(
            "layers",
            &[1, 5],
            &[("1-layer".to_string(), vec![2.0, 4.8])],
        );
        assert!(t.contains("1-layer"));
        assert!(t.contains("2.00x"));
        assert!(t.contains("4.80x"));
        let header = t.lines().next().unwrap();
        assert!(header.contains('1') && header.contains('5'));
    }
}
