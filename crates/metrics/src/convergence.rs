//! Time-vs-accuracy curves and threshold-crossing speedups (Fig. 2,
//! Sec. VI-B).
//!
//! The paper measures "serial training time speedup" as: let `a₀` be the
//! best accuracy any baseline reaches; the threshold is `a₀ − 0.0025`
//! (0.25% slack for training stochasticity); the speedup is the ratio of
//! the baselines' best time-to-threshold to the proposed method's
//! time-to-threshold.

/// One point of a convergence curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Cumulative training time when the measurement was taken.
    pub time_secs: f64,
    /// Validation metric (F1-micro in the paper).
    pub metric: f64,
}

/// A labelled convergence curve (one training run).
#[derive(Clone, Debug)]
pub struct Curve {
    pub label: String,
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// New empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        Curve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a measurement (time must be non-decreasing).
    pub fn push(&mut self, time_secs: f64, metric: f64) {
        if let Some(last) = self.points.last() {
            assert!(
                time_secs >= last.time_secs,
                "curve time must be non-decreasing"
            );
        }
        self.points.push(CurvePoint { time_secs, metric });
    }

    /// Best metric reached anywhere on the curve.
    pub fn best_metric(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.metric)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// First time the curve reaches `threshold` (linear scan), or `None`.
    pub fn time_to_reach(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.metric >= threshold)
            .map(|p| p.time_secs)
    }

    /// CSV rows `time,metric` prefixed with the label column.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for p in &self.points {
            s.push_str(&format!(
                "{},{:.4},{:.6}\n",
                self.label, p.time_secs, p.metric
            ));
        }
        s
    }
}

/// The paper's accuracy-threshold rule: `a₀ − 0.0025` where `a₀` is the
/// best metric over the baseline curves.
pub fn paper_threshold(baselines: &[&Curve]) -> f64 {
    let a0 = baselines
        .iter()
        .map(|c| c.best_metric())
        .fold(f64::NEG_INFINITY, f64::max);
    a0 - 0.0025
}

/// Sec. VI-B speedup: [`speedup_at`] the paper's threshold
/// ([`paper_threshold`]).
pub fn threshold_speedup(proposed: &Curve, baselines: &[&Curve]) -> Option<f64> {
    speedup_at(proposed, baselines, paper_threshold(baselines))
}

/// Best baseline time-to-`threshold` divided by the proposed method's
/// time-to-`threshold`. `None` if either side never reaches it.
pub fn speedup_at(proposed: &Curve, baselines: &[&Curve], threshold: f64) -> Option<f64> {
    let ours = proposed.time_to_reach(threshold)?;
    let theirs = baselines
        .iter()
        .filter_map(|c| c.time_to_reach(threshold))
        .fold(f64::INFINITY, f64::min);
    if theirs.is_infinite() || ours <= 0.0 {
        None
    } else {
        Some(theirs / ours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(label: &str, pts: &[(f64, f64)]) -> Curve {
        let mut c = Curve::new(label);
        for &(t, m) in pts {
            c.push(t, m);
        }
        c
    }

    #[test]
    fn best_and_time_to_reach() {
        let c = curve("x", &[(1.0, 0.5), (2.0, 0.8), (3.0, 0.7)]);
        assert_eq!(c.best_metric(), 0.8);
        assert_eq!(c.time_to_reach(0.75), Some(2.0));
        assert_eq!(c.time_to_reach(0.9), None);
        assert_eq!(c.time_to_reach(0.4), Some(1.0));
    }

    #[test]
    fn paper_threshold_rule() {
        let b1 = curve("b1", &[(1.0, 0.90)]);
        let b2 = curve("b2", &[(1.0, 0.95)]);
        let t = paper_threshold(&[&b1, &b2]);
        assert!((t - 0.9475).abs() < 1e-12);
    }

    #[test]
    fn speedup_against_best_baseline() {
        // Proposed reaches 0.9475 at t=2; baselines at t=10 and t=8.
        let prop = curve("ours", &[(1.0, 0.80), (2.0, 0.96)]);
        let b1 = curve("b1", &[(10.0, 0.95)]);
        let b2 = curve("b2", &[(8.0, 0.95)]);
        let s = threshold_speedup(&prop, &[&b1, &b2]).unwrap();
        assert!((s - 4.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn speedup_none_when_unreached() {
        let prop = curve("ours", &[(1.0, 0.5)]);
        let b = curve("b", &[(1.0, 0.9)]);
        assert!(threshold_speedup(&prop, &[&b]).is_none());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_must_not_go_backwards() {
        let mut c = Curve::new("x");
        c.push(2.0, 0.1);
        c.push(1.0, 0.2);
    }

    #[test]
    fn csv_format() {
        let c = curve("ours", &[(1.5, 0.75)]);
        assert_eq!(c.to_csv(), "ours,1.5000,0.750000\n");
    }
}
