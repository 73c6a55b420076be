//! Evaluation metrics and timing instrumentation.
//!
//! * [`f1`] — F1-micro (the paper's accuracy metric, Fig. 2) for
//!   multi-label (0.5-thresholded sigmoid) and single-label (argmax)
//!   predictions.
//! * [`timing`] — the per-phase execution-time breakdown of Fig. 3
//!   (sampling / feature propagation / weight application) and speedup
//!   helpers.
//! * [`convergence`] — time-vs-accuracy curves and the threshold-crossing
//!   speedup measurement of Sec. VI-B (`a₀ − 0.0025` rule).
//! * [`mem`] — process resident-set probes (`/proc/self/status`) used by
//!   the out-of-core bench and the RSS-capped CI smoke test.

pub mod convergence;
pub mod f1;
pub mod mem;
pub mod timing;
