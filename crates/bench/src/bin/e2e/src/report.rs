//! What one workload run produces: operation counts, correctness-check
//! failures and metric values by name.

use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    /// Operations attempted (epochs and target checks, or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value recorded under `name`; 0 when the workload does not
    /// exercise that layer.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a failed correctness check.
    pub fn error(&mut self, what: String) {
        self.errors.push(what);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}
