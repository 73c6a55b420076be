//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the harness's side of each layer's public API
//! (the harness times the call; nothing inside the libraries is
//! instrumented), kept in memory, and written as JSONL when the run ends.
//! A layer's *self* time is its span minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Operation the span belongs to: epoch·iteration or request id.
    pub op: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since this tracer was made (the clock spans use).
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A span push leaves the vector valid at every step.
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Open a span now; returns its id for [`Tracer::close`] and as the
    /// `parent` of its children.
    pub fn open(&self, name: &'static str, parent: u32, op: u64) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (spans.len() - 1) as u32
    }

    /// Close span `id` now; returns its duration in seconds.
    pub fn close(&self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        let s = &mut spans[id as usize];
        s.end_ns = end_ns;
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Time `f` as a span.
    pub fn span<R>(&self, name: &'static str, parent: u32, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Per-span self time in ns: duration minus the union of the children's
/// intervals clipped to the span (children may overlap each other when
/// they ran on parallel threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals per span name over the spans that started at or after
/// `since_ns`: `(total seconds, self seconds, count)`.
pub fn totals_by_name(spans: &[Span], since_ns: u64) -> BTreeMap<&'static str, (f64, f64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.start_ns < since_ns {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns) as f64 * 1e-9;
        e.1 += self_ns as f64 * 1e-9;
        e.2 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("epoch", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),    // overlaps a: union is 10..60
            span("c", 90, 120, 0),   // clipped to the parent: 90..100
            span("leaf", 15, 20, 1), // grandchild: only a's self shrinks
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
        let t = totals_by_name(&spans, 0);
        assert_eq!(t["epoch"].2, 1);
        assert!((t["epoch"].1 - 40e-9).abs() < 1e-15);
        assert!((t["a"].0 - 30e-9).abs() < 1e-15);
        assert!(!totals_by_name(&spans, 10).contains_key("epoch"));
    }

    #[test]
    fn tracer_nests_and_orders() {
        let t = Tracer::new();
        let root = t.open("root", NO_PARENT, 7);
        t.span("child", root, 7, || std::hint::black_box(1 + 1));
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
