//! The Dashboard-based frontier sampler (Sec. IV-B, Algorithms 3 & 4).
//!
//! # Data structure
//!
//! Degree-proportional popping (Alg. 2 line 4) is reduced to *uniform*
//! probing: every current frontier vertex `v` owns `min(deg(v), cap)`
//! contiguous slots in the Dashboard (`DB`), so a uniformly probed valid
//! slot selects `v` with probability proportional to its (capped) degree.
//! Frontier replacement appends the new vertex's slots and lazily
//! invalidates the popped vertex's block; a separate index array (`IA`)
//! records each block's start/length/liveness so the periodic *cleanup*
//! can compact live blocks without scanning the whole table.
//!
//! The table is sized `η·m·d̄` (enlargement factor `η > 1`), so cleanup
//! runs only `(n−m)/((η−1)·m)` times per subgraph — the amortisation that
//! gives the sampler its near-linear scalability (Theorem 1).
//!
//! # Differences from the paper (documented deviations)
//!
//! * Slot fields are `u32` (the paper packs INT16 offsets, which overflow
//!   for `η·m·d̄ > 32767` — already the case for Reddit-scale graphs).
//! * We probe uniformly over the *used prefix* of the table rather than
//!   the full capacity. The accepted-sample distribution is identical
//!   (uniform over valid slots); only the rejection constant improves.
//! * A popped vertex whose chosen replacement is isolated (degree 0)
//!   draws a fresh uniform vertex instead, so the frontier never decays
//!   (the paper assumes graphs without isolated vertices).
//! * If the live blocks alone overflow the table (pathological degree
//!   skew), the table grows geometrically instead of deadlocking; the
//!   `grows` stat counts this. The paper's degree cap (≤ 30 slots for the
//!   skewed Amazon graph) is [`FrontierConfig::degree_cap`].

use crate::rng::{LaneRng, Xorshift128Plus, LANES};
use crate::GraphSampler;
use gsgcn_graph::{BitSet, TopoView, Topology};

/// Invalid-slot sentinel (paper's `INV`).
const INV: u32 = u32::MAX;

/// Probing strategy within one sampler instance — the paper's `p_intra`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeMode {
    /// One probe per round (serial baseline in Fig. 4B).
    Scalar,
    /// `LANES` (8) probes per round via the lane-batched RNG — the AVX
    /// analogue ("pintra = 8" in Sec. IV-C).
    Lanes,
}

/// Frontier-sampler configuration (Alg. 2/3 parameters).
#[derive(Clone, Debug)]
pub struct FrontierConfig {
    /// Frontier size `m`. The paper quotes `m = 1000` as a good empirical
    /// value (from the frontier-sampling paper, ref.\[5\]).
    pub frontier_size: usize,
    /// Vertex budget `n` — target `|V_sub|`.
    pub budget: usize,
    /// Enlargement factor `η > 1`; table capacity is `η·m·d̄`.
    pub eta: f64,
    /// Max Dashboard slots per vertex. The paper allocates at most 30
    /// entries per vertex on highly skewed graphs (Sec. VI-C2) to stop a
    /// hub from dominating every subgraph.
    pub degree_cap: Option<u32>,
    /// Probe vectorisation mode (`p_intra`).
    pub probe_mode: ProbeMode,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            frontier_size: 1000,
            budget: 8000,
            eta: 2.0,
            degree_cap: None,
            probe_mode: ProbeMode::Lanes,
        }
    }
}

impl FrontierConfig {
    /// Validate parameter sanity; returns an error string for the CLI
    /// layers to surface.
    pub fn validate(&self) -> Result<(), String> {
        if self.frontier_size == 0 {
            return Err("frontier_size (m) must be ≥ 1".into());
        }
        if self.budget < self.frontier_size {
            return Err(format!(
                "budget n={} must be ≥ frontier_size m={}",
                self.budget, self.frontier_size
            ));
        }
        if self.eta <= 1.0 {
            return Err(format!("eta must be > 1 (got {})", self.eta));
        }
        if self.degree_cap == Some(0) {
            return Err("degree_cap must be ≥ 1".into());
        }
        Ok(())
    }
}

/// Counters describing one sampling run — used by tests, the cost-model
/// validation and the Fig. 4 bench.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Pops performed (`n − m` in a clean run).
    pub pops: usize,
    /// Individual slot probes issued (valid + invalid).
    pub probes: usize,
    /// Probe rounds (batches of 1 or `LANES`).
    pub probe_rounds: usize,
    /// Dashboard compactions.
    pub cleanups: usize,
    /// Geometric growths (pathological-skew escape hatch).
    pub grows: usize,
    /// Frontier re-draws due to isolated replacement vertices.
    pub isolated_redraws: usize,
}

/// The Dashboard + index-array state for one sampling run.
///
/// Exposed (rather than hidden inside the sampler fn) so tests can drive
/// the state machine directly and so future samplers can reuse the
/// degree-proportional pop primitive, per the paper's future-work note on
/// supporting "a wider class of sampling algorithms".
pub struct Dashboard {
    /// Slot → owning vertex id (`INV` when invalid). Paper slot 1.
    vertex: Vec<u32>,
    /// Slot → offset from its block start. Paper slot 2 (sign trick
    /// replaced by an explicit IA lookup).
    offset: Vec<u32>,
    /// Slot → index of the owning entry in `IA`. Paper slot 3.
    owner: Vec<u32>,
    /// IA: block start per added vertex (paper IA slot 1).
    ia_start: Vec<u32>,
    /// IA: block length per added vertex.
    ia_len: Vec<u32>,
    /// IA: liveness flag (paper IA slot 2).
    ia_alive: Vec<bool>,
    /// IA: vertex id per entry (needed to re-fill after cleanup).
    ia_vertex: Vec<u32>,
    /// IA: the `deg` each entry was added with — its true degree, before
    /// the slot cap — so a pop can hand it back without a topology read.
    ia_degree: Vec<u32>,
    /// Used prefix of the slot arrays.
    used: usize,
    /// Total slots in live blocks (invariant: ≤ used).
    live_slots: usize,
    /// Per-vertex slot count bound.
    cap: u32,
    /// Run statistics.
    pub stats: SamplerStats,
}

impl Dashboard {
    /// Allocate a table for frontier size `m` on a graph with (possibly
    /// capped) average degree `d_eff`, enlargement factor `eta`.
    pub fn new(m: usize, d_eff: f64, eta: f64, cap: u32) -> Self {
        let capacity = ((eta * m as f64 * d_eff.max(1.0)).ceil() as usize).max(m * 2);
        Dashboard {
            vertex: vec![INV; capacity],
            offset: vec![0; capacity],
            owner: vec![0; capacity],
            ia_start: Vec::with_capacity(m * 2),
            ia_len: Vec::with_capacity(m * 2),
            ia_alive: Vec::with_capacity(m * 2),
            ia_vertex: Vec::with_capacity(m * 2),
            ia_degree: Vec::with_capacity(m * 2),
            used: 0,
            live_slots: 0,
            cap,
            stats: SamplerStats::default(),
        }
    }

    /// Table capacity (`η·m·d̄` slots).
    pub fn capacity(&self) -> usize {
        self.vertex.len()
    }

    /// Currently used slot prefix.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Number of slots in live blocks.
    pub fn live_slots(&self) -> usize {
        self.live_slots
    }

    /// Number of live frontier vertices.
    pub fn live_vertices(&self) -> usize {
        self.ia_alive.iter().filter(|&&a| a).count()
    }

    /// Slot count a vertex of degree `deg` receives.
    #[inline]
    fn block_len(&self, deg: usize) -> u32 {
        (deg as u32).min(self.cap).max(1)
    }

    /// Append vertex `v` with degree `deg` to the frontier
    /// (para_ADD_TO_FRONTIER, Alg. 4 lines 25–33). Triggers cleanup or
    /// growth when the block does not fit (Alg. 3 lines 20–22).
    pub fn add_to_frontier(&mut self, v: u32, deg: usize) {
        let len = self.block_len(deg) as usize;
        if self.used + len > self.vertex.len() {
            self.cleanup();
            while self.used + len > self.vertex.len() {
                self.grow();
            }
        }
        let ia_idx = self.ia_start.len() as u32;
        let start = self.used;
        self.ia_start.push(start as u32);
        self.ia_len.push(len as u32);
        self.ia_alive.push(true);
        self.ia_vertex.push(v);
        debug_assert!(deg <= u32::MAX as usize);
        self.ia_degree.push(deg as u32);
        // Chunk fills — the memset-like loops the paper vectorises.
        self.vertex[start..start + len].fill(v);
        for (k, o) in self.offset[start..start + len].iter_mut().enumerate() {
            *o = k as u32;
        }
        self.owner[start..start + len].fill(ia_idx);
        self.used += len;
        self.live_slots += len;
    }

    /// Pop one frontier vertex with probability proportional to its slot
    /// count (para_POP_FRONTIER, Alg. 4 lines 1–17). Returns the vertex.
    ///
    /// # Panics
    /// Panics if the frontier is empty (no live slots).
    pub fn pop_frontier(
        &mut self,
        scalar_rng: &mut Xorshift128Plus,
        lane_rng: &mut LaneRng,
        mode: ProbeMode,
    ) -> u32 {
        self.pop_frontier_entry(scalar_rng, lane_rng, mode).0
    }

    /// As [`Self::pop_frontier`], also returning the `deg` the popped
    /// vertex was [added](Self::add_to_frontier) with.
    pub fn pop_frontier_entry(
        &mut self,
        scalar_rng: &mut Xorshift128Plus,
        lane_rng: &mut LaneRng,
        mode: ProbeMode,
    ) -> (u32, usize) {
        assert!(self.live_slots > 0, "pop from empty frontier");
        let idx = match mode {
            ProbeMode::Scalar => loop {
                self.stats.probe_rounds += 1;
                self.stats.probes += 1;
                let i = scalar_rng.next_range(self.used);
                if self.vertex[i] != INV {
                    break i;
                }
            },
            ProbeMode::Lanes => 'outer: loop {
                self.stats.probe_rounds += 1;
                self.stats.probes += LANES;
                let batch = lane_rng.next_batch_range(self.used);
                // Branch-light validity scan of the whole batch; take the
                // first valid probe (still uniform over valid slots).
                for &i in &batch {
                    if self.vertex[i] != INV {
                        break 'outer i;
                    }
                }
            },
        };
        let ia_idx = self.owner[idx] as usize;
        debug_assert_eq!(
            self.ia_start[ia_idx] as usize + self.offset[idx] as usize,
            idx
        );
        let v = self.vertex[idx];
        let start = self.ia_start[ia_idx] as usize;
        let len = self.ia_len[ia_idx] as usize;
        // Invalidate the whole block (vectorised fill).
        self.vertex[start..start + len].fill(INV);
        self.ia_alive[ia_idx] = false;
        self.live_slots -= len;
        self.stats.pops += 1;
        (v, self.ia_degree[ia_idx] as usize)
    }

    /// Compact live blocks to the front of the table
    /// (para_CLEANUP, Alg. 4 lines 18–24), in place: blocks and their IA
    /// entries both move left, so every write lands at or before the read
    /// position.
    pub fn cleanup(&mut self) {
        self.stats.cleanups += 1;
        let mut write = 0usize;
        let mut live = 0usize;
        for j in 0..self.ia_start.len() {
            if !self.ia_alive[j] {
                continue;
            }
            let start = self.ia_start[j] as usize;
            let len = self.ia_len[j] as usize;
            debug_assert!(write <= start && live <= j);
            // Left-compaction: destination is always ≤ source, so
            // copy_within over the same buffers is safe.
            self.vertex.copy_within(start..start + len, write);
            for (k, o) in self.offset[write..write + len].iter_mut().enumerate() {
                *o = k as u32;
            }
            self.owner[write..write + len].fill(live as u32);
            self.ia_start[live] = write as u32;
            self.ia_len[live] = len as u32;
            self.ia_vertex[live] = self.ia_vertex[j];
            self.ia_degree[live] = self.ia_degree[j];
            write += len;
            live += 1;
        }
        // Invalidate the tail so stale slots cannot be probed.
        self.vertex[write..self.used].fill(INV);
        self.ia_start.truncate(live);
        self.ia_len.truncate(live);
        self.ia_vertex.truncate(live);
        self.ia_degree.truncate(live);
        self.ia_alive.truncate(live);
        self.ia_alive.fill(true);
        self.used = write;
        debug_assert_eq!(self.live_slots, write);
    }

    /// Geometric growth escape hatch for pathological skew.
    fn grow(&mut self) {
        self.stats.grows += 1;
        let new_cap = self.vertex.len() * 2;
        self.vertex.resize(new_cap, INV);
        self.offset.resize(new_cap, 0);
        self.owner.resize(new_cap, 0);
    }

    /// Check internal invariants (test hook).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(self.used <= self.vertex.len());
        let mut live = 0usize;
        for j in 0..self.ia_start.len() {
            let start = self.ia_start[j] as usize;
            let len = self.ia_len[j] as usize;
            assert!(start + len <= self.used, "block beyond used prefix");
            if self.ia_alive[j] {
                live += len;
                assert_eq!(len as u32, self.block_len(self.ia_degree[j] as usize));
                for k in start..start + len {
                    assert_eq!(self.vertex[k], self.ia_vertex[j]);
                    assert_eq!(self.owner[k] as usize, j);
                    assert_eq!(self.offset[k] as usize, k - start);
                }
            }
        }
        assert_eq!(live, self.live_slots, "live slot accounting");
        let valid = self.vertex[..self.used]
            .iter()
            .filter(|&&v| v != INV)
            .count();
        assert_eq!(valid, self.live_slots, "valid slots must equal live slots");
    }
}

/// The paper's frontier sampler: Dashboard-backed, degree-proportional
/// popping, uniform-neighbor replacement (Algorithm 3).
#[derive(Clone, Debug)]
pub struct DashboardSampler {
    cfg: FrontierConfig,
}

impl DashboardSampler {
    /// Create a sampler. Panics if the configuration is invalid.
    pub fn new(cfg: FrontierConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FrontierConfig: {e}");
        }
        DashboardSampler { cfg }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> &FrontierConfig {
        &self.cfg
    }

    /// Run Algorithm 3, returning the sampled vertex set and run stats.
    pub fn sample_with_stats(&self, g: &dyn Topology, seed: u64) -> (Vec<u32>, SamplerStats) {
        let n_total = g.num_vertices();
        let m = self.cfg.frontier_size.min(n_total);
        let budget = self.cfg.budget.min(n_total);
        assert!(n_total > 0, "cannot sample an empty graph");

        let cap = self.cfg.degree_cap.unwrap_or(u32::MAX);
        // Effective average degree after capping — sizes the table.
        // Shard-backed topologies memoize the scan (see
        // `Topology::capped_mean_degree`): it is O(|V|), and repeating it
        // per batch would cost more than the batch.
        let d_eff = g.capped_mean_degree(cap);
        let view = g.view();

        let mut scalar_rng = Xorshift128Plus::new(seed);
        let mut lane_rng = LaneRng::new(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut db = Dashboard::new(m, d_eff, self.cfg.eta, cap);

        // Alg. 3 lines 4–15: initial frontier, uniform without replacement.
        // Degrees are read in draw order: the view fetches each shard's
        // topology once, so scattered reads cost no store probe.
        let frontier0 = scalar_rng.sample_distinct(n_total, m);
        let mut in_vsub = BitSet::new(n_total);
        let mut vsub: Vec<u32> = Vec::with_capacity(budget);
        for &v in &frontier0 {
            if in_vsub.insert(v as usize) {
                vsub.push(v);
            }
            let deg = view.degree(v);
            if deg > 0 {
                db.add_to_frontier(v, deg);
            }
        }

        // Alg. 3 lines 16–25: main loop. The paper runs exactly n−m pops;
        // we additionally stop early if the budget of *distinct* vertices
        // is reached, and bail out if the frontier dies (graph of isolated
        // vertices).
        let mut pops_left = budget.saturating_sub(m);
        while pops_left > 0 && vsub.len() < budget {
            if db.live_slots() == 0 {
                // Frontier died (all replacements isolated): reseed it.
                let fresh = scalar_rng.sample_distinct(n_total, m.min(n_total));
                let mut any = false;
                for v in fresh {
                    let deg = view.degree(v);
                    if deg > 0 {
                        db.add_to_frontier(v, deg);
                        any = true;
                    }
                }
                if !any {
                    break; // graph has no edges at all
                }
            }
            // Two topology reads per pop — `neighbor(vpop, ·)` and
            // `degree(vnew)`: the popped vertex's own degree comes back
            // from the Dashboard, which was told it when the vertex was
            // added.
            let (vpop, deg) =
                db.pop_frontier_entry(&mut scalar_rng, &mut lane_rng, self.cfg.probe_mode);
            debug_assert!(deg > 0);
            // Alg. 2 line 5: uniform random neighbor of the popped vertex.
            let mut vnew = view.neighbor(vpop, scalar_rng.next_range(deg));
            let mut deg_new = view.degree(vnew);
            // Documented deviation: redraw when the replacement is isolated.
            if deg_new == 0 {
                db.stats.isolated_redraws += 1;
                vnew = frontier_redraw(&view, &mut scalar_rng);
                deg_new = view.degree(vnew);
            }
            db.add_to_frontier(vnew, deg_new);
            if in_vsub.insert(vpop as usize) {
                vsub.push(vpop);
            }
            pops_left -= 1;
        }

        (vsub, db.stats.clone())
    }
}

/// Draw a uniform random vertex with degree ≥ 1 (bounded retries, then a
/// linear fallback scan).
fn frontier_redraw(g: &TopoView<'_>, rng: &mut Xorshift128Plus) -> u32 {
    let n = g.num_vertices();
    for _ in 0..64 {
        let v = rng.next_range(n) as u32;
        if g.degree(v) > 0 {
            return v;
        }
    }
    (0..n as u32).find(|&v| g.degree(v) > 0).unwrap_or(0)
}

impl GraphSampler for DashboardSampler {
    fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
        self.sample_with_stats(g, seed).0
    }

    fn name(&self) -> &'static str {
        "frontier-dashboard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::{CsrGraph, GraphBuilder};

    fn ring(n: usize) -> CsrGraph {
        GraphBuilder::new(n)
            .add_edges((0..n as u32).map(|i| (i, (i + 1) % n as u32)))
            .build()
    }

    fn clique(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((i, j));
            }
        }
        GraphBuilder::new(n).add_edges(edges).build()
    }

    fn cfg(m: usize, n: usize) -> FrontierConfig {
        FrontierConfig {
            frontier_size: m,
            budget: n,
            ..FrontierConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(cfg(10, 100).validate().is_ok());
        assert!(cfg(0, 100).validate().is_err());
        assert!(cfg(10, 5).validate().is_err());
        let mut c = cfg(10, 100);
        c.eta = 1.0;
        assert!(c.validate().is_err());
        let mut c = cfg(10, 100);
        c.degree_cap = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn dashboard_add_pop_roundtrip() {
        let mut db = Dashboard::new(2, 3.0, 2.0, u32::MAX);
        db.add_to_frontier(7, 3);
        db.add_to_frontier(9, 2);
        db.check_invariants();
        assert_eq!(db.live_slots(), 5);
        assert_eq!(db.live_vertices(), 2);
        let mut srng = Xorshift128Plus::new(1);
        let mut lrng = LaneRng::new(1);
        let v1 = db.pop_frontier(&mut srng, &mut lrng, ProbeMode::Scalar);
        assert!(v1 == 7 || v1 == 9);
        db.check_invariants();
        let v2 = db.pop_frontier(&mut srng, &mut lrng, ProbeMode::Lanes);
        assert_ne!(v1, v2);
        assert_eq!(db.live_slots(), 0);
        db.check_invariants();
    }

    #[test]
    #[should_panic(expected = "empty frontier")]
    fn pop_empty_panics() {
        let mut db = Dashboard::new(2, 3.0, 2.0, u32::MAX);
        let mut srng = Xorshift128Plus::new(1);
        let mut lrng = LaneRng::new(1);
        db.pop_frontier(&mut srng, &mut lrng, ProbeMode::Scalar);
    }

    #[test]
    fn cleanup_compacts_and_preserves_live() {
        let mut db = Dashboard::new(4, 2.0, 2.0, u32::MAX);
        let mut srng = Xorshift128Plus::new(2);
        let mut lrng = LaneRng::new(2);
        for v in 0..4u32 {
            db.add_to_frontier(v, 2 + v as usize);
        }
        let popped = db.pop_frontier(&mut srng, &mut lrng, ProbeMode::Scalar);
        let live_before = db.live_slots();
        db.cleanup();
        db.check_invariants();
        assert_eq!(db.live_slots(), live_before);
        assert_eq!(db.used(), live_before);
        // The popped vertex must be gone; the other three remain.
        assert_eq!(db.live_vertices(), 3);
        let mut remaining: Vec<u32> = Vec::new();
        while db.live_slots() > 0 {
            remaining.push(db.pop_frontier(&mut srng, &mut lrng, ProbeMode::Scalar));
        }
        remaining.sort_unstable();
        let expect: Vec<u32> = (0..4).filter(|&v| v != popped).collect();
        assert_eq!(remaining, expect);
    }

    #[test]
    fn degree_cap_limits_block() {
        let mut db = Dashboard::new(2, 3.0, 2.0, 5);
        db.add_to_frontier(0, 1000);
        assert_eq!(db.live_slots(), 5);
        db.check_invariants();
    }

    #[test]
    fn zero_degree_gets_one_slot() {
        // block_len clamps to ≥ 1 (the sampler itself never inserts
        // isolated vertices, but the structure must stay consistent).
        let mut db = Dashboard::new(2, 3.0, 2.0, u32::MAX);
        db.add_to_frontier(3, 0);
        assert_eq!(db.live_slots(), 1);
        db.check_invariants();
    }

    #[test]
    fn growth_on_pathological_skew() {
        // Tiny table (m=1, d̄=1 → capacity 2) + huge block forces growth.
        let mut db = Dashboard::new(1, 1.0, 2.0, u32::MAX);
        db.add_to_frontier(0, 100);
        assert!(db.stats.grows > 0);
        assert_eq!(db.live_slots(), 100);
        db.check_invariants();
    }

    #[test]
    fn sampler_respects_budget_and_dedup() {
        let g = ring(500);
        let s = DashboardSampler::new(cfg(20, 100));
        let (vs, stats) = s.sample_with_stats(&g, 7);
        assert!(vs.len() <= 100);
        assert!(vs.len() >= 20, "at least the initial frontier");
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vs.len(), "duplicates in V_sub");
        assert!(stats.pops > 0);
    }

    #[test]
    fn sampler_deterministic_per_seed() {
        let g = ring(300);
        let s = DashboardSampler::new(cfg(10, 60));
        assert_eq!(s.sample_vertices(&g, 5), s.sample_vertices(&g, 5));
        assert_ne!(s.sample_vertices(&g, 5), s.sample_vertices(&g, 6));
    }

    #[test]
    fn scalar_and_lane_modes_both_work() {
        let g = clique(50);
        for mode in [ProbeMode::Scalar, ProbeMode::Lanes] {
            let mut c = cfg(5, 30);
            c.probe_mode = mode;
            let s = DashboardSampler::new(c);
            let (vs, stats) = s.sample_with_stats(&g, 11);
            // Alg. 2 performs exactly n − m pops; popped vertices can
            // re-enter the frontier and be popped again, so |V_sub| lands
            // anywhere in [m, n].
            assert!(
                vs.len() >= 5 && vs.len() <= 30,
                "{mode:?}: got {}",
                vs.len()
            );
            assert!(stats.probes >= stats.probe_rounds);
        }
    }

    #[test]
    fn cleanup_happens_on_long_runs() {
        // Small eta → tight table → cleanups must fire.
        let g = clique(60);
        let mut c = cfg(10, 60);
        c.eta = 1.25;
        let s = DashboardSampler::new(c);
        let (_, stats) = s.sample_with_stats(&g, 3);
        assert!(
            stats.cleanups > 0,
            "expected cleanups with small eta: {stats:?}"
        );
    }

    #[test]
    fn pop_distribution_proportional_to_degree() {
        // Star + ring: hub 0 has degree 10, others ≤ 3. First pop from a
        // fresh frontier over the whole graph should select the hub with
        // probability ≈ 10/Σdeg. Empirically verify over many seeds.
        let n = 11;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        edges.extend((1..n as u32).map(|i| (i, if i + 1 < n as u32 { i + 1 } else { 1 })));
        let g = GraphBuilder::new(n).add_edges(edges).build();
        let total_deg: usize = (0..n as u32).map(|v| g.degree(v)).sum();
        let hub_p = g.degree(0) as f64 / total_deg as f64;

        let mut hub_first = 0usize;
        let trials = 4000;
        for seed in 0..trials {
            // Frontier = all vertices, one pop.
            let mut db = Dashboard::new(n, g.avg_degree(), 2.0, u32::MAX);
            for v in 0..n as u32 {
                db.add_to_frontier(v, g.degree(v));
            }
            let mut srng = Xorshift128Plus::new(seed as u64);
            let mut lrng = LaneRng::new(seed as u64 + 1);
            if db.pop_frontier(&mut srng, &mut lrng, ProbeMode::Lanes) == 0 {
                hub_first += 1;
            }
        }
        let observed = hub_first as f64 / trials as f64;
        assert!(
            (observed - hub_p).abs() < 0.03,
            "hub pop rate {observed:.3} vs expected {hub_p:.3}"
        );
    }

    #[test]
    fn budget_larger_than_graph_clamps() {
        let g = ring(30);
        let s = DashboardSampler::new(cfg(10, 10_000));
        let vs = s.sample_vertices(&g, 1);
        assert!(vs.len() <= 30);
    }

    #[test]
    fn subgraph_is_connectedish_on_ring() {
        // Frontier sampling on a ring should produce runs of consecutive
        // vertices — at minimum, more edges than a uniform-random set of
        // the same size would give in expectation.
        let g = ring(1000);
        let s = DashboardSampler::new(cfg(5, 100));
        let sub = s.sample_subgraph(&g, 9);
        assert!(
            sub.graph.num_edges() > 0,
            "frontier walk should keep some adjacency"
        );
    }

    #[test]
    fn stats_probe_accounting() {
        let g = clique(40);
        let mut c = cfg(8, 40);
        c.probe_mode = ProbeMode::Scalar;
        let s = DashboardSampler::new(c);
        let (_, st) = s.sample_with_stats(&g, 2);
        assert_eq!(st.probes, st.probe_rounds, "scalar mode: 1 probe per round");
        let mut c = cfg(8, 40);
        c.probe_mode = ProbeMode::Lanes;
        let s = DashboardSampler::new(c);
        let (_, st) = s.sample_with_stats(&g, 2);
        assert_eq!(
            st.probes,
            st.probe_rounds * LANES,
            "lane mode: LANES probes per round"
        );
    }
}
