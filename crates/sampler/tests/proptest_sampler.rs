//! Property-based tests of the Dashboard state machine and samplers.

use gsgcn_graph::builder::from_edges;
use gsgcn_sampler::alt::{
    ForestFireSampler, RandomWalkSampler, UniformEdgeSampler, UniformNodeSampler,
};
use gsgcn_sampler::cost_model::SamplerCostModel;
use gsgcn_sampler::dashboard::{Dashboard, DashboardSampler, FrontierConfig, ProbeMode};
use gsgcn_sampler::naive::NaiveFrontierSampler;
use gsgcn_sampler::rng::{LaneRng, Xorshift128Plus};
use gsgcn_sampler::GraphSampler;
use proptest::prelude::*;

/// Strategy: a connected-ish random graph (ring + chords).
fn graph_strategy() -> impl Strategy<Value = gsgcn_graph::CsrGraph> {
    (
        5usize..80,
        proptest::collection::vec((0u32..80, 0u32..80), 0..160),
    )
        .prop_map(|(n, extra)| {
            let mut edges: Vec<(u32, u32)> =
                (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
            edges.extend(
                extra
                    .into_iter()
                    .filter(|&(a, b)| (a as usize) < n && (b as usize) < n && a != b),
            );
            from_edges(n, &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random add/pop/cleanup sequence keeps the Dashboard invariants.
    #[test]
    fn dashboard_state_machine(ops in proptest::collection::vec(0u8..10, 1..120), seed in any::<u64>()) {
        let mut db = Dashboard::new(8, 3.0, 2.0, u32::MAX);
        let mut srng = Xorshift128Plus::new(seed);
        let mut lrng = LaneRng::new(seed ^ 1);
        let mut live = std::collections::HashMap::<u32, usize>::new(); // vertex → live count
        let mut next_vertex = 0u32;
        for op in ops {
            if op < 6 || live.is_empty() {
                // add with degree 1..=6
                let deg = (op as usize % 6) + 1;
                db.add_to_frontier(next_vertex, deg);
                *live.entry(next_vertex).or_insert(0) += 1;
                next_vertex += 1;
            } else if op < 9 {
                let mode = if op == 6 { ProbeMode::Scalar } else { ProbeMode::Lanes };
                let (v, _) = db.pop_frontier_entry(&mut srng, &mut lrng, mode);
                let c = live.get_mut(&v).expect("popped vertex must be live");
                *c -= 1;
                if *c == 0 { live.remove(&v); }
            } else {
                db.cleanup();
            }
            db.check_invariants();
            prop_assert_eq!(db.live_vertices(), live.values().sum::<usize>());
        }
    }

    /// The frontier sampler's output is always a distinct, in-range set
    /// within budget.
    #[test]
    fn dashboard_sampler_output_valid(g in graph_strategy(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let budget = (n / 2).max(2);
        let s = DashboardSampler::new(FrontierConfig {
            frontier_size: (budget / 2).max(1),
            budget,
            ..FrontierConfig::default()
        });
        let vs = s.sample_vertices(&g, seed);
        prop_assert!(vs.len() <= budget);
        prop_assert!(!vs.is_empty());
        prop_assert!(vs.iter().all(|&v| (v as usize) < n));
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), vs.len());
    }

    /// Scalar and lane probing sample the same *distribution family*:
    /// both respect budget/distinctness on arbitrary graphs.
    #[test]
    fn probe_modes_equivalent_contract(g in graph_strategy(), seed in any::<u64>()) {
        for mode in [ProbeMode::Scalar, ProbeMode::Lanes] {
            let s = DashboardSampler::new(FrontierConfig {
                frontier_size: 3,
                budget: 10.min(g.num_vertices()),
                probe_mode: mode,
                ..FrontierConfig::default()
            });
            let vs = s.sample_vertices(&g, seed);
            prop_assert!(!vs.is_empty());
        }
    }

    /// Degree caps never break sampling.
    #[test]
    fn degree_cap_safe(g in graph_strategy(), cap in 1u32..8, seed in any::<u64>()) {
        let s = DashboardSampler::new(FrontierConfig {
            frontier_size: 4.min(g.num_vertices()),
            budget: 16.min(g.num_vertices()),
            degree_cap: Some(cap),
            ..FrontierConfig::default()
        });
        let vs = s.sample_vertices(&g, seed);
        prop_assert!(!vs.is_empty());
    }

    /// All alternative samplers satisfy the GraphSampler contract.
    #[test]
    fn alt_samplers_contract(g in graph_strategy(), seed in any::<u64>()) {
        let budget = (g.num_vertices() / 2).max(1);
        let samplers: Vec<Box<dyn GraphSampler>> = vec![
            Box::new(UniformNodeSampler { budget }),
            Box::new(UniformEdgeSampler { budget }),
            Box::new(RandomWalkSampler { walkers: 2, budget, restart_prob: 0.1 }),
            Box::new(ForestFireSampler { budget, burn_prob: 0.6 }),
            Box::new(NaiveFrontierSampler::new(budget.div_ceil(2), budget)),
        ];
        for s in &samplers {
            let vs = s.sample_vertices(&g, seed);
            prop_assert!(vs.len() <= budget.max(1), "{} overshot", s.name());
            let mut sorted = vs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), vs.len(), "{} produced duplicates", s.name());
            prop_assert!(vs.iter().all(|&v| (v as usize) < g.num_vertices()));
            // Determinism.
            prop_assert_eq!(vs, s.sample_vertices(&g, seed));
        }
    }

    /// Theorem 1: the modeled speedup respects the bound for random
    /// parameters.
    #[test]
    fn theorem1_bound_random_params(
        eta in 1.2f64..5.0,
        d in 2.0f64..200.0,
        eps in 0.1f64..2.0,
        n in 2000usize..20000,
    ) {
        let m = SamplerCostModel::unit(eta, d);
        let pmax = m.theorem1_max_p(eps);
        let mut p = 1usize;
        while (p as f64) <= pmax && p <= 512 {
            let s = m.speedup(n, n / 10, p);
            prop_assert!(
                s >= m.theorem1_guarantee(p, eps) - 1e-9,
                "η={eta} d={d} ε={eps} p={p}: {s}"
            );
            p += 7; // sparse sweep for speed
        }
    }

    /// The scalar RNG's range reduction is always in bounds.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), n in 1usize..1000) {
        let mut rng = Xorshift128Plus::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_range(n) < n);
        }
    }

    /// sample_distinct always returns exactly k distinct in-range values.
    #[test]
    fn sample_distinct_contract(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
        let k = ((n as f64 * frac) as usize).min(n);
        let mut rng = Xorshift128Plus::new(seed);
        let s = rng.sample_distinct(n, k);
        prop_assert_eq!(s.len(), k);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(s.iter().all(|&x| (x as usize) < n));
    }

    /// Sampled batches are bit-identical whether the topology behind the
    /// `Topology` trait is the resident CSR graph or the mmap shard
    /// store — under a tiny cache budget, so eviction churn is in play.
    #[test]
    fn sampler_batches_backend_invariant(g in graph_strategy(), seed in any::<u64>(), shards in 1usize..6) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gsgcn-proptest-sampler-store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (order, f32) = (gsgcn_graph::StoreOrder::Natural, gsgcn_tensor::Precision::F32);
        gsgcn_graph::store::shard::write_store_with_precision(&dir, &g, None, None, shards, order, f32)
            .unwrap();
        let store = gsgcn_graph::GraphStore::open_with_budget(&dir, 4 * 1024).unwrap();
        let budget = 16.min(g.num_vertices());
        let s = DashboardSampler::new(FrontierConfig {
            frontier_size: (budget / 2).max(1),
            budget,
            ..FrontierConfig::default()
        });
        let from_mem = s.sample_subgraph(&g, seed);
        let from_store = s.sample_subgraph(&store, seed);
        prop_assert_eq!(from_mem.origin, from_store.origin);
        prop_assert_eq!(from_mem.graph, from_store.graph);
        std::fs::remove_dir_all(&dir).ok();
    }
}
