//! Graph generators.
//!
//! The main generator, [`community_powerlaw`], is a degree-corrected
//! stochastic block model: vertices live in `k` communities, target
//! degrees follow a truncated Pareto (power-law) distribution, and each
//! edge stub connects inside the community with probability `p_in`
//! (otherwise globally), with endpoints chosen degree-proportionally.
//! This matches the two structural properties the paper's datasets share
//! and the evaluation depends on: heavy-tailed degrees (frontier-sampler
//! behaviour, degree caps) and community structure (learnable labels).

use crate::alias::AliasTable;
use gsgcn_graph::{CsrGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Parameters of the degree-corrected community graph.
#[derive(Clone, Debug)]
pub struct CommunityGraphSpec {
    /// Number of vertices.
    pub vertices: usize,
    /// Target *undirected* edge count (realised count is within a few
    /// percent after deduplication).
    pub edges: usize,
    /// Number of communities.
    pub communities: usize,
    /// Probability an edge stub stays inside its community.
    pub p_in: f64,
    /// Power-law exponent of the degree distribution (Pareto α); larger →
    /// less skew. Typical social graphs: 2–3.
    pub power_law_alpha: f64,
    /// Hard cap on a vertex's target degree (before dedup), as a multiple
    /// of the average degree. Controls hub size; `f64::INFINITY` for
    /// untruncated Amazon-like skew.
    pub max_degree_factor: f64,
}

impl Default for CommunityGraphSpec {
    fn default() -> Self {
        CommunityGraphSpec {
            vertices: 1000,
            edges: 10_000,
            communities: 10,
            p_in: 0.8,
            power_law_alpha: 2.5,
            max_degree_factor: 50.0,
        }
    }
}

/// Output of the community generator: the graph and each vertex's
/// community id (consumed by the label generator).
#[derive(Clone, Debug)]
pub struct CommunityGraph {
    pub graph: CsrGraph,
    pub community: Vec<u32>,
}

/// Generate a degree-corrected community graph (see module docs).
pub fn community_powerlaw(spec: &CommunityGraphSpec, seed: u64) -> CommunityGraph {
    assert!(spec.vertices >= 2, "need at least 2 vertices");
    assert!(spec.communities >= 1 && spec.communities <= spec.vertices);
    assert!((0.0..=1.0).contains(&spec.p_in));
    assert!(spec.power_law_alpha > 1.0, "alpha must exceed 1");
    let n = spec.vertices;
    let k = spec.communities;
    let mut rng = StdRng::seed_from_u64(seed);

    // Community assignment: contiguous equal-size blocks, then a light
    // shuffle of block boundaries via random permutation of vertex ids
    // is unnecessary — ids are arbitrary anyway.
    let community: Vec<u32> = (0..n).map(|v| ((v * k) / n) as u32).collect();

    // Target degrees: truncated Pareto with mean scaled to hit `edges`.
    let avg_deg = (2.0 * spec.edges as f64 / n as f64).max(1.0);
    let cap = (avg_deg * spec.max_degree_factor).max(2.0);
    let alpha = spec.power_law_alpha;
    let mut theta: Vec<f64> = (0..n)
        .map(|_| {
            // Pareto(x_m = 1, α) via inverse CDF, truncated at `cap`.
            let u: f64 = rng.random::<f64>().max(1e-12);
            u.powf(-1.0 / alpha).min(cap)
        })
        .collect();
    // Rescale so Σθ = 2·edges (each unit of θ ≈ one edge stub).
    let sum: f64 = theta.iter().sum();
    let scale = 2.0 * spec.edges as f64 / sum;
    for t in theta.iter_mut() {
        *t *= scale;
    }

    // Per-community and global alias tables over θ.
    let global = AliasTable::new(&theta);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (v, &c) in community.iter().enumerate() {
        members[c as usize].push(v as u32);
    }
    let per_comm: Vec<AliasTable> = members
        .iter()
        .map(|m| {
            let w: Vec<f64> = m.iter().map(|&v| theta[v as usize]).collect();
            AliasTable::new(&w)
        })
        .collect();

    // Stub placement, parallel over source-vertex chunks (each chunk gets
    // an independent RNG stream → deterministic regardless of threads).
    let chunk = 1024;
    let edges: Vec<(u32, u32)> = (0..n.div_ceil(chunk))
        .into_par_iter()
        .flat_map_iter(|ci| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xC0FFEE + ci as u64 * 0x9E3779B9));
            let lo = ci * chunk;
            let hi = ((ci + 1) * chunk).min(n);
            let mut out = Vec::new();
            for v in lo..hi {
                let c = community[v] as usize;
                // Half the stubs (each undirected edge has two endpoints).
                let stubs = (theta[v] / 2.0).round() as usize;
                for _ in 0..stubs {
                    let u = if rng.random::<f64>() < spec.p_in && members[c].len() > 1 {
                        members[c][per_comm[c].sample(&mut rng)]
                    } else {
                        global.sample(&mut rng) as u32
                    };
                    if u as usize != v {
                        out.push((v as u32, u));
                    }
                }
            }
            out
        })
        .collect();

    // Connectivity floor: a ring inside each community guarantees
    // min-degree ≥ 1 (samplers assume no isolated vertices) and keeps
    // every community internally connected.
    let mut builder = GraphBuilder::with_capacity(n, edges.len() + n);
    builder = builder.add_edges(edges);
    for m in &members {
        for w in m.windows(2) {
            builder = builder.add_edge(w[0], w[1]);
        }
        if m.len() > 2 {
            builder = builder.add_edge(m[m.len() - 1], m[0]);
        }
    }
    CommunityGraph {
        graph: builder.build(),
        community,
    }
}

/// Ring of `n` vertices (test utility).
pub fn ring(n: usize) -> CsrGraph {
    GraphBuilder::new(n)
        .add_edges((0..n as u32).map(|i| (i, (i + 1) % n as u32)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::stats;

    #[test]
    fn community_graph_basic_shape() {
        let spec = CommunityGraphSpec {
            vertices: 500,
            edges: 5000,
            communities: 5,
            ..CommunityGraphSpec::default()
        };
        let cg = community_powerlaw(&spec, 1);
        assert_eq!(cg.graph.num_vertices(), 500);
        assert_eq!(cg.community.len(), 500);
        // Directed edge count ≈ 2 × target (±30% after dedup).
        let m = cg.graph.num_edges();
        assert!(
            (6_000..=13_000).contains(&m),
            "directed edges {m} far from 2×5000"
        );
        // Min degree ≥ 1.
        assert_eq!(stats::degree_stats(&cg.graph).isolated_fraction, 0.0);
        assert!(cg.graph.is_symmetric());
        assert!(!cg.graph.has_self_loops());
    }

    #[test]
    fn deterministic_per_seed_and_thread_count() {
        let spec = CommunityGraphSpec {
            vertices: 300,
            edges: 2000,
            ..CommunityGraphSpec::default()
        };
        let a = community_powerlaw(&spec, 7);
        let b = community_powerlaw(&spec, 7);
        assert_eq!(a.graph, b.graph);
        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let c = pool1.install(|| community_powerlaw(&spec, 7));
        assert_eq!(
            a.graph, c.graph,
            "generation must not depend on thread count"
        );
        let d = community_powerlaw(&spec, 8);
        assert_ne!(a.graph, d.graph);
    }

    #[test]
    fn communities_are_assortative() {
        // With p_in = 0.9, most edges should stay within communities.
        let spec = CommunityGraphSpec {
            vertices: 400,
            edges: 4000,
            communities: 4,
            p_in: 0.9,
            ..CommunityGraphSpec::default()
        };
        let cg = community_powerlaw(&spec, 2);
        let (mut within, mut total) = (0usize, 0usize);
        for (u, v) in cg.graph.edges() {
            total += 1;
            if cg.community[u as usize] == cg.community[v as usize] {
                within += 1;
            }
        }
        let frac = within as f64 / total as f64;
        assert!(frac > 0.6, "within-community fraction {frac}");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let spec = CommunityGraphSpec {
            vertices: 2000,
            edges: 20_000,
            power_law_alpha: 2.0,
            max_degree_factor: 100.0,
            ..CommunityGraphSpec::default()
        };
        let cg = community_powerlaw(&spec, 3);
        let s = stats::degree_stats(&cg.graph);
        // Heavy tail: max degree far above the mean.
        assert!(
            s.max as f64 > 5.0 * s.mean,
            "max {} vs mean {:.1} — not skewed",
            s.max,
            s.mean
        );
    }

    #[test]
    fn max_degree_factor_caps_hubs() {
        // α = 1.5 keeps the uncapped tail far above the cap for any RNG
        // stream (at α = 1.8 the expected uncapped max ≈ the cap, making
        // the comparison a coin flip on the stream).
        let base = CommunityGraphSpec {
            vertices: 2000,
            edges: 20_000,
            power_law_alpha: 1.5,
            ..CommunityGraphSpec::default()
        };
        let wild = community_powerlaw(
            &CommunityGraphSpec {
                max_degree_factor: f64::INFINITY,
                ..base.clone()
            },
            4,
        );
        let tame = community_powerlaw(
            &CommunityGraphSpec {
                max_degree_factor: 3.0,
                ..base
            },
            4,
        );
        let max_degree = |g: &CsrGraph| g.degrees().into_iter().max().unwrap_or(0);
        assert!(max_degree(&tame.graph) < max_degree(&wild.graph));
    }

    #[test]
    fn ring_shape() {
        let g = ring(10);
        assert_eq!(g.num_edges(), 20);
        assert!(g.is_symmetric());
        assert_eq!(stats::largest_component_size(&g), 10);
    }
}
