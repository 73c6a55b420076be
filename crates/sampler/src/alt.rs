//! Alternative graph samplers.
//!
//! The paper's conclusion commits to "extend the parallel sampler
//! implementation to support a wider class of sampling algorithms". These
//! are the classic alternatives from the graph-sampling literature the
//! frontier sampler is usually compared against; `gsgcn reproduce a3`
//! trains the GCN with each and compares accuracy.

use crate::rng::Xorshift128Plus;
use crate::GraphSampler;
use gsgcn_graph::{BitSet, Topology};

/// Uniform random vertex sampling (no topology awareness).
#[derive(Clone, Debug)]
pub struct UniformNodeSampler {
    /// Number of vertices to draw.
    pub budget: usize,
}

impl GraphSampler for UniformNodeSampler {
    fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
        let n = g.num_vertices();
        let k = self.budget.min(n);
        Xorshift128Plus::new(seed).sample_distinct(n, k)
    }

    fn name(&self) -> &'static str {
        "uniform-node"
    }
}

/// Uniform random edge sampling: draw edges, keep their endpoints.
/// Biases vertex inclusion towards high degree (each endpoint is included
/// with probability ∝ degree), similar to frontier sampling's pop rule but
/// without connectivity between draws.
#[derive(Clone, Debug)]
pub struct UniformEdgeSampler {
    /// Vertex budget (sampling stops once this many distinct endpoints).
    pub budget: usize,
}

impl GraphSampler for UniformEdgeSampler {
    fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
        let n = g.num_vertices();
        let m = g.num_edges();
        let budget = self.budget.min(n);
        let mut rng = Xorshift128Plus::new(seed);
        let mut seen = BitSet::new(n);
        let mut out = Vec::with_capacity(budget);
        if m == 0 {
            return Xorshift128Plus::new(seed).sample_distinct(n, budget);
        }
        // Edge-slot → (source, target) mapping. A resident CSR exposes its
        // offset/adjacency arrays directly; any other backend gets the
        // identical mapping from a degree prefix sum plus `neighbor()`
        // (the prefix sums equal the CSR offsets by construction, so both
        // paths are bit-identical for a fixed seed).
        let g = g.view();
        let csr = g.as_csr();
        let fallback_offsets: Option<Vec<usize>> = if csr.is_none() {
            let mut off = Vec::with_capacity(n + 1);
            let mut acc = 0usize;
            off.push(0);
            for v in 0..n as u32 {
                acc += g.degree(v);
                off.push(acc);
            }
            Some(off)
        } else {
            None
        };
        let offsets: &[usize] = match csr {
            Some(c) => c.offsets(),
            None => fallback_offsets.as_deref().unwrap(),
        };
        // Draw directed edge slots uniformly: equivalent to uniform edges
        // on a symmetric graph. Guard against degenerate loops with a cap.
        let max_draws = budget * 64 + 64;
        for _ in 0..max_draws {
            if out.len() >= budget {
                break;
            }
            let e = rng.next_range(m);
            // Binary search the source vertex owning edge slot e.
            let u = offsets.partition_point(|&o| o <= e) - 1;
            let v = match csr {
                Some(c) => c.adjacency()[e],
                None => g.neighbor(u as u32, e - offsets[u]),
            };
            for w in [u as u32, v] {
                if out.len() < budget && seen.insert(w as usize) {
                    out.push(w);
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "uniform-edge"
    }
}

/// Multi-start simple random walk: `walkers` walkers take unbiased steps
/// until the distinct-vertex budget is met. Frontier sampling is the
/// "m-dimensional" generalisation of this (Ribeiro & Towsley, ref.\[5\]).
#[derive(Clone, Debug)]
pub struct RandomWalkSampler {
    /// Number of independent walkers.
    pub walkers: usize,
    /// Vertex budget.
    pub budget: usize,
    /// Restart probability (teleport to the walker's start vertex), the
    /// "random walk with restart" variant; 0.0 disables restarts.
    pub restart_prob: f64,
}

impl GraphSampler for RandomWalkSampler {
    fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
        assert!(self.walkers >= 1);
        let n = g.num_vertices();
        let budget = self.budget.min(n);
        let g = g.view();
        let mut rng = Xorshift128Plus::new(seed);
        let starts = rng.sample_distinct(n, self.walkers.min(n));
        let mut pos = starts.clone();
        let mut seen = BitSet::new(n);
        let mut out = Vec::with_capacity(budget);
        for &s in &starts {
            if out.len() < budget && seen.insert(s as usize) {
                out.push(s);
            }
        }
        // Step walkers round-robin; cap total steps to avoid livelock on
        // disconnected graphs.
        let max_steps = budget * 64 + 64;
        let mut steps = 0;
        while out.len() < budget && steps < max_steps {
            for (w, p) in pos.iter_mut().enumerate() {
                steps += 1;
                if out.len() >= budget {
                    break;
                }
                let restart = self.restart_prob > 0.0 && rng.next_f64() < self.restart_prob;
                let next = if restart || g.degree(*p) == 0 {
                    starts[w % starts.len()]
                } else {
                    g.neighbor(*p, rng.next_range(g.degree(*p)))
                };
                *p = next;
                if seen.insert(next as usize) {
                    out.push(next);
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "random-walk"
    }
}

/// Forest-fire sampling: burn outward from random seeds, each vertex
/// igniting a geometrically distributed number of its unburned neighbors.
#[derive(Clone, Debug)]
pub struct ForestFireSampler {
    /// Vertex budget.
    pub budget: usize,
    /// Forward-burning probability `p_f` (geometric mean `p_f/(1-p_f)`
    /// neighbors ignited per burned vertex). Typical: 0.7.
    pub burn_prob: f64,
}

impl GraphSampler for ForestFireSampler {
    fn sample_vertices(&self, g: &dyn Topology, seed: u64) -> Vec<u32> {
        assert!((0.0..1.0).contains(&self.burn_prob));
        let n = g.num_vertices();
        let budget = self.budget.min(n);
        let g = g.view();
        let mut rng = Xorshift128Plus::new(seed);
        let mut burned = BitSet::new(n);
        let mut out = Vec::with_capacity(budget);
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        while out.len() < budget {
            if queue.is_empty() {
                // Ignite a fresh unburned seed.
                let mut v = rng.next_range(n) as u32;
                let mut tries = 0;
                while burned.contains(v as usize) && tries < 64 {
                    v = rng.next_range(n) as u32;
                    tries += 1;
                }
                if burned.contains(v as usize) {
                    match (0..n as u32).find(|&u| !burned.contains(u as usize)) {
                        Some(u) => v = u,
                        None => break,
                    }
                }
                burned.insert(v as usize);
                out.push(v);
                queue.push_back(v);
                continue;
            }
            let v = queue.pop_front().unwrap();
            // Geometric number of ignitions: keep burning while coin < p_f.
            let mut ignited = 0usize;
            let deg = g.degree(v);
            let mut order: Vec<usize> = (0..deg).collect();
            // Shuffle neighbor visit order.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_range(i + 1));
            }
            for &k in &order {
                if rng.next_f64() >= self.burn_prob {
                    break;
                }
                let u = g.neighbor(v, k);
                if !burned.contains(u as usize) {
                    burned.insert(u as usize);
                    out.push(u);
                    queue.push_back(u);
                    ignited += 1;
                    if out.len() >= budget {
                        break;
                    }
                }
            }
            let _ = ignited;
        }
        out
    }

    fn name(&self) -> &'static str {
        "forest-fire"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::{CsrGraph, GraphBuilder};

    fn grid(w: usize, h: usize) -> CsrGraph {
        let mut edges = Vec::new();
        let id = |x: usize, y: usize| (y * w + x) as u32;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        GraphBuilder::new(w * h).add_edges(edges).build()
    }

    fn assert_distinct(vs: &[u32]) {
        let mut s = vs.to_vec();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), vs.len(), "duplicates");
    }

    #[test]
    fn uniform_node_budget_and_distinct() {
        let g = grid(10, 10);
        let s = UniformNodeSampler { budget: 30 };
        let vs = s.sample_vertices(&g, 1);
        assert_eq!(vs.len(), 30);
        assert_distinct(&vs);
    }

    #[test]
    fn uniform_edge_prefers_connected() {
        let g = grid(10, 10);
        let s = UniformEdgeSampler { budget: 40 };
        let vs = s.sample_vertices(&g, 2);
        assert!(vs.len() <= 40 && vs.len() >= 2);
        assert_distinct(&vs);
    }

    #[test]
    fn uniform_edge_on_edgeless_graph_falls_back() {
        let g = CsrGraph::empty(10);
        let s = UniformEdgeSampler { budget: 5 };
        let vs = s.sample_vertices(&g, 3);
        assert_eq!(vs.len(), 5);
        assert_distinct(&vs);
    }

    #[test]
    fn random_walk_stays_connected_on_grid() {
        let g = grid(20, 20);
        let s = RandomWalkSampler {
            walkers: 3,
            budget: 50,
            restart_prob: 0.1,
        };
        let vs = s.sample_vertices(&g, 4);
        assert!(vs.len() == 50);
        assert_distinct(&vs);
        // Walk-based subgraphs should retain edges.
        let sub = s.sample_subgraph(&g, 4);
        assert!(sub.graph.num_edges() > 0);
    }

    #[test]
    fn forest_fire_burns_to_budget() {
        let g = grid(15, 15);
        let s = ForestFireSampler {
            budget: 60,
            burn_prob: 0.7,
        };
        let vs = s.sample_vertices(&g, 5);
        assert_eq!(vs.len(), 60);
        assert_distinct(&vs);
    }

    #[test]
    fn all_deterministic() {
        let g = grid(8, 8);
        let samplers: Vec<Box<dyn GraphSampler>> = vec![
            Box::new(UniformNodeSampler { budget: 20 }),
            Box::new(UniformEdgeSampler { budget: 20 }),
            Box::new(RandomWalkSampler {
                walkers: 2,
                budget: 20,
                restart_prob: 0.0,
            }),
            Box::new(ForestFireSampler {
                budget: 20,
                burn_prob: 0.6,
            }),
        ];
        for s in &samplers {
            assert_eq!(
                s.sample_vertices(&g, 9),
                s.sample_vertices(&g, 9),
                "{} not deterministic",
                s.name()
            );
        }
    }

    #[test]
    fn budget_clamps_to_graph_size() {
        let g = grid(3, 3);
        let s = UniformNodeSampler { budget: 100 };
        assert_eq!(s.sample_vertices(&g, 0).len(), 9);
        let s = ForestFireSampler {
            budget: 100,
            burn_prob: 0.5,
        };
        assert_eq!(s.sample_vertices(&g, 0).len(), 9);
    }
}
