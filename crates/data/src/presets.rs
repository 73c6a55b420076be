//! Dataset presets matching Table I of the paper.
//!
//! | Dataset | #Vertices | #Edges | Attr | Classes | Task |
//! |---|---|---|---|---|---|
//! | PPI    | 14,755    | 225,270     | 50  | 121 | (M) |
//! | Reddit | 232,965   | 11,606,919  | 602 | 41  | (S) |
//! | Yelp   | 716,847   | 6,977,410   | 300 | 100 | (M) |
//! | Amazon | 1,598,960 | 132,169,734 | 200 | 107 | (M) |
//!
//! Every preset comes in two sizes: `*_full(seed)` reproduces the Table I
//! statistics exactly (memory: up to ~2.5 GB for Amazon), while
//! `*_scaled(seed)` keeps the *shape* — average degree, degree skew,
//! attribute width, class count, task kind — at a few thousand vertices
//! so the complete benchmark suite runs in minutes. Experiments default
//! to scaled; the `gsgcn::reproduce` module docs say which presets each
//! experiment runs on and what the scaled sizes cannot show.

use crate::dataset::{Dataset, Split, TaskKind};
use crate::features::{class_features, FeatureSpec};
use crate::generators::{community_powerlaw, CommunityGraphSpec};
use crate::labels::{multi_label, single_label};

/// Everything needed to synthesise one dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub vertices: usize,
    /// Target undirected edge count.
    pub edges: usize,
    pub feature_dim: usize,
    pub classes: usize,
    pub task: TaskKind,
    pub communities: usize,
    /// Degree-distribution exponent (lower = heavier tail).
    pub power_law_alpha: f64,
    /// Hub cap as a multiple of the average degree.
    pub max_degree_factor: f64,
}

impl DatasetSpec {
    /// Synthesise the dataset.
    pub fn generate(&self, seed: u64) -> Dataset {
        let cg = community_powerlaw(
            &CommunityGraphSpec {
                vertices: self.vertices,
                edges: self.edges,
                communities: self.communities,
                p_in: 0.8,
                power_law_alpha: self.power_law_alpha,
                max_degree_factor: self.max_degree_factor,
            },
            seed,
        );
        let labels = match self.task {
            TaskKind::MultiLabel => {
                let per_comm = (self.classes / self.communities).clamp(2, 6);
                multi_label(
                    &cg.community,
                    self.classes,
                    per_comm,
                    0.85,
                    0.02,
                    seed ^ 0x1AB,
                )
            }
            TaskKind::SingleLabel => single_label(&cg.community, self.classes, 0.05, seed ^ 0x1AB),
        };
        let features = class_features(
            &cg.graph,
            &labels,
            &FeatureSpec {
                dim: self.feature_dim,
                noise: 0.6,
                smoothing: 0.3,
            },
            seed ^ 0xFEA7,
        );
        let split = Split::random(self.vertices, 0.66, 0.17, seed ^ 0x5711);
        Dataset {
            name: self.name.to_string(),
            graph: cg.graph,
            features,
            labels,
            task: self.task,
            split,
        }
    }
}

/// PPI at paper scale (Table I row 1).
pub fn ppi_spec() -> DatasetSpec {
    DatasetSpec {
        name: "PPI",
        vertices: 14_755,
        edges: 225_270,
        feature_dim: 50,
        classes: 121,
        task: TaskKind::MultiLabel,
        communities: 40,
        power_law_alpha: 2.5,
        max_degree_factor: 30.0,
    }
}

/// Reddit at paper scale (Table I row 2) — the largest graph evaluated by
/// prior embedding methods.
pub fn reddit_spec() -> DatasetSpec {
    DatasetSpec {
        name: "Reddit",
        vertices: 232_965,
        edges: 11_606_919,
        feature_dim: 602,
        classes: 41,
        task: TaskKind::SingleLabel,
        communities: 41,
        power_law_alpha: 2.2,
        max_degree_factor: 60.0,
    }
}

/// Yelp at paper scale (Table I row 3).
pub fn yelp_spec() -> DatasetSpec {
    DatasetSpec {
        name: "Yelp",
        vertices: 716_847,
        edges: 6_977_410,
        feature_dim: 300,
        classes: 100,
        task: TaskKind::MultiLabel,
        communities: 50,
        power_law_alpha: 2.4,
        max_degree_factor: 50.0,
    }
}

/// Amazon at paper scale (Table I row 4) — the heavily skewed graph that
/// motivates the sampler's degree cap (Sec. VI-C2).
pub fn amazon_spec() -> DatasetSpec {
    DatasetSpec {
        name: "Amazon",
        vertices: 1_598_960,
        edges: 132_169_734,
        feature_dim: 200,
        classes: 107,
        task: TaskKind::MultiLabel,
        communities: 60,
        power_law_alpha: 1.9,
        max_degree_factor: f64::INFINITY,
    }
}

/// Scale a spec down to roughly `vertices` vertices, preserving average
/// degree, attribute width, class count and skew.
pub fn scale_spec(spec: &DatasetSpec, vertices: usize) -> DatasetSpec {
    let factor = vertices as f64 / spec.vertices as f64;
    DatasetSpec {
        vertices,
        edges: ((spec.edges as f64 * factor).round() as usize).max(vertices),
        communities: spec.communities.min(vertices / 16).max(2),
        ..spec.clone()
    }
}

/// PPI-shaped dataset at ~2k vertices (default experiment size).
pub fn ppi_scaled(seed: u64) -> Dataset {
    scale_spec(&ppi_spec(), 2048).generate(seed)
}

/// Reddit-shaped dataset at ~4k vertices.
pub fn reddit_scaled(seed: u64) -> Dataset {
    scale_spec(&reddit_spec(), 4096).generate(seed)
}

/// Yelp-shaped dataset at ~4k vertices.
pub fn yelp_scaled(seed: u64) -> Dataset {
    scale_spec(&yelp_spec(), 4096).generate(seed)
}

/// Amazon-shaped dataset at ~4k vertices (keeps the unbounded skew).
pub fn amazon_scaled(seed: u64) -> Dataset {
    scale_spec(&amazon_spec(), 4096).generate(seed)
}

/// PPI at full Table I scale.
pub fn ppi_full(seed: u64) -> Dataset {
    ppi_spec().generate(seed)
}

/// Reddit at full Table I scale (~600 MB of features).
pub fn reddit_full(seed: u64) -> Dataset {
    reddit_spec().generate(seed)
}

/// Yelp at full Table I scale.
pub fn yelp_full(seed: u64) -> Dataset {
    yelp_spec().generate(seed)
}

/// Amazon at full Table I scale (~2.5 GB total).
pub fn amazon_full(seed: u64) -> Dataset {
    amazon_spec().generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::stats;

    #[test]
    fn specs_match_table1() {
        let specs = [ppi_spec(), reddit_spec(), yelp_spec(), amazon_spec()];
        let expect = [
            ("PPI", 14_755, 225_270, 50, 121),
            ("Reddit", 232_965, 11_606_919, 602, 41),
            ("Yelp", 716_847, 6_977_410, 300, 100),
            ("Amazon", 1_598_960, 132_169_734, 200, 107),
        ];
        for (s, (name, v, e, f, c)) in specs.iter().zip(expect) {
            assert_eq!(s.name, name);
            assert_eq!(s.vertices, v);
            assert_eq!(s.edges, e);
            assert_eq!(s.feature_dim, f);
            assert_eq!(s.classes, c);
        }
        assert_eq!(reddit_spec().task, TaskKind::SingleLabel);
        assert_eq!(ppi_spec().task, TaskKind::MultiLabel);
    }

    #[test]
    fn scaled_ppi_valid_and_shaped() {
        let d = ppi_scaled(42);
        assert!(d.validate().is_ok(), "{:?}", d.validate());
        assert_eq!(d.graph.num_vertices(), 2048);
        assert_eq!(d.feature_dim(), 50);
        assert_eq!(d.num_classes(), 121);
        // Average degree preserved within 2× (dedup losses allowed).
        let target_d = 2.0 * 225_270.0 / 14_755.0;
        let got_d = d.graph.avg_degree();
        assert!(
            got_d > target_d * 0.5 && got_d < target_d * 2.0,
            "avg degree {got_d:.1} vs target {target_d:.1}"
        );
    }

    #[test]
    fn scaled_reddit_single_label() {
        let d = reddit_scaled(1);
        assert!(d.validate().is_ok());
        assert_eq!(d.task, TaskKind::SingleLabel);
        assert_eq!(d.num_classes(), 41);
    }

    #[test]
    fn scaled_amazon_is_skewed() {
        let d = amazon_scaled(2);
        let s = stats::degree_stats(&d.graph);
        assert!(
            s.max as f64 > 8.0 * s.mean,
            "Amazon-shaped graph should be heavily skewed: max {} mean {:.1}",
            s.max,
            s.mean
        );
    }

    #[test]
    fn generation_deterministic() {
        let a = ppi_scaled(7);
        let b = ppi_scaled(7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
    }
}
