//! Label synthesis from community structure.
//!
//! The GCN's job on the paper's datasets is to recover label structure
//! that correlates with graph neighborhoods (protein functional modules,
//! subreddit communities, …). We reproduce that: labels are functions of
//! a vertex's community plus noise, so neighborhood aggregation carries
//! real signal.

use gsgcn_tensor::DMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multi-label targets: each community has `labels_per_community`
/// characteristic classes; a member carries each with probability
/// `p_present`, plus background classes with probability `p_noise`.
/// Returns an `n × classes` multi-hot matrix with ≥ 1 label per vertex.
pub fn multi_label(
    community: &[u32],
    classes: usize,
    labels_per_community: usize,
    p_present: f64,
    p_noise: f64,
    seed: u64,
) -> DMatrix {
    assert!(classes >= 1);
    assert!(labels_per_community >= 1 && labels_per_community <= classes);
    let n = community.len();
    let k = community.iter().map(|&c| c as usize + 1).max().unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(seed);

    // Characteristic class set per community.
    let charset: Vec<Vec<usize>> = (0..k)
        .map(|c| {
            (0..labels_per_community)
                .map(|j| (c * labels_per_community + j + (c * 7919) % classes) % classes)
                .collect()
        })
        .collect();

    let mut y = DMatrix::zeros(n, classes);
    for (v, &comm) in community.iter().enumerate().take(n) {
        let c = comm as usize;
        let mut any = false;
        for &cls in &charset[c] {
            if rng.random::<f64>() < p_present {
                y.set(v, cls, 1.0);
                any = true;
            }
        }
        for cls in 0..classes {
            if rng.random::<f64>() < p_noise {
                y.set(v, cls, 1.0);
                any = true;
            }
        }
        if !any {
            // Guarantee at least one positive label (metrics need it).
            y.set(v, charset[c][0], 1.0);
        }
    }
    y
}

/// Single-label targets: class = community id with probability
/// `1 − flip_prob`, otherwise a uniformly random other class. Returns an
/// `n × classes` one-hot matrix. Requires `classes ≥ #communities`.
pub fn single_label(community: &[u32], classes: usize, flip_prob: f64, seed: u64) -> DMatrix {
    let n = community.len();
    let k = community.iter().map(|&c| c as usize + 1).max().unwrap_or(1);
    assert!(classes >= k, "need at least as many classes as communities");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut y = DMatrix::zeros(n, classes);
    for (v, &comm) in community.iter().enumerate().take(n) {
        let mut cls = comm as usize;
        if rng.random::<f64>() < flip_prob {
            cls = rng.random_range(0..classes);
        }
        y.set(v, cls, 1.0);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn communities(n: usize, k: usize) -> Vec<u32> {
        (0..n).map(|v| ((v * k) / n) as u32).collect()
    }

    #[test]
    fn multi_label_every_vertex_labeled() {
        let comm = communities(200, 4);
        let y = multi_label(&comm, 20, 3, 0.8, 0.02, 1);
        assert_eq!(y.shape(), (200, 20));
        for v in 0..200 {
            let s: f32 = y.row(v).iter().sum();
            assert!(s >= 1.0, "vertex {v} has no labels");
        }
        // Multi-hot, not one-hot: average label count > 1.
        let avg: f32 = y.data().iter().sum::<f32>() / 200.0;
        assert!(avg > 1.5, "avg labels {avg}");
    }

    #[test]
    fn multi_label_correlates_with_community() {
        let comm = communities(400, 4);
        let y = multi_label(&comm, 16, 3, 0.9, 0.01, 2);
        // Two vertices of the same community share labels far more often
        // than vertices of different communities.
        let sim = |a: usize, b: usize| -> f64 {
            let (ra, rb) = (y.row(a), y.row(b));
            let inter: f64 = ra
                .iter()
                .zip(rb)
                .filter(|(&x, &z)| x > 0.0 && z > 0.0)
                .count() as f64;
            inter
        };
        let same = sim(0, 1) + sim(10, 20) + sim(50, 70);
        let diff = sim(0, 399) + sim(10, 350) + sim(50, 250);
        assert!(same > diff, "same-community {same} vs cross {diff}");
    }

    #[test]
    fn single_label_one_hot() {
        let comm = communities(100, 5);
        let y = single_label(&comm, 8, 0.1, 3);
        for v in 0..100 {
            let s: f32 = y.row(v).iter().sum();
            assert_eq!(s, 1.0, "row {v} not one-hot");
        }
    }

    #[test]
    fn single_label_mostly_community() {
        let comm = communities(1000, 5);
        let y = single_label(&comm, 5, 0.05, 4);
        let correct = (0..1000)
            .filter(|&v| y.get(v, comm[v] as usize) == 1.0)
            .count();
        assert!(correct > 900, "only {correct}/1000 match community");
    }

    #[test]
    fn deterministic() {
        let comm = communities(50, 2);
        assert_eq!(
            multi_label(&comm, 10, 2, 0.7, 0.05, 9),
            multi_label(&comm, 10, 2, 0.7, 0.05, 9)
        );
        assert_eq!(
            single_label(&comm, 4, 0.1, 9),
            single_label(&comm, 4, 0.1, 9)
        );
    }

    #[test]
    fn frequencies_sum_matches() {
        let comm = communities(100, 2);
        let y = single_label(&comm, 4, 0.0, 5);
        // The per-class frequencies (column means) sum to 1: one-hot rows.
        let total: f32 = y.data().iter().sum();
        assert_eq!(total, 100.0, "one-hot rows sum to 1");
    }

    #[test]
    #[should_panic(expected = "at least as many classes")]
    fn single_label_too_few_classes() {
        single_label(&communities(10, 5), 3, 0.0, 1);
    }
}
