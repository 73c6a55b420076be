//! Seeded input generation: everything the program under test receives is
//! derived here from `--seed`, so the same seed gives the same datasets,
//! id scrambles and request streams.

/// SplitMix64: small, seedable, and independent of the workspace's RNG
/// shim so request streams do not change when that shim does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::new(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    perm
}

/// `count` requests of `roots` node ids each, drawn uniformly from
/// `0..n_nodes` **without reuse**: consecutive slices of one seeded
/// permutation (a fresh permutation once it is used up), so no node
/// repeats before every node has been asked for once.
pub fn uniform_requests(n_nodes: usize, roots: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
    assert!(roots > 0 && roots <= n_nodes);
    let mut out = Vec::with_capacity(count);
    let mut round = 0u64;
    let mut perm = permutation(n_nodes, seed);
    let mut at = 0;
    while out.len() < count {
        if at + roots > perm.len() {
            round += 1;
            perm = permutation(n_nodes, seed.wrapping_add(round));
            at = 0;
        }
        out.push(perm[at..at + roots].to_vec());
        at += roots;
    }
    out
}

/// `count` requests of `roots` ids each, drawn Zipf(`s`) by rank from
/// `hot` (rank 1 = `hot[0]`); ids may repeat within and across requests.
pub fn zipf_requests(hot: &[u32], s: f64, roots: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut cdf = Vec::with_capacity(hot.len());
    let mut acc = 0.0;
    for rank in 1..=hot.len() {
        acc += (rank as f64).powf(-s);
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            (0..roots)
                .map(|_| {
                    let u = rng.unit() * acc;
                    hot[cdf.partition_point(|&c| c <= u).min(hot.len() - 1)]
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_by_seed() {
        assert_eq!(
            uniform_requests(1000, 8, 50, 7),
            uniform_requests(1000, 8, 50, 7)
        );
        assert_ne!(
            uniform_requests(1000, 8, 50, 7),
            uniform_requests(1000, 8, 50, 8)
        );
        let hot = permutation(1000, 3)[..128].to_vec();
        assert_eq!(
            zipf_requests(&hot, 1.1, 8, 50, 7),
            zipf_requests(&hot, 1.1, 8, 50, 7)
        );
        assert_ne!(
            zipf_requests(&hot, 1.1, 8, 50, 7),
            zipf_requests(&hot, 1.1, 8, 50, 8)
        );
    }

    #[test]
    fn uniform_stream_does_not_reuse_within_a_round() {
        // 1000 nodes / 8 roots = 125 requests per permutation.
        let reqs = uniform_requests(1000, 8, 125, 11);
        let mut seen = std::collections::BTreeSet::new();
        for r in &reqs {
            for &v in r {
                assert!(v < 1000);
                assert!(seen.insert(v), "node {v} reused inside one round");
            }
        }
        // The next round starts a fresh permutation and keeps going.
        assert_eq!(uniform_requests(1000, 8, 130, 11).len(), 130);
    }

    #[test]
    fn zipf_stream_is_skewed_to_low_ranks_and_stays_in_the_hot_set() {
        let hot: Vec<u32> = (500..628).collect();
        let reqs = zipf_requests(&hot, 1.1, 8, 2000, 5);
        let mut top = 0usize;
        for &v in reqs.iter().flatten() {
            assert!((500..628).contains(&v));
            if v < 508 {
                top += 1;
            }
        }
        // The 8 top ranks of 128 carry well over half the Zipf(1.1) mass
        // (≈ 0.58); uniform would give 1/16.
        assert!(top * 2 > 16_000, "top-8 share {top}/16000");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(257, 9);
        p.sort_unstable();
        assert_eq!(p, (0..257).collect::<Vec<u32>>());
    }
}
