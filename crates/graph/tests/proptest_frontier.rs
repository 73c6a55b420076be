//! The frontier tile cutter (`FrontierScratch::capped`, and
//! `one_hop_frontier` as its uncapped case) against a plain `BTreeMap`
//! reference that spells out its contract: which roots a tile takes, where
//! it stops, and how its rows are laid out (unique roots first, then the
//! frontier grouped by locality group in discovery order). Stored
//! evaluation and serving both inherit their tile boundaries and row
//! order from it, so any change to how it interns or groups vertices must
//! leave every ball here equal.

use gsgcn_graph::{
    builder::from_edges, one_hop_frontier, CsrGraph, FrontierBall, FrontierScratch, TopoView,
    Topology,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A resident graph that reports a caller-chosen locality group per
/// vertex, so the frontier grouping has something to sort by.
struct Grouped {
    g: CsrGraph,
    group: Vec<u32>,
    groups: usize,
}

impl Topology for Grouped {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.g.num_edges()
    }

    fn view(&self) -> TopoView<'_> {
        TopoView::csr(&self.g)
    }

    fn locality_group(&self, v: u32) -> u32 {
        self.group[v as usize]
    }

    fn num_locality_groups(&self) -> usize {
        self.groups
    }
}

/// The cutter's contract, written for clarity rather than speed.
fn reference<T: Topology + ?Sized>(g: &T, roots: &[u32], max_rows: usize) -> (FrontierBall, usize) {
    // Vertex → discovery position; a root's own row is discovered before
    // its neighbors.
    let mut seen: BTreeMap<u32, usize> = BTreeMap::new();
    let mut rank: BTreeMap<u32, u32> = BTreeMap::new();
    let mut unique: Vec<u32> = Vec::new();
    let mut root_locals = Vec::new();
    for &r in roots {
        if let Some(&k) = rank.get(&r) {
            root_locals.push(k);
            continue;
        }
        let mut added: Vec<u32> = Vec::new();
        let mut fresh = BTreeSet::new();
        for v in std::iter::once(r).chain(g.view().neighbors(r).iter().copied()) {
            if !seen.contains_key(&v) && fresh.insert(v) {
                added.push(v);
            }
        }
        if seen.len() + added.len() > max_rows && !unique.is_empty() {
            break;
        }
        for v in added {
            let at = seen.len();
            seen.insert(v, at);
        }
        rank.insert(r, unique.len() as u32);
        root_locals.push(unique.len() as u32);
        unique.push(r);
    }
    let mut frontier: Vec<(usize, u32)> = seen
        .iter()
        .filter(|(v, _)| !rank.contains_key(v))
        .map(|(&v, &at)| (at, v))
        .collect();
    frontier.sort_unstable();
    let mut frontier: Vec<u32> = frontier.into_iter().map(|(_, v)| v).collect();
    frontier.sort_by_key(|&v| g.locality_group(v)); // stable: discovery order within a group
    let origin: Vec<u32> = unique.iter().chain(&frontier).copied().collect();
    let local: BTreeMap<u32, u32> = origin
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut offsets = vec![0usize];
    let mut adj = Vec::new();
    for &r in &unique {
        adj.extend(g.view().neighbors(r).iter().map(|u| local[u]));
        offsets.push(adj.len());
    }
    offsets.resize(origin.len() + 1, adj.len());
    let used = root_locals.len();
    let ball = FrontierBall {
        origin,
        graph: CsrGraph::from_raw(offsets, adj),
        num_roots: unique.len(),
        root_locals,
    };
    (ball, used)
}

/// A random graph, a locality group per vertex, a root list with
/// repeats in any order, and a small cap.
#[allow(clippy::type_complexity)]
fn case() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<u32>, usize, Vec<u32>, usize)> {
    (2usize..50).prop_flat_map(|n| {
        let v = 0..n as u32;
        (
            Just(n),
            proptest::collection::vec((v.clone(), v.clone()), 0..n * 3),
            proptest::collection::vec(0u32..4, n),
            1usize..5,
            proptest::collection::vec(v, 1..30),
            1usize..12,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every cut of a root list, walked tile by tile as the level driver
    /// walks it, equals the reference's at caps 1 / small / unbounded,
    /// with and without locality groups.
    #[test]
    fn capped_frontier_matches_the_reference(
        (n, edges, group, groups, roots, small) in case(),
    ) {
        let grouped = Grouped {
            g: from_edges(n, &edges),
            group: group.iter().map(|&k| k % groups as u32).collect(),
            groups,
        };
        for cap in [1, small, usize::MAX] {
            let mut rest = &roots[..];
            while !rest.is_empty() {
                let (want, want_used) = reference(&grouped, rest, cap);
                let (got, used) = FrontierScratch::new().capped(&grouped, rest, cap).unwrap();
                prop_assert_eq!(&got, &want, "cap {} on {:?}", cap, rest);
                prop_assert_eq!(used, want_used);
                prop_assert!(used >= 1);
                // Ungrouped, the same cut on the bare graph.
                let (plain, _) = FrontierScratch::new().capped(&grouped.g, rest, cap).unwrap();
                prop_assert_eq!(plain, reference(&grouped.g, rest, cap).0);
                rest = &rest[used..];
            }
        }
        let whole = reference(&grouped, &roots, usize::MAX).0;
        prop_assert_eq!(one_hop_frontier(&grouped, &roots), whole);
    }

    /// One scratch drives a sequence of cuts — different root sets, tiles
    /// rolled back at the cap, graphs of two sizes in turn — and every
    /// cut equals a fresh scratch's: nothing of one cut leaks into the
    /// next.
    #[test]
    fn a_reused_scratch_cuts_like_a_fresh_one(
        (n, edges, group, groups, roots, small) in case(),
        big_edges in proptest::collection::vec((0u32..120, 0u32..120), 0..300),
        steps in proptest::collection::vec((any::<bool>(), 0usize..3, any::<u32>()), 1..12),
    ) {
        let graphs = [
            Grouped {
                g: from_edges(n, &edges),
                group: group.iter().map(|&k| k % groups as u32).collect(),
                groups,
            },
            Grouped {
                g: from_edges(120, &big_edges),
                group: (0..120).map(|v| v / 30).collect(),
                groups: 4,
            },
        ];
        let mut scratch = FrontierScratch::new();
        for (big, cap, salt) in steps {
            let g = &graphs[big as usize];
            let k = g.num_vertices() as u32;
            let roots: Vec<u32> = roots.iter().map(|&r| (r ^ salt) % k).collect();
            let cap = [1, small, usize::MAX][cap];
            let mut rest = &roots[..];
            while !rest.is_empty() {
                let (got, used) = scratch.capped(g, rest, cap).unwrap();
                prop_assert_eq!((got, used), FrontierScratch::new().capped(g, rest, cap).unwrap());
                rest = &rest[used..];
            }
            prop_assert_eq!(scratch.one_hop(g, &roots).unwrap(), one_hop_frontier(g, &roots));
        }
    }
}
