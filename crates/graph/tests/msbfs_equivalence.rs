//! Property-based equivalence of the bit-parallel MS-BFS against the
//! sequential single-source engine: every lane of a batched run must
//! report exactly the distances, reachability, and eccentricity that a
//! dedicated `bfs_in` from that lane's source would — on arbitrary
//! graphs, subset views, distance bounds, and target sets, including
//! ragged (> 64 source) multi-batch sweeps through the distance
//! helpers.

use proptest::prelude::*;
use sdnd_graph::algo::{
    self, bfs_bounded_in, bfs_in, bfs_to_in, msbfs_bounded_in, msbfs_in, msbfs_to_in,
    TraversalWorkspace, MS_LANES,
};
use sdnd_graph::{Adjacency, Graph, NodeId, NodeSet};

/// Strategy: a random simple graph (possibly disconnected) plus an
/// alive-subset mask and a seed for picking sources.
fn arb_instance() -> impl Strategy<Value = (Graph, NodeSet, u64)> {
    (2usize..48, 0u64..1000).prop_flat_map(|(n, seed)| {
        let edges = prop::collection::vec((0..n, 0..n), 0..(n * 2));
        edges.prop_map(move |raw| {
            let filtered: Vec<(usize, usize)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            let g = Graph::from_edges(n, filtered).expect("filtered edges are valid");
            // ~80% of the nodes stay alive, hash-chosen from the seed.
            let alive = NodeSet::from_nodes(
                n,
                (0..n)
                    .filter(|&i| !mix(seed, i as u64).is_multiple_of(5))
                    .map(NodeId::new),
            );
            (g, alive, seed)
        })
    })
}

/// Deterministic source picks (possibly repeated, possibly outside the
/// view) from the graph's universe.
fn pick_sources(n: usize, count: usize, seed: u64) -> Vec<NodeId> {
    (0..count)
        .map(|i| NodeId::new((mix(seed, i as u64) % n as u64) as usize))
        .collect()
}

/// Splitmix-style hash used for deterministic instance derivation.
fn mix(seed: u64, i: u64) -> u64 {
    let mut h = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 29;
    h
}

/// Asserts one lane of `run` against a fresh sequential BFS from `src`.
fn assert_lane_matches_bfs<A: Adjacency>(
    view: &A,
    run: &algo::MsBfsRun<'_>,
    lane: usize,
    src: NodeId,
    max_dist: u32,
) -> Result<(), TestCaseError> {
    let mut ws = TraversalWorkspace::new();
    let bfs = bfs_bounded_in(&mut ws, view, [src], max_dist);
    prop_assert_eq!(
        run.reached_count(lane),
        bfs.reached_count(),
        "lane {} reach count",
        lane
    );
    prop_assert_eq!(
        run.eccentricity(lane),
        bfs.eccentricity(),
        "lane {} eccentricity",
        lane
    );
    for vi in 0..view.universe() {
        let v = NodeId::new(vi);
        prop_assert_eq!(
            run.reached(v, lane),
            bfs.reached(v),
            "lane {} reached({})",
            lane,
            vi
        );
        prop_assert_eq!(run.dist(v, lane), bfs.dist(v), "lane {} dist({})", lane, vi);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unbounded MS-BFS ≡ per-source BFS on full and subset views,
    /// lane by lane, including out-of-view sources (dead lanes).
    #[test]
    fn msbfs_lanes_match_sequential_bfs(inst in arb_instance()) {
        let (g, alive, seed) = inst;
        let view = g.view(&alive);
        let sources = pick_sources(g.n(), 1 + (seed % MS_LANES as u64) as usize, seed);
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_in(&mut ws, &view, &sources);
        prop_assert_eq!(run.lanes(), sources.len());
        for (lane, &src) in sources.iter().enumerate() {
            assert_lane_matches_bfs(&view, &run, lane, src, u32::MAX)?;
        }
    }

    /// Bounded MS-BFS ≡ per-source bounded BFS for small radii
    /// (including radius 0: sources only).
    #[test]
    fn bounded_msbfs_matches_bounded_bfs(
        inst in arb_instance(),
        max_dist in 0u32..5,
    ) {
        let (g, alive, seed) = inst;
        let view = g.view(&alive);
        let sources = pick_sources(g.n(), 1 + (seed % 7) as usize, seed);
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_bounded_in(&mut ws, &view, &sources, max_dist);
        for (lane, &src) in sources.iter().enumerate() {
            assert_lane_matches_bfs(&view, &run, lane, src, max_dist)?;
        }
    }

    /// Targeted MS-BFS: every lane reports the same distance to every
    /// target that its own early-exiting `bfs_to_in` would, and the
    /// same residual target count.
    #[test]
    fn targeted_msbfs_matches_bfs_to(inst in arb_instance()) {
        let (g, alive, seed) = inst;
        let view = g.view(&alive);
        let sources = pick_sources(g.n(), 1 + (seed % 5) as usize, seed);
        let targets = NodeSet::from_nodes(g.n(), pick_sources(g.n(), 1 + (seed % 9) as usize, !seed));
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_to_in(&mut ws, &view, &sources, &targets);
        let mut seq_ws = TraversalWorkspace::new();
        for (lane, &src) in sources.iter().enumerate() {
            let bfs = bfs_to_in(&mut seq_ws, &view, [src], &targets);
            let mut missing = 0usize;
            for t in targets.iter() {
                prop_assert_eq!(
                    run.reached(t, lane),
                    bfs.reached(t),
                    "lane {} target {} reach",
                    lane,
                    t.index()
                );
                prop_assert_eq!(run.dist(t, lane), bfs.dist(t), "lane {} target dist", lane);
                if !bfs.reached(t) {
                    missing += 1;
                }
            }
            prop_assert_eq!(run.targets_remaining(lane), missing, "lane {} residual", lane);
        }
    }

    /// The ragged multi-batch helpers (all `n` view nodes as sources,
    /// crossing the 64-lane boundary when `n > 64`) agree with their
    /// per-source definitions.
    #[test]
    fn multi_batch_helpers_match_per_source(
        inst in arb_instance(),
        wide in prop::bool::ANY,
    ) {
        let (g, alive, _seed) = inst;
        // Optionally blow the instance past one batch by tiling it.
        let (g, alive) = if wide {
            let n = g.n();
            let shifted = g
                .edges()
                .flat_map(|(u, v)| {
                    [(u.index(), v.index()), (u.index() + n, v.index() + n)]
                })
                .collect::<Vec<_>>();
            let g2 = Graph::from_edges(2 * n, shifted).unwrap();
            let alive2 = NodeSet::from_nodes(
                2 * n,
                (0..2 * n).filter(|&i| alive.contains(NodeId::new(i % n))).map(NodeId::new),
            );
            (g2, alive2)
        } else {
            (g, alive)
        };
        let view = g.view(&alive);
        let mut ws = TraversalWorkspace::new();
        let sources: Vec<NodeId> = view.nodes().collect();
        let eccs = algo::eccentricities_in(&view, &sources, &mut ws);
        for (i, &src) in sources.iter().enumerate() {
            prop_assert_eq!(eccs[i], algo::eccentricity_in(&view, src, &mut ws));
        }
        let pairwise = algo::pairwise_distances_in(&view, &mut ws);
        let expect_diam = pairwise
            .iter()
            .flatten()
            .filter(|&&d| d != algo::UNREACHED)
            .max()
            .copied();
        prop_assert_eq!(algo::diameter_exact_in(&view, &mut ws), expect_diam);
        for &src in sources.iter() {
            let bfs = bfs_in(&mut ws, &view, [src]);
            // Rows only compare on live columns; dead rows/columns stay
            // UNREACHED by construction (checked in unit tests).
            for (vi, &d) in pairwise[src.index()].iter().enumerate() {
                prop_assert_eq!(d, bfs.dist(NodeId::new(vi)));
            }
        }
    }
}
