//! Property-based equivalence of the bit-parallel MS-BFS against the
//! sequential single-source engine: every lane of a batched run must
//! report exactly the distances, reachability, and eccentricity that a
//! dedicated `bfs_in` from that lane's source would — on arbitrary
//! graphs, subset views, distance bounds, and target sets, including
//! ragged (> 64 source) multi-batch sweeps through the distance
//! helpers. The flat instances (64 ball-packed lanes on random 4-regular
//! and gnp graphs) run their middle levels bottom-up, the thin ones (a
//! path, a sparse subset view) stay top-down, so both directions of the
//! kernel, and lanes retiring in either, are covered.

use proptest::prelude::*;
use sdnd_graph::algo::{
    self, bfs_bounded_in, bfs_in, bfs_to_in, msbfs_bounded_in, msbfs_in, msbfs_to_in,
    TraversalWorkspace, MS_LANES,
};
use sdnd_graph::{gen, Adjacency, Graph, NodeId, NodeSet};

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
    for r in 0..=bfs.eccentricity().map_or(0, |e| e + 1) {
        prop_assert_eq!(
            run.ball_size(lane, r),
            bfs.ball_size(r),
            "lane {} ball {}",
            lane,
            r
        );
    }
    Ok(())
}

/// A connected flat graph on `n` nodes: random 4-regular, or gnp with
/// mean degree 8.
fn flat_graph(regular: bool, n: usize, seed: u64) -> Graph {
    if regular {
        gen::random_regular_connected(n, 4, seed).expect("4n is even")
    } else {
        gen::gnp_connected(n, 8.0 / n as f64, seed)
    }
}

/// Strategy: a flat graph of 80 to 320 nodes.
fn arb_flat() -> impl Strategy<Value = Graph> {
    (prop::bool::ANY, 80usize..320, 0u64..1000).prop_map(|(r, n, seed)| flat_graph(r, n, seed))
}

/// The first 64 ball-packed sources of `view`: the batch shape of the
/// exact validators' fringe passes.
fn ball_packed<A: Adjacency>(view: &A) -> Vec<NodeId> {
    let nodes: Vec<NodeId> = view.nodes().collect();
    let order = algo::ms_batch_order_in(&mut TraversalWorkspace::new(), view, &nodes);
    order
        .iter()
        .take(MS_LANES)
        .map(|&i| nodes[i as usize])
        .collect()
}

/// Lane-by-lane distances read off the discovery log, `UNREACHED` where
/// a lane did not reach a node.
fn log_distances(run: &algo::MsBfsRun<'_>, universe: usize) -> Vec<Vec<u32>> {
    let mut out = vec![vec![algo::UNREACHED; universe]; run.lanes()];
    for (d, nodes, words) in run.levels() {
        for (&v, &w) in nodes.iter().zip(words) {
            for (lane, row) in out.iter_mut().enumerate() {
                if w >> lane & 1 != 0 {
                    row[v.index()] = d;
                }
            }
        }
    }
    out
}

/// Asserts lane `lane` of a large run against a fresh BFS from `src`
/// truncated at `max_dist`: the log's distance row in full, `dist` on
/// every seventh node (each call scans the log), and the censuses.
fn assert_wide_lane_matches_bfs<A: Adjacency>(
    view: &A,
    run: &algo::MsBfsRun<'_>,
    row: &[u32],
    lane: usize,
    src: NodeId,
    max_dist: u32,
) -> Result<(), TestCaseError> {
    let mut ws = TraversalWorkspace::new();
    let bfs = bfs_bounded_in(&mut ws, view, [src], max_dist);
    prop_assert_eq!(
        run.reached_count(lane),
        bfs.reached_count(),
        "lane {} count",
        lane
    );
    prop_assert_eq!(
        run.eccentricity(lane),
        bfs.eccentricity(),
        "lane {} ecc",
        lane
    );
    for (vi, &d) in row.iter().enumerate() {
        let v = NodeId::new(vi);
        prop_assert_eq!(d, bfs.dist(v), "lane {} log dist({})", lane, vi);
        prop_assert_eq!(
            run.reached(v, lane),
            bfs.reached(v),
            "lane {} reached({})",
            lane,
            vi
        );
        if (vi + lane).is_multiple_of(7) {
            prop_assert_eq!(run.dist(v, lane), bfs.dist(v), "lane {} dist({})", lane, vi);
        }
    }
    for r in 0..=bfs.eccentricity().map_or(0, |e| e + 1) {
        prop_assert_eq!(
            run.ball_size(lane, r),
            bfs.ball_size(r),
            "lane {} ball {}",
            lane,
            r
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 64 ball-packed lanes on a flat graph: the middle levels run
    /// bottom-up, and every lane still matches its own BFS.
    #[test]
    fn flat_lanes_match_across_direction_switches(g in arb_flat()) {
        let view = g.full_view();
        let sources = ball_packed(&view);
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_in(&mut ws, &view, &sources);
        let rows = log_distances(&run, g.n());
        for (lane, &src) in sources.iter().enumerate() {
            assert_wide_lane_matches_bfs(&view, &run, &rows[lane], lane, src, u32::MAX)?;
        }
    }

    /// Bounded flat runs stop every lane at a radius that often falls
    /// after a bottom-up level.
    #[test]
    fn bounded_flat_lanes_match(g in arb_flat(), max_dist in 1u32..6) {
        let view = g.full_view();
        let sources = ball_packed(&view);
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_bounded_in(&mut ws, &view, &sources, max_dist);
        let rows = log_distances(&run, g.n());
        for (lane, &src) in sources.iter().enumerate() {
            assert_wide_lane_matches_bfs(&view, &run, &rows[lane], lane, src, max_dist)?;
        }
    }

    /// Targeted flat runs retire each lane at its last target, often in
    /// a bottom-up level: target distances, residual counts,
    /// eccentricities, last target levels and the completed levels'
    /// ball sizes match the lane's own early-exiting BFS.
    #[test]
    fn targeted_flat_lanes_match(g in arb_flat(), stride in 2usize..40, shift in 0usize..40) {
        let view = g.full_view();
        let sources = ball_packed(&view);
        let targets = NodeSet::from_nodes(
            g.n(),
            (shift % stride..g.n()).step_by(stride).map(NodeId::new),
        );
        let mut ws = TraversalWorkspace::new();
        let run = msbfs_to_in(&mut ws, &view, &sources, &targets);
        let mut seq_ws = TraversalWorkspace::new();
        for (lane, &src) in sources.iter().enumerate() {
            let bfs = bfs_to_in(&mut seq_ws, &view, [src], &targets);
            let mut farthest = 0;
            for t in targets.iter() {
                prop_assert_eq!(run.reached(t, lane), bfs.reached(t), "lane {} reach", lane);
                prop_assert_eq!(run.dist(t, lane), bfs.dist(t), "lane {} target dist", lane);
                farthest = farthest.max(bfs.dist(t));
            }
            prop_assert_eq!(run.targets_remaining(lane), 0, "lane {} residual", lane);
            prop_assert_eq!(run.last_target_level(lane), farthest, "lane {} last", lane);
            let ecc = bfs.eccentricity();
            prop_assert_eq!(run.eccentricity(lane), ecc, "lane {} ecc", lane);
            // The level a lane retires in may stop part-way, in a
            // different order than the sequential sweep; those before
            // it are complete on both sides.
            for r in 0..ecc.unwrap_or(0) {
                prop_assert_eq!(run.ball_size(lane, r), bfs.ball_size(r), "lane {} ball {}", lane, r);
            }
        }
    }

    /// Thin frontiers stay top-down: 64 ball-packed lanes on a path, and
    /// on a sparse (30%) subset view of a flat graph.
    #[test]
    fn thin_frontier_lanes_match(n in 80usize..260, seed in 0u64..1000) {
        let path = gen::path(n);
        let flat = flat_graph(seed % 2 == 0, n, seed);
        let alive = NodeSet::from_nodes(
            n,
            (0..n).filter(|&i| mix(seed, i as u64) % 10 < 3).map(NodeId::new),
        );
        let path_view = path.full_view();
        let sparse_view = flat.view(&alive);
        let mut ws = TraversalWorkspace::new();
        let sources = ball_packed(&path_view);
        let run = msbfs_in(&mut ws, &path_view, &sources);
        let rows = log_distances(&run, n);
        for (lane, &src) in sources.iter().enumerate() {
            assert_wide_lane_matches_bfs(&path_view, &run, &rows[lane], lane, src, u32::MAX)?;
        }
        let sources = ball_packed(&sparse_view);
        let run = msbfs_in(&mut ws, &sparse_view, &sources);
        let rows = log_distances(&run, n);
        for (lane, &src) in sources.iter().enumerate() {
            assert_wide_lane_matches_bfs(&sparse_view, &run, &rows[lane], lane, src, u32::MAX)?;
        }
    }
}
