//! Gate coincidence of the exact validators: the iFUB diameter sweeps
//! (hop sweeps certified by level and eccentricity bounds, the rest in
//! MS-BFS passes of up to 64 lanes; one early-stopping Dijkstra per
//! source for the weighted metric; weak sweeps bounded by the strong
//! diameter) must produce bit-identical verdicts, violation lists, and
//! diameters to an all-pairs reference on arbitrary (often invalid)
//! carvings, decompositions and edge carvings, and on clusters of
//! hundreds of members.
//!
//! The reference is written here from [`DistanceOracle::distances_in`]:
//! one full sweep from every member, folding every member-pair distance
//! (inside `G[C]` for the strong diameter, in `G` for the weak one). The
//! weighted cases use integer and real weights, including near-unit real
//! weights whose rounded path sums differ by an ulp between the two
//! directions of a pair, and compare `f64` diameters by bits.

use proptest::prelude::*;
use sdnd::graph::algo::{self, DistanceOracle, HopOracle, TraversalWorkspace, WeightedOracle};
use sdnd::graph::{gen, Adjacency, Graph, NodeId, NodeSet};
use sdnd_clustering::metrics::{strong_diameter_of_with_in, weak_diameter_of_with_in};
use sdnd_clustering::{
    validate_carving, validate_decomposition, validate_edge_carving, BallCarving, CarveCtx,
    EdgeCarving, NetworkDecomposition,
};
use std::collections::HashSet;

/// Largest distance `oracle` computes from any member to any member
/// inside `view`; `None` when some member does not reach another.
fn all_pairs<O: DistanceOracle, A: Adjacency>(
    view: &A,
    members: &[NodeId],
    oracle: &O,
    ws: &mut TraversalWorkspace,
) -> Option<f64> {
    if members.is_empty() {
        return None;
    }
    let mut max = 0.0_f64;
    for &s in members {
        let d = oracle.distances_in(view, s, ws);
        for &t in members {
            if !d.reached(t) {
                return None;
            }
            max = max.max(d.dist(t));
        }
    }
    Some(max)
}

/// All-pairs reference `(strong, weak)` diameters of one member set.
fn reference<O: DistanceOracle>(
    g: &Graph,
    members: &[NodeId],
    oracle: &O,
    ws: &mut TraversalWorkspace,
) -> (Option<f64>, Option<f64>) {
    let set = NodeSet::from_nodes(g.n(), members.iter().copied());
    (
        all_pairs(&g.view(&set), members, oracle, ws),
        all_pairs(&g.full_view(), members, oracle, ws),
    )
}

/// The reference fold of every diameter field a validator reports:
/// hop strong/weak maxima, weighted strong/weak maxima (weighted graphs
/// only; compared by bits), and the per-cluster violations in the
/// validators' order.
struct Fold {
    connected: bool,
    strong: Option<u32>,
    weak: Option<u32>,
    weighted_strong: Option<u64>,
    weighted_weak: Option<u64>,
    violations: Vec<String>,
}

fn reference_fold(g: &Graph, clusters: &[Vec<NodeId>]) -> Fold {
    let mut ws = TraversalWorkspace::new();
    let w0 = g.is_weighted().then_some(0.0_f64);
    let mut f = Fold {
        connected: true,
        strong: Some(0),
        weak: Some(0),
        weighted_strong: None,
        weighted_weak: None,
        violations: Vec::new(),
    };
    let (mut w_strong, mut w_weak) = (w0, w0);
    for (i, c) in clusters.iter().enumerate() {
        let (strong, weak) = reference(g, c, &HopOracle, &mut ws);
        if strong.is_none() {
            f.connected = false;
            f.violations
                .push(format!("cluster {i} induces a disconnected subgraph"));
        }
        if weak.is_none() {
            f.violations.push(format!(
                "cluster {i}: some member pair is disconnected in G (weak diameter undefined)"
            ));
        }
        f.strong = f.strong.zip(strong).map(|(a, b)| a.max(b as u32));
        f.weak = f.weak.zip(weak).map(|(a, b)| a.max(b as u32));
        if g.is_weighted() {
            let (strong, weak) = reference(g, c, &WeightedOracle, &mut ws);
            w_strong = w_strong.zip(strong).map(|(a, b)| a.max(b));
            w_weak = w_weak.zip(weak).map(|(a, b)| a.max(b));
        }
    }
    f.weighted_strong = w_strong.map(f64::to_bits);
    f.weighted_weak = w_weak.map(f64::to_bits);
    f
}

/// Splitmix-style hash of `(seed, i)`.
fn mix(seed: u64, i: usize) -> u64 {
    let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 29)
}

/// A (possibly invalid) carving: every node is dealt to one of `k`
/// clusters or left dead by a hash of `seed`.
fn arb_clusters(g: &Graph, k: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in g.nodes() {
        // k + 1 lanes: the extra lane leaves the node dead.
        let lane = (mix(seed, v.index()) % (k as u64 + 1)) as usize;
        if lane < k {
            clusters[lane].push(v);
        }
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

/// A partition of every node into at most `k` clusters by a hash of
/// `seed` (clusters are often disconnected).
fn partition(g: &Graph, k: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in g.nodes() {
        clusters[(mix(seed, v.index()) % k as u64) as usize].push(v);
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

/// The edge validator's per-cluster fields from first principles: each
/// cluster's `G[C] - cut` built as its own graph, one BFS from every
/// member, and a disconnection violation per cluster some member does
/// not reach. Returns `(connected, max strong diameter, violations)`.
fn edge_reference(
    g: &Graph,
    clusters: &[Vec<NodeId>],
    cut: &HashSet<(NodeId, NodeId)>,
) -> (bool, Option<u32>, Vec<String>) {
    let (mut connected, mut max) = (true, Some(0u32));
    let mut violations = Vec::new();
    for (i, members) in clusters.iter().enumerate() {
        let set = NodeSet::from_nodes(g.n(), members.iter().copied());
        let inside = g
            .edges()
            .filter(|&(u, v)| set.contains(u) && set.contains(v) && !cut.contains(&(u, v)));
        let sub = Graph::from_edges(g.n(), inside.map(|(u, v)| (u.index(), v.index())))
            .expect("a subgraph of a valid graph");
        let view = sub.view(&set);
        let mut ecc = Some(0u32);
        for &s in members {
            let bfs = algo::bfs(&view, [s]);
            if bfs.reached_count() != members.len() {
                ecc = None;
                break;
            }
            ecc = ecc.map(|e| e.max(bfs.eccentricity().unwrap_or(0)));
        }
        match ecc {
            Some(e) => max = max.map(|m| m.max(e)),
            None => {
                connected = false;
                max = None;
                violations.push(format!("cluster {i} disconnected after edge cuts"));
            }
        }
    }
    (connected, max, violations)
}

/// Ball-grown clusters: nodes in hashed order seed hop balls of
/// `radius` grown inside the still-unclustered nodes, so every cluster
/// induces a connected subgraph.
fn ball_clusters(g: &Graph, radius: u32, seed: u64) -> Vec<Vec<NodeId>> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|v| mix(seed, v.index()));
    let mut free = NodeSet::full(g.n());
    let mut clusters = Vec::new();
    let mut ws = TraversalWorkspace::new();
    for s in order {
        if free.contains(s) {
            let ball = algo::bfs_bounded_in(&mut ws, &g.view(&free), [s], radius)
                .order()
                .to_vec();
            for &v in &ball {
                free.remove(v);
            }
            clusters.push(ball);
        }
    }
    clusters
}

/// A weighted test graph: grid, geometric or gnp (`family`), with
/// integer U[1,8], real U[0.1,10] or near-unit real U[1,1.0001] weights
/// (`weights`).
fn weighted_graph(family: u8, weights: u8, n: usize, seed: u64) -> Graph {
    let g = match family {
        0 => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::grid(side, side)
        }
        1 => gen::random_geometric(n, (8.0 / (std::f64::consts::PI * n as f64)).sqrt(), seed)
            .expect("valid geometric parameters"),
        _ => gen::gnp(n, 4.0 / n as f64, seed),
    };
    let dist = match weights {
        0 => gen::WeightDist::UniformInt { lo: 1, hi: 8 },
        1 => gen::WeightDist::Uniform { lo: 0.1, hi: 10.0 },
        _ => gen::WeightDist::Uniform {
            lo: 1.0,
            hi: 1.0001,
        },
    };
    gen::reweight(&g, dist, seed).expect("valid weights")
}

/// Ball-grown (connected) or arbitrary (often disconnected) clusters.
fn clusters_of(g: &Graph, balls: bool, k: usize, seed: u64) -> Vec<Vec<NodeId>> {
    if balls {
        ball_clusters(g, 1 + (k as u32 % 5), seed)
    } else {
        arb_clusters(g, k, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched hop metrics agree with the all-pairs reference on
    /// every cluster of an arbitrary carving — the quantities every
    /// exact validator verdict is made of.
    #[test]
    fn batched_metrics_coincide_with_per_source(
        n in 8usize..72,
        p_mil in 20u64..120,
        k in 2usize..6,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, p_mil as f64 / 1000.0, seed);
        let mut ctx = CarveCtx::new();
        let mut ws = TraversalWorkspace::new();
        for members in arb_clusters(&g, k, seed) {
            let (strong, weak) = reference(&g, &members, &HopOracle, &mut ws);
            let batched_strong = strong_diameter_of_with_in(&g, &members, &HopOracle, &mut ctx);
            prop_assert_eq!(batched_strong, strong, "strong diameter diverges");
            let batched_weak = weak_diameter_of_with_in(&g, &members, &HopOracle, &mut ctx);
            prop_assert_eq!(batched_weak, weak, "weak diameter diverges");
        }
    }

    /// Full validator gate coincidence on arbitrary carvings: verdict
    /// booleans, violation list, and every diameter field must match a
    /// reference report assembled from the all-pairs metrics.
    #[test]
    fn carving_validator_matches_per_source_reference(
        n in 8usize..64,
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, 2.0 / n as f64, seed);
        let clusters = arb_clusters(&g, k, seed);
        prop_assume!(!clusters.is_empty());
        let carving = BallCarving::new(NodeSet::full(g.n()), clusters.clone())
            .expect("lanes are disjoint");
        let report = validate_carving(&g, &carving);

        let mut want = reference_fold(&g, &clusters);
        let mut edge_violations = Vec::new();
        for (u, v) in g.edges() {
            if let (Some(cu), Some(cv)) = (carving.cluster_of(u), carving.cluster_of(v)) {
                if cu != cv {
                    edge_violations.push(format!("edge ({u}, {v}) joins clusters {cu} and {cv}"));
                }
            }
        }
        edge_violations.append(&mut want.violations);

        prop_assert_eq!(report.clusters_connected, want.connected);
        prop_assert_eq!(report.max_strong_diameter, want.strong);
        prop_assert_eq!(report.max_weak_diameter, want.weak);
        // The validator interleaves its violation pushes in the same
        // cluster order, so the lists must coincide exactly.
        prop_assert_eq!(&report.violations, &edge_violations);
    }

    /// Decomposition validator: connectivity verdict and both hop
    /// diameter fields coincide with the all-pairs metrics on arbitrary
    /// colored partitions.
    #[test]
    fn decomposition_validator_matches_per_source_metrics(
        n in 8usize..64,
        k in 2usize..6,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, 2.5 / n as f64, seed);
        let clusters = arb_clusters(&g, k, seed);
        prop_assume!(!clusters.is_empty());
        let d = colored(&g, &clusters);
        let report = validate_decomposition(&g, &d);
        let want = reference_fold(&g, &clusters);
        prop_assert_eq!(report.clusters_connected, want.connected);
        prop_assert_eq!(report.max_strong_diameter, want.strong);
        prop_assert_eq!(report.max_weak_diameter, want.weak);
    }

    /// Edge validator: its connectivity verdict, strong diameter and
    /// violations coincide with an all-pairs BFS on every `G[C] - cut`.
    /// Clusters partition the graph (hashed lanes, often disconnected,
    /// or ball-grown), every inter-cluster edge is cut, and hashed
    /// intra-cluster cuts may disconnect a cluster.
    #[test]
    fn edge_validator_matches_all_pairs_reference(
        n in 8usize..72,
        p_mil in 20u64..150,
        shape in 0u8..2,
        k in 1usize..6,
        cut_every in 2u64..12,
        seed in 0u64..1000,
    ) {
        let g = gen::gnp(n, p_mil as f64 / 1000.0, seed);
        let clusters = match shape {
            0 => partition(&g, k, seed),
            _ => ball_clusters(&g, 1 + k as u32 % 4, seed),
        };
        let mut lane = vec![0usize; g.n()];
        for (i, members) in clusters.iter().enumerate() {
            for &v in members {
                lane[v.index()] = i;
            }
        }
        let cut: HashSet<(NodeId, NodeId)> = g
            .edges()
            .enumerate()
            .filter(|&(i, (u, v))| {
                lane[u.index()] != lane[v.index()] || mix(seed ^ 0xc0ffee, i).is_multiple_of(cut_every)
            })
            .map(|(_, e)| e)
            .collect();
        let ec = EdgeCarving::new(
            NodeSet::full(g.n()),
            clusters.clone(),
            cut.iter().copied().collect(),
        )
        .expect("clusters partition the graph");
        let report = validate_edge_carving(&g, &ec);

        let (connected, strong, violations) = edge_reference(&g, &clusters, &cut);
        prop_assert!(report.separation_ok, "violations: {:?}", report.violations);
        prop_assert_eq!(report.clusters_connected, connected);
        prop_assert_eq!(report.max_strong_diameter, strong);
        prop_assert_eq!(&report.violations, &violations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clusters of hundreds of members, where iFUB's fringe can take
    /// several passes and its eccentricity bounds certify most members:
    /// both hop diameters match the all-pairs reference per cluster, and
    /// the validator's fields (weak sweeps bounded by the strong value)
    /// match the reference fold. Clusters are one giant cluster with
    /// holes, balls of radius 3–12, or the whole graph.
    #[test]
    fn large_clusters_match_all_pairs_reference(
        family in 0u8..5,
        shape in 0u8..3,
        n in 150usize..800,
        radius in 3u32..13,
        seed in 0u64..1000,
    ) {
        let g = large_graph(family, n, seed);
        let clusters = match shape {
            0 => vec![holed_cluster(&g, seed)],
            1 => ball_clusters(&g, radius, seed),
            _ => vec![g.nodes().collect()],
        };
        prop_assume!(clusters.iter().all(|c| !c.is_empty()));
        let mut ctx = CarveCtx::new();
        let mut ws = TraversalWorkspace::new();
        let (mut strong_max, mut weak_max) = (Some(0u32), Some(0u32));
        for members in &clusters {
            let (strong, weak) = reference(&g, members, &HopOracle, &mut ws);
            let got = strong_diameter_of_with_in(&g, members, &HopOracle, &mut ctx);
            prop_assert_eq!(got, strong, "strong diameter of {} members", members.len());
            let got = weak_diameter_of_with_in(&g, members, &HopOracle, &mut ctx);
            prop_assert_eq!(got, weak, "weak diameter of {} members", members.len());
            strong_max = strong_max.zip(strong).map(|(a, b)| a.max(b as u32));
            weak_max = weak_max.zip(weak).map(|(a, b)| a.max(b as u32));
        }
        let carving = BallCarving::new(NodeSet::full(g.n()), clusters)
            .expect("clusters are disjoint");
        let report = validate_carving(&g, &carving);
        prop_assert_eq!(report.max_strong_diameter, strong_max);
        prop_assert_eq!(report.max_weak_diameter, weak_max);
    }
}

proptest! {
    // About one weighted check in 200 needs the reverse-pair step (most
    // of them on real-weight grids), so these run enough cases to catch
    // a sweep that skips it.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The weighted metrics match the all-pairs reference bit for bit on
    /// grids, geometric and gnp graphs, under integer, real and
    /// near-unit real weights, on ball-grown and arbitrary clusters.
    #[test]
    fn weighted_metrics_match_all_pairs_reference(
        family in 0u8..3,
        weights in 0u8..3,
        balls in prop::bool::ANY,
        n in 16usize..160,
        k in 2usize..7,
        seed in 0u64..1000,
    ) {
        let g = weighted_graph(family, weights, n, seed);
        let mut ctx = CarveCtx::new();
        let mut ws = TraversalWorkspace::new();
        for members in clusters_of(&g, balls, k, seed) {
            let (strong, weak) = reference(&g, &members, &WeightedOracle, &mut ws);
            let got = strong_diameter_of_with_in(&g, &members, &WeightedOracle, &mut ctx);
            prop_assert_eq!(got.map(f64::to_bits), strong.map(f64::to_bits), "strong {:?} vs {:?}", got, strong);
            let got = weak_diameter_of_with_in(&g, &members, &WeightedOracle, &mut ctx);
            prop_assert_eq!(got.map(f64::to_bits), weak.map(f64::to_bits), "weak {:?} vs {:?}", got, weak);
        }
    }

    /// Every diameter field of both validators (the weighted ones by
    /// bits) matches the all-pairs reference fold on weighted inputs.
    #[test]
    fn weighted_validator_fields_match_all_pairs_reference(
        family in 0u8..3,
        weights in 0u8..3,
        balls in prop::bool::ANY,
        n in 16usize..160,
        k in 2usize..7,
        seed in 0u64..1000,
    ) {
        let g = weighted_graph(family, weights, n, seed);
        let clusters = clusters_of(&g, balls, k, seed);
        prop_assume!(!clusters.is_empty());
        let want = reference_fold(&g, &clusters);
        let bits = |d: Option<f64>| d.map(f64::to_bits);

        let carving = BallCarving::new(NodeSet::full(g.n()), clusters.clone())
            .expect("clusters are disjoint");
        let report = validate_carving(&g, &carving);
        prop_assert_eq!(report.clusters_connected, want.connected);
        prop_assert_eq!(report.max_strong_diameter, want.strong);
        prop_assert_eq!(report.max_weak_diameter, want.weak);
        prop_assert_eq!(bits(report.weighted_strong_diameter), want.weighted_strong);
        prop_assert_eq!(bits(report.weighted_weak_diameter), want.weighted_weak);

        let d = colored(&g, &clusters);
        let report = validate_decomposition(&g, &d);
        prop_assert_eq!(report.clusters_connected, want.connected);
        prop_assert_eq!(report.max_strong_diameter, want.strong);
        prop_assert_eq!(report.max_weak_diameter, want.weak);
        prop_assert_eq!(bits(report.weighted_strong_diameter), want.weighted_strong);
        prop_assert_eq!(bits(report.weighted_weak_diameter), want.weighted_weak);
    }
}

/// A hop test graph of `n` nodes: grid, geometric, connected gnp,
/// disconnected gnp or 4-regular (`family`).
fn large_graph(family: u8, n: usize, seed: u64) -> Graph {
    match family {
        0 => {
            let side = (n as f64).sqrt() as usize;
            gen::grid(side, n / side)
        }
        1 => gen::random_geometric(n, (8.0 / (std::f64::consts::PI * n as f64)).sqrt(), seed)
            .expect("valid geometric parameters"),
        2 => gen::gnp_connected(n, 6.0 / n as f64, seed),
        3 => gen::gnp(n, 1.5 / n as f64, seed),
        _ => gen::random_regular_connected(n, 4, seed).expect("4-regular graph generates"),
    }
}

/// One giant cluster with holes: the largest component left after
/// removing the radius-2 balls around four hashed centers, so its
/// `G[C]` paths detour around the holes.
fn holed_cluster(g: &Graph, seed: u64) -> Vec<NodeId> {
    let mut free = NodeSet::full(g.n());
    let mut ws = TraversalWorkspace::new();
    for k in 0..4 {
        let center = NodeId::new((mix(seed, k) % g.n() as u64) as usize);
        for &v in algo::bfs_bounded_in(&mut ws, &g.full_view(), [center], 2).order() {
            free.remove(v);
        }
    }
    let parts = algo::connected_components(&g.view(&free));
    (0..parts.count())
        .max_by_key(|&c| parts.size(c))
        .map_or_else(Vec::new, |c| parts.members(c).iter().collect())
}

/// The clusters as a decomposition with three round-robin colors (color
/// separation is not what these tests check).
fn colored(g: &Graph, clusters: &[Vec<NodeId>]) -> NetworkDecomposition {
    let covered = NodeSet::from_nodes(g.n(), clusters.iter().flatten().copied());
    let colored: Vec<(Vec<NodeId>, u32)> = clusters
        .iter()
        .enumerate()
        .map(|(i, c)| (c.clone(), (i % 3) as u32))
        .collect();
    NetworkDecomposition::new(&covered, colored).expect("disjoint")
}
