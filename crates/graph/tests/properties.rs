//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use sdnd_graph::algo::{bfs_bounded_in, bfs_in, bfs_to_in, BfsRun, TraversalWorkspace, UNREACHED};
use sdnd_graph::{algo, gen, Adjacency, Graph, NodeId, NodeSet};
use std::collections::VecDeque;

/// Strategy: a random simple graph as an edge list over `n` nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..(n * 2));
        edges.prop_map(move |raw| {
            let filtered: Vec<(usize, usize)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, filtered).expect("filtered edges are valid")
        })
    })
}

/// Everything a hop traversal reports, as a textbook queue BFS computes
/// it: sources in the given order (outside the view or repeated ones
/// skipped), neighbours in view order, no expansion at `max_dist`, and a
/// stop right after the last target is discovered.
#[derive(Debug, PartialEq)]
struct Reference {
    dist: Vec<u32>,
    parent: Vec<Option<NodeId>>,
    order: Vec<NodeId>,
    layer_sizes: Vec<usize>,
    ball_sizes: Vec<usize>,
    eccentricity: Option<u32>,
}

fn reference_bfs<A: Adjacency>(
    view: &A,
    sources: &[NodeId],
    max_dist: u32,
    targets: Option<&NodeSet>,
) -> Reference {
    let n = view.universe();
    let mut dist = vec![UNREACHED; n];
    let mut parent = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    let mut remaining = targets.map_or(usize::MAX, NodeSet::len);
    for &s in sources {
        if view.contains(s) && dist[s.index()] == UNREACHED {
            dist[s.index()] = 0;
            order.push(s);
            queue.push_back(s);
            if targets.is_some_and(|t| t.contains(s)) {
                remaining -= 1;
            }
        }
    }
    'bfs: while remaining > 0 {
        let Some(u) = queue.pop_front() else { break };
        let du = dist[u.index()];
        if du >= max_dist {
            continue;
        }
        for v in view.neighbors(u) {
            if dist[v.index()] == UNREACHED {
                dist[v.index()] = du + 1;
                parent[v.index()] = Some(u);
                order.push(v);
                queue.push_back(v);
                if targets.is_some_and(|t| t.contains(v)) {
                    remaining -= 1;
                    if remaining == 0 {
                        break 'bfs;
                    }
                }
            }
        }
    }
    let mut layer_sizes = Vec::new();
    for &v in &order {
        let d = dist[v.index()] as usize;
        if layer_sizes.len() <= d {
            layer_sizes.resize(d + 1, 0);
        }
        layer_sizes[d] += 1;
    }
    let ball_sizes = layer_sizes
        .iter()
        .scan(0, |acc, &s| {
            *acc += s;
            Some(*acc)
        })
        .collect();
    let eccentricity = order.iter().map(|v| dist[v.index()]).max();
    Reference {
        dist,
        parent,
        order,
        layer_sizes,
        ball_sizes,
        eccentricity,
    }
}

/// The reference fields read back from a workspace run.
fn read_run(run: BfsRun<'_>, n: usize) -> Reference {
    Reference {
        dist: (0..n).map(|i| run.dist(NodeId::new(i))).collect(),
        parent: (0..n).map(|i| run.parent(NodeId::new(i))).collect(),
        order: run.order().to_vec(),
        layer_sizes: run.layer_sizes().to_vec(),
        ball_sizes: run.ball_sizes().to_vec(),
        eccentricity: run.eccentricity(),
    }
}

/// Runs the three entry points on `view` against [`reference_bfs`]:
/// cut-offs 0, 1, `cut` and `u32::MAX`; an empty and a seeded target set
/// (members outside the view included); and a target set whose last
/// member is discovered mid-layer, which ends the run on a partial last
/// layer.
fn check_bfs_entry_points<A: Adjacency>(
    view: &A,
    ws: &mut TraversalWorkspace,
    sources: &[NodeId],
    cut: u32,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = view.universe();
    let src = || sources.iter().copied();
    let full = reference_bfs(view, sources, u32::MAX, None);
    prop_assert_eq!(&read_run(bfs_in(ws, view, src()), n), &full, "bfs_in");
    for bound in [0, 1, cut, u32::MAX] {
        let want = reference_bfs(view, sources, bound, None);
        let got = read_run(bfs_bounded_in(ws, view, src(), bound), n);
        prop_assert_eq!(got, want, "bfs_bounded_in at {}", bound);
    }

    let mut target_sets = vec![
        NodeSet::empty(n),
        NodeSet::from_nodes(
            n,
            (0..n)
                .filter(|&i| (seed >> (i % 32)) & 3 == 0)
                .map(NodeId::new),
        ),
    ];
    // The full run's node at a seeded index whose successor in the order
    // shares its layer, plus one seeded earlier node.
    let d = |k: usize| full.dist[full.order[k].index()];
    let mid: Vec<usize> = (0..full.order.len().saturating_sub(1))
        .filter(|&k| d(k) > 0 && d(k) == d(k + 1))
        .collect();
    if !mid.is_empty() {
        let k = mid[seed as usize % mid.len()];
        let earlier = full.order[(seed >> 8) as usize % (k + 1)];
        let targets = NodeSet::from_nodes(n, [earlier, full.order[k]]);
        let want = reference_bfs(view, sources, u32::MAX, Some(&targets));
        let layer = d(k) as usize;
        prop_assert_eq!(
            want.layer_sizes.len(),
            layer + 1,
            "stops on the last target's layer"
        );
        prop_assert!(
            want.layer_sizes[layer] < full.layer_sizes[layer],
            "stops mid-layer"
        );
        target_sets.push(targets);
    }
    for targets in &target_sets {
        let want = reference_bfs(view, sources, u32::MAX, Some(targets));
        let got = read_run(bfs_to_in(ws, view, src(), targets), n);
        prop_assert_eq!(got, want, "bfs_to_in to {:?}", targets);
    }
    Ok(())
}

/// A graph, an alive mask, sources, a cut-off and a seed.
type BfsCase = (Graph, NodeSet, Vec<NodeId>, u32, u64);

/// Strategy: a random graph, a random alive mask, source picks (repeats
/// and nodes outside the view allowed), a random cut-off and a seed.
fn arb_bfs_case() -> impl Strategy<Value = BfsCase> {
    (arb_graph(), 0u64..1 << 32).prop_flat_map(|(g, seed)| {
        let n = g.n();
        (
            prop::collection::vec(prop::bool::ANY, n),
            prop::collection::vec(0..n, 1..4),
            0u32..8,
        )
            .prop_map(move |(mask, picks, cut)| {
                // Roughly three of four nodes alive.
                let alive = NodeSet::from_nodes(
                    n,
                    (0..n).filter(|&i| mask[i] || i % 2 == 0).map(NodeId::new),
                );
                let sources = picks.into_iter().map(NodeId::new).collect();
                (g.clone(), alive, sources, cut, seed)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `bfs_in`, `bfs_bounded_in` and `bfs_to_in` report exactly what a
    /// textbook queue BFS does, on full and subset views alike.
    #[test]
    fn bfs_entry_points_match_a_reference_bfs(case in arb_bfs_case()) {
        let (g, alive, sources, cut, seed) = case;
        let mut ws = TraversalWorkspace::new();
        check_bfs_entry_points(&g.full_view(), &mut ws, &sources, cut, seed)?;
        check_bfs_entry_points(&g.view(&alive), &mut ws, &sources, cut, seed)?;
    }

    #[test]
    fn csr_roundtrip_preserves_edges(g in arb_graph()) {
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        let g2 = Graph::from_edges(g.n(), edges.iter().copied()).unwrap();
        prop_assert_eq!(&g, &g2);
        // Degree sums to 2m.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        // Adjacency is symmetric.
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_inequality_on_edges(g in arb_graph()) {
        let view = g.full_view();
        let src = NodeId::new(0);
        let bfs = algo::bfs(&view, [src]);
        for (u, v) in g.edges() {
            if bfs.reached(u) && bfs.reached(v) {
                let (du, dv) = (bfs.dist(u) as i64, bfs.dist(v) as i64);
                prop_assert!((du - dv).abs() <= 1, "edge ({u},{v}): |{du}-{dv}| > 1");
            }
            // Reachability is edge-closed.
            prop_assert_eq!(bfs.reached(u), bfs.reached(v));
        }
    }

    #[test]
    fn pairwise_distances_are_a_metric(g in arb_graph()) {
        let d = algo::pairwise_distances_in(&g.full_view(), &mut TraversalWorkspace::new());
        let n = g.n();
        for (u, row) in d.iter().enumerate() {
            prop_assert_eq!(row[u], 0);
            for (v, &duv) in row.iter().enumerate() {
                prop_assert_eq!(duv, d[v][u]);
            }
        }
        // Triangle inequality through any finite intermediate.
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    let (a, b, c) = (d[u][w], d[u][v], d[v][w]);
                    if b != u32::MAX && c != u32::MAX {
                        prop_assert!(a <= b + c);
                    }
                }
            }
        }
    }

    #[test]
    fn components_partition_the_nodes(g in arb_graph()) {
        let comps = algo::connected_components(&g.full_view());
        let total: usize = comps.sizes().iter().sum();
        prop_assert_eq!(total, g.n());
        // Edge endpoints always share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(comps.label(u), comps.label(v));
        }
    }

    #[test]
    fn induced_subgraph_is_consistent_with_view(g in arb_graph(), mask in prop::collection::vec(prop::bool::ANY, 40)) {
        let alive = NodeSet::from_nodes(
            g.n(),
            g.nodes().filter(|v| mask.get(v.index()).copied().unwrap_or(false)),
        );
        let view = g.view(&alive);
        let ind = algo::induced_subgraph(&view);
        prop_assert_eq!(ind.graph().n(), alive.len());
        // Edge counts agree with the filtered view.
        let view_edges: usize = alive.iter().map(|v| view.neighbors(v).count()).sum::<usize>() / 2;
        prop_assert_eq!(ind.graph().m(), view_edges);
        // Mappings invert each other.
        for i in 0..ind.graph().n() {
            let orig = ind.original_of(NodeId::new(i));
            prop_assert_eq!(ind.compact_of(orig), Some(NodeId::new(i)));
        }
    }

    #[test]
    fn power_graph_contracts_distances(g in arb_graph(), k in 1u32..4) {
        let mut ws = TraversalWorkspace::new();
        let d1 = algo::pairwise_distances_in(&g.full_view(), &mut ws);
        let gk = algo::power_graph(&g.full_view(), k);
        let dk = algo::pairwise_distances_in(&gk.full_view(), &mut ws);
        for u in 0..g.n() {
            for v in 0..g.n() {
                if u == v { continue; }
                match (d1[u][v], dk[u][v]) {
                    (u32::MAX, got) => prop_assert_eq!(got, u32::MAX),
                    (orig, got) => prop_assert_eq!(got, orig.div_ceil(k)),
                }
            }
        }
    }

    #[test]
    fn subdivision_scales_adjacent_distances(g in arb_graph(), len in 2usize..5) {
        let s = gen::subdivide(&g, len);
        prop_assert_eq!(s.n(), g.n() + g.m() * (len - 1));
        prop_assert_eq!(s.m(), g.m() * len);
        let ds = algo::pairwise_distances_in(&s.full_view(), &mut TraversalWorkspace::new());
        for (u, v) in g.edges() {
            prop_assert_eq!(ds[u.index()][v.index()], len as u32);
        }
    }

    #[test]
    fn nodeset_operations_match_reference(
        a in prop::collection::hash_set(0usize..64, 0..32),
        b in prop::collection::hash_set(0usize..64, 0..32),
    ) {
        let sa = NodeSet::from_nodes(64, a.iter().map(|&i| NodeId::new(i)));
        let sb = NodeSet::from_nodes(64, b.iter().map(|&i| NodeId::new(i)));

        let mut union = sa.clone();
        union.union_with(&sb);
        prop_assert_eq!(union.len(), a.union(&b).count());

        let mut inter = sa.clone();
        inter.intersect(&sb);
        prop_assert_eq!(inter.len(), a.intersection(&b).count());

        let mut diff = sa.clone();
        diff.subtract(&sb);
        prop_assert_eq!(diff.len(), a.difference(&b).count());

        prop_assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(&b));
    }

    #[test]
    fn two_sweep_never_exceeds_exact_diameter(g in arb_graph()) {
        let view = g.full_view();
        let mut ws = TraversalWorkspace::new();
        if let (Some(exact), Some(ts)) = (
            algo::diameter_exact_in(&view, &mut ws),
            algo::diameter_two_sweep_in(&view, &mut ws),
        ) {
            prop_assert!(ts <= exact);
        }
    }

    #[test]
    fn serde_roundtrips(g in arb_graph()) {
        // Graphs and node sets are data structures (C-SERDE); a
        // serialize/deserialize cycle must be the identity.
        let json = serde_json::to_string(&g).expect("serializable");
        let back: Graph = serde_json::from_str(&json).expect("deserializable");
        prop_assert_eq!(back, g.clone());

        let set = NodeSet::from_nodes(g.n(), g.nodes().take(3));
        let json = serde_json::to_string(&set).expect("serializable");
        let back: NodeSet = serde_json::from_str(&json).expect("deserializable");
        prop_assert_eq!(back, set);
    }
}

#[test]
fn generators_have_documented_shapes() {
    assert_eq!(gen::grid(5, 7).m(), 4 * 7 + 5 * 6);
    assert_eq!(gen::hypercube(5).m(), 5 * 16);
    assert_eq!(gen::balanced_tree(3, 3).n(), 1 + 3 + 9);
    assert_eq!(gen::caterpillar(4, 3).n(), 16);
    let t = gen::random_tree(33, 9);
    assert_eq!(t.m(), 32);
    assert!(algo::is_connected(&t.full_view()));
}
