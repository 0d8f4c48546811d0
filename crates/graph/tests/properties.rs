//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use sdnd_graph::algo::TraversalWorkspace;
use sdnd_graph::{algo, gen, Adjacency, Graph, NodeId, NodeSet};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
