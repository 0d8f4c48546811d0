//! Property-based cross-validation of the simulator's two execution
//! levels: on random graphs, random sources, and random radius bounds,
//! the message-passing kernel and the fast path must agree **exactly** —
//! same outputs, same round counts, same message statistics. This is
//! the load-bearing guarantee that lets the algorithm crates compose
//! fast paths without leaving the CONGEST model.
//!
//! Kernels run through a per-case [`EngineSession`] and are additionally
//! checked against a fresh-engine run, so the suite also pins that arena
//! reuse never changes an outcome.

use proptest::prelude::*;
use sdnd_congest::{primitives, CostModel, Engine, EngineSession, Protocol, RoundLedger};
use sdnd_graph::algo::TraversalWorkspace;
use sdnd_graph::{Adjacency, Graph, NodeId, NodeSet};

/// Runs `kernel` on `session` and on a fresh engine, asserts the two
/// outcomes are bit-identical, and returns the session one.
fn run_both<A, P>(
    session: &mut EngineSession<'_>,
    view: &A,
    kernel: &P,
) -> sdnd_congest::RunOutcome<P::State>
where
    A: Adjacency,
    P: Protocol + Sync,
    P::State: Send + PartialEq + std::fmt::Debug,
    P::Msg: Send + Sync + 'static,
{
    let fresh = session
        .engine()
        .run(view, kernel)
        .expect("fresh kernel run succeeds");
    let out = session
        .run(view, kernel)
        .expect("session kernel run succeeds");
    assert_eq!(out.rounds, fresh.rounds, "session vs fresh rounds");
    assert_eq!(out.ledger, fresh.ledger, "session vs fresh ledger");
    assert_eq!(out.states, fresh.states, "session vs fresh states");
    out
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..30).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..(n * 3));
        edges.prop_map(move |raw| {
            let filtered: Vec<(usize, usize)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, filtered).expect("valid edges")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_kernel_matches_fast_path(g in arb_graph(), src in 0usize..30, r_max in 0u32..8) {
        let src = NodeId::new(src % g.n());
        let view = g.full_view();

        let mut ledger = RoundLedger::new();
        let fast = primitives::bfs(&view, [src], r_max, &mut ledger);

        let kernel = primitives::BfsKernel::new(&view, [src], r_max);
        let mut session = Engine::new(CostModel::congest_for(g.n())).session(&g);
        let out = run_both(&mut session, &view, &kernel);

        for i in 0..g.n() {
            let v = NodeId::new(i);
            let kdist = out.states[i].as_ref().and_then(|s| s.dist);
            let fdist = fast.reached(v).then(|| fast.dist(v));
            prop_assert_eq!(kdist, fdist, "dist at {}", v);
            let kparent = out.states[i].as_ref().and_then(|s| s.parent);
            prop_assert_eq!(kparent, fast.parent(v), "parent at {}", v);
        }
        prop_assert_eq!(out.rounds, ledger.rounds(), "rounds");
        prop_assert_eq!(out.ledger.messages(), ledger.messages(), "messages");
        prop_assert_eq!(out.ledger.total_bits(), ledger.total_bits(), "bits");
    }

    #[test]
    fn leader_kernel_matches_fast_path(
        g in arb_graph(),
        ids in 0u8..3,
        seed in 0u64..1 << 16,
        subset in prop::bool::ANY,
    ) {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let n = g.n() as u64;
        let g = match ids {
            0 => g,
            1 => g.with_ids((0..n).map(|i| (n - i) * 5 + 2).collect()).expect("injective"),
            _ => {
                let mut perm: Vec<u64> = (0..n).collect();
                perm.shuffle(&mut rng);
                g.with_ids(perm).expect("a permutation is injective")
            }
        };
        // A subset view drops about a quarter of the nodes: the survivors
        // fall into several components, some of them isolated nodes.
        let alive = if subset {
            NodeSet::from_nodes(g.n(), g.nodes().filter(|_| rng.gen_bool(0.75)))
        } else {
            NodeSet::full(g.n())
        };
        if alive.is_empty() {
            return Ok(());
        }
        let view = g.view(&alive);

        let mut ledger = RoundLedger::new();
        let fast = primitives::elect_leader(&view, &mut ledger);

        let kernel = primitives::LeaderKernel::new(&view);
        let mut session = Engine::new(CostModel::congest_for(g.n())).session(&g);
        let out = run_both(&mut session, &view, &kernel);

        for v in alive.iter() {
            let ks = out.states[v.index()].as_ref().expect("alive");
            prop_assert_eq!(Some(ks.id), fast.leader_id_at(v), "id at {}", v);
            prop_assert_eq!(ks.dist, fast.dist(v), "dist at {}", v);
            prop_assert_eq!(ks.parent, fast.parent(v), "parent at {}", v);
        }
        prop_assert_eq!(out.rounds, ledger.rounds(), "rounds");
        prop_assert_eq!(out.ledger.messages(), ledger.messages(), "messages");
        prop_assert_eq!(out.ledger.total_bits(), ledger.total_bits(), "bits");
    }

    #[test]
    fn census_kernel_matches_fast_path(g in arb_graph(), src in 0usize..30) {
        let src = NodeId::new(src % g.n());
        let view = g.full_view();

        let mut ws = TraversalWorkspace::new();
        let mut full = RoundLedger::new();
        let census = primitives::layer_census_in(&view, src, u32::MAX, &mut full, &mut ws);

        // Kernel: BFS first (validated above), then the pipelined upcast —
        // both kernels (distinct message types) share one session, which
        // is exactly the repeated-run pattern sessions exist for.
        let mut session = Engine::new(CostModel::congest_for(g.n())).session(&g);
        let bfs_kernel = primitives::BfsKernel::new(&view, [src], u32::MAX);
        run_both(&mut session, &view, &bfs_kernel);
        let mut bfs_ledger = RoundLedger::new();
        let bfs = primitives::bfs(&view, [src], u32::MAX, &mut bfs_ledger);
        let dists: Vec<u32> = (0..g.n())
            .map(|i| {
                let v = NodeId::new(i);
                if bfs.reached(v) { bfs.dist(v) } else { u32::MAX }
            })
            .collect();
        let kernel = primitives::CensusKernel::new(
            &dists,
            bfs.parents(),
            sdnd_congest::bits_for_value(g.n() as u64),
        );
        let out = run_both(&mut session, &view, &kernel);

        let root_counts = &out.states[src.index()].as_ref().expect("root alive").counts;
        let census_counts: Vec<u64> = census.layer_sizes().iter().map(|&c| c as u64).collect();
        prop_assert_eq!(root_counts, &census_counts);
        let upcast_rounds = full.rounds() - bfs_ledger.rounds();
        prop_assert_eq!(out.rounds, upcast_rounds, "upcast rounds");
    }

    #[test]
    fn converge_cast_kernel_matches_fast_path(g in arb_graph(), src in 0usize..30) {
        let src = NodeId::new(src % g.n());
        let view = g.full_view();
        let mut scratch = RoundLedger::new();
        let bfs = primitives::bfs(&view, [src], u32::MAX, &mut scratch);
        let values: Vec<u64> = (0..g.n() as u64).map(|i| i % 5 + 1).collect();
        let bits = sdnd_congest::bits_for_value(values.iter().sum());

        let mut ledger = RoundLedger::new();
        let fast = primitives::converge_cast_sum(&view, src, bfs.parents(), &values, bits, &mut ledger);

        let kernel = primitives::ConvergeCastKernel::new(g.n(), src, bfs.parents(), &values, bits);
        let mut session = Engine::new(CostModel::congest_for(g.n())).session(&g);
        let out = run_both(&mut session, &view, &kernel);
        let kernel_sum = out.states[src.index()].as_ref().expect("root alive").acc;

        prop_assert_eq!(fast, kernel_sum);
        prop_assert_eq!(out.rounds, ledger.rounds());
        prop_assert_eq!(out.ledger.messages(), ledger.messages());
    }

    #[test]
    fn kernel_agreement_holds_on_subset_views(g in arb_graph(), mask_seed in 0u64..64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mask_seed);
        let alive = NodeSet::from_nodes(g.n(), g.nodes().filter(|_| rng.gen_bool(0.75)));
        if alive.is_empty() {
            return Ok(());
        }
        let view = g.view(&alive);
        let src = alive.iter().next().expect("nonempty");

        let mut ledger = RoundLedger::new();
        let fast = primitives::bfs(&view, [src], u32::MAX, &mut ledger);

        let kernel = primitives::BfsKernel::new(&view, [src], u32::MAX);
        let mut session = Engine::new(CostModel::congest_for(g.n())).session(&g);
        let out = run_both(&mut session, &view, &kernel);

        for v in alive.iter() {
            let kdist = out.states[v.index()].as_ref().and_then(|s| s.dist);
            let fdist = fast.reached(v).then(|| fast.dist(v));
            prop_assert_eq!(kdist, fdist);
        }
        prop_assert_eq!(out.rounds, ledger.rounds());
    }
}
