//! CONGEST-compliance tests: every algorithm claiming the CONGEST model
//! must keep all messages within `B(n) = Theta(log n)` bits, while the
//! LOCAL baseline must demonstrably exceed it (that's its point).

use sdnd::baselines::{Abcp96, Mpx13, SequentialGreedy};
use sdnd::core::Params;
use sdnd::prelude::*;
use sdnd::weak::{Ls93, Rg20};
use sdnd_graph::gen;

fn budget(n: usize) -> CostModel {
    CostModel::congest_for(n)
}

#[test]
fn congest_algorithms_fit_the_budget() {
    let g = gen::grid(8, 8);
    let alive = NodeSet::full(g.n());
    let cost = budget(g.n());

    let mut checks: Vec<(&str, RoundLedger)> = Vec::new();

    let mut l = RoundLedger::new();
    let _ = Rg20::rg20().carve_weak(&g, &alive, 0.5, &mut l);
    checks.push(("rg20", l));

    let mut l = RoundLedger::new();
    let _ = Rg20::ggr21().carve_weak(&g, &alive, 0.5, &mut l);
    checks.push(("ggr21", l));

    let mut l = RoundLedger::new();
    let _ = Ls93::new(3).carve_weak(&g, &alive, 0.5, &mut l);
    checks.push(("ls93", l));

    let mut l = RoundLedger::new();
    let _ = Mpx13::new(3).carve_strong(&g, &alive, 0.5, &mut l);
    checks.push(("mpx13", l));

    let mut l = RoundLedger::new();
    let _ = SequentialGreedy::new().carve_strong(&g, &alive, 0.5, &mut l);
    checks.push(("ls93-sequential", l));

    let (_, l) = sdnd::core::decompose_strong(&g, &Params::default());
    checks.push(("cg21-thm2.3", l));

    let (_, l) = sdnd::core::decompose_strong_improved(&g, &Params::default());
    checks.push(("cg21-thm3.4", l));

    for (name, ledger) in checks {
        assert!(
            ledger.complies_with(&cost),
            "{name}: {} bits exceeds budget {}",
            ledger.max_message_bits(),
            cost.bits_per_message()
        );
    }
}

#[test]
fn local_baseline_exceeds_the_budget() {
    let g = gen::grid(8, 8);
    let alive = NodeSet::full(g.n());
    let mut l = RoundLedger::new();
    let _ = Abcp96::new().carve_strong(&g, &alive, 0.5, &mut l);
    assert!(
        !l.complies_with(&budget(g.n())),
        "ABCP96 is supposed to need LOCAL-sized messages; got only {} bits",
        l.max_message_bits()
    );
}

#[test]
fn budget_grows_logarithmically() {
    let b1 = budget(1 << 8).bits_per_message();
    let b2 = budget(1 << 16).bits_per_message();
    let b3 = budget(1 << 24).bits_per_message();
    assert!(b1 < b2 && b2 < b3);
    // Doubling the exponent roughly doubles the budget minus constants.
    assert!((b3 - b2) as i64 - (b2 - b1) as i64 <= 8);
}

#[test]
fn kernel_enforces_budget_at_runtime() {
    use sdnd::congest::{primitives, Engine};
    // The engine hard-fails oversized messages; the BFS kernel on a tiny
    // budget must error out.
    let g = gen::grid(4, 4);
    let view = g.full_view();
    let kernel = primitives::BfsKernel::new(&view, [NodeId::new(0)], u32::MAX);
    let tiny = Engine::new(CostModel::congest(1));
    assert!(tiny.run(&view, &kernel).is_err());
    let fine = Engine::new(CostModel::congest_for(16));
    assert!(fine.run(&view, &kernel).is_ok());
}
