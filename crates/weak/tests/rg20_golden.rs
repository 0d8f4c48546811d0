//! Golden pins for the RG20 / GGR21 weak carver.
//!
//! Each case carves a fixed input and compares a digest of the output
//! (clusters and Steiner forest) plus the full ledger — messages, total
//! and largest message bits, and charged rounds — against pinned values.
//! The digests and traffic were recorded from the hash-map implementation
//! that preceded the dense run state, the rounds once the tree rebuild
//! charged them deterministically; the carve-grid rows were recorded
//! before the entry-depth map became per-node lists and the hop BFS
//! tested stamps first. A change to the carver meant as a pure refactor
//! or speed-up must keep every row.

use sdnd_clustering::{WeakCarver, WeakCarving};
use sdnd_congest::RoundLedger;
use sdnd_graph::{gen, Graph, NodeId, NodeSet};
use sdnd_weak::Rg20;

/// `(digest, messages, total_bits, max_message_bits, rounds)`.
type Pin = (u64, u64, u64, u32, u64);

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of the clusters (in output order) and every tree's root and
/// `(node, parent)` pairs in attach order.
fn digest(wc: &WeakCarving) -> u64 {
    let mut h = Fnv::new();
    let clusters = wc.carving().clusters();
    h.word(clusters.len() as u64);
    for c in clusters {
        h.word(c.len() as u64);
        for v in c {
            h.word(v.index() as u64);
        }
    }
    for t in wc.forest().trees() {
        h.word(t.root().index() as u64);
        h.word(t.len() as u64);
        for (v, p) in t.parent_pairs() {
            h.word(v.index() as u64);
            h.word(p.index() as u64);
        }
    }
    h.0
}

/// Theorem 2.1's default inner boundary `eps / (2 ceil(log2 n))` at
/// `eps = 1/2`: the value every weak carving inside a decomposition uses.
fn inner_eps(n: usize) -> f64 {
    0.5 / (2.0 * (n.max(2) as f64).log2().ceil())
}

fn geometric(n: usize, deg: f64, seed: u64) -> Graph {
    let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
    gen::random_geometric(n, r, seed).expect("valid geometric parameters")
}

/// The pinned inputs: name, graph, alive set.
fn inputs() -> Vec<(&'static str, Graph, NodeSet)> {
    let full = |g: Graph| {
        let alive = NodeSet::full(g.n());
        (g, alive)
    };
    let grid = full(gen::grid(32, 32));
    let gnp = full(gen::gnp_connected(600, 8.0 / 600.0, 11));
    let geo = full(geometric(1500, 12.0, 5));
    let exp = full(gen::random_regular_connected(512, 4, 9).expect("expander generates"));
    let rev = {
        let g = gen::grid(24, 24);
        let ids = (0..g.n() as u64).rev().collect();
        full(
            g.with_ids(ids)
                .expect("a permutation is a valid id assignment"),
        )
    };
    let subset = {
        let g = gen::grid(30, 30);
        let alive = NodeSet::from_nodes(g.n(), (0..g.n()).filter(|i| i % 7 != 3).map(NodeId::new));
        (g, alive)
    };
    vec![
        ("grid-32x32", grid.0, grid.1),
        ("gnp-600", gnp.0, gnp.1),
        ("geometric-1500", geo.0, geo.1),
        ("expander-512", exp.0, exp.1),
        ("reversed-ids-24x24", rev.0, rev.1),
        ("alive-subset-30x30", subset.0, subset.1),
    ]
}

fn carve(carver: &Rg20, g: &Graph, alive: &NodeSet, eps: f64) -> Pin {
    let mut ledger = RoundLedger::new();
    let wc = carver.carve_weak(g, alive, eps, &mut ledger);
    (
        digest(&wc),
        ledger.messages(),
        ledger.total_bits(),
        ledger.max_message_bits(),
        ledger.rounds(),
    )
}

/// Rows in `inputs()` order; per input: rg20 at 1/2, rg20 at the inner
/// eps, ggr21 at 1/2, ggr21 at the inner eps.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, Pin)] = &[
    ("grid-32x32", "rg20@0.50000", (0xb0af0e9380032c96, 166196, 3097960, 20, 47318)),
    ("grid-32x32", "rg20@0.02500", (0xb9caf3e850aac787, 271228, 5102680, 20, 89590)),
    ("grid-32x32", "ggr21@0.50000", (0xb0af0e9380032c96, 175499, 3284020, 20, 49870)),
    ("grid-32x32", "ggr21@0.02500", (0xb9caf3e850aac787, 279804, 5274200, 20, 93276)),
    ("gnp-600", "rg20@0.50000", (0xde5f72f92ac57fd8, 32954, 432630, 20, 348)),
    ("gnp-600", "rg20@0.02500", (0x7758ac830d276b4f, 34360, 459800, 20, 434)),
    ("gnp-600", "ggr21@0.50000", (0xc20cb670a1f27228, 34699, 467530, 20, 496)),
    ("gnp-600", "ggr21@0.02500", (0x6e58073fc56fbdee, 36637, 505340, 20, 624)),
    ("geometric-1500", "rg20@0.50000", (0x70fa78fa5dabd000, 144351, 2273524, 22, 5622)),
    ("geometric-1500", "rg20@0.02273", (0xd549796bf27a1914, 231937, 4058439, 22, 15346)),
    ("geometric-1500", "ggr21@0.50000", (0xe63ada70eb9de4c5, 148975, 2375252, 22, 5832)),
    ("geometric-1500", "ggr21@0.02273", (0x4d1df5ca69894cd1, 239366, 4221877, 22, 15758)),
    ("expander-512", "rg20@0.50000", (0xa41910f0031f78fe, 26805, 379458, 18, 1822)),
    ("expander-512", "rg20@0.02778", (0x7611c52afc0917bd, 27946, 394524, 18, 1962)),
    ("expander-512", "ggr21@0.50000", (0xfbdf954bb091dbc7, 29965, 436338, 18, 1998)),
    ("expander-512", "ggr21@0.02778", (0x3e06fce971111769, 31242, 453852, 18, 2102)),
    ("reversed-ids-24x24", "rg20@0.50000", (0x1d0221ab30f1a88c, 65942, 1213440, 20, 23696)),
    ("reversed-ids-24x24", "rg20@0.02500", (0x9e27b17c2105792c, 100419, 1871470, 20, 32324)),
    ("reversed-ids-24x24", "ggr21@0.50000", (0xc392c5ff1aaec384, 69993, 1294460, 20, 24938)),
    ("reversed-ids-24x24", "ggr21@0.02500", (0xc36431d1e2623fe2, 104211, 1947310, 20, 43784)),
    ("alive-subset-30x30", "rg20@0.50000", (0x92de2b8044bec98f, 60311, 1123000, 20, 23304)),
    ("alive-subset-30x30", "rg20@0.02500", (0x043f883a834aa87b, 115272, 2203600, 20, 36172)),
    ("alive-subset-30x30", "ggr21@0.50000", (0x286a3a223b6a9654, 63252, 1181820, 20, 31138)),
    ("alive-subset-30x30", "ggr21@0.02500", (0xeb302c60fbcd5872, 117928, 2256720, 20, 37124)),
];

/// Asserts `got` equals `golden` row by row, printing the current rows
/// on a mismatch so a deliberate re-record can copy them.
fn assert_rows(got: &[(&str, String, Pin)], golden: &[(&str, &str, Pin)]) {
    let table: Vec<String> = got
        .iter()
        .map(|(name, run, p)| {
            format!(
                "    (\"{name}\", \"{run}\", ({:#018x}, {}, {}, {}, {})),",
                p.0, p.1, p.2, p.3, p.4
            )
        })
        .collect();
    let table = table.join("\n");
    assert_eq!(got.len(), golden.len(), "current rows:\n{table}");
    for ((name, run, pin), (gname, grun, gpin)) in got.iter().zip(golden) {
        assert_eq!((*name, run.as_str()), (*gname, *grun), "row order");
        assert_eq!(
            pin, gpin,
            "{name} {run}: (digest, messages, total bits, max bits, rounds); current rows:\n{table}"
        );
    }
}

#[test]
fn carvings_match_the_pinned_outputs() {
    let mut got = Vec::new();
    for (name, g, alive) in inputs() {
        for (variant, carver) in [("rg20", Rg20::rg20()), ("ggr21", Rg20::ggr21())] {
            for eps in [0.5, inner_eps(g.n())] {
                let pin = carve(&carver, &g, &alive, eps);
                got.push((name, format!("{variant}@{eps:.5}"), pin));
            }
        }
    }
    assert_rows(&got, GOLDEN);
}

/// The weak carvings of the benchmark's carve-grid workload: GGR21 at
/// the inner eps on the whole grid-102x102 and on the first seed-1
/// geometric-5000 instance (mean degree 12, perfbench's
/// `instance_seed(1, 0)`). Their rebuilt trees are deep but small, so
/// each truncated rebuild BFS covers far more of the graph than its
/// cluster — the case the hop BFS's stamp-first neighbour test is for.
#[rustfmt::skip]
const CARVE_GRID_GOLDEN: &[(&str, &str, Pin)] = &[
    ("grid-102x102", "ggr21@0.01786", (0x602739b081efe070, 6539249, 179809294, 28, 564354)),
    ("geometric-5000#0", "ggr21@0.01923", (0xe62f9ca758d91ae3, 1054775, 23816065, 26, 38630)),
];

#[test]
fn carve_grid_carvings_match_the_pinned_outputs() {
    let inputs = [
        ("grid-102x102", gen::grid(102, 102)),
        (
            "geometric-5000#0",
            geometric(5000, 12.0, 1 ^ 0x9e37_79b9_7f4a_7c15),
        ),
    ];
    let got: Vec<(&str, String, Pin)> = inputs
        .iter()
        .map(|(name, g)| {
            let eps = inner_eps(g.n());
            let pin = carve(&Rg20::ggr21(), g, &NodeSet::full(g.n()), eps);
            (*name, format!("ggr21@{eps:.5}"), pin)
        })
        .collect();
    assert_rows(&got, CARVE_GRID_GOLDEN);
}

/// The tree rebuild must charge the same rounds on every call: the
/// congestion high-water mark it raises depends on the order in which
/// rebuilt trees are swapped in, so that order has to be fixed.
#[test]
fn ggr21_round_charge_is_deterministic() {
    let g = geometric(2000, 12.0, 3);
    let alive = NodeSet::full(g.n());
    let eps = inner_eps(g.n());
    let mut rounds: Vec<u64> = (0..16)
        .map(|_| carve(&Rg20::ggr21(), &g, &alive, eps).4)
        .collect();
    rounds.sort_unstable();
    rounds.dedup();
    assert_eq!(
        rounds.len(),
        1,
        "charged rounds vary between calls: {rounds:?}"
    );
}
