//! Golden pins for Lemma 3.1 and the Theorem 3.4 decomposition built on it.
//!
//! Each `cut_or_component_in` case runs a fixed input at a fixed `eps` and
//! compares a digest of the outcome (its kind and node sets) plus the
//! full ledger — rounds, messages, total and largest message bits —
//! against pinned values. The inputs cover default and permuted
//! identifiers on full views, on views with holes (which break the
//! cycle, the path and the strips into many components) and on views
//! split in two; on the disconnected views part of the seed set lies
//! outside the leader's tree. Two Theorem 3.4 rows pin whole
//! decompositions. The values were recorded from the round-by-round
//! leader flooding and the per-halving census that the closed-form
//! election and the carried probe replaced; a change meant as a pure
//! refactor or speed-up must keep every row.

use sdnd_clustering::{ClusterId, NetworkDecomposition};
use sdnd_congest::RoundLedger;
use sdnd_core::sparse_cut::{cut_or_component_in, CutOrComponent};
use sdnd_core::{decompose_strong_improved, CarveCtx, Params};
use sdnd_graph::{algo, gen, Graph, NodeId, NodeSet};

/// `(digest, rounds, messages, total_bits, max_message_bits)`.
type Pin = (u64, u64, u64, u64, u32);

type Str = &'static str;

/// Graph, identifiers, view, then per eps in [`EPS`] the outcome kind
/// (`cut` / `comp`) and its pin.
type Row = (Str, Str, Str, [(Str, Pin); 3]);

const EPS: [f64; 3] = [0.5, 0.2, 0.05];

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

    fn nodes(&mut self, len: usize, nodes: impl Iterator<Item = NodeId>) {
        self.word(len as u64);
        for v in nodes {
            self.word(v.index() as u64);
        }
    }

    fn pin(&self, l: &RoundLedger) -> Pin {
        (
            self.0,
            l.rounds(),
            l.messages(),
            l.total_bits(),
            l.max_message_bits(),
        )
    }
}

/// A pin as the tables below write it.
fn show((digest, rounds, messages, bits, max_bits): &Pin) -> String {
    format!("({digest:#018x}, {rounds}, {messages}, {bits}, {max_bits})")
}

fn cut_pin(out: &CutOrComponent, ledger: &RoundLedger) -> (Str, Pin) {
    let mut h = Fnv::new();
    let (kind, sets) = match out {
        CutOrComponent::SparseCut { v1, v2, middle } => ("cut", vec![v1, v2, middle]),
        CutOrComponent::Component { u, boundary } => ("comp", vec![u, boundary]),
    };
    h.word(u64::from(kind == "comp"));
    for s in sets {
        h.nodes(s.len(), s.iter());
    }
    (kind, h.pin(ledger))
}

/// Digest of every cluster's colour and members, in output order.
fn decomposition_pin(d: &NetworkDecomposition, ledger: &RoundLedger) -> Pin {
    let mut h = Fnv::new();
    h.word(u64::from(d.num_colors()));
    for (i, members) in d.clusters().iter().enumerate() {
        h.word(u64::from(d.color(ClusterId(i as u32))));
        h.nodes(members.len(), members.iter().copied());
    }
    h.pin(ledger)
}

fn geometric(n: usize, deg: f64, seed: u64) -> Graph {
    let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
    gen::random_geometric(n, r, seed).expect("valid geometric parameters")
}

/// Identifiers scrambled by an odd multiplier: a bijection on `u64`, so
/// they stay distinct, and their order is unrelated to the indices.
fn permuted(g: &Graph) -> Graph {
    let ids = (1..=g.n() as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    g.clone().with_ids(ids).expect("distinct identifiers")
}

/// The graph minus one BFS layer around its last node: the layer at the
/// smallest radius whose ball holds a tenth of the nodes. The view falls
/// apart into that ball and the rest, and the leader sits in either part
/// depending on the identifiers.
fn split(g: &Graph) -> NodeSet {
    let far = algo::bfs(&g.full_view(), [NodeId::new(g.n() - 1)]);
    let mut by_dist: Vec<u32> = g.nodes().map(|v| far.dist(v)).collect();
    by_dist.sort_unstable();
    let radius = by_dist[g.n() / 10];
    NodeSet::from_nodes(g.n(), g.nodes().filter(|&v| far.dist(v) != radius))
}

/// Grids and flat families give components; the cycle, the long path
/// and the 2–4 row strips are long enough to give sparse cuts.
fn cut_rows() -> Vec<Row> {
    let expander = gen::random_regular_connected(512, 4, 9).expect("valid expander");
    let graphs = [
        ("grid-24x24", gen::grid(24, 24)),
        ("gnp-400", gen::gnp_connected(400, 6.0 / 400.0, 3)),
        ("geometric-800", geometric(800, 10.0, 4)),
        ("expander-512", expander),
        ("cycle-2000", gen::cycle(2000)),
        ("path-2400", gen::path(2400)),
        ("strip-2x1000", gen::grid(2, 1000)),
        ("strip-3x800", gen::grid(3, 800)),
        ("strip-4x900", gen::grid(4, 900)),
    ];
    let params = Params::default();
    let mut ctx = CarveCtx::new();
    let mut rows = Vec::new();
    for (name, g) in graphs {
        let n = g.n();
        let holes = NodeSet::from_nodes(n, (0..n).filter(|i| i % 7 != 3).map(NodeId::new));
        let views = [
            ("full", NodeSet::full(n)),
            ("holes", holes),
            ("split", split(&g)),
        ];
        for (ids, g) in [("default", g.clone()), ("permuted", permuted(&g))] {
            for (view, alive) in &views {
                let pins = EPS.map(|eps| {
                    let mut ledger = RoundLedger::new();
                    let out = cut_or_component_in(&g, alive, eps, &params, &mut ledger, &mut ctx)
                        .expect("unarmed ctx never cancels");
                    cut_pin(&out, &ledger)
                });
                rows.push((name, ids, *view, pins));
            }
        }
    }
    rows
}

#[rustfmt::skip]
const CUT_GOLDEN: &[Row] = &[
    ("grid-24x24", "default", "full", [("comp", (0xf8d43595c50cb2da, 3410, 134312, 2094024, 22)), ("comp", (0xf8d43595c50cb2da, 3410, 134312, 2094024, 22)), ("comp", (0xf8d43595c50cb2da, 3410, 134312, 2094024, 22))]),
    ("grid-24x24", "default", "holes", [("comp", (0x874eedea17e5595a, 3248, 91782, 1456548, 22)), ("comp", (0x874eedea17e5595a, 3248, 91782, 1456548, 22)), ("comp", (0x874eedea17e5595a, 3248, 91782, 1456548, 22))]),
    ("grid-24x24", "default", "split", [("comp", (0xbccf52fe90aea4c3, 2424, 108983, 1706462, 22)), ("comp", (0xbccf52fe90aea4c3, 2424, 108983, 1706462, 22)), ("comp", (0xbccf52fe90aea4c3, 2424, 108983, 1706462, 22))]),
    ("grid-24x24", "permuted", "full", [("comp", (0xf8d43595c50cb2da, 2293, 84885, 1088874, 22)), ("comp", (0xf8d43595c50cb2da, 2293, 84885, 1088874, 22)), ("comp", (0xf8d43595c50cb2da, 2293, 84885, 1088874, 22))]),
    ("grid-24x24", "permuted", "holes", [("comp", (0x874eedea17e5595a, 2339, 62373, 810090, 22)), ("comp", (0x874eedea17e5595a, 2339, 62373, 810090, 22)), ("comp", (0x874eedea17e5595a, 2339, 62373, 810090, 22))]),
    ("grid-24x24", "permuted", "split", [("comp", (0xbccf52fe90aea4c3, 2258, 75783, 975714, 22)), ("comp", (0xbccf52fe90aea4c3, 2258, 75783, 975714, 22)), ("comp", (0xbccf52fe90aea4c3, 2258, 75783, 975714, 22))]),
    ("gnp-400", "default", "full", [("comp", (0x00359faa53c7b3ff, 533, 85625, 952743, 20)), ("comp", (0x00359faa53c7b3ff, 533, 85625, 952743, 20)), ("comp", (0x00359faa53c7b3ff, 533, 85625, 952743, 20))]),
    ("gnp-400", "default", "holes", [("comp", (0x4ca5af174f406201, 531, 63891, 718503, 20)), ("comp", (0x4ca5af174f406201, 531, 63891, 718503, 20)), ("comp", (0x4ca5af174f406201, 531, 63891, 718503, 20))]),
    ("gnp-400", "default", "split", [("comp", (0x2c5dfc8a136916f6, 471, 68398, 764948, 20)), ("comp", (0x2c5dfc8a136916f6, 471, 68398, 764948, 20)), ("comp", (0x2c5dfc8a136916f6, 471, 68398, 764948, 20))]),
    ("gnp-400", "permuted", "full", [("comp", (0x00359faa53c7b3ff, 534, 84045, 921132, 20)), ("comp", (0x00359faa53c7b3ff, 534, 84045, 921132, 20)), ("comp", (0x00359faa53c7b3ff, 534, 84045, 921132, 20))]),
    ("gnp-400", "permuted", "holes", [("comp", (0x4ca5af174f406201, 506, 62628, 693177, 20)), ("comp", (0x4ca5af174f406201, 506, 62628, 693177, 20)), ("comp", (0x4ca5af174f406201, 506, 62628, 693177, 20))]),
    ("gnp-400", "permuted", "split", [("comp", (0x2c5dfc8a136916f6, 535, 67307, 743084, 20)), ("comp", (0x2c5dfc8a136916f6, 535, 67307, 743084, 20)), ("comp", (0x2c5dfc8a136916f6, 535, 67307, 743084, 20))]),
    ("geometric-800", "default", "full", [("comp", (0x40c484f989eab975, 1770, 299219, 3629686, 22)), ("comp", (0x40c484f989eab975, 1770, 299219, 3629686, 22)), ("comp", (0x40c484f989eab975, 1770, 299219, 3629686, 22))]),
    ("geometric-800", "default", "holes", [("comp", (0x275667057662970b, 1905, 219827, 2674826, 22)), ("comp", (0x275667057662970b, 1905, 219827, 2674826, 22)), ("comp", (0x275667057662970b, 1905, 219827, 2674826, 22))]),
    ("geometric-800", "default", "split", [("comp", (0x4b6496382ae93871, 1468, 269344, 3270576, 22)), ("comp", (0x4b6496382ae93871, 1468, 269344, 3270576, 22)), ("comp", (0x4b6496382ae93871, 1468, 269344, 3270576, 22))]),
    ("geometric-800", "permuted", "full", [("comp", (0x40c484f989eab975, 2025, 310372, 3875352, 22)), ("comp", (0x40c484f989eab975, 2025, 310372, 3875352, 22)), ("comp", (0x40c484f989eab975, 2025, 310372, 3875352, 22))]),
    ("geometric-800", "permuted", "holes", [("comp", (0x275667057662970b, 2146, 226211, 2815478, 22)), ("comp", (0x275667057662970b, 2146, 226211, 2815478, 22)), ("comp", (0x275667057662970b, 2146, 226211, 2815478, 22))]),
    ("geometric-800", "permuted", "split", [("comp", (0x4b6496382ae93871, 1977, 280964, 3526432, 22)), ("comp", (0x4b6496382ae93871, 1977, 280964, 3526432, 22)), ("comp", (0x4b6496382ae93871, 1977, 280964, 3526432, 22))]),
    ("expander-512", "default", "full", [("comp", (0xdfec32d2cdaa2e1a, 553, 77476, 889640, 20)), ("comp", (0xdfec32d2cdaa2e1a, 553, 77476, 889640, 20)), ("comp", (0xdfec32d2cdaa2e1a, 553, 77476, 889640, 20))]),
    ("expander-512", "default", "holes", [("comp", (0xcc447c4608f6f40f, 675, 58158, 676062, 20)), ("comp", (0xcc447c4608f6f40f, 675, 58158, 676062, 20)), ("comp", (0xcc447c4608f6f40f, 675, 58158, 676062, 20))]),
    ("expander-512", "default", "split", [("comp", (0xfd10963de30b80ce, 610, 66302, 764140, 20)), ("comp", (0xfd10963de30b80ce, 610, 66302, 764140, 20)), ("comp", (0xfd10963de30b80ce, 610, 66302, 764140, 20))]),
    ("expander-512", "permuted", "full", [("comp", (0xdfec32d2cdaa2e1a, 552, 77224, 884600, 20)), ("comp", (0xdfec32d2cdaa2e1a, 552, 77224, 884600, 20)), ("comp", (0xdfec32d2cdaa2e1a, 552, 77224, 884600, 20))]),
    ("expander-512", "permuted", "holes", [("comp", (0xcc447c4608f6f40f, 692, 58277, 678402, 20)), ("comp", (0xcc447c4608f6f40f, 692, 58277, 678402, 20)), ("comp", (0xcc447c4608f6f40f, 692, 58277, 678402, 20))]),
    ("expander-512", "permuted", "split", [("comp", (0xfd10963de30b80ce, 607, 66240, 762910, 20)), ("comp", (0xfd10963de30b80ce, 607, 66240, 762910, 20)), ("comp", (0xfd10963de30b80ce, 607, 66240, 762910, 20))]),
    ("cycle-2000", "default", "full", [("cut", (0xccea5d627bd42508, 9007, 2027500, 48398478, 24)), ("cut", (0x091a94df33e8148c, 17011, 2044749, 48632195, 24)), ("comp", (0xfa7a583230b4f8b9, 97052, 2196990, 50702648, 24))]),
    ("cycle-2000", "default", "holes", [("comp", (0x829418fe08b54bb1, 64, 17482, 322318, 24)), ("comp", (0x829418fe08b54bb1, 64, 17482, 322318, 24)), ("comp", (0x829418fe08b54bb1, 64, 17482, 322318, 24))]),
    ("cycle-2000", "default", "split", [("comp", (0x4c49a1a1686fd8ac, 9116, 3274358, 78322273, 24)), ("comp", (0x4c49a1a1686fd8ac, 9116, 3274358, 78322273, 24)), ("comp", (0x4c49a1a1686fd8ac, 9116, 3274358, 78322273, 24))]),
    ("cycle-2000", "permuted", "full", [("cut", (0xd33957149106a8a8, 9007, 49306, 921822, 24)), ("cut", (0xa80244240276f01c, 17011, 66555, 1155539, 24)), ("comp", (0xfa7a583230b4f8b9, 97052, 218796, 3225992, 24))]),
    ("cycle-2000", "permuted", "holes", [("comp", (0x462c10263c35c85d, 117, 13742, 231643, 24)), ("comp", (0x462c10263c35c85d, 117, 13742, 231643, 24)), ("comp", (0x462c10263c35c85d, 117, 13742, 231643, 24))]),
    ("cycle-2000", "permuted", "split", [("cut", (0x7d4bee6418471859, 12473, 47040, 879019, 24)), ("cut", (0x6bb80377891a32ed, 23750, 62922, 1093277, 24)), ("comp", (0x5f86aa154a0b0ddc, 141794, 204202, 3003361, 24))]),
    ("path-2400", "default", "full", [("cut", (0xd3a38bfe7614a0cc, 21600, 5788791, 150163054, 26)), ("cut", (0xd3a38bfe7614a0cc, 21600, 5788791, 150163054, 26)), ("comp", (0xfd8e709dbaae9f1a, 227978, 6017913, 153545854, 26))]),
    ("path-2400", "default", "holes", [("comp", (0x6ed42f523d951324, 62, 20939, 419146, 26)), ("comp", (0x6ed42f523d951324, 62, 20939, 419146, 26)), ("comp", (0x6ed42f523d951324, 62, 20939, 419146, 26))]),
    ("path-2400", "default", "split", [("cut", (0x259a6cfd214f1116, 19190, 4745975, 123067798, 26)), ("cut", (0x259a6cfd214f1116, 19190, 4745975, 123067798, 26)), ("comp", (0x3090436b539a0b64, 201709, 4951479, 126103558, 26))]),
    ("path-2400", "permuted", "full", [("cut", (0xc288ead46358e092, 14188, 59230, 1200026, 26)), ("cut", (0x07cf32c78dac3bee, 26566, 80020, 1507082, 26)), ("comp", (0x103adafc30db93c7, 167381, 286322, 4558466, 26))]),
    ("path-2400", "permuted", "holes", [("comp", (0x462c10263c35c85d, 117, 16458, 301436, 26)), ("comp", (0x462c10263c35c85d, 117, 16458, 301436, 26)), ("comp", (0x462c10263c35c85d, 117, 16458, 301436, 26))]),
    ("path-2400", "permuted", "split", [("cut", (0x7c3532f01694b15a, 13465, 56824, 1155430, 26)), ("cut", (0x99df0c03bc1cae36, 25602, 75686, 1433566, 26)), ("comp", (0x3090436b539a0b64, 166311, 262708, 4195750, 26))]),
    ("strip-2x1000", "default", "full", [("cut", (0xefdc0a2607b6da32, 14019, 3057969, 72777563, 24)), ("comp", (0x3f351990c064d8b5, 84088, 3261859, 75416155, 24)), ("comp", (0xfa7a583230b4f8b9, 84088, 3261859, 75416155, 24))]),
    ("strip-2x1000", "default", "holes", [("comp", (0x37399f8a9a41701c, 136, 29724, 577378, 24)), ("comp", (0x37399f8a9a41701c, 136, 29724, 577378, 24)), ("comp", (0x37399f8a9a41701c, 136, 29724, 577378, 24))]),
    ("strip-2x1000", "default", "split", [("cut", (0x1719d635e2537153, 12604, 2509814, 59664375, 24)), ("comp", (0x7e25d09a62792e7a, 74492, 2692970, 62035095, 24)), ("comp", (0x5a7852d02440e8b8, 74492, 2692970, 62035095, 24))]),
    ("strip-2x1000", "permuted", "full", [("cut", (0xfd39e5faf69d39d2, 13494, 120768, 2035658, 24)), ("comp", (0xc9cd25bc739f3c90, 55494, 300855, 4368439, 24)), ("comp", (0xfa7a583230b4f8b9, 55494, 300855, 4368439, 24))]),
    ("strip-2x1000", "permuted", "holes", [("comp", (0xa9f15a3050dd01b2, 215, 22583, 402659, 24)), ("comp", (0xa9f15a3050dd01b2, 215, 22583, 402659, 24)), ("comp", (0xa9f15a3050dd01b2, 215, 22583, 402659, 24))]),
    ("strip-2x1000", "permuted", "split", [("cut", (0x1719d635e2537153, 13333, 112221, 1895485, 24)), ("comp", (0x5a4705e6416caf77, 55160, 274518, 3997200, 24)), ("comp", (0x5a7852d02440e8b8, 55160, 274518, 3997200, 24))]),
    ("strip-3x800", "default", "full", [("cut", (0xe4b5390fcb9dbfb8, 16853, 3309135, 84816622, 26)), ("comp", (0x0a2175cc17c30dbb, 75195, 3573379, 88505734, 26)), ("comp", (0x103adafc30db93c7, 75195, 3573379, 88505734, 26))]),
    ("strip-3x800", "default", "holes", [("cut", (0x70ad2ff817a597d4, 14401, 2017792, 51829080, 26)), ("comp", (0xcf4f6b5ea63ccfc7, 94508, 2237091, 54954108, 26)), ("comp", (0xb6dc3d230756c83c, 94508, 2237091, 54954108, 26))]),
    ("strip-3x800", "default", "split", [("cut", (0x0bd00ed41753937a, 14888, 2715528, 69479612, 26)), ("comp", (0x0a2175cc17c30dbb, 66588, 2952818, 72792788, 26)), ("comp", (0xa7757d1ba19a437c, 66588, 2952818, 72792788, 26))]),
    ("strip-3x800", "permuted", "full", [("cut", (0x6807ec5cddcb1318, 16077, 170586, 3214404, 26)), ("comp", (0xad4f1db1be835bb4, 74167, 434814, 6903324, 26)), ("comp", (0x103adafc30db93c7, 74167, 434814, 6903324, 26))]),
    ("strip-3x800", "permuted", "holes", [("cut", (0x4613f8e154396890, 14369, 102553, 2032838, 26)), ("comp", (0x22385f2408057878, 94406, 321870, 5158082, 26)), ("comp", (0xb6dc3d230756c83c, 94406, 321870, 5158082, 26))]),
    ("strip-3x800", "permuted", "split", [("comp", (0x6e9feadbb409ea82, 5324, 106609, 2219372, 26)), ("comp", (0x6e9feadbb409ea82, 5324, 106609, 2219372, 26)), ("comp", (0x6e9feadbb409ea82, 5324, 106609, 2219372, 26))]),
    ("strip-4x900", "default", "full", [("cut", (0x40e7edd86d107c32, 18081, 5846311, 150097036, 26)), ("comp", (0x778e1ef169963713, 81300, 6256509, 155796796, 26)), ("comp", (0xd05189ba94a42746, 81300, 6256509, 155796796, 26))]),
    ("strip-4x900", "default", "holes", [("cut", (0x4f04a0664ffb7eb4, 24557, 3602279, 92265452, 26)), ("cut", (0x4f04a0664ffb7eb4, 24557, 3602279, 92265452, 26)), ("comp", (0xe6fb896f13509337, 109835, 3908429, 96605612, 26))]),
    ("strip-4x900", "default", "split", [("cut", (0xbb1362379aad382c, 16152, 4802606, 123109460, 26)), ("comp", (0x778e1ef169963713, 71919, 5171262, 128232524, 26)), ("comp", (0x86f88828db912f03, 71919, 5171262, 128232524, 26))]),
    ("strip-4x900", "permuted", "full", [("cut", (0x2a4e0604a73f0006, 18351, 308426, 5562396, 26)), ("comp", (0xd05189ba94a42746, 61085, 671635, 10611912, 26)), ("comp", (0xd05189ba94a42746, 61085, 671635, 10611912, 26))]),
    ("strip-4x900", "permuted", "holes", [("cut", (0x711294021615e5ee, 20135, 189965, 3547080, 26)), ("comp", (0xf0c1ed87da1bbed9, 90753, 495563, 7880616, 26)), ("comp", (0xe6fb896f13509337, 90753, 495563, 7880616, 26))]),
    ("strip-4x900", "permuted", "split", [("cut", (0x2174ee88af63ad90, 18445, 288579, 5247998, 26)), ("comp", (0xd9d8f1532fa4c70c, 66222, 616671, 9806606, 26)), ("comp", (0x86f88828db912f03, 66222, 616671, 9806606, 26))]),
];

#[test]
fn cut_or_component_matches_the_pinned_outcomes() {
    let got = cut_rows();
    let table: Vec<String> = got
        .iter()
        .map(|(g, ids, view, pins)| {
            let pins = pins.map(|(kind, p)| format!("({kind:?}, {})", show(&p)));
            format!("    ({g:?}, {ids:?}, {view:?}, [{}]),", pins.join(", "))
        })
        .collect();
    let table = table.join("\n");
    assert_eq!(got.as_slice(), CUT_GOLDEN, "current rows:\n{table}");
    // The cycle, the path and the strips exercise the cut branch on
    // every kind of view.
    for view in ["full", "holes", "split"] {
        let cuts = got
            .iter()
            .filter(|r| r.2 == view && r.3.iter().any(|p| p.0 == "cut"));
        assert!(cuts.count() > 0, "no sparse cut on a {view} view");
    }
}

#[rustfmt::skip]
const THM34_GOLDEN: &[(&str, Pin)] = &[
    ("grid-32x32", (0x5f38b681555b8a38, 98215, 574948, 9974684, 22)),
    ("gnp-600", (0x6ddaf2c932369a9a, 1080, 222590, 2715920, 22)),
];

#[test]
fn theorem34_decompositions_match_the_pinned_outputs() {
    let inputs = [
        ("grid-32x32", gen::grid(32, 32)),
        ("gnp-600", gen::gnp_connected(600, 8.0 / 600.0, 11)),
    ];
    let got: Vec<(&str, Pin)> = inputs
        .iter()
        .map(|(name, g)| {
            let (d, ledger) = decompose_strong_improved(g, &Params::default()).expect("valid eps");
            (*name, decomposition_pin(&d, &ledger))
        })
        .collect();
    let table: Vec<String> = got
        .iter()
        .map(|(name, p)| format!("    ({name:?}, {}),", show(p)))
        .collect();
    let table = table.join("\n");
    assert_eq!(got.as_slice(), THM34_GOLDEN, "current rows:\n{table}");
}
