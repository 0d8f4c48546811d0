//! The dataset parsers never panic: whatever bytes a `.csrbin` cache, a
//! text edge list (plain or gzip) or a gzip stream holds, the decoders
//! return a graph or a typed error.
//!
//! - `read_cache` gets arbitrary bytes, forged headers, and truncations
//!   and byte flips of valid caches. Some flipped files get their CRC
//!   re-sealed, so the decoder's own size and structure checks run
//!   rather than only the checksum. A mutated cache comes back as an
//!   error or as the graph it was written from.
//! - `load_edge_list` gets line mixes of node indices, junk, comments,
//!   weights, out-of-range and unparsable numbers, blank lines and
//!   invalid UTF-8, plain and wrapped by `gzip_stored`; both forms load
//!   the same graph or both fail.
//! - `gunzip` gets arbitrary bytes, gzip headers over random DEFLATE
//!   bits, and byte flips of stored and dynamic-Huffman members.
//!
//! Accepted node indices stay small: the loader sizes its arrays by the
//! largest index, so an edge to node 4294967295 is a valid 2^32-node
//! graph that takes tens of gigabytes to build.

use proptest::prelude::*;
use sdnd_graph::dataset::{self, DatasetError, InflateError, LoadOptions, SourceStamp};
use sdnd_graph::Graph;
use std::path::PathBuf;

fn dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdnd_dataset_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// CRC-32 of the gzip polynomial, as the cache trailer stores it.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Replaces the trailing CRC of a cache image with the checksum of its
/// (possibly mutated) body.
fn reseal(bytes: &mut Vec<u8>) {
    let body = bytes.len().saturating_sub(4);
    bytes.truncate(body);
    let crc = crc32(bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
}

/// A random simple graph, weighted or not, with shuffled identifiers.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..24, prop::bool::ANY, 0u64..1000).prop_flat_map(|(n, weighted, seed)| {
        let edges = prop::collection::vec((0..n, 0..n, 0.0f64..50.0), 0..(n * 2));
        edges.prop_map(move |raw| {
            let simple = raw.into_iter().filter(|&(u, v, _)| u != v);
            let g = if weighted {
                Graph::from_weighted_edges(n, simple).expect("simple edges are valid")
            } else {
                Graph::from_edges(n, simple.map(|(u, v, _)| (u, v))).expect("valid")
            };
            let orders = sdnd_graph::NodeOrder::ALL;
            match orders.get(seed as usize % (orders.len() + 1)) {
                Some(&order) => g.relabeled(order).0,
                None => g,
            }
        })
    })
}

/// `a` and `b` have the same nodes, adjacency and weights (identifiers
/// aside).
fn same_structure(a: &Graph, b: &Graph) -> bool {
    a.n() == b.n()
        && a.is_weighted() == b.is_weighted()
        && a.nodes().all(|v| a.neighbors(v) == b.neighbors(v))
        && a.weights() == b.weights()
}

/// Writes `bytes` to `name` and reads it back as a cache.
fn read_bytes(
    name: &str,
    bytes: &[u8],
    expect: Option<&SourceStamp>,
) -> Result<Graph, DatasetError> {
    let path = dir().join(name);
    std::fs::write(&path, bytes).unwrap();
    dataset::read_cache(&path, expect)
}

/// Header-field values worth forging: empty, small, at and past the
/// u32 index space, and past any file.
fn forged_count() -> impl Strategy<Value = u64> {
    const EDGES: [u64; 9] = [
        0,
        1,
        2,
        7,
        1 << 31,
        1 << 32,
        (1 << 32) + 1,
        1 << 61,
        u64::MAX,
    ];
    (0usize..EDGES.len() + 1, 0u64..64)
        .prop_map(|(i, small)| EDGES.get(i).copied().unwrap_or(small))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, raw or behind the magic prefix with a sealed
    /// checksum, never panic the cache decoder.
    #[test]
    fn arbitrary_bytes_never_panic_the_cache_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..160),
        framed in 0u8..3,
    ) {
        let mut bytes = bytes;
        if framed > 0 {
            let mut image = b"SDNDCSR\x01".to_vec();
            image.extend_from_slice(&bytes);
            image.extend_from_slice(&[0; 4]);
            if framed == 2 {
                reseal(&mut image);
            }
            bytes = image;
        }
        if let Ok(g) = read_bytes("arbitrary.csrbin", &bytes, None) {
            // Whatever decodes is a well-formed graph: it round-trips.
            let path = dir().join("arbitrary_rt.csrbin");
            dataset::write_cache(&path, &g, None).unwrap();
            prop_assert_eq!(&dataset::read_cache(&path, None).unwrap(), &g);
        }
    }

    /// Forged headers — any flags, node and slot counts up to `u64::MAX`,
    /// any section bytes — under a valid checksum fail cleanly, without
    /// allocating for the sizes they claim.
    #[test]
    fn forged_headers_fail_cleanly(
        flags in (0u32..8, 0u32..=u32::MAX, 0u8..4).prop_map(|(low, any, pick)| if pick == 0 { any } else { low }),
        n in forged_count(),
        slots in forged_count(),
        tail in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let mut image = b"SDNDCSR\x01".to_vec();
        image.extend_from_slice(&flags.to_le_bytes());
        image.extend_from_slice(&n.to_le_bytes());
        image.extend_from_slice(&slots.to_le_bytes());
        image.extend_from_slice(&tail);
        image.extend_from_slice(&[0; 4]);
        reseal(&mut image);
        if let Ok(g) = read_bytes("forged.csrbin", &image, None) {
            prop_assert_eq!(g.n() as u64, n);
            prop_assert_eq!(g.directed_edges() as u64, slots);
        }
    }

    /// Truncations and byte flips of a valid cache come back as errors
    /// or as the original graph. Truncations and unsealed flips always
    /// fail; a re-sealed flip can only change what the decoder does not
    /// constrain: the source stamp (ignored without an expected one) or
    /// a node identifier (to another unique one).
    #[test]
    fn mutated_caches_fail_or_decode_the_original(
        g in arb_graph(),
        stamped in prop::bool::ANY,
        expect_stamp in prop::bool::ANY,
        flips in prop::collection::vec((0usize..1 << 16, 1u8..=255), 1..4),
        cut in 0usize..1 << 16,
        sealed in prop::bool::ANY,
    ) {
        let stamp = SourceStamp { len: 99, mtime_secs: 5, mtime_nanos: 1 };
        let path = dir().join("pristine.csrbin");
        dataset::write_cache(&path, &g, stamped.then_some(&stamp)).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let expect = expect_stamp.then_some(&stamp);

        let mut short = pristine[..cut % pristine.len()].to_vec();
        if sealed {
            reseal(&mut short);
        }
        prop_assert!(read_bytes("truncated.csrbin", &short, expect).is_err());

        let mut flipped = pristine.clone();
        let body = pristine.len() - 4;
        for &(at, mask) in &flips {
            flipped[at % if sealed { body } else { pristine.len() }] ^= mask;
        }
        if sealed {
            reseal(&mut flipped);
        }
        // Flips at one position can cancel out.
        let changed = flipped != pristine;
        let ids_from = body - 8 * g.n();
        match read_bytes("flipped.csrbin", &flipped, expect) {
            Ok(back) => {
                prop_assert!(sealed || !changed, "a flip under the original checksum was accepted");
                prop_assert!(same_structure(&back, &g), "a flip changed the decoded structure");
                let hit_ids = flips.iter().any(|&(at, _)| at % body >= ids_from);
                prop_assert!(hit_ids || back == g, "a flip outside the ids changed the graph");
            }
            Err(DatasetError::Cache { .. }) | Err(DatasetError::Stale { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
    }
}

/// Edge-list lines: mostly well-formed `u v [w]` edges over 40 nodes,
/// otherwise token mixes of node indices (small, at and past the u32
/// index space, signed, unparsable), weights (valid, negative,
/// non-finite), comments, junk and invalid UTF-8.
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    const WORDS: [&str; 30] = [
        "0",
        "1",
        "2",
        "3",
        "5",
        "7",
        "12",
        "+3",
        "-1",
        "00",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "0x10",
        "1e3",
        "3.0",
        "2.5",
        "0.5",
        "-0",
        "1e308",
        "1e309",
        "inf",
        "-inf",
        "NaN",
        "1e-320",
        "#",
        "# comment 1 2",
        "abc",
        "\u{00e9}",
    ];
    const WEIGHTS: [&str; 7] = ["2.5", "0.5", "0", "-0", "1e-320", "1e308", "7"];
    let edge = (0u32..40, 0u32..40, 0usize..WEIGHTS.len() * 2).prop_map(|(u, v, w)| {
        let w = WEIGHTS.get(w).map_or(String::new(), |w| format!(" {w}"));
        format!("{u} {v}{w}").into_bytes()
    });
    let token = (0usize..WORDS.len() + 8, 0u32..40).prop_map(|(i, small)| {
        WORDS
            .get(i)
            .map_or_else(|| small.to_string().into_bytes(), |w| w.as_bytes().to_vec())
    });
    // Mostly plain blanks; now and then a tab, a stray carriage return
    // or an invalid UTF-8 byte.
    let seps: [&[u8]; 8] = [b" ", b" ", b" ", b"\t", b"  ", b" ", b"\r", b"\xff"];
    let mix = (
        prop::collection::vec(token, 0..5),
        prop::collection::vec(0usize..seps.len(), 4),
    )
        .prop_map(move |(tokens, picks)| {
            let mut line = Vec::new();
            for (k, tok) in tokens.into_iter().enumerate() {
                if k > 0 {
                    line.extend_from_slice(seps[picks[k % 4]]);
                }
                line.extend_from_slice(&tok);
            }
            line
        });
    (0u8..10, edge, mix).prop_map(|(kind, edge, mix)| if kind < 6 { edge } else { mix })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any mix of lines loads, plain or gzip-wrapped, to the same graph
    /// or fails with a typed error in both forms.
    #[test]
    fn edge_lists_load_or_fail_typed(
        lines in prop::collection::vec(arb_line(), 0..12),
        nodes in (0usize..40, prop::bool::ANY).prop_map(|(n, set)| set.then_some(n)),
        mode in 0u8..3,
    ) {
        let mut text = lines.join(&b'\n');
        text.push(b'\n');
        let plain = dir().join("fuzz.txt");
        let gz = dir().join("fuzz.txt.gz");
        std::fs::write(&plain, &text).unwrap();
        std::fs::write(&gz, dataset::gzip_stored(&text)).unwrap();
        let weights = [
            dataset::WeightMode::Auto,
            dataset::WeightMode::Require,
            dataset::WeightMode::Ignore,
        ][mode as usize];
        let opts = LoadOptions { nodes, weights };
        let a = dataset::load_edge_list(&plain, &opts);
        let b = dataset::load_edge_list(&gz, &opts);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b);
                prop_assert!(a.m() <= lines.len());
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "plain {:?} but gzip {:?}", a.map(|g| g.m()), b.map(|g| g.m())),
        }
    }
}

/// Sixty weighted edge lines (`0 3 0.5`, `1 10 1.5`, ...) compressed at
/// level 9: one dynamic-Huffman block.
const DYNAMIC_MEMBER: &[u8] = &[
    0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xff, 0x45, 0x91, 0xc9, 0x0d, 0xc4, 0x30,
    0x0c, 0x03, 0xff, 0x5b, 0x05, 0x2b, 0x58, 0x98, 0x3a, 0x72, 0xf4, 0xdf, 0xd8, 0x32, 0xa6, 0xe3,
    0xfd, 0xc4, 0x02, 0x22, 0xcc, 0x48, 0xe2, 0x40, 0x62, 0x7c, 0xfb, 0x43, 0x70, 0x80, 0x2a, 0x02,
    0x3c, 0x11, 0x2a, 0x12, 0x51, 0x48, 0x15, 0xfa, 0x12, 0xa5, 0xa2, 0x91, 0xd7, 0x6c, 0x3e, 0x50,
    0x3d, 0x9b, 0xd5, 0x39, 0x7b, 0x2f, 0xdc, 0xb3, 0xf5, 0x06, 0x8f, 0xd9, 0x2a, 0x58, 0x2c, 0x30,
    0x91, 0x26, 0x33, 0x90, 0x46, 0x33, 0x51, 0x66, 0xb3, 0x60, 0x36, 0x1b, 0x66, 0x0b, 0x40, 0xc3,
    0x9f, 0x39, 0x8c, 0xe7, 0x85, 0xb0, 0x80, 0x7a, 0x6c, 0x88, 0x81, 0xb2, 0x21, 0x88, 0x35, 0x7a,
    0xc0, 0x7c, 0xa9, 0x69, 0xbe, 0x56, 0x08, 0x0b, 0xa2, 0x11, 0x36, 0xc4, 0x81, 0xb4, 0x21, 0x4e,
    0x94, 0x0d, 0xfa, 0x55, 0x36, 0x48, 0x64, 0xc1, 0x33, 0xb5, 0x05, 0x5a, 0x3f, 0x6c, 0x48, 0x75,
    0xaf, 0xeb, 0x24, 0xd2, 0x0a, 0x3d, 0x65, 0x85, 0xa8, 0x65, 0x85, 0x66, 0xb4, 0x41, 0x0b, 0xd3,
    0x06, 0x9d, 0x8e, 0x36, 0xe4, 0x8d, 0xb0, 0xa2, 0x06, 0xd2, 0x8a, 0x87, 0x60, 0x85, 0x06, 0x2a,
    0x2b, 0xb4, 0xde, 0x0a, 0x40, 0x47, 0xb2, 0xe1, 0x39, 0xbb, 0x0d, 0x75, 0x20, 0xac, 0x50, 0x77,
    0x5a, 0x21, 0x79, 0x5a, 0xa1, 0x5d, 0xca, 0x8a, 0x1e, 0x2b, 0xe0, 0xde, 0x09, 0xf7, 0x8e, 0xb8,
    0x77, 0xc6, 0xfd, 0x0f, 0x79, 0xa7, 0xdc, 0x3b, 0xe6, 0x7e, 0x73, 0xee, 0x37, 0xe8, 0xde, 0x49,
    0xff, 0x00, 0x06, 0x1a, 0xcc, 0x06, 0x41, 0x02, 0x00, 0x00,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes — raw, or a gzip header over random DEFLATE bits
    /// (stored, fixed and dynamic blocks alike) — decode or fail typed.
    #[test]
    fn arbitrary_bytes_never_panic_gunzip(
        bytes in prop::collection::vec(0u8..=255, 0..200),
        headed in prop::bool::ANY,
    ) {
        let mut input = if headed {
            vec![0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff]
        } else {
            Vec::new()
        };
        input.extend_from_slice(&bytes);
        let _ = dataset::gunzip(&input);
    }

    /// Byte flips and truncations of valid members — stored (our own
    /// writer) and dynamic-Huffman — decode or fail typed; flips past
    /// the header that leave the stream decodable cannot pass the CRC.
    #[test]
    fn mutated_members_decode_or_fail_typed(
        text in prop::collection::vec(0u8..=255, 0..300),
        dynamic in prop::bool::ANY,
        flips in prop::collection::vec((0usize..1 << 16, 1u8..=255), 0..4),
        cut in 0usize..1 << 16,
    ) {
        let member = if dynamic { DYNAMIC_MEMBER.to_vec() } else { dataset::gzip_stored(&text) };
        let original = dataset::gunzip(&member).expect("a valid member decodes");
        let mut mutant = member.clone();
        for &(at, mask) in &flips {
            mutant[at % member.len()] ^= mask;
        }
        if !flips.is_empty() && cut % 2 == 0 {
            mutant.truncate(cut % member.len());
        }
        match dataset::gunzip(&mutant) {
            Ok(out) => prop_assert!(
                mutant == member || out == original || flips.iter().all(|&(at, _)| at % member.len() < 10),
                "a corrupted payload passed its checksum"
            ),
            Err(InflateError::TruncatedInput)
            | Err(InflateError::Corrupt(_))
            | Err(InflateError::ChecksumMismatch { .. }) => {}
        }
    }
}
