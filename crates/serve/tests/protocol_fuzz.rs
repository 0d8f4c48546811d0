//! Request parsing never panics: arbitrary bytes and token sequences
//! that mix grammar words with junk come back from [`split_prefix`] and
//! [`parse_request`] as a request or a reason, and every registry name
//! parses to its own entry under both verbs.

use proptest::prelude::*;
use sdnd_core::registry::ALGORITHMS;
use sdnd_serve::{parse_request, split_prefix, Request};

/// Grammar words, envelope prefixes, argument shapes (valid and not)
/// and the registry's names, mixed with junk.
fn token() -> impl Strategy<Value = String> {
    let words: Vec<&str> = "id=7 id= deadline=5 deadline= deadline=-1 \
        deadline=99999999999999999999 load grid:4x4 gnp:9:1 decompose carve cluster-of \
        distance-in-cluster validate validate:approx stats debug-panic shutdown 0.5 0 1 -1 \
        1e308 NaN inf -0 18446744073709551616"
        .split_whitespace()
        .chain(["\t", "\n"])
        .chain(ALGORITHMS.iter().map(|a| a.carve_name))
        .collect();
    let pick = 0..words.len() + 1;
    (pick, prop::collection::vec(0u8..=255, 0..10)).prop_map(move |(i, junk)| {
        words.get(i).map_or_else(
            || String::from_utf8_lossy(&junk).into_owned(),
            |w| w.to_string(),
        )
    })
}

/// Parses a line the way the daemon does: envelope first, then the verb.
fn parse_line(line: &str) {
    if let Ok((_, _, verb)) = split_prefix(line) {
        let _ = parse_request(verb);
    }
    let _ = parse_request(line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        parse_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mixed_token_sequences_never_panic(tokens in prop::collection::vec(token(), 0..8)) {
        parse_line(&tokens.join(" "));
        parse_line(&tokens.concat());
    }

    #[test]
    fn every_registry_name_parses(i in 0..ALGORITHMS.len(), eps in 0.01..0.99, seed in 0u64..1000) {
        let want = &ALGORITHMS[i];
        let line = format!("id=t deadline=9 decompose {} {eps} {seed}", want.decompose_name);
        let (_, _, verb) = split_prefix(&line).expect("well-formed envelope");
        match parse_request(verb) {
            Ok(Request::Decompose { algo, eps: e, seed: s }) => {
                prop_assert_eq!(algo, want);
                prop_assert_eq!((e, s), (eps, seed));
            }
            other => prop_assert!(false, "{line}: {other:?}"),
        }
        match parse_request(&format!("carve {} {eps}", want.carve_name)) {
            Ok(Request::Carve { algo, eps: e }) => {
                prop_assert_eq!(algo, want);
                prop_assert_eq!(e, eps);
            }
            other => prop_assert!(false, "carve {}: {other:?}", want.carve_name),
        }
    }
}
