//! The framed line protocol: one request per line, one response per
//! line, UTF-8, newline-framed.
//!
//! # Grammar
//!
//! ```text
//! request  := [tag] [deadline] verb
//! tag      := "id=" TOKEN          (echoed verbatim on the response)
//! deadline := "deadline=" MILLIS   (wall-clock budget, armed at admission)
//! verb     := "load" SPEC
//!           | "decompose" DNAME EPS SEED
//!           | "carve" CNAME EPS
//!           | "cluster-of" NODE
//!           | "distance-in-cluster" NODE NODE
//!           | "validate" | "validate:approx"
//!           | "stats" | "debug-panic" | "shutdown"
//! SPEC     := a path to an edge list / `.csrbin` cache, or a generator
//!             spec: grid:RxC | cycle:N | path:N | gnp:N:SEED
//! DNAME    := a `decompose` name of sdnd_core::registry
//!             (ls93 | rg20 | ggr21 | en16 | sequential | abcp96 | thm2.3 | thm3.4)
//! CNAME    := a `carve` name of sdnd_core::registry
//!             (ls93 | rg20 | ggr21 | mpx13 | sequential | abcp96 | thm2.2 | thm3.3)
//! ```
//!
//! `SEED` seeds the randomized entries' decompositions (`ls93`,
//! `en16`); the deterministic ones ignore it, though it stays part of
//! the cache key. `carve` has no seed on the wire and runs the
//! randomized carvers with seed [`CARVE_SEED`].
//!
//! Responses start with `ok ` or `err ` (after the echoed tag, when the
//! request carried one). The error frames the daemon's robustness story
//! revolves around:
//!
//! ```text
//! err cancelled phase=<p> elapsed-ms=<t>     cooperative deadline trip
//! err overloaded retry-after-ms=<t>          admission queue full
//! err panic session-rebuilt                  request panicked; session reset
//! err bad-request <reason> | err no-graph | err no-decomposition ...
//! ```

use sdnd_core::registry::{self, Algorithm};
use std::time::Duration;

/// The seed `carve` runs the randomized carvers (`ls93`, `mpx13`) with.
pub const CARVE_SEED: u64 = 0;

/// Which validation tier the client asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateTier {
    /// Exact diameters, but the daemon may degrade to the approximate
    /// tier when the remaining deadline budget cannot cover the learned
    /// per-graph exact cost. The response reports which tier answered.
    Auto,
    /// Always the HyperBall approximate tier.
    Approx,
}

/// One parsed request verb.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Load (or switch to) a graph.
    Load {
        /// Path or generator spec.
        spec: String,
    },
    /// Compute (or fetch from the LRU) a network decomposition.
    Decompose {
        /// The algorithm, by its `decompose` name.
        algo: &'static Algorithm,
        /// Boundary parameter; part of the cache key.
        eps: f64,
        /// Seed; part of the cache key.
        seed: u64,
    },
    /// Compute a single ball carving (never cached).
    Carve {
        /// The algorithm, by its `carve` name.
        algo: &'static Algorithm,
        /// Boundary parameter.
        eps: f64,
    },
    /// Cluster id, color, and size of a node in the current decomposition.
    ClusterOf {
        /// The node (original id space).
        v: usize,
    },
    /// BFS distance between two nodes inside their shared cluster.
    DistanceInCluster {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// Validate the current decomposition.
    Validate {
        /// Requested tier.
        tier: ValidateTier,
    },
    /// Daemon counters.
    Stats,
    /// Deliberately panic inside the worker (tests panic isolation).
    DebugPanic,
    /// Stop the daemon after replying.
    Shutdown,
}

/// The request envelope: optional client tag, optional deadline budget,
/// and the verb.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen tag echoed on the response (`id=...`).
    pub tag: Option<String>,
    /// Wall-clock budget (`deadline=<ms>`), armed at admission so queue
    /// wait counts against it.
    pub deadline: Option<Duration>,
    /// The verb.
    pub request: Request,
}

/// Splits the envelope prefix (`id=`, `deadline=`) off a raw line
/// without parsing the verb. The reader thread uses this to arm the
/// deadline at admission time; the verb is parsed later in the worker.
///
/// # Errors
///
/// A human-readable reason when the `deadline=` value is malformed.
pub fn split_prefix(line: &str) -> Result<(Option<String>, Option<Duration>, &str), String> {
    let mut rest = line.trim_start();
    let mut tag = None;
    let mut deadline = None;
    loop {
        if let Some(r) = rest.strip_prefix("id=") {
            let (value, tail) = r.split_once(char::is_whitespace).unwrap_or((r, ""));
            if value.is_empty() {
                return Err("empty id= tag".into());
            }
            tag = Some(value.to_string());
            rest = tail.trim_start();
        } else if let Some(r) = rest.strip_prefix("deadline=") {
            let (value, tail) = r.split_once(char::is_whitespace).unwrap_or((r, ""));
            let ms: u64 = value
                .parse()
                .map_err(|_| format!("deadline wants integer milliseconds, got `{value}`"))?;
            deadline = Some(Duration::from_millis(ms));
            rest = tail.trim_start();
        } else {
            return Ok((tag, deadline, rest));
        }
    }
}

/// Parses a request verb (the line after [`split_prefix`]).
///
/// # Errors
///
/// A human-readable reason, reported to the client as
/// `err bad-request <reason>`.
pub fn parse_request(verb: &str) -> Result<Request, String> {
    let mut tokens = verb.split_whitespace();
    let cmd = tokens.next().ok_or("empty request")?;
    let req = match cmd {
        "load" => Request::Load {
            spec: tokens
                .next()
                .ok_or("load wants a path or spec")?
                .to_string(),
        },
        "decompose" => {
            let name = tokens.next().ok_or("decompose wants: algo eps seed")?;
            let algo = registry::find_decompose(name)
                .ok_or_else(|| format!("unknown decompose algorithm `{name}`"))?;
            let eps: f64 = parse_num(tokens.next(), "eps")?;
            if !(eps > 0.0 && eps < 1.0) {
                return Err(format!("eps must be in (0, 1), got {eps}"));
            }
            let seed: u64 = parse_num(tokens.next(), "seed")?;
            Request::Decompose { algo, eps, seed }
        }
        "carve" => {
            let name = tokens.next().ok_or("carve wants: algo eps")?;
            let algo = registry::find_carve(name)
                .ok_or_else(|| format!("unknown carve algorithm `{name}`"))?;
            let eps: f64 = parse_num(tokens.next(), "eps")?;
            if !(eps > 0.0 && eps < 1.0) {
                return Err(format!("eps must be in (0, 1), got {eps}"));
            }
            Request::Carve { algo, eps }
        }
        "cluster-of" => Request::ClusterOf {
            v: parse_num(tokens.next(), "node")?,
        },
        "distance-in-cluster" => Request::DistanceInCluster {
            u: parse_num(tokens.next(), "node u")?,
            v: parse_num(tokens.next(), "node v")?,
        },
        "validate" => Request::Validate {
            tier: ValidateTier::Auto,
        },
        "validate:approx" => Request::Validate {
            tier: ValidateTier::Approx,
        },
        "stats" => Request::Stats,
        "debug-panic" => Request::DebugPanic,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown request `{other}`")),
    };
    if let Some(extra) = tokens.next() {
        return Err(format!("trailing token `{extra}`"));
    }
    Ok(req)
}

fn parse_num<T: std::str::FromStr>(token: Option<&str>, what: &str) -> Result<T, String> {
    let t = token.ok_or_else(|| format!("missing {what}"))?;
    t.parse().map_err(|_| format!("{what}: cannot parse `{t}`"))
}

/// Coarse classification of a response line, as the load generator and
/// the smoke tests see it. Parsing is intentionally shallow: a frame is
/// well-formed when it starts with `ok ` / `ok` or a known `err` kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// `ok ...`
    Ok,
    /// `err cancelled ...`
    Cancelled,
    /// `err overloaded retry-after-ms=<t>` — the hint in milliseconds.
    Overloaded,
    /// `err panic ...`
    Panicked,
    /// Any other `err ...`
    OtherError,
    /// Not a protocol frame at all.
    Malformed,
}

/// Classifies a response line (after stripping any `id=` echo).
#[must_use]
pub fn classify_response(line: &str) -> ResponseKind {
    let line = line
        .strip_prefix("id=")
        .and_then(|r| r.split_once(char::is_whitespace).map(|(_, tail)| tail))
        .unwrap_or(line)
        .trim_start();
    if line == "ok" || line.starts_with("ok ") {
        ResponseKind::Ok
    } else if line.starts_with("err cancelled") {
        ResponseKind::Cancelled
    } else if line.starts_with("err overloaded") {
        ResponseKind::Overloaded
    } else if line.starts_with("err panic") {
        ResponseKind::Panicked
    } else if line.starts_with("err ") {
        ResponseKind::OtherError
    } else {
        ResponseKind::Malformed
    }
}

/// Extracts the `retry-after-ms=` hint from an overloaded response.
#[must_use]
pub fn retry_after_ms(line: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix("retry-after-ms="))
        .and_then(|v| v.parse().ok())
}

/// Formats the `err overloaded` frame (emitted by the reader thread,
/// which has no access to the worker's state).
#[must_use]
pub fn overloaded_frame(retry_after: Duration) -> String {
    format!("err overloaded retry-after-ms={}", retry_after.as_millis())
}

/// Prepends the echoed tag, when the request carried one.
#[must_use]
pub fn tag_frame(tag: Option<&str>, body: &str) -> String {
    match tag {
        Some(t) => format!("id={t} {body}"),
        None => body.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_roundtrip() {
        let (tag, dl, rest) = split_prefix("id=7 deadline=5 decompose thm2.3 0.5 0").unwrap();
        assert_eq!(tag.as_deref(), Some("7"));
        assert_eq!(dl, Some(Duration::from_millis(5)));
        assert_eq!(rest, "decompose thm2.3 0.5 0");

        let (tag, dl, rest) = split_prefix("stats").unwrap();
        assert!(tag.is_none() && dl.is_none());
        assert_eq!(rest, "stats");

        assert!(split_prefix("deadline=abc stats").is_err());
        assert!(split_prefix("id= stats").is_err());
    }

    #[test]
    fn verbs_parse_and_reject() {
        assert_eq!(
            parse_request("decompose thm3.4 0.5 9").unwrap(),
            Request::Decompose {
                algo: registry::find_decompose("thm3.4").unwrap(),
                eps: 0.5,
                seed: 9
            }
        );
        assert_eq!(
            parse_request("distance-in-cluster 3 4").unwrap(),
            Request::DistanceInCluster { u: 3, v: 4 }
        );
        assert_eq!(
            parse_request("validate:approx").unwrap(),
            Request::Validate {
                tier: ValidateTier::Approx
            }
        );
        assert!(parse_request("decompose thm9.9 0.5 0").is_err());
        assert!(parse_request("decompose thm2.3 1.5 0").is_err());
        assert!(parse_request("carve thm2.2 0.5 extra").is_err());
        assert!(parse_request("").is_err());
        assert!(parse_request("frobnicate").is_err());
    }

    #[test]
    fn response_classification() {
        assert_eq!(classify_response("ok cluster=3 color=1"), ResponseKind::Ok);
        assert_eq!(
            classify_response("id=9 ok cluster=3"),
            ResponseKind::Ok,
            "tag echo is stripped before classification"
        );
        assert_eq!(
            classify_response("err cancelled phase=rg20-bit-phase elapsed-ms=6"),
            ResponseKind::Cancelled
        );
        assert_eq!(
            classify_response("err overloaded retry-after-ms=12"),
            ResponseKind::Overloaded
        );
        assert_eq!(retry_after_ms("err overloaded retry-after-ms=12"), Some(12));
        assert_eq!(
            classify_response("err panic session-rebuilt"),
            ResponseKind::Panicked
        );
        assert_eq!(classify_response("err no-graph"), ResponseKind::OtherError);
        assert_eq!(classify_response("banana"), ResponseKind::Malformed);
    }

    #[test]
    fn tagging() {
        assert_eq!(tag_frame(Some("a1"), "ok"), "id=a1 ok");
        assert_eq!(tag_frame(None, "ok"), "ok");
        assert_eq!(
            overloaded_frame(Duration::from_millis(7)),
            "err overloaded retry-after-ms=7"
        );
    }
}
