//! Streaming dataset ingestion: edge-list loaders and the binary cache.
//!
//! This is the million-edge front door of the pipeline. The loaders
//! build the CSR directly from a text edge list (plain or gzip) in two
//! counting passes — degree histogram, then scatter — so peak transient
//! memory is one `usize` per node instead of the 24 B-per-edge tuple
//! buffer a collect-then-sort builder needs, and no global `O(m log m)`
//! sort ever runs. [`load_cached`] pairs the parse with the on-disk
//! binary CSR cache of [`cache`](self): the first load of a source
//! parses and writes `<source>.csrbin`; subsequent loads verify the
//! source stamp and map the arrays back in milliseconds.
//!
//! Text format (the `sdnd` CLI's native one): one `u v [w]` line per
//! edge, 0-based indices, optional weight column, `#` comments and
//! blank lines ignored. Files ending in `.gz` are decompressed in
//! memory first by the vendored [`gunzip`] decoder — no external
//! binaries or crates involved.
//!
//! ```
//! use sdnd_graph::dataset::{load_edge_list, LoadOptions};
//!
//! let dir = std::env::temp_dir().join("sdnd_dataset_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tiny.txt");
//! std::fs::write(&path, "# tiny\n0 1\n1 2 2.5\n").unwrap();
//! let g = load_edge_list(&path, &LoadOptions::default())?;
//! assert_eq!((g.n(), g.m()), (3, 2));
//! assert!(g.is_weighted()); // auto-detected third column
//! # Ok::<(), sdnd_graph::dataset::DatasetError>(())
//! ```

mod cache;
mod inflate;

pub(crate) use cache::content_hash;
pub use cache::{cache_path_for, read_cache, write_cache};
pub use inflate::{gunzip, gzip_stored, InflateError};

use crate::csr::{check_node_count, CsrScatter};
use crate::{Graph, GraphError};
use std::error::Error;
use std::fmt;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// Errors from the dataset layer. Parse problems carry the 1-based line
/// number of the offending input; cache problems distinguish *stale*
/// (rebuild silently) from *corrupt* (report loudly).
#[derive(Debug)]
pub enum DatasetError {
    /// Reading or writing a file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// An edge-list line did not parse.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        what: String,
    },
    /// Weights were required ([`WeightMode::Require`]) but the file has
    /// no third column anywhere.
    MissingWeights {
        /// The file involved.
        path: PathBuf,
    },
    /// A `.gz` input failed to decompress.
    Gzip {
        /// The file involved.
        path: PathBuf,
        /// The decoder diagnostic.
        source: InflateError,
    },
    /// The parsed edges violated a graph invariant (self-loop,
    /// out-of-range endpoint, invalid weight, too many nodes).
    Graph(GraphError),
    /// A binary cache file is corrupt: checksum mismatch, truncation,
    /// or a structural invariant violation. Worth reporting — the
    /// source did not change, the cache itself is damaged.
    Cache {
        /// The cache file involved.
        path: PathBuf,
        /// What the validator found.
        what: String,
    },
    /// A binary cache file is stale: the source changed, or the format
    /// version moved on. The caller's cue to reparse and rewrite.
    Stale {
        /// The cache file involved.
        path: PathBuf,
        /// Why it no longer applies.
        why: String,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            DatasetError::Parse { path, line, what } => {
                write!(f, "{}: line {line}: {what}", path.display())
            }
            DatasetError::MissingWeights { path } => {
                write!(f, "{} has no third (weight) column", path.display())
            }
            DatasetError::Gzip { path, source } => write!(f, "{}: {source}", path.display()),
            DatasetError::Graph(e) => write!(f, "{e}"),
            DatasetError::Cache { path, what } => {
                write!(f, "{}: corrupt cache: {what}", path.display())
            }
            DatasetError::Stale { path, why } => {
                write!(f, "{}: stale cache: {why}", path.display())
            }
        }
    }
}

impl Error for DatasetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DatasetError::Io { source, .. } => Some(source),
            DatasetError::Gzip { source, .. } => Some(source),
            DatasetError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for DatasetError {
    fn from(e: GraphError) -> Self {
        DatasetError::Graph(e)
    }
}

/// The identity of a source file — length and mtime — stored inside
/// its binary cache so edits invalidate the cache without hashing
/// megabytes on every load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStamp {
    /// File length in bytes.
    pub len: u64,
    /// Modification time, seconds since the Unix epoch (0 when the
    /// filesystem reports a pre-epoch or missing mtime).
    pub mtime_secs: u64,
    /// Sub-second part of the mtime.
    pub mtime_nanos: u32,
}

impl SourceStamp {
    /// Reads the stamp of `path` from filesystem metadata.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`] if the metadata is unreadable.
    pub fn of(path: &Path) -> Result<SourceStamp, DatasetError> {
        let meta = std::fs::metadata(path).map_err(|source| DatasetError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let (mtime_secs, mtime_nanos) = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or((0, 0), |d| (d.as_secs(), d.subsec_nanos()));
        Ok(SourceStamp {
            len: meta.len(),
            mtime_secs,
            mtime_nanos,
        })
    }
}

/// How the loader treats the optional third (weight) column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightMode {
    /// Weighted iff any line carries a third column; lines without one
    /// then default to weight 1. This is the CLI's default.
    #[default]
    Auto,
    /// The file must carry weights ([`DatasetError::MissingWeights`]
    /// otherwise).
    Require,
    /// Ignore any third column and build an unweighted graph (the
    /// caller will install its own metric).
    Ignore,
}

/// Options for [`load_edge_list`] and [`load_cached`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Node count override. `None` means one past the largest index
    /// seen in the file.
    pub nodes: Option<usize>,
    /// Weight-column handling.
    pub weights: WeightMode,
}

/// What [`load_cached`] did to satisfy a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// A valid cache existed; no text was parsed.
    Hit,
    /// The text was parsed and a fresh cache written.
    Written,
    /// The text was parsed; no cache was written (not requested, or the
    /// write failed — loads never fail because a cache could not be
    /// saved).
    Bypassed,
}

/// One parsed data line: 1-based line number, endpoints, optional
/// weight column.
type ParsedEdge = (usize, usize, usize, Option<f64>);

/// Runs `f` over every data line of `reader`, parsing the `u v [w]`
/// format with the same tokenization and diagnostics for both passes.
fn scan_lines<R: BufRead>(
    mut reader: R,
    path: &Path,
    mut f: impl FnMut(ParsedEdge) -> Result<(), DatasetError>,
) -> Result<(), DatasetError> {
    let bad = |line: usize, what: &str| DatasetError::Parse {
        path: path.to_path_buf(),
        line,
        what: what.to_string(),
    };
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let read = reader
            .read_line(&mut buf)
            .map_err(|source| DatasetError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        if read == 0 {
            return Ok(());
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let endpoint = |tok: Option<&str>| -> Result<usize, DatasetError> {
            tok.ok_or_else(|| bad(lineno, "expected `u v [w]`"))?
                .parse()
                .map_err(|_| bad(lineno, "bad node index"))
        };
        let u = endpoint(it.next())?;
        let v = endpoint(it.next())?;
        let w = it
            .next()
            .map(|t| {
                t.parse::<f64>()
                    .map_err(|_| bad(lineno, &format!("bad edge weight `{t}`")))
            })
            .transpose()?;
        f((lineno, u, v, w))?;
    }
}

/// Opens one parsing pass: a fresh buffered reader over the file, or a
/// cursor over the already-decompressed bytes of a `.gz` source.
fn open_pass<'a>(
    path: &Path,
    decompressed: Option<&'a [u8]>,
) -> Result<Box<dyn BufRead + 'a>, DatasetError> {
    match decompressed {
        Some(bytes) => Ok(Box::new(std::io::Cursor::new(bytes))),
        None => {
            let file = std::fs::File::open(path).map_err(|source| DatasetError::Io {
                path: path.to_path_buf(),
                source,
            })?;
            Ok(Box::new(std::io::BufReader::with_capacity(1 << 16, file)))
        }
    }
}

/// Loads a text edge list (plain, or gzip when the path ends in `.gz`)
/// into a [`Graph`] via the two-pass counting construction: pass one
/// validates every line and builds the degree histogram, pass two
/// scatters the edges straight into their CSR rows. The unsorted edge
/// list is never materialized; a plain file is streamed from disk
/// twice, a `.gz` file is decompressed into memory once and scanned
/// there twice.
///
/// Duplicate edges collapse to the minimum weight, exactly as
/// [`GraphBuilder::build`](crate::GraphBuilder::build) collapses them.
///
/// # Errors
///
/// [`DatasetError::Io`]/[`DatasetError::Gzip`] for unreadable input,
/// [`DatasetError::Parse`] (with a 1-based line number) for malformed
/// lines, [`DatasetError::MissingWeights`] under
/// [`WeightMode::Require`], and [`DatasetError::Graph`] for edges that
/// violate graph invariants — including
/// [`GraphError::TooManyNodes`] *before* any oversize allocation.
pub fn load_edge_list(path: &Path, opts: &LoadOptions) -> Result<Graph, DatasetError> {
    let decompressed: Option<Vec<u8>> = if path.extension().is_some_and(|e| e == "gz") {
        let raw = std::fs::read(path).map_err(|source| DatasetError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Some(gunzip(&raw).map_err(|source| DatasetError::Gzip {
            path: path.to_path_buf(),
            source,
        })?)
    } else {
        None
    };
    if let Some(n) = opts.nodes {
        check_node_count(n)?;
    }

    // Pass 1: validate every line, learn the node count and whether any
    // weight column exists, and count directed slots per node.
    let mut deg: Vec<usize> = Vec::new();
    let mut any_weight = false;
    let mut max_index: Option<usize> = None;
    scan_lines(
        open_pass(path, decompressed.as_deref())?,
        path,
        |(line, u, v, w)| {
            let bound = opts.nodes.unwrap_or(u32::MAX as usize + 1);
            // Validate with a weight of 1 here; the *actual* weight is
            // checked separately so the diagnostic carries the line.
            crate::csr::validate_edge(bound, u, v, 1.0).map_err(|e| match e {
                GraphError::NodeOutOfRange { node, .. } if opts.nodes.is_none() => {
                    // Saturating: the index may be `usize::MAX` itself.
                    DatasetError::Graph(GraphError::TooManyNodes {
                        n: node.saturating_add(1),
                    })
                }
                other => DatasetError::Graph(other),
            })?;
            if let Some(w) = w {
                if !(w.is_finite() && w >= 0.0) {
                    return Err(DatasetError::Parse {
                        path: path.to_path_buf(),
                        line,
                        what: format!("bad edge weight `{w}` (must be finite and non-negative)"),
                    });
                }
                any_weight = true;
            }
            let hi = u.max(v);
            if hi >= deg.len() {
                deg.resize(hi + 1, 0);
            }
            deg[u] += 1;
            deg[v] += 1;
            max_index = Some(max_index.map_or(hi, |m| m.max(hi)));
            Ok(())
        },
    )?;
    let n = opts.nodes.unwrap_or_else(|| max_index.map_or(0, |m| m + 1));
    deg.resize(n, 0);

    let weighted = match opts.weights {
        WeightMode::Auto => any_weight,
        WeightMode::Require => {
            if !any_weight {
                return Err(DatasetError::MissingWeights {
                    path: path.to_path_buf(),
                });
            }
            true
        }
        WeightMode::Ignore => false,
    };

    // Pass 2: scatter each edge into its two pre-sized CSR rows. A file
    // that changed between the passes overflows or underfills a row and
    // is reported, never silently corrupted.
    let mut scatter = CsrScatter::from_degrees(deg, weighted);
    scan_lines(
        open_pass(path, decompressed.as_deref())?,
        path,
        |(_, u, v, w)| {
            let w = if weighted { w.unwrap_or(1.0) } else { 1.0 };
            scatter.put(u, v, w)?;
            scatter.put(v, u, w)?;
            Ok(())
        },
    )?;
    Ok(scatter.finish((0..n as u64).collect())?)
}

/// Whether a cached graph satisfies what `opts` asks for; a mismatch
/// (e.g. the cache was written under a different weight mode) is
/// treated as a miss, not an error.
fn cache_satisfies(g: &Graph, opts: &LoadOptions) -> bool {
    let weights_ok = match opts.weights {
        WeightMode::Auto => true,
        WeightMode::Require => g.is_weighted(),
        WeightMode::Ignore => !g.is_weighted(),
    };
    weights_ok && opts.nodes.is_none_or(|n| n == g.n())
}

/// Loads `path` through the binary cache:
///
/// - a `.csrbin` path reads the cache file directly (no source stamp
///   to check);
/// - otherwise, a valid `<path>.csrbin` sibling whose stamp matches the
///   source short-circuits the parse ([`CacheStatus::Hit`]);
/// - otherwise the text is parsed, and — when `write` is set — the
///   cache is (re)written for next time ([`CacheStatus::Written`]).
///
/// A stale, corrupt, or incompatible cache falls back to the text
/// parse; a failed cache *write* degrades to [`CacheStatus::Bypassed`]
/// rather than failing the load.
///
/// # Errors
///
/// As [`load_edge_list`]; additionally [`DatasetError::Cache`] /
/// [`DatasetError::Stale`] when `path` itself is a `.csrbin` file that
/// cannot be used, and [`DatasetError::Graph`] with
/// [`GraphError::InvalidParameter`] when a directly-loaded cache
/// disagrees with `opts`.
pub fn load_cached(
    path: &Path,
    opts: &LoadOptions,
    write: bool,
) -> Result<(Graph, CacheStatus), DatasetError> {
    if path.extension().is_some_and(|e| e == "csrbin") {
        let g = read_cache(path, None)?;
        if !cache_satisfies(&g, opts) {
            return Err(DatasetError::Graph(GraphError::InvalidParameter {
                reason: format!(
                    "{}: cached graph (n = {}, {}) does not match the requested options",
                    path.display(),
                    g.n(),
                    if g.is_weighted() {
                        "weighted"
                    } else {
                        "unweighted"
                    },
                ),
            }));
        }
        return Ok((g, CacheStatus::Hit));
    }
    let stamp = SourceStamp::of(path)?;
    let cache_path = cache_path_for(path);
    if cache_path.exists() {
        if let Ok(g) = read_cache(&cache_path, Some(&stamp)) {
            if cache_satisfies(&g, opts) {
                return Ok((g, CacheStatus::Hit));
            }
        }
    }
    let g = load_edge_list(path, opts)?;
    let status = if write && write_cache(&cache_path, &g, Some(&stamp)).is_ok() {
        CacheStatus::Written
    } else {
        CacheStatus::Bypassed
    };
    Ok((g, status))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("sdnd_dataset_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write(name: &str, contents: &[u8]) -> PathBuf {
        let p = dir().join(name);
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn loads_plain_edge_lists_like_the_builder() {
        let p = write("plain.txt", b"# comment\n0 1\n1 2\n\n 2 3 \n3 1\n");
        let g = load_edge_list(&p, &LoadOptions::default()).unwrap();
        assert_eq!(
            g,
            Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)]).unwrap()
        );
        // --nodes extends the universe.
        let opts = LoadOptions {
            nodes: Some(10),
            ..Default::default()
        };
        assert_eq!(load_edge_list(&p, &opts).unwrap().n(), 10);
        // An empty file is the empty graph.
        let empty = write("empty.txt", b"# nothing\n");
        assert_eq!(
            load_edge_list(&empty, &LoadOptions::default()).unwrap().n(),
            0
        );
    }

    #[test]
    fn weight_modes_cover_auto_require_ignore() {
        let p = write("weights.txt", b"0 1 2.5\n1 2 0.5\n2 3\n");
        let auto = load_edge_list(&p, &LoadOptions::default()).unwrap();
        assert!(auto.is_weighted());
        assert_eq!(auto.edge_weight(NodeId::new(0), NodeId::new(1)), Some(2.5));
        assert_eq!(auto.edge_weight(NodeId::new(2), NodeId::new(3)), Some(1.0));
        let ignore = load_edge_list(
            &p,
            &LoadOptions {
                weights: WeightMode::Ignore,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!ignore.is_weighted());
        let plain = write("noweights.txt", b"0 1\n1 2\n");
        let err = load_edge_list(
            &plain,
            &LoadOptions {
                weights: WeightMode::Require,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("no third"), "{err}");
        // Duplicates collapse to the minimum weight, like the builder.
        let dup = write("dup.txt", b"0 1 5.0\n1 0 2.0\n0 1 7.5\n");
        let g = load_edge_list(&dup, &LoadOptions::default()).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(2.0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases: [(&str, &[u8], &str); 5] = [
            ("bad_index.txt", b"0 1\n0 x\n", "line 2: bad node index"),
            ("short.txt", b"7\n", "line 1: expected `u v [w]`"),
            ("bad_w.txt", b"0 1 soup\n", "bad edge weight `soup`"),
            ("neg_w.txt", b"0 1 -2\n", "line 1: bad edge weight"),
            ("nan_w.txt", b"0 1 NaN\n", "line 1: bad edge weight"),
        ];
        for (name, contents, needle) in cases {
            let p = write(name, contents);
            let err = load_edge_list(&p, &LoadOptions::default()).unwrap_err();
            assert!(err.to_string().contains(needle), "{name}: {err}");
        }
        // Graph invariants surface as GraphError.
        let p = write("self_loop.txt", b"1 1\n");
        let err = load_edge_list(&p, &LoadOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::Graph(GraphError::SelfLoop { node: 1 })
        ));
        // --nodes bounds are enforced.
        let p = write("oob.txt", b"0 9\n");
        let opts = LoadOptions {
            nodes: Some(4),
            ..Default::default()
        };
        let err = load_edge_list(&p, &opts).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::Graph(GraphError::NodeOutOfRange { node: 9, n: 4 })
        ));
        // Oversize indices come back as TooManyNodes, not a panic (and
        // not a 32 GB allocation), up to the largest `usize`.
        for huge in [u32::MAX as u64 + 1, usize::MAX as u64] {
            let p = write("huge.txt", format!("0 {huge}\n").as_bytes());
            let err = load_edge_list(&p, &LoadOptions::default()).unwrap_err();
            assert!(matches!(
                err,
                DatasetError::Graph(GraphError::TooManyNodes { .. })
            ));
        }
        // A missing file is an Io error that names the path.
        let missing = dir().join("nope.txt");
        let err = load_edge_list(&missing, &LoadOptions::default()).unwrap_err();
        assert!(err.to_string().contains("nope.txt"), "{err}");
    }

    #[test]
    fn gzip_sources_load_identically() {
        let text = b"# gz\n0 1\n1 2 4.5\n2 3\n";
        let plain = write("gz_twin.txt", text);
        let gz = write("gz_twin.txt.gz", &gzip_stored(text));
        let a = load_edge_list(&plain, &LoadOptions::default()).unwrap();
        let b = load_edge_list(&gz, &LoadOptions::default()).unwrap();
        assert_eq!(a, b);
        // A corrupt .gz reports the decoder diagnostic, with the path.
        let mut broken = gzip_stored(text);
        broken[0] = 0;
        let p = write("broken.txt.gz", &broken);
        let err = load_edge_list(&p, &LoadOptions::default()).unwrap_err();
        assert!(
            matches!(err, DatasetError::Gzip { .. }) && err.to_string().contains("broken"),
            "{err}"
        );
    }

    #[test]
    fn cache_round_trips_weighted_and_unweighted() {
        for (name, contents) in [
            ("rt_plain.txt", &b"0 1\n1 2\n2 0\n"[..]),
            ("rt_weighted.txt", &b"0 1 0.5\n1 2 2\n2 0 1e3\n"[..]),
        ] {
            let p = write(name, contents);
            let original = load_edge_list(&p, &LoadOptions::default()).unwrap();
            let cp = cache_path_for(&p);
            let stamp = SourceStamp::of(&p).unwrap();
            write_cache(&cp, &original, Some(&stamp)).unwrap();
            let reread = read_cache(&cp, Some(&stamp)).unwrap();
            assert_eq!(reread, original, "{name}");
            // Custom ids survive too.
            let with_ids = original.clone().with_ids(vec![7, 5, 3]).unwrap();
            write_cache(&cp, &with_ids, None).unwrap();
            let reread = read_cache(&cp, None).unwrap();
            assert_eq!(reread, with_ids, "{name} with ids");
        }
    }

    #[test]
    fn cache_rejects_corruption_and_staleness() {
        let p = write("victim.txt", b"0 1\n1 2\n");
        let g = load_edge_list(&p, &LoadOptions::default()).unwrap();
        let stamp = SourceStamp::of(&p).unwrap();
        let cp = cache_path_for(&p);
        write_cache(&cp, &g, Some(&stamp)).unwrap();
        let pristine = std::fs::read(&cp).unwrap();

        // Stale: the stamp no longer matches.
        let newer = SourceStamp {
            len: stamp.len + 1,
            ..stamp.clone()
        };
        let err = read_cache(&cp, Some(&newer)).unwrap_err();
        assert!(matches!(err, DatasetError::Stale { .. }), "{err}");
        // Stale: future format version.
        let mut v2 = pristine.clone();
        v2[7] = 2;
        let vp = write("victim_v2.csrbin", &v2);
        let err = read_cache(&vp, None).unwrap_err();
        assert!(
            matches!(err, DatasetError::Stale { .. }) && err.to_string().contains("version"),
            "{err}"
        );
        // Corrupt: wrong magic entirely.
        let mp = write("victim_magic.csrbin", b"NOTACSR\x01rest");
        let err = read_cache(&mp, None).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // Corrupt: every truncation fails cleanly, never panics.
        for cut in 0..pristine.len() {
            let tp = write("victim_cut.csrbin", &pristine[..cut]);
            let err = read_cache(&tp, None).unwrap_err();
            assert!(
                matches!(err, DatasetError::Cache { .. } | DatasetError::Stale { .. }),
                "cut {cut}: {err}"
            );
        }
        // Corrupt: a flipped payload byte trips the checksum.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let fp = write("victim_flip.csrbin", &flipped);
        let err = read_cache(&fp, None).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn cache_validates_structure_not_just_checksums() {
        // A "cache" written with a correct checksum but broken graph
        // structure must still be rejected: forge one by re-encoding a
        // hand-corrupted graph through the public writer after patching
        // bytes *and* fixing the checksum.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let cp = dir().join("forged.csrbin");
        write_cache(&cp, &g, None).unwrap();
        let pristine = std::fs::read(&cp).unwrap();
        // adj section: offsets end at 8 + 4 + 8 + 8 + 4*8 = 60; slots=4.
        // Patch adj[0] (bytes 60..64) from 1 to 2: rows become unsorted /
        // asymmetric.
        let mut forged = pristine.clone();
        forged[60] = 2;
        let body_len = forged.len() - 4;
        let crc = super::inflate::crc32(&forged[..body_len]);
        forged[body_len..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&cp, &forged).unwrap();
        let err = read_cache(&cp, None).unwrap_err();
        assert!(
            err.to_string().contains("symmetric") || err.to_string().contains("ascending"),
            "{err}"
        );
    }

    #[test]
    fn load_cached_hits_after_writing() {
        let p = write("cached.txt", b"0 1 2.0\n1 2 3.0\n");
        let cp = cache_path_for(&p);
        let _ = std::fs::remove_file(&cp);
        let opts = LoadOptions::default();
        let (g1, s1) = load_cached(&p, &opts, true).unwrap();
        assert_eq!(s1, CacheStatus::Written);
        assert!(cp.exists());
        let (g2, s2) = load_cached(&p, &opts, false).unwrap();
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(g1, g2);
        // Loading the .csrbin directly also works.
        let (g3, s3) = load_cached(&cp, &opts, false).unwrap();
        assert_eq!(s3, CacheStatus::Hit);
        assert_eq!(g1, g3);
        // An incompatible option set falls back to the text parse...
        let ignore = LoadOptions {
            weights: WeightMode::Ignore,
            ..Default::default()
        };
        let (g4, s4) = load_cached(&p, &ignore, false).unwrap();
        assert!(!g4.is_weighted());
        assert_eq!(s4, CacheStatus::Bypassed);
        // ...but a direct .csrbin load with incompatible options errors.
        assert!(load_cached(&cp, &ignore, false).is_err());
        // Touching the source invalidates the cache (stamp mismatch).
        std::fs::write(&p, b"0 1 2.0\n1 2 3.0\n2 3 4.0\n").unwrap();
        let (g5, s5) = load_cached(&p, &opts, true).unwrap();
        assert_eq!(g5.m(), 3);
        assert_eq!(s5, CacheStatus::Written);
        // No-write mode on a missing cache parses and stays quiet.
        let _ = std::fs::remove_file(&cp);
        let (_, s6) = load_cached(&p, &opts, false).unwrap();
        assert_eq!(s6, CacheStatus::Bypassed);
        assert!(!cp.exists());
    }

    #[test]
    fn errors_display_cleanly() {
        let errs = [
            DatasetError::Io {
                path: "x".into(),
                source: std::io::Error::other("boom"),
            },
            DatasetError::Parse {
                path: "x".into(),
                line: 3,
                what: "w".into(),
            },
            DatasetError::MissingWeights { path: "x".into() },
            DatasetError::Gzip {
                path: "x".into(),
                source: InflateError::TruncatedInput,
            },
            DatasetError::Graph(GraphError::SelfLoop { node: 1 }),
            DatasetError::Cache {
                path: "x".into(),
                what: "w".into(),
            },
            DatasetError::Stale {
                path: "x".into(),
                why: "w".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            let _ = e.source();
        }
    }
}
