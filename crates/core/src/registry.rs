//! The algorithm registry: every carver the workspace runs, by name.
//!
//! Every decomposition of the paper and its baselines is the LS93
//! reduction over one ball carver, repeated at `eps = 1/2`: Theorems 2.3
//! and 3.4 run it over Theorems 2.2 and 3.3, and EN16 runs it over MPX13.
//! So the whole algorithm space is one list of eight carvers,
//! [`ALGORITHMS`], and each entry answers to one name under `carve` and
//! one under `decompose`. The CLI, the `sdnd serve` protocol and the
//! experiment harness all look names up here and run entries through
//! [`Algorithm::carve_in`] and [`Algorithm::decompose_in`]; nothing else
//! decides which algorithms exist.
//!
//! ```
//! use sdnd_core::{registry, CarveCtx};
//! use sdnd_clustering::validate_decomposition;
//!
//! let g = sdnd_graph::gen::grid(8, 8);
//! let algo = registry::find_decompose("thm2.3").expect("registered");
//! assert_eq!(algo.carve_name, "thm2.2");
//! let mut ledger = sdnd_congest::RoundLedger::new();
//! let d = algo.decompose_in(0, &g, &mut ledger, &mut CarveCtx::new())?;
//! assert!(validate_decomposition(&g, &d).is_valid());
//! # Ok::<(), sdnd_clustering::Cancelled>(())
//! ```

use crate::{Params, Theorem22Carver, Theorem33Carver};
use sdnd_baselines::{Abcp96, Mpx13, SequentialGreedy};
use sdnd_clustering::{
    decompose_with_strong_carver_in, try_decompose_by_carving, BallCarving, Cancelled, CarveCtx,
    NetworkDecomposition, StrongCarver, WeakCarver,
};
use sdnd_congest::RoundLedger;
use sdnd_graph::{Graph, NodeSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// The diameter guarantee of an algorithm's clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Clusters are connected in `G[C]`: bounded *strong* diameter.
    Strong,
    /// Clusters may be internally disconnected: bounded *weak* diameter.
    Weak,
}

impl Class {
    /// `strong` or `weak`, as the experiment tables print it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Strong => "strong",
            Class::Weak => "weak",
        }
    }
}

/// A carver built by a registry entry.
enum Carver {
    Strong(Box<dyn StrongCarver>),
    Weak(Box<dyn WeakCarver>),
}

/// One registry entry: a ball carver, the names it answers to, and its
/// table labels.
///
/// Entries are compared and hashed by [`carve_name`](Self::carve_name),
/// which is unique, so `&'static Algorithm` serves as a `Copy` handle
/// in request types and cache keys.
pub struct Algorithm {
    /// Name under `carve` (CLI `--algorithm`, serve `carve`).
    pub carve_name: &'static str,
    /// Name under `decompose`: the theorem or paper that the LS93
    /// reduction over this carver is known as.
    pub decompose_name: &'static str,
    /// Table label of a carving: the built carver's `name()`.
    pub label: &'static str,
    /// Table label of a decomposition.
    pub decompose_label: &'static str,
    /// `det`, `rand`, or `det*` (deterministic, but its round count is
    /// linear in `n`).
    pub model: &'static str,
    /// The diameter guarantee of the clusters.
    pub class: Class,
    build: fn(u64) -> Carver,
}

impl Algorithm {
    /// One ball carving of `G[alive]` with boundary parameter `eps`. A
    /// weak carver's Steiner forest is dropped. `seed` seeds the
    /// randomized entries (`ls93`, `mpx13`); the deterministic ones
    /// ignore it and use [`Params::default`].
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the context's armed deadline trips at a phase
    /// boundary; the context stays safely reusable.
    pub fn carve_in(
        &self,
        seed: u64,
        g: &Graph,
        alive: &NodeSet,
        eps: f64,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<BallCarving, Cancelled> {
        match (self.build)(seed) {
            Carver::Strong(c) => c.carve_strong_in(g, alive, eps, ledger, ctx),
            Carver::Weak(c) => Ok(c.carve_weak_in(g, alive, eps, ledger, ctx)?.into_parts().0),
        }
    }

    /// The LS93 reduction over this carver at `eps = 1/2`: a network
    /// decomposition of `g` whose clusters carry the entry's
    /// [`class`](Self::class) of diameter guarantee. `seed` as in
    /// [`carve_in`](Self::carve_in).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the context's armed deadline trips
    /// mid-reduction; the context stays safely reusable.
    pub fn decompose_in(
        &self,
        seed: u64,
        g: &Graph,
        ledger: &mut RoundLedger,
        ctx: &mut CarveCtx,
    ) -> Result<NetworkDecomposition, Cancelled> {
        match (self.build)(seed) {
            Carver::Strong(c) => decompose_with_strong_carver_in(g, &*c, 0.5, ledger, ctx),
            Carver::Weak(c) => {
                let start = NodeSet::full(g.n());
                try_decompose_by_carving(g, &start, 0.5, ledger, |g, alive, eps, ledger| {
                    Ok(c.carve_weak_in(g, alive, eps, ledger, ctx)?.into_parts().0)
                })
            }
        }
    }
}

impl PartialEq for Algorithm {
    fn eq(&self, other: &Self) -> bool {
        self.carve_name == other.carve_name
    }
}

impl Eq for Algorithm {}

impl Hash for Algorithm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.carve_name.hash(state);
    }
}

impl fmt::Debug for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Algorithm({})", self.carve_name)
    }
}

/// Every algorithm, in the row order of the experiment tables: the
/// weak carvers, then the baselines, then the paper's own.
pub static ALGORITHMS: [Algorithm; 8] = [
    Algorithm {
        carve_name: "ls93",
        decompose_name: "ls93",
        label: "ls93",
        decompose_label: "ls93",
        model: "rand",
        class: Class::Weak,
        build: |seed| Carver::Weak(Box::new(sdnd_weak::Ls93::new(seed))),
    },
    Algorithm {
        carve_name: "rg20",
        decompose_name: "rg20",
        label: "rg20",
        decompose_label: "rg20",
        model: "det",
        class: Class::Weak,
        build: |_| Carver::Weak(Box::new(sdnd_weak::Rg20::rg20())),
    },
    Algorithm {
        carve_name: "ggr21",
        decompose_name: "ggr21",
        label: "ggr21",
        decompose_label: "ggr21",
        model: "det",
        class: Class::Weak,
        build: |_| Carver::Weak(Box::new(sdnd_weak::Rg20::ggr21())),
    },
    Algorithm {
        carve_name: "mpx13",
        decompose_name: "en16",
        label: "mpx13",
        decompose_label: "mpx13/en16",
        model: "rand",
        class: Class::Strong,
        build: |seed| Carver::Strong(Box::new(Mpx13::new(seed))),
    },
    Algorithm {
        carve_name: "sequential",
        decompose_name: "sequential",
        label: "ls93-sequential",
        decompose_label: "ls93-sequential",
        model: "det*",
        class: Class::Strong,
        build: |_| Carver::Strong(Box::new(SequentialGreedy::new())),
    },
    Algorithm {
        carve_name: "abcp96",
        decompose_name: "abcp96",
        label: "abcp96-local",
        decompose_label: "abcp96-local",
        model: "det",
        class: Class::Strong,
        build: |_| Carver::Strong(Box::new(Abcp96::new())),
    },
    Algorithm {
        carve_name: "thm2.2",
        decompose_name: "thm2.3",
        label: "cg21-thm2.2",
        decompose_label: "cg21-thm2.3",
        model: "det",
        class: Class::Strong,
        build: |_| Carver::Strong(Box::new(Theorem22Carver::new(Params::default()))),
    },
    Algorithm {
        carve_name: "thm3.3",
        decompose_name: "thm3.4",
        label: "cg21-thm3.3",
        decompose_label: "cg21-thm3.4",
        model: "det",
        class: Class::Strong,
        build: |_| Carver::Strong(Box::new(Theorem33Carver::new(Params::default()))),
    },
];

/// The entry answering to `name` under `carve`.
#[must_use]
pub fn find_carve(name: &str) -> Option<&'static Algorithm> {
    ALGORITHMS.iter().find(|a| a.carve_name == name)
}

/// The entry answering to `name` under `decompose`.
#[must_use]
pub fn find_decompose(name: &str) -> Option<&'static Algorithm> {
    ALGORITHMS.iter().find(|a| a.decompose_name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn entries_build_their_label_and_class_under_unique_names() {
        for algo in &ALGORITHMS {
            let (name, class) = match (algo.build)(7) {
                Carver::Strong(c) => (c.name(), Class::Strong),
                Carver::Weak(c) => (c.name(), Class::Weak),
            };
            assert_eq!(name, algo.label, "{algo:?}: table label");
            assert_eq!(class, algo.class, "{algo:?}: class");
        }
        for names in [
            ALGORITHMS.each_ref().map(|a| a.carve_name),
            ALGORITHMS.each_ref().map(|a| a.decompose_name),
        ] {
            assert_eq!(
                names.iter().collect::<HashSet<_>>().len(),
                names.len(),
                "{names:?}"
            );
        }
    }
}
