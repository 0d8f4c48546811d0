//! Concrete constants behind the paper's asymptotics.

use sdnd_weak::Rg20;

/// Explicit constants for the paper's `O(·)` parameters.
///
/// The theorems only require *some* constant behind each `O(log n / eps)`
/// window; these are the defaults the test suite and experiment harness
/// pin down. The ablation benches sweep them.
#[derive(Debug, Clone)]
pub struct Params {
    /// Constant `c` in Theorem 2.1's radius-growth window
    /// `ceil(c * ln n / eps)`.
    pub growth_window_c: f64,
    /// Constant `c` in Lemma 3.1's sparse-cut trigger and ratio windows
    /// `ceil(c * ln n / eps)`.
    pub cut_window_c: f64,
    /// Divisor `d` in the Theorem 2.1 inner boundary
    /// `eps' = eps / (d * ceil(log2 n))`.
    pub inner_eps_divisor: f64,
    /// Divisor `d` in the Theorem 3.2 inner boundary
    /// `eps' = eps / (d * ceil(log2 n))`.
    pub improve_eps_divisor: f64,
    /// Use the GGR21-style weak carver (tree rebuilding) inside
    /// Theorem 2.2, as the paper does; disable for the plain-RG20
    /// ablation.
    pub use_ggr21: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            growth_window_c: 4.0,
            cut_window_c: 8.0,
            inner_eps_divisor: 2.0,
            improve_eps_divisor: 4.0,
            use_ggr21: true,
        }
    }
}

impl Params {
    /// `ceil(log2 n)`, at least 1 — the paper's `log n`.
    pub fn log2n(n: usize) -> u32 {
        (n.max(2) as f64).log2().ceil() as u32
    }

    /// Theorem 2.1 inner boundary `eps' = eps / (d log n)`.
    pub fn inner_eps(&self, eps: f64, n: usize) -> f64 {
        eps / (self.inner_eps_divisor * Self::log2n(n) as f64)
    }

    /// Theorem 3.2 inner boundary.
    pub fn improve_eps(&self, eps: f64, n: usize) -> f64 {
        eps / (self.improve_eps_divisor * Self::log2n(n) as f64)
    }

    /// Theorem 2.1 radius-growth window `ceil(c ln n / eps)`.
    pub fn growth_window(&self, eps: f64, n: usize) -> u32 {
        ((self.growth_window_c * (n.max(2) as f64).ln()) / eps).ceil() as u32
    }

    /// Lemma 3.1 window `ceil(c ln n / eps)`.
    pub fn cut_window(&self, eps: f64, n: usize) -> u32 {
        ((self.cut_window_c * (n.max(2) as f64).ln()) / eps).ceil() as u32
    }

    /// The weak carver Theorem 2.2 plugs into the transformation.
    pub fn weak_carver(&self) -> Rg20 {
        if self.use_ggr21 {
            Rg20::ggr21()
        } else {
            Rg20::rg20()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_scale_with_inputs() {
        let p = Params::default();
        assert!(p.growth_window(0.25, 1000) > p.growth_window(0.5, 1000));
        assert!(p.growth_window(0.5, 100_000) > p.growth_window(0.5, 100));
        assert!(p.cut_window(0.5, 1000) >= p.growth_window(0.5, 1000));
    }

    #[test]
    fn inner_eps_shrinks_logarithmically() {
        let p = Params::default();
        let e1 = p.inner_eps(0.5, 1 << 10);
        let e2 = p.inner_eps(0.5, 1 << 20);
        assert!((e1 / e2 - 2.0).abs() < 1e-9, "doubling log n halves eps'");
    }

    #[test]
    fn log2n_edges() {
        assert_eq!(Params::log2n(0), 1);
        assert_eq!(Params::log2n(2), 1);
        assert_eq!(Params::log2n(3), 2);
        assert_eq!(Params::log2n(1024), 10);
        assert_eq!(Params::log2n(1025), 11);
    }

    #[test]
    fn carver_selection() {
        use sdnd_clustering::WeakCarver;
        let p = Params::default();
        assert_eq!(p.weak_carver().name(), "ggr21");
        let plain = Params {
            use_ggr21: false,
            ..Params::default()
        };
        assert_eq!(plain.weak_carver().name(), "rg20");
    }
}
