//! Latency summaries and the metric table the benchmark prints.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; fewer would make it a single outlier.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`p` in whole per-cent) of ascending
/// `sorted` samples, or `None` when fewer than [`MIN_BEYOND`] samples
/// rank above it.
pub fn percentile(sorted: &[f64], p: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n).div_ceil(100).max(1);
    (n >= rank && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `p` (`p` < 100):
/// `n - ceil(p n / 100) >= MIN_BEYOND` holds exactly when
/// `(100 - p) n >= 100 MIN_BEYOND`.
pub fn min_samples(p: usize) -> usize {
    (100 * MIN_BEYOND).div_ceil(100 - p)
}

/// Median of `values` (the lower middle for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric table; `put` keeps insertion order for printing.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }

    /// The metrics as a JSON object body.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 50), Some(100.0));
        assert_eq!(percentile(&s, 90), Some(180.0));
        assert_eq!(percentile(&s, 99), None, "only 2 samples beyond p99");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly 10 beyond it.
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90), None, "rank 90 of 99 leaves 9");
        // p99 needs 1000 samples: rank 990 leaves 10.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn min_samples_is_the_exact_floor() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        for p in 1..100 {
            let n = min_samples(p);
            assert!(percentile(&ramp(n), p).is_some(), "p{p} at {n}");
            assert!(percentile(&ramp(n - 1), p).is_none(), "p{p} at {}", n - 1);
        }
    }

    #[test]
    fn rank_uses_integer_arithmetic() {
        // 0.9 * 100 in floating point is 90.00000000000001; the rank must
        // still be 90, not 91.
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(1100), 99), Some(1089.0));
    }

    #[test]
    fn median_and_mean_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn json_keeps_order_and_digits() {
        let mut m = Metrics::default();
        m.put("b", 1.25, "ms");
        m.put("a", 0.0001234, "s");
        assert_eq!(
            m.to_json(),
            "{\"b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"a\": {\"value\": 0.0001234, \"unit\": \"s\"}}"
        );
    }
}
