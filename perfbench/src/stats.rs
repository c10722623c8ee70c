//! Order statistics over latency samples.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of sorted samples.
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond the `p`-quantile, the
/// condition for reporting that quantile.
fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// The median of a small set of measurements (the mean of the middle two
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A sorted latency distribution with its summary line.
pub struct Dist {
    /// Samples in nanoseconds, ascending.
    pub sorted: Vec<u64>,
}

impl Dist {
    /// Sorts `samples`.
    pub fn new(mut samples: Vec<u64>) -> Dist {
        samples.sort_unstable();
        Dist { sorted: samples }
    }

    /// The `p`-quantile in `unit_ns`-nanosecond units.
    pub fn at(&self, p: f64, unit_ns: f64) -> f64 {
        quantile(&self.sorted, p) as f64 / unit_ns
    }

    /// The mean in `unit_ns`-nanosecond units.
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&x| x as f64).sum::<f64>() / self.sorted.len() as f64 / unit_ns
    }

    /// "median, highest supported percentile, sample count" in `unit`.
    pub fn summary(&self, unit: &str, unit_ns: f64) -> String {
        let n = self.sorted.len();
        let tail = match tail_quantile(n) {
            Some(p) if p > 0.5 => format!(", p{} {:.1}", p * 100.0, self.at(p, unit_ns)),
            _ => String::new(),
        };
        format!("p50 {:.1}{tail} {unit} (n={n})", self.at(0.5, unit_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(19), None);
    }
}
