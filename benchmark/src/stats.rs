//! Order statistics the benchmark gates on.
//!
//! Two rules from the issue live here. Host-time cells are gated on
//! the *lower decile* of batch means (the median moves 14 % between
//! identical runs on the 2-CPU reference host, the lower decile
//! 1–7 %), with median and q90 printed beside it. Tail percentiles
//! are only reported where at least ten samples lie beyond them;
//! otherwise the highest percentile that satisfies the rule is used
//! and the note says which.

/// Sorted-sample quantile by nearest rank (`q` in `[0, 1]`); 0 for an
/// empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// [`quantile`] over floating-point samples.
pub fn quantile_f(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at `percentile`.
    pub value: u64,
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: f64,
    /// Samples the statistic was taken over.
    pub samples: usize,
}

/// The `asked` percentile (e.g. 99.0) of `samples`, degraded to the
/// highest percentile that still has ten samples beyond it when the
/// population is too small. Sorts `samples` in place.
pub fn tail(samples: &mut [u64], asked: f64) -> Tail {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        return Tail {
            value: 0,
            percentile: asked,
            samples: 0,
        };
    }
    // Ten samples beyond rank r means r <= n - 10.
    let supported = if n > 10 {
        100.0 * (n - 10) as f64 / n as f64
    } else {
        50.0
    };
    let percentile = asked.min(supported).max(50.0);
    Tail {
        value: quantile(samples, percentile / 100.0),
        percentile,
        samples: n,
    }
}

/// Lower decile, median and q90 of a set of batch means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Batches {
    /// The gated statistic: 10th percentile of the batch means.
    pub low: f64,
    /// Median batch mean.
    pub median: f64,
    /// 90th-percentile batch mean.
    pub q90: f64,
    /// Number of batches.
    pub samples: usize,
}

impl Batches {
    /// Summarise batch means (order irrelevant).
    pub fn of(mut means: Vec<f64>) -> Batches {
        means.sort_by(|a, b| a.partial_cmp(b).expect("batch means are finite"));
        Batches {
            low: quantile_f(&means, 0.10),
            median: quantile_f(&means, 0.50),
            q90: quantile_f(&means, 0.90),
            samples: means.len(),
        }
    }

    /// The "median/q90/samples" note printed beside a gated value.
    pub fn note(&self) -> String {
        format!(
            "median {:.2} q90 {:.2} over {} batches",
            self.median, self.q90, self.samples
        )
    }
}

/// Geometric mean of positive values (0 if empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Median of floating-point samples (0 if empty).
pub fn median_f(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    quantile_f(&values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_degrades_when_population_is_small() {
        let mut big: Vec<u64> = (1..=2_000).collect();
        let t = tail(&mut big, 99.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1_980);

        // 100 samples: only p90 has ten samples beyond it.
        let mut small: Vec<u64> = (1..=100).collect();
        let t = tail(&mut small, 99.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90);
        assert_eq!(tail(&mut [], 99.0).value, 0);
    }

    #[test]
    fn batches_orders_its_statistics() {
        let b = Batches::of((1..=100).map(f64::from).collect());
        assert_eq!((b.low, b.median, b.q90, b.samples), (10.0, 50.0, 90.0, 100));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
