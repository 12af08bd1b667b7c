//! Exact latency statistics.
//!
//! One percentile definition for the whole workspace: every P50, P99
//! and CDF cell is read off a [`Samples`] record, which keeps every
//! sample, sorted, and ranks them nearest-rank. "P99" means the same
//! thing in a simulator table, a paper figure and a test.

/// 1-based rank of the `p`-th percentile in a population of `total`
/// samples: `ceil(p/100 * total)`, clamped to `[1, total]`. Returns 0
/// for an empty population.
fn percentile_rank(total: u64, p: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    rank.min(total)
}

/// Every sample of one latency record, sorted once when it is built.
/// That it is sorted is what the type guarantees, so every read is a
/// lookup or a binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Samples(Vec<u64>);

impl From<Vec<u64>> for Samples {
    fn from(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Samples(samples)
    }
}

impl Samples {
    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// True when the record holds no sample.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Exact `p`-th percentile (nearest rank): the smallest sample with
    /// at least `p` % of the record at or below it. `percentile(0.0)`
    /// is the smallest sample; 0 when the record is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        match percentile_rank(self.len(), p) {
            0 => 0,
            rank => self.0[rank as usize - 1],
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.last().copied().unwrap_or(0)
    }

    /// Fraction of the samples at or below `value` (0 when empty): one
    /// point of the record's CDF.
    pub fn fraction_at_or_below(&self, value: u64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.partition_point(|&s| s <= value) as f64 / self.0.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_formula() {
        assert_eq!(percentile_rank(0, 99.0), 0);
        assert_eq!(percentile_rank(100, 99.0), 99);
        assert_eq!(percentile_rank(100, 50.0), 50);
        assert_eq!(percentile_rank(100, 0.0), 1);
        assert_eq!(percentile_rank(100, 100.0), 100);
        assert_eq!(percentile_rank(3, 99.0), 3);
        assert_eq!(percentile_rank(1, 99.9), 1);
    }

    #[test]
    fn exact_percentile() {
        let s = Samples::from((1..=100).rev().collect::<Vec<u64>>());
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.max(), 100);
        assert_eq!(s.len(), 100);
        assert_eq!(Samples::from(vec![7]).percentile(99.0), 7);
    }

    #[test]
    fn empty_record_reads_zero() {
        let s = Samples::default();
        assert!(s.is_empty());
        assert_eq!((s.percentile(99.0), s.max()), (0, 0));
        assert_eq!(s.fraction_at_or_below(u64::MAX), 0.0);
    }

    #[test]
    fn fraction_counts_ties_and_nothing_above() {
        let s = Samples::from(vec![10, 20, 20, 21, 30]);
        assert_eq!(s.fraction_at_or_below(9), 0.0);
        assert_eq!(s.fraction_at_or_below(20), 0.6);
        assert_eq!(s.fraction_at_or_below(29), 0.8);
        assert_eq!(s.fraction_at_or_below(30), 1.0);
    }
}
