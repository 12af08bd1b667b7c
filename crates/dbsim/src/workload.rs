//! YCSB-style workload generation.
//!
//! The paper's application benchmarks follow YCSB-A ("we randomly
//! choose to insert or find 1 item (fifty-fifty, referring to
//! YCSB-A)"). This module provides the key-distribution machinery the
//! real YCSB uses so the engines can also be driven with skewed
//! access patterns:
//!
//! * [`Zipfian`] — the standard YCSB bounded-zipfian sampler
//!   (Gray et al., "Quickly generating billion-record synthetic
//!   databases"), default exponent θ = 0.99.
//! * [`KeyDist`] — uniform / zipfian / latest-skewed choice.
//! * [`Mix`] — operation mixes for YCSB A/B/C.

use rand::rngs::SmallRng;
use rand::Rng;

/// Default YCSB zipfian exponent.
pub const YCSB_THETA: f64 = 0.99;

/// Bounded zipfian sampler over `0..n` (rank 0 most popular).
///
/// Uses the Gray et al. closed-form inversion: one uniform draw and
/// O(1) arithmetic per sample, and O(1) work to build (ζ(n) is
/// computed in closed form).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `1 + 0.5^θ`: a draw whose `u · ζ(n)` lands below this (and not
    /// below 1) is rank 1. Precomputed so a draw costs one `powf`.
    rank1_below: f64,
}

impl Zipfian {
    /// Sampler over `0..n` with exponent `theta` in (0, 1).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
            rank1_below: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// YCSB-default sampler (θ = 0.99).
    pub fn ycsb(n: u64) -> Self {
        Self::new(n, YCSB_THETA)
    }

    /// ζ(n) = Σ i^−θ over `1..=n`: the direct sum up to 32 terms, and
    /// past that the first 31 terms plus Euler–Maclaurin from 32 to `n`
    /// (the integral, the two endpoint half-terms and the B₂, B₄, B₆
    /// corrections; the first one left out is under 4e-15, and ζ ≥ 1).
    fn zeta(n: u64, theta: f64) -> f64 {
        const HEAD: u64 = 32;
        let f = |x: f64| 1.0 / x.powf(theta);
        if n <= HEAD {
            return (1..=n).map(|i| f(i as f64)).sum();
        }
        let head: f64 = (1..HEAD).map(|i| f(i as f64)).sum();
        let (a, b, rise) = (HEAD as f64, n as f64, 1.0 - theta);
        // ∫ₐᵇ x^−θ dx, in a form that does not cancel as θ nears 1.
        let integral = a.powf(rise) * (rise * (b / a).ln()).exp_m1() / rise;
        // B₂ⱼ/(2j)! · (f⁽ᵏ⁾(b) − f⁽ᵏ⁾(a)) for k = 2j − 1, where
        // f⁽ᵏ⁾(x) = −θ(θ+1)…(θ+k−1) · x^(−θ−k).
        let (mut rising, mut corrections) = (theta, 0.0);
        for (k, bernoulli) in [
            (1.0, 1.0 / 12.0),
            (3.0, -1.0 / 720.0),
            (5.0, 1.0 / 30_240.0),
        ] {
            corrections -= bernoulli * rising * (b.powf(-theta - k) - a.powf(-theta - k));
            rising *= (theta + k) * (theta + k + 1.0);
        }
        head + integral + (f(a) + f(b)) / 2.0 + corrections
    }

    /// Key space size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw the next rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Zeta value over the first two ranks (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// How keys are drawn from the key space.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over `0..n` (the paper's database benchmarks).
    Uniform {
        /// Key space size.
        n: u64,
    },
    /// Zipfian-skewed (YCSB default).
    Zipfian(Zipfian),
}

impl KeyDist {
    /// Draw a key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.gen_range(0..*n),
            KeyDist::Zipfian(z) => scatter(z.sample(rng), z.n()),
        }
    }

    /// Key space size.
    pub fn n(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } => *n,
            KeyDist::Zipfian(z) => z.n(),
        }
    }
}

/// Where rank `rank` of `0..n` lands in the key space, so popular keys
/// do not cluster in one hash slot: a bijection of `0..n`.
///
/// Multiplying by an odd constant permutes `0..2^k`, so the map walks
/// that permutation over the next power of two from `rank` until it
/// lands inside `0..n` (cycle walking; under two steps on average).
/// When `n` is a power of two the first step lands, and the map is
/// `rank · FIB mod n`.
fn scatter(rank: u64, n: u64) -> u64 {
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
    let mask = n.next_power_of_two() - 1;
    let mut key = rank;
    loop {
        key = key.wrapping_mul(FIB) & mask;
        if key < n {
            return key;
        }
    }
}

/// One YCSB operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read one record.
    Read,
    /// Update (write) one record.
    Update,
}

/// An operation mix (read fraction in `[0, 1]`).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    read_fraction: f64,
}

impl Mix {
    /// Custom mix with the given read fraction.
    ///
    /// # Panics
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn new(read_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&read_fraction));
        Mix { read_fraction }
    }

    /// YCSB-A: 50% read, 50% update — the paper's DB workload.
    pub fn ycsb_a() -> Self {
        Mix::new(0.5)
    }

    /// YCSB-B: 95% read, 5% update.
    pub fn ycsb_b() -> Self {
        Mix::new(0.95)
    }

    /// YCSB-C: read-only.
    pub fn ycsb_c() -> Self {
        Mix::new(1.0)
    }

    /// The read fraction.
    pub fn read_fraction(&self) -> f64 {
        self.read_fraction
    }

    /// Draw the next operation.
    pub fn sample(&self, rng: &mut SmallRng) -> Op {
        if self.read_fraction >= 1.0 || rng.gen_bool(self.read_fraction) {
            Op::Read
        } else {
            Op::Update
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipfian_bounds() {
        let z = Zipfian::ycsb(1_000);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20_000 {
            assert!(z.sample(&mut rng) < 1_000);
        }
    }

    #[test]
    fn zipfian_is_skewed() {
        // Rank 0 should receive far more than the uniform share.
        let n = 10_000u64;
        let z = Zipfian::ycsb(n);
        let mut rng = SmallRng::seed_from_u64(2);
        let samples = 100_000;
        let zeros = (0..samples).filter(|_| z.sample(&mut rng) == 0).count();
        let uniform_share = samples as f64 / n as f64;
        assert!(
            zeros as f64 > uniform_share * 50.0,
            "rank 0 drawn {zeros} times; uniform share would be {uniform_share:.1}"
        );
    }

    #[test]
    fn zipfian_rank_frequencies_decrease() {
        let z = Zipfian::new(100, 0.9);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u64; 100];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Aggregate decades to smooth noise: first 10 ranks must beat
        // the next 10, and so on.
        let d0: u64 = counts[..10].iter().sum();
        let d1: u64 = counts[10..20].iter().sum();
        let d5: u64 = counts[50..60].iter().sum();
        assert!(d0 > d1 && d1 > d5, "{d0} {d1} {d5}");
    }

    /// FNV-1a over the little-endian bytes of `draws`.
    fn digest(draws: impl Iterator<Item = u64>) -> u64 {
        draws.fold(0xcbf2_9ce4_8422_2325, |h, x| {
            x.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// The first 100 000 ranks and scattered keys at seed 1 over the
    /// benchmark's key space, as drawn when the rank-1 threshold was
    /// still computed per draw. A sampler change that moves one draw
    /// moves every workload fed from it (`host-kv`'s script, the open
    /// loop, `repro kv`): it must be a deliberate, visible change.
    #[test]
    fn the_ycsb_stream_is_pinned() {
        const RANKS: u64 = 0x175c_6beb_60d5_4ff1;
        const KEYS: u64 = 0x982b_e6d8_0cdd_715b;
        let z = Zipfian::new(crate::KEYSPACE, YCSB_THETA);
        let mut rng = SmallRng::seed_from_u64(1);
        let ranks = digest((0..100_000).map(|_| z.sample(&mut rng)));
        let keys = KeyDist::Zipfian(z);
        let mut rng = SmallRng::seed_from_u64(1);
        let keys = digest((0..100_000).map(|_| keys.sample(&mut rng)));
        assert_eq!((ranks, keys), (RANKS, KEYS), "{ranks:#018x} {keys:#018x}");
    }

    /// `n` ranks reach `n` distinct keys, whatever `n` is; over the
    /// benchmark's power-of-two key space the map is the plain
    /// multiplicative one every pinned stream was drawn with.
    #[test]
    fn the_scatter_is_a_bijection() {
        for n in [1, 3, 10, 1_000, 100_000, 1 << 16] {
            let mut keys: Vec<u64> = (0..n).map(|rank| scatter(rank, n)).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len() as u64, n, "{n} ranks reach {} keys", keys.len());
            assert!(keys.iter().all(|&k| k < n));
        }
        let n = crate::KEYSPACE;
        assert_eq!(n, 1 << 16);
        for rank in 0..n {
            assert_eq!(
                scatter(rank, n),
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n
            );
        }
    }

    /// Σ i^−θ over `1..=n`, Neumaier-compensated.
    fn compensated_zeta(n: u64, theta: f64) -> f64 {
        let (mut sum, mut lost) = (0.0f64, 0.0f64);
        for i in 1..=n {
            let term = 1.0 / (i as f64).powf(theta);
            let next = sum + term;
            lost += if sum.abs() >= term.abs() {
                (sum - next) + term
            } else {
                (term - next) + sum
            };
            sum = next;
        }
        sum + lost
    }

    #[test]
    fn the_closed_form_zeta_is_the_sum() {
        for n in [1, 2, 31, 32, 33, 1_000, 1 << 16, 1_000_000] {
            for theta in [0.01, 0.5, 0.99, 0.999] {
                let (closed, summed) = (Zipfian::zeta(n, theta), compensated_zeta(n, theta));
                let error = (closed - summed).abs() / summed;
                assert!(
                    error < 1e-12,
                    "ζ({n}) at θ = {theta}: {closed} against {summed}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn zipfian_rejects_zero_n() {
        let _ = Zipfian::ycsb(0);
    }

    #[test]
    #[should_panic]
    fn zipfian_rejects_bad_theta() {
        let _ = Zipfian::new(10, 1.5);
    }

    #[test]
    fn key_dist_uniform_covers_space() {
        let d = KeyDist::Uniform { n: 64 };
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen = [false; 64];
        for _ in 0..10_000 {
            seen[d.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform draw missed keys");
    }

    #[test]
    fn key_dist_zipfian_in_range() {
        let d = KeyDist::Zipfian(Zipfian::ycsb(777));
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) < 777);
        }
        assert_eq!(d.n(), 777);
    }

    #[test]
    fn mixes() {
        let mut rng = SmallRng::seed_from_u64(6);
        let a = Mix::ycsb_a();
        let reads = (0..10_000)
            .filter(|_| a.sample(&mut rng) == Op::Read)
            .count();
        assert!((4_000..6_000).contains(&reads), "YCSB-A reads {reads}");

        let c = Mix::ycsb_c();
        assert!((0..1_000).all(|_| c.sample(&mut rng) == Op::Read));

        let b = Mix::ycsb_b();
        let reads = (0..10_000)
            .filter(|_| b.sample(&mut rng) == Op::Read)
            .count();
        assert!(reads > 9_000, "YCSB-B reads {reads}");
    }

    #[test]
    #[should_panic]
    fn mix_rejects_bad_fraction() {
        let _ = Mix::new(1.5);
    }
}
