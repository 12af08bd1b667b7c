//! Process-global LibASL configuration.
//!
//! Mirrors the constants of the paper's Algorithms 1–3:
//!
//! * `PCT` — the percentile the SLO refers to (paper line 9:
//!   `#define PCT 99`; "other percentiles are also supported").
//! * `MAX_WINDOW` — the upper bound on any reorder window, which makes
//!   the reorderable lock starvation-free and serves as the default
//!   window outside epochs (the paper's evaluation uses 100 ms).
//! * Default initial window for fresh epochs ("we give a default
//!   size …; they will quickly adjust themselves").
//!
//! The window controller ([`crate::epoch`]) is scale-free: Algorithm
//! 2's growth `unit` and its floor have no counterpart here.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

static PCT: AtomicU8 = AtomicU8::new(99);
static MAX_WINDOW_NS: AtomicU64 = AtomicU64::new(100_000_000); // 100 ms
static DEFAULT_WINDOW_NS: AtomicU64 = AtomicU64::new(10_000); // 10 µs

/// Immutable snapshot of the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AslConfig {
    /// Target percentile (e.g. 99 for P99 SLOs).
    pub pct: u8,
    /// Reorder-window upper bound (ns): starvation-freedom bound and
    /// the default window outside epochs.
    pub max_window_ns: u64,
    /// Initial reorder window for a fresh epoch (ns).
    pub default_window_ns: u64,
}

/// Read the current configuration.
pub fn current() -> AslConfig {
    AslConfig {
        pct: PCT.load(Ordering::Relaxed),
        max_window_ns: MAX_WINDOW_NS.load(Ordering::Relaxed),
        default_window_ns: DEFAULT_WINDOW_NS.load(Ordering::Relaxed),
    }
}

/// Set the SLO percentile (1..=99).
pub fn set_pct(pct: u8) {
    assert!((1..=99).contains(&pct), "pct must be in 1..=99");
    PCT.store(pct, Ordering::Relaxed);
}

/// The SLO percentile.
pub fn pct() -> u8 {
    PCT.load(Ordering::Relaxed)
}

/// Set the maximum reorder window (ns); must be positive.
pub fn set_max_window_ns(ns: u64) {
    assert!(ns > 0);
    MAX_WINDOW_NS.store(ns, Ordering::Relaxed);
}

/// Maximum reorder window (ns).
pub fn max_window_ns() -> u64 {
    MAX_WINDOW_NS.load(Ordering::Relaxed)
}

/// Set the initial window for fresh epochs (ns).
pub fn set_default_window_ns(ns: u64) {
    DEFAULT_WINDOW_NS.store(ns, Ordering::Relaxed);
}

/// Initial window for fresh epochs (ns).
pub fn default_window_ns() -> u64 {
    DEFAULT_WINDOW_NS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = current();
        assert_eq!(c.pct, 99);
        assert_eq!(c.max_window_ns, 100_000_000);
    }

    #[test]
    #[should_panic]
    fn pct_zero_rejected() {
        set_pct(0);
    }

    #[test]
    #[should_panic]
    fn pct_100_rejected() {
        set_pct(100);
    }
}
