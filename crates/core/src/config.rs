//! Process-global LibASL configuration.
//!
//! Mirrors the constants of the paper's Algorithms 1–3:
//!
//! * `PCT` — the percentile the SLO refers to (paper line 9:
//!   `#define PCT 99`; "other percentiles are also supported").
//! * [`MAX_WINDOW_NS`] — the upper bound on any reorder window, which
//!   makes the LibASL lock starvation-free and serves as the default
//!   window outside epochs (the paper's evaluation uses 100 ms). A lock
//!   can lower its own bound (`AslLock::set_max_window_ns`), never
//!   raise it.
//! * [`DEFAULT_WINDOW_NS`] — the initial window for fresh epochs ("we
//!   give a default size …; they will quickly adjust themselves").
//!
//! The window controller ([`crate::epoch`]) is scale-free: Algorithm
//! 2's growth `unit` and its floor have no counterpart here.

use std::sync::atomic::{AtomicU8, Ordering};

static PCT: AtomicU8 = AtomicU8::new(99);

/// Maximum reorder window (ns): 100 ms.
pub const MAX_WINDOW_NS: u64 = 100_000_000;

/// Initial reorder window for a fresh epoch (ns): 10 µs.
pub const DEFAULT_WINDOW_NS: u64 = 10_000;

/// Set the SLO percentile (1..=99).
pub fn set_pct(pct: u8) {
    assert!((1..=99).contains(&pct), "pct must be in 1..=99");
    PCT.store(pct, Ordering::Relaxed);
}

/// The SLO percentile.
pub fn pct() -> u8 {
    PCT.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(pct(), 99);
        assert_eq!(MAX_WINDOW_NS, 100_000_000);
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
