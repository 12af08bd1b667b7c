//! LibASL's constants.
//!
//! Mirrors the constants of the paper's Algorithms 1–3:
//!
//! * [`PCT`] — the percentile the SLO refers to (paper line 9:
//!   `#define PCT 99`).
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

/// The SLO percentile: the window controller aims for fewer than
/// `(100 − PCT) %` of a little core's epochs over their SLO.
pub const PCT: u8 = 99;

/// Maximum reorder window (ns): 100 ms.
pub const MAX_WINDOW_NS: u64 = 100_000_000;

/// Initial reorder window for a fresh epoch (ns): 10 µs.
pub const DEFAULT_WINDOW_NS: u64 = 10_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(PCT, 99);
        assert_eq!(MAX_WINDOW_NS, 100_000_000);
    }
}
