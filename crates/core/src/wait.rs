//! Standby waiting policies.
//!
//! A standby competitor (paper Fig. 7) waits out its reorder window
//! while watching for the lock to become free. How it waits is
//! orthogonal to the reorderable protocol:
//!
//! * [`SpinWait`] — busy-wait, probing the lock on **every** poll, so
//!   a free lock is entered within one poll of being freed; the window
//!   is checked through an [`asl_runtime::clock::Deadline`], which
//!   reads the clock on its first two polls, then once per 16 polls
//!   until the window is less than 16 polls from its end, then only
//!   on the polls that can reach it — on the host and in virtual time
//!   alike (on every poll where every poll yields).
//! * [`SleepWait`] — the blocking version (§3.2 footnote 3 / Bench-6):
//!   `nanosleep` between probes with doubling sleep times, for
//!   over-subscribed systems where spinning steals the holder's CPU.
//!
//! # Departure from Algorithm 1, and the measurement behind it
//!
//! The paper probes with *binary exponential back-off* (polls 1, 2, 4,
//! 8, …), so the time a **free** lock goes unnoticed grows with the
//! time already waited. In the `amp-db` benchmark a little core holding
//! SQLite's SHARED/PENDING file-lock state spun blind on a free
//! `sqlite.state` lock while seven threads were refused: LibASL ran at
//! 0.846× FIFO there; probe gap ≤ 16 → 0.913, ≤ 4 → 0.979, ≤ 2 → 1.014,
//! every poll → 1.029 (README, "Performance"). The probe is a load of
//! a cached line (test-and-test-and-set spinning), which the
//! simulator's `CostModel::poll_ns` has charged every standby iteration
//! all along. The `backoff` group of `repro sim-ablate` keeps the
//! exponential prober as its comparator, so the departure stays
//! measurable.

use asl_runtime::clock::{nanosleep_ns, now_ns, Deadline};

/// Outcome of a standby wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A probe saw the lock free before the window expired.
    ObservedFree,
    /// The reorder window expired.
    WindowExpired,
}

/// How a standby competitor waits out its reorder window.
pub trait WaitPolicy: Send + Sync + 'static {
    /// Wait until `deadline_ns` (a [`now_ns`] timestamp), returning
    /// early when `is_free()` observes the lock available.
    fn standby_wait(&self, deadline_ns: u64, is_free: &dyn Fn() -> bool) -> WaitOutcome;
}

/// Busy-wait, probing the lock on every poll: a lock freed during
/// poll *k* is entered before poll *k* + 1.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpinWait;

impl WaitPolicy for SpinWait {
    #[inline]
    fn standby_wait(&self, deadline_ns: u64, is_free: &dyn Fn() -> bool) -> WaitOutcome {
        // The reorder window "is not a strict order constraint" (paper
        // §3.3): the deadline is checked on the clock's wait-loop
        // cadence, first on entry, so an expired window is never
        // probed.
        let mut deadline = Deadline::new(deadline_ns);
        let mut spin = asl_runtime::relax::Spin::new();
        while !deadline.passed() {
            if is_free() {
                return WaitOutcome::ObservedFree;
            }
            spin.relax();
        }
        WaitOutcome::WindowExpired
    }
}

/// First sleep of a [`SleepWait`] (ns): 1 µs.
const MIN_SLEEP_NS: u64 = 1_000;

/// A [`SleepWait`]'s sleep-duration cap (ns): 1 ms.
const MAX_SLEEP_NS: u64 = 1_000_000;

/// `nanosleep`-based waiting with doubling sleep durations, from 1 µs
/// up to a 1 ms cap.
#[derive(Debug, Default, Clone, Copy)]
pub struct SleepWait;

impl WaitPolicy for SleepWait {
    fn standby_wait(&self, deadline_ns: u64, is_free: &dyn Fn() -> bool) -> WaitOutcome {
        let mut sleep = MIN_SLEEP_NS;
        loop {
            // A read per iteration, not a `Deadline`: each iteration
            // is a >= 1 µs nanosleep, which amortizes the read, and
            // the remaining time sizes the next sleep.
            let now = now_ns();
            if now >= deadline_ns {
                return WaitOutcome::WindowExpired;
            }
            if is_free() {
                return WaitOutcome::ObservedFree;
            }
            let remaining = deadline_ns - now;
            nanosleep_ns(sleep.min(remaining));
            sleep = (sleep * 2).min(MAX_SLEEP_NS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn spin_wait_expires() {
        let t0 = now_ns();
        let out = SpinWait.standby_wait(t0 + 200_000, &|| false);
        assert_eq!(out, WaitOutcome::WindowExpired);
        assert!(now_ns() - t0 >= 200_000);
    }

    #[test]
    fn spin_wait_returns_when_free() {
        let out = SpinWait.standby_wait(now_ns() + 50_000_000, &|| true);
        assert_eq!(out, WaitOutcome::ObservedFree);
    }

    #[test]
    fn spin_wait_probes_on_every_poll() {
        // One probe per loop iteration: >64 probes over a 20 ms window
        // needs only 65 iterations (~300 µs/iteration budget), which
        // holds even when every relax() is a contended scheduler yield
        // on a single-CPU machine rather than a spin hint. The exact
        // cadence is pinned under a counting substrate in the facade
        // crate's `tests/standby_controller.rs`.
        let probes = AtomicU64::new(0);
        let out = SpinWait.standby_wait(now_ns() + 20_000_000, &|| {
            probes.fetch_add(1, Ordering::Relaxed);
            false
        });
        assert_eq!(out, WaitOutcome::WindowExpired);
        assert!(probes.load(Ordering::Relaxed) > 64, "probes every poll");
    }

    #[test]
    fn sleep_wait_expires_and_frees() {
        let t0 = now_ns();
        let out = SleepWait.standby_wait(t0 + 3_000_000, &|| false);
        assert_eq!(out, WaitOutcome::WindowExpired);
        assert!(now_ns() - t0 >= 3_000_000);

        let flag = AtomicBool::new(true);
        let out = SleepWait.standby_wait(now_ns() + 50_000_000, &|| flag.load(Ordering::Relaxed));
        assert_eq!(out, WaitOutcome::ObservedFree);
    }

    #[test]
    fn sleep_wait_zero_window_expires_immediately() {
        let out = SleepWait.standby_wait(0, &|| false);
        assert_eq!(out, WaitOutcome::WindowExpired);
    }
}
