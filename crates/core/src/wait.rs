//! Standby waiting policies.
//!
//! A standby competitor (paper Fig. 7) waits out its reorder window
//! while watching for the lock to become free. How it waits is
//! orthogonal to the reorderable protocol:
//!
//! * [`SpinWait`] — busy-wait, probing the lock on **every** poll, so
//!   a free lock is entered within one poll of being freed.
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

use asl_runtime::clock::{coarse_now_ns, coarse_resync, nanosleep_ns, now_ns};

/// Spin iterations between a host thread's deadline checks.
///
/// The reorder window "is not a strict order constraint" (paper §3.3),
/// so instead of reading the clock every iteration a standby
/// competitor consults the amortized [`coarse_now_ns`] once per
/// `DEADLINE_CHECK_EVERY` iterations. The coarse clock never runs
/// ahead of the precise one, so a window can only be honoured slightly
/// long — by that many iterations plus the coarse clock's read-count
/// staleness, which bounds wall time only while iterations are
/// nanosecond-scale spins: whenever a poll yields to the scheduler the
/// loop [`coarse_resync`]s the cache, keeping the overrun to one yield
/// plus a handful of spins even on oversubscribed multi-core hosts.
const DEADLINE_CHECK_EVERY: u64 = 16;

/// Resolved deadline-check cadence.
///
/// * **Under an installed substrate: every poll.** A deadline check is
///   a *charged* clock read there, so the cadence is part of what
///   virtual time means; it cannot follow the host rule, whose
///   process-global answer comes from the first asker's affinity mask
///   (the simulated SLO sweep, today `repro fig8b`, used to differ
///   under `taskset -c 0`).
/// * **Host threads:** every poll where a poll is a scheduler yield
///   ([`asl_runtime::relax::yields_every_poll`]: an iteration costs a
///   quantum there, and skipped checks would stretch windows by whole
///   quanta to save a TLS read); elsewhere [`DEADLINE_CHECK_EVERY`].
#[inline]
fn deadline_check_every() -> u64 {
    if asl_runtime::substrate::installed_here() || asl_runtime::relax::yields_every_poll() {
        1
    } else {
        DEADLINE_CHECK_EVERY
    }
}

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
        let check_every = deadline_check_every();
        let mut spin = asl_runtime::relax::Spin::new();
        for poll in 0u64.. {
            // Amortized deadline check (including on entry, so a
            // zero/expired window returns without probing).
            if poll % check_every == 0 && coarse_now_ns() >= deadline_ns {
                break;
            }
            if is_free() {
                return WaitOutcome::ObservedFree;
            }
            if spin.relax() {
                // A yield passed an unknown amount of wall time:
                // stale cached readings would blow the overrun bound.
                coarse_resync();
            }
        }
        WaitOutcome::WindowExpired
    }
}

/// `nanosleep`-based waiting with doubling sleep durations.
#[derive(Debug, Clone, Copy)]
pub struct SleepWait {
    /// First sleep duration (ns).
    pub min_sleep_ns: u64,
    /// Sleep-duration cap (ns).
    pub max_sleep_ns: u64,
}

impl SleepWait {
    /// Paper-style defaults: 1 µs first sleep, 1 ms cap.
    pub fn new() -> Self {
        SleepWait {
            min_sleep_ns: 1_000,
            max_sleep_ns: 1_000_000,
        }
    }
}

impl Default for SleepWait {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitPolicy for SleepWait {
    fn standby_wait(&self, deadline_ns: u64, is_free: &dyn Fn() -> bool) -> WaitOutcome {
        let mut sleep = self.min_sleep_ns;
        loop {
            // Precise clock on purpose: each iteration is separated by
            // a >= 1us nanosleep, which both amortizes the read and
            // invalidates the coarse cache's staleness bound (the
            // cache has no timer — it would return pre-sleep values).
            let now = now_ns();
            if now >= deadline_ns {
                return WaitOutcome::WindowExpired;
            }
            if is_free() {
                return WaitOutcome::ObservedFree;
            }
            let remaining = deadline_ns - now;
            nanosleep_ns(sleep.min(remaining));
            sleep = (sleep * 2).min(self.max_sleep_ns);
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
        let out = SleepWait::new().standby_wait(t0 + 3_000_000, &|| false);
        assert_eq!(out, WaitOutcome::WindowExpired);
        assert!(now_ns() - t0 >= 3_000_000);

        let flag = AtomicBool::new(true);
        let out =
            SleepWait::new().standby_wait(now_ns() + 50_000_000, &|| flag.load(Ordering::Relaxed));
        assert_eq!(out, WaitOutcome::ObservedFree);
    }

    #[test]
    fn sleep_wait_zero_window_expires_immediately() {
        let out = SleepWait::new().standby_wait(0, &|| false);
        assert_eq!(out, WaitOutcome::WindowExpired);
    }
}
