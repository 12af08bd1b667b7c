//! Per-lock acquisition statistics.
//!
//! The *generic* counters (total acquisitions, contended
//! acquisitions, optional hold/wait timing) live in the shared
//! [`asl_locks::telemetry::TelemetryCell`] — the same lock-agnostic
//! cell every instrumented lock in the zoo records into — so the
//! harness's per-lock stats tables and the ASL-specific reports speak
//! one format. [`LockStats`] adds the reorderable lock's *path*
//! counters on top: which route each acquisition took through the
//! dispatch layer. Tests use them to verify that reordering actually
//! happens; the harness reports them alongside throughput so figure
//! shapes can be explained ("little cores mostly waited out their
//! windows at this contention level").

use std::sync::atomic::{AtomicU64, Ordering};

use asl_locks::telemetry::{TelemetryCell, TelemetrySnapshot};

/// Live counters (one per [`crate::ReorderableLock`]): shared
/// telemetry plus the ASL acquisition-path split.
///
/// Atomic-ordering audit: like [`TelemetryCell`], every counter here
/// is a pure statistic — incremented on the acquire path, read only
/// by [`LockStats::snapshot`] for reporting/tests, never consulted by
/// lock-protocol control flow. `Relaxed` suffices throughout, and
/// tests that compare counters across threads first join those
/// threads (which supplies the cross-counter happens-before).
/// `standby_free_entry` is holder-owned in the sense of
/// [`TelemetryCell`]'s rule — the reorderable lock bumps it with a
/// load and a store once it holds the inner lock; the other two
/// standby counters are bumped before the inner lock is taken and keep
/// their `fetch_add`.
///
/// `lock_immediately` acquisitions have **no counter of their own**:
/// every acquisition takes exactly one of the four paths and bumps
/// `telemetry.acquisitions`, so [`LockStats::snapshot`] derives the
/// immediate count as acquisitions less the three standby paths. That
/// leaves the big-core path one holder-owned store per acquisition
/// instead of two on two cache lines (a store still pending at the
/// next RMW costs ≈ 1.5 ns on the reference host — the rule on
/// [`TelemetryCell`]). The price: a standby competitor counts its path
/// *before* it queues on the inner lock and its acquisition only once
/// it holds it, so a live snapshot under-reports `immediate` by up to
/// the number of standby competitors queued on the inner lock at that
/// moment (saturating at 0); on a quiescent lock the split is exact, as
/// it always was.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Generic acquisition telemetry (shared format with every
    /// instrumented lock; timing recorded only when sampling is on).
    pub telemetry: TelemetryCell,
    /// `lock_reorder` acquisitions that found the lock free on entry.
    pub standby_free_entry: AtomicU64,
    /// `lock_reorder` acquisitions whose probe saw the lock free
    /// during the window.
    pub standby_observed_free: AtomicU64,
    /// `lock_reorder` acquisitions that waited out the full window.
    pub standby_expired: AtomicU64,
}

impl LockStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared telemetry cell (enable sampling here to record
    /// hold/wait time).
    pub fn telemetry(&self) -> &TelemetryCell {
        &self.telemetry
    }

    /// Consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> LockStatsSnapshot {
        let mut s = LockStatsSnapshot {
            telemetry: self.telemetry.snapshot(),
            immediate: 0,
            standby_free_entry: self.standby_free_entry.load(Ordering::Relaxed),
            standby_observed_free: self.standby_observed_free.load(Ordering::Relaxed),
            standby_expired: self.standby_expired.load(Ordering::Relaxed),
        };
        s.immediate = s.telemetry.acquisitions.saturating_sub(s.standby_total());
        s
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.telemetry.reset();
        self.standby_free_entry.store(0, Ordering::Relaxed);
        self.standby_observed_free.store(0, Ordering::Relaxed);
        self.standby_expired.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time view of [`LockStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStatsSnapshot {
    /// Generic acquisition telemetry (shared snapshot format).
    pub telemetry: TelemetrySnapshot,
    /// `lock_immediately` acquisitions (big-core path); derived, see
    /// [`LockStats`].
    pub immediate: u64,
    /// See [`LockStats::standby_free_entry`].
    pub standby_free_entry: u64,
    /// See [`LockStats::standby_observed_free`].
    pub standby_observed_free: u64,
    /// See [`LockStats::standby_expired`].
    pub standby_expired: u64,
}

impl LockStatsSnapshot {
    /// Total acquisitions recorded (path-counter sum; equals
    /// `telemetry.acquisitions` for a quiescent lock).
    pub fn total(&self) -> u64 {
        self.immediate + self.standby_free_entry + self.standby_observed_free + self.standby_expired
    }

    /// Total acquisitions that went through the standby (reorder) path.
    pub fn standby_total(&self) -> u64 {
        self.standby_free_entry + self.standby_observed_free + self.standby_expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = LockStats::new();
        s.standby_expired.fetch_add(2, Ordering::Relaxed);
        for contended in [true, false, false, false, false] {
            s.telemetry.record_acquisition(contended);
        }
        let snap = s.snapshot();
        assert_eq!(snap.immediate, 3);
        assert_eq!(snap.standby_expired, 2);
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.standby_total(), 2);
        assert_eq!(snap.telemetry.contended, 1);
        s.reset();
        assert_eq!(s.snapshot().total(), 0);
        assert_eq!(s.snapshot().telemetry, TelemetrySnapshot::default());
    }

    #[test]
    fn telemetry_rides_along() {
        let s = LockStats::new();
        for contended in [false, true, true] {
            s.telemetry.record_acquisition(contended);
        }
        let t = s.snapshot().telemetry;
        assert_eq!(t.acquisitions, 3);
        assert_eq!(t.contended, 2);
        assert!(t.contention_ratio() > 0.6);
    }
}
