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
/// `immediate` and `standby_free_entry` are holder-owned in the sense
/// of [`TelemetryCell`]'s rule — the reorderable lock bumps them with
/// a load and a store once it holds the inner lock; the other two are
/// bumped before the inner lock is taken and keep their `fetch_add`.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Generic acquisition telemetry (shared format with every
    /// instrumented lock; timing recorded only when sampling is on).
    pub telemetry: TelemetryCell,
    /// `lock_immediately` acquisitions (big-core path).
    pub immediate: AtomicU64,
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
        LockStatsSnapshot {
            telemetry: self.telemetry.snapshot(),
            immediate: self.immediate.load(Ordering::Relaxed),
            standby_free_entry: self.standby_free_entry.load(Ordering::Relaxed),
            standby_observed_free: self.standby_observed_free.load(Ordering::Relaxed),
            standby_expired: self.standby_expired.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.telemetry.reset();
        self.immediate.store(0, Ordering::Relaxed);
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
    /// See [`LockStats::immediate`].
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
        s.immediate.fetch_add(3, Ordering::Relaxed);
        s.standby_expired.fetch_add(2, Ordering::Relaxed);
        s.telemetry.record_acquisition(true);
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
