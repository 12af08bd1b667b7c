//! Per-lock standby-path statistics.
//!
//! [`LockStats`] counts which route each `AslLock::lock_reorder`
//! acquisition took. Tests use the split to verify
//! that reordering actually happens; the harness reports it alongside
//! throughput so figure shapes can be explained ("little cores mostly
//! waited out their windows at this contention level").
//!
//! Nothing here counts a big core's acquisition: it is the inner
//! lock's own (paper Algorithm 3). A LibASL lock's
//! generic counts — acquisitions, contended, wait and hold time — come
//! from the `instrumented-` wrapper (`asl_locks::telemetry::Instrumented`),
//! as every other lock's do.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live standby-path counters (one per [`crate::AslLock`]).
///
/// Atomic-ordering audit: every counter here is a pure statistic —
/// incremented on the acquire path, read only by
/// [`LockStats::snapshot`] for reporting/tests, never consulted by
/// lock-protocol control flow. `Relaxed` suffices throughout, and
/// tests that compare counters across threads first join those
/// threads (which supplies the cross-counter happens-before).
/// `standby_free_entry` is holder-owned in the sense of
/// `asl_locks::telemetry::TelemetryCell`'s rule — the LibASL lock
/// bumps it with a load and a store once it holds the inner lock; the
/// other two are bumped before the inner lock is taken and keep their
/// `fetch_add`.
#[derive(Debug, Default)]
pub struct LockStats {
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

    /// Consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            standby_free_entry: self.standby_free_entry.load(Ordering::Relaxed),
            standby_observed_free: self.standby_observed_free.load(Ordering::Relaxed),
            standby_expired: self.standby_expired.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`LockStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStatsSnapshot {
    /// See [`LockStats::standby_free_entry`].
    pub standby_free_entry: u64,
    /// See [`LockStats::standby_observed_free`].
    pub standby_observed_free: u64,
    /// See [`LockStats::standby_expired`].
    pub standby_expired: u64,
}

impl LockStatsSnapshot {
    /// Total acquisitions that went through the standby (reorder) path.
    pub fn standby_total(&self) -> u64 {
        self.standby_free_entry + self.standby_observed_free + self.standby_expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_the_standby_paths() {
        let s = LockStats::new();
        assert_eq!(s.snapshot(), LockStatsSnapshot::default());
        s.standby_expired.fetch_add(2, Ordering::Relaxed);
        s.standby_free_entry.fetch_add(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.standby_expired, 2);
        assert_eq!(snap.standby_free_entry, 1);
        assert_eq!(snap.standby_observed_free, 0);
        assert_eq!(snap.standby_total(), 3);
    }
}
