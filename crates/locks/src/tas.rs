//! Test-and-set spinlock with an asymmetric-affinity model.
//!
//! The paper's unfair baseline: the holder is whoever wins the atomic
//! swap. On real AMPs the win rate is asymmetric (§2.2); here the
//! bias is injected via [`AtomicAffinity`] — after observing the lock
//! free, the disadvantaged core class spins a fixed penalty before
//! attempting the swap, so the favoured class almost always reaches
//! the swap first under contention. With `Neutral` affinity this is a
//! plain TTAS lock.

use std::sync::atomic::{AtomicBool, Ordering};

use asl_runtime::registry::current_core;
use asl_runtime::work::execute_raw_units;
use asl_runtime::AtomicAffinity;

use crate::RawLock;

/// Unfair test-and-set (TTAS) spinlock.
pub struct TasLock {
    locked: AtomicBool,
    affinity: AtomicAffinity,
}

impl TasLock {
    /// Neutral-affinity TAS lock.
    pub fn new() -> Self {
        Self::with_affinity(AtomicAffinity::Neutral)
    }

    /// TAS lock with an explicit atomic-affinity model.
    pub fn with_affinity(affinity: AtomicAffinity) -> Self {
        TasLock {
            locked: AtomicBool::new(false),
            affinity,
        }
    }

    /// The configured affinity model.
    pub fn affinity(&self) -> AtomicAffinity {
        self.affinity
    }
}

impl Default for TasLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for TasLock {
    type Token = ();

    #[inline]
    fn lock(&self) {
        // Uncontended fast path: a single atomic (the swap) and
        // nothing else — no affinity lookup, no spin-state setup.
        // Those costs are deferred to the contended path below.
        if !self.locked.swap(true, Ordering::Acquire) {
            return;
        }
        let penalty = self.affinity.post_fail_penalty(current_core().kind);
        let mut spin = asl_runtime::relax::Spin::new();
        loop {
            // Local spin until the lock looks free (TTAS).
            while self.locked.load(Ordering::Relaxed) {
                spin.relax();
            }
            // Observed free: back to pure spinning so a lost swap race
            // below doesn't leave the affinity penalty competing with
            // yield-per-poll scheduler noise.
            spin.reset();
            // The affinity model: the disadvantaged class is slower to
            // reach the swap after the release becomes visible.
            if penalty > 0 {
                execute_raw_units(penalty);
            }
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        if !self.locked.swap(true, Ordering::Acquire) {
            Some(())
        } else {
            None
        }
    }

    #[inline]
    fn unlock(&self, _t: ()) {
        self.locked.store(false, Ordering::Release);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    const NAME: &'static str = "tas";
}

impl crate::timed::RawTimedLock for TasLock {
    /// TAS publishes nothing while waiting, so the back-out is free:
    /// stop competing once the deadline has passed. The timed path
    /// skips the affinity penalty — it models a waiter with somewhere
    /// else to be, not a class-biased competitor.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<()> {
        if !self.locked.swap(true, Ordering::Acquire) {
            return Some(());
        }
        let mut deadline = asl_runtime::clock::Deadline::new(deadline_ns);
        let mut spin = asl_runtime::relax::Spin::new();
        loop {
            // Local spin until free or expired (TTAS with a deadline).
            while self.locked.load(Ordering::Relaxed) {
                if deadline.passed() {
                    return None;
                }
                spin.relax();
            }
            spin.reset();
            if !self.locked.swap(true, Ordering::Acquire) {
                return Some(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lock_unlock() {
        let l = TasLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let l = TasLock::new();
        l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(());
        assert!(l.try_lock().is_some());
        l.unlock(());
    }
}
