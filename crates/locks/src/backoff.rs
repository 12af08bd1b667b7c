//! TTAS spinlock with bounded exponential back-off.
//!
//! §3.4 of the paper notes that among little cores LibASL "behaves
//! similarly to the backoff spinlock"; this is that lock, kept as the
//! reference for that sentence. It is in no registry row or figure —
//! the zoo's own tests (mutual exclusion, `try_lock`, the guard layer)
//! are what exercises it.

use std::sync::atomic::{AtomicBool, Ordering};

use asl_runtime::work::execute_raw_units;

use crate::RawLock;

/// TTAS lock with binary exponential back-off between attempts.
pub struct BackoffLock {
    locked: AtomicBool,
    min_units: u64,
    max_units: u64,
}

impl BackoffLock {
    /// Default back-off bounds (64 .. 8192 raw units).
    pub fn new() -> Self {
        Self::with_bounds(64, 8192)
    }

    /// Custom back-off bounds.
    pub fn with_bounds(min_units: u64, max_units: u64) -> Self {
        assert!(min_units > 0 && max_units >= min_units);
        BackoffLock {
            locked: AtomicBool::new(false),
            min_units,
            max_units,
        }
    }
}

impl Default for BackoffLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for BackoffLock {
    type Token = ();

    #[inline]
    fn lock(&self) {
        let mut backoff = self.min_units;
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            execute_raw_units(backoff);
            backoff = (backoff * 2).min(self.max_units);
            let mut spin = asl_runtime::relax::Spin::new();
            while self.locked.load(Ordering::Relaxed) {
                spin.relax();
            }
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        (!self.locked.swap(true, Ordering::Acquire)).then_some(())
    }

    #[inline]
    fn unlock(&self, _t: ()) {
        self.locked.store(false, Ordering::Release);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    const NAME: &'static str = "backoff";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic() {
        let l = BackoffLock::new();
        l.lock();
        assert!(l.is_locked());
        assert!(l.try_lock().is_none());
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    #[should_panic]
    fn rejects_zero_min() {
        let _ = BackoffLock::with_bounds(0, 10);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_bounds() {
        let _ = BackoffLock::with_bounds(100, 10);
    }
}
