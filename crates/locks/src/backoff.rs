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

/// First back-off after a lost swap, in raw work units.
const MIN_BACKOFF_UNITS: u64 = 64;
/// Ceiling the back-off doubles up to, in raw work units.
const MAX_BACKOFF_UNITS: u64 = 8_192;

/// TTAS lock with binary exponential back-off between attempts.
pub struct BackoffLock {
    locked: AtomicBool,
}

impl BackoffLock {
    /// An unlocked lock.
    pub fn new() -> Self {
        BackoffLock {
            locked: AtomicBool::new(false),
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
        let mut backoff = MIN_BACKOFF_UNITS;
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            execute_raw_units(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF_UNITS);
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
}
