//! `libasl-opt-<dur>`: LibASL with a static reorder window.

use asl_core::{ReorderableLock, SpinWait};
use asl_locks::mcs::McsToken;
use asl_locks::{McsLock, RawLock};
use asl_runtime::registry::is_big_core;

/// LibASL-OPT: the paper's "optimal policy" comparator that "directly
/// chooses a static window (no window adjustment)". Big cores lock
/// immediately, little cores always stand by for the fixed window.
pub struct StaticWindowLock {
    inner: ReorderableLock<McsLock, SpinWait>,
    window_ns: u64,
}

impl StaticWindowLock {
    /// Create with the given fixed reorder window.
    pub fn new(window_ns: u64) -> Self {
        StaticWindowLock {
            inner: ReorderableLock::new(McsLock::new()),
            window_ns,
        }
    }
}

impl RawLock for StaticWindowLock {
    type Token = McsToken;
    const NAME: &'static str = "libasl-opt";

    #[inline]
    fn lock(&self) -> McsToken {
        if is_big_core() {
            self.inner.lock_immediately()
        } else {
            self.inner.lock_reorder(self.window_ns)
        }
    }
    #[inline]
    fn try_lock(&self) -> Option<McsToken> {
        self.inner.try_lock()
    }
    #[inline]
    fn unlock(&self, token: McsToken) {
        self.inner.unlock(token);
    }
    fn is_locked(&self) -> bool {
        self.inner.is_locked()
    }
}
