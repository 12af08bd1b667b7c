//! The asymmetry-aware dispatch layer (paper Algorithm 3) and the
//! user-facing mutex.
//!
//! [`AslLock`] is the raw lock the paper's `asl_mutex_lock` implements:
//!
//! * big core → `lock_immediately`;
//! * little core inside an epoch → `lock_reorder(current window)`;
//! * little core outside any epoch → `lock_reorder(MAX_WINDOW)` so the
//!   thread still eventually locks ("the default maximum window is
//!   used to ensure that the thread will eventually lock").
//!
//! The dispatch layer is generic over its FIFO substrate: any
//! [`FifoLock`] can sit under the reorderable layer ([`McsLock`] by
//! default; the ablations build it over CLH, ticket and the FIFO
//! shuffle lock with `AslLock::new(ClhLock::new())` and so on).
//! [`AslLock`] itself implements [`RawLock`], so the whole guard API
//! of [`asl_locks::api`] applies to it.
//!
//! [`AslMutex`] is the generic [`asl_locks::api::Mutex`] with
//! [`AslLock`] as its lock type — data owned by the mutex, the same
//! RAII guard every lock hands out — which plays the role of the
//! paper's transparent `pthread_mutex_lock` redirection: application
//! code locks exactly as it would any mutex and gets LibASL behaviour.
//!
//! ```
//! use asl_core::AslMutex;
//!
//! let counter = AslMutex::new(0u64);
//! {
//!     let mut held = counter.lock(); // RAII guard
//!     *held += 1;
//! } // released on drop — even on panic
//! assert_eq!(*counter.lock(), 1);
//! assert_eq!(counter.raw().stats().snapshot().total(), 2);
//! ```

use asl_locks::api;
use asl_locks::{FifoLock, McsLock, PthreadMutex, RawLock};
use asl_runtime::registry::is_big_core;

use crate::epoch;
use crate::reorderable::ReorderableLock;
use crate::stats::LockStats;
use crate::wait::{SleepWait, SpinWait, WaitPolicy};

/// Raw LibASL lock: epoch-aware dispatch over a reorderable lock.
pub struct AslLock<L: RawLock = McsLock, W: WaitPolicy = SpinWait> {
    reorderable: ReorderableLock<L, W>,
}

/// The default (non-blocking) LibASL lock: reorderable MCS with
/// spinning standby — the configuration used in most of the paper's
/// evaluation.
pub type AslSpinLock = AslLock<McsLock, SpinWait>;

/// The blocking LibASL lock for over-subscribed systems (Bench-6):
/// a futex-based mutex underneath, `nanosleep` back-off standby.
pub type AslBlockingLock = AslLock<PthreadMutex, SleepWait>;

impl Default for AslSpinLock {
    fn default() -> Self {
        AslLock::new(McsLock::new())
    }
}

impl AslBlockingLock {
    /// Blocking LibASL lock with default sleep back-off.
    ///
    /// This is the one configuration whose substrate is *not* FIFO
    /// (glibc-style futex mutex), matching the paper's Bench-6 setup;
    /// it trades the bounded-reordering guarantee for blocking waits.
    pub fn new_blocking() -> Self {
        AslLock::with_waiter(PthreadMutex::new(), SleepWait::new())
    }
}

impl<L: RawLock + FifoLock> AslLock<L, SpinWait> {
    /// Build over the FIFO substrate `inner` with the default spinning
    /// standby policy. The FIFO marker is what carries the paper's
    /// bounded-reordering guarantee; non-FIFO substrates must go
    /// through [`AslLock::with_waiter`] explicitly.
    pub fn new(inner: L) -> Self {
        AslLock {
            reorderable: ReorderableLock::new(inner),
        }
    }
}

impl<L: RawLock, W: WaitPolicy> AslLock<L, W> {
    /// Build over `inner` with an explicit standby policy (escape
    /// hatch: also accepts non-FIFO substrates, e.g. the blocking
    /// configuration's futex mutex).
    pub fn with_waiter(inner: L, waiter: W) -> Self {
        AslLock {
            reorderable: ReorderableLock::with_waiter(inner, waiter),
        }
    }

    /// Acquire with SLO-guided ordering (paper `asl_mutex_lock`).
    #[inline]
    pub fn lock(&self) -> L::Token {
        if is_big_core() {
            self.reorderable.lock_immediately()
        } else {
            match epoch::current_window() {
                Some(w) => self.reorderable.lock_reorder(w),
                None => self
                    .reorderable
                    .lock_reorder(self.reorderable.max_window_ns()),
            }
        }
    }

    /// Release.
    #[inline]
    pub fn unlock(&self, token: L::Token) {
        self.reorderable.unlock(token)
    }

    /// Try-lock (supported because the underlying lock is unmodified).
    #[inline]
    pub fn try_lock(&self) -> Option<L::Token> {
        self.reorderable.try_lock()
    }

    /// Whether the lock is currently held or queued.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.reorderable.is_locked()
    }

    /// Acquisition-path statistics.
    pub fn stats(&self) -> &LockStats {
        self.reorderable.stats()
    }
}

/// [`AslLock`] is itself a [`RawLock`], so every guard-API shape
/// ([`asl_locks::api::Guard`], [`asl_locks::api::Mutex`], the
/// object-safe facade) composes over it; the epoch-aware dispatch
/// happens inside `lock`.
impl<L: RawLock, W: WaitPolicy> RawLock for AslLock<L, W> {
    type Token = L::Token;

    #[inline]
    fn lock(&self) -> L::Token {
        AslLock::lock(self)
    }

    #[inline]
    fn try_lock(&self) -> Option<L::Token> {
        AslLock::try_lock(self)
    }

    #[inline]
    fn unlock(&self, token: L::Token) {
        AslLock::unlock(self, token)
    }

    #[inline]
    fn is_locked(&self) -> bool {
        AslLock::is_locked(self)
    }

    const NAME: &'static str = "libasl";
}

/// A mutual-exclusion container with LibASL ordering: the generic
/// [`api::Mutex`] over an [`AslLock`], a drop-in replacement shape for
/// `std::sync::Mutex` (no poisoning — lock protocols here are
/// panic-agnostic like `parking_lot`). Acquisition statistics are the
/// lock's, `raw().stats()`.
pub type AslMutex<T, L = McsLock, W = SpinWait> = api::Mutex<T, AslLock<L, W>>;

#[cfg(test)]
mod tests {
    use super::*;
    use asl_locks::shuffle::FifoPolicy;
    use asl_locks::{ClhLock, ShuffleLock, TicketLock};
    use asl_runtime::registry::{register_on_core, unregister};
    use asl_runtime::topology::{CoreId, Topology};
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = AslMutex::new(5u64);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn try_lock_guard() {
        let m = AslMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn get_mut_bypasses_lock() {
        let mut m = AslMutex::new(1);
        *m.get_mut() = 9;
        assert_eq!(*m.lock(), 9);
    }

    #[test]
    fn panic_in_critical_section_releases_lock() {
        let m = Arc::new(AslMutex::new(0u64));
        let m2 = m.clone();
        let joined = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g += 1;
            panic!("poison-free unwind");
        })
        .join();
        assert!(joined.is_err());
        // No poisoning: the unwound guard released the lock.
        assert!(!m.is_locked());
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn concurrent_counter() {
        let m = Arc::new(AslMutex::new(0u64));
        let mut handles = vec![];
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 80_000);
    }

    #[test]
    fn substrate_is_one_type_parameter() {
        // CLH / ticket / shuffle substrates are a type choice, not a
        // code fork: the same mutex shape works over each.
        let clh: AslMutex<u64, ClhLock> = AslMutex::with_lock(1, AslLock::new(ClhLock::new()));
        *clh.lock() += 1;
        assert_eq!(*clh.lock(), 2);

        let ticket: AslMutex<u64, TicketLock> =
            AslMutex::with_lock(5, AslLock::new(TicketLock::new()));
        *ticket.lock() += 1;
        assert_eq!(*ticket.lock(), 6);

        let shfl: AslMutex<u64, ShuffleLock<FifoPolicy>> =
            AslMutex::with_lock(7, AslLock::new(ShuffleLock::new(FifoPolicy)));
        *shfl.lock() += 1;
        assert_eq!(*shfl.lock(), 8);
    }

    #[test]
    fn big_core_takes_immediate_path() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(0));
        let m = AslMutex::new(());
        drop(m.lock());
        let s = m.raw().stats().snapshot();
        assert_eq!(s.immediate, 1);
        assert_eq!(s.standby_total(), 0);
        unregister();
    }

    #[test]
    fn little_core_takes_standby_path() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(5));
        crate::epoch::reset_thread_epochs();
        let m = AslMutex::new(());
        drop(m.lock()); // outside any epoch: max-window standby, free entry
        let s = m.raw().stats().snapshot();
        assert_eq!(s.immediate, 0);
        assert_eq!(s.standby_free_entry, 1);
        unregister();
    }

    #[test]
    fn little_core_in_epoch_uses_epoch_window() {
        let t = Topology::apple_m1();
        register_on_core(&t, CoreId(4));
        crate::epoch::reset_thread_epochs();
        crate::epoch::set_epoch_window(3, 0); // zero window: immediate FIFO entry
        let m = AslMutex::new(());
        crate::epoch::with_epoch(3, u64::MAX, || {
            drop(m.lock());
        });
        let s = m.raw().stats().snapshot();
        // Lock was free, so it entered via the free-entry fast path.
        assert_eq!(s.standby_total(), 1);
        unregister();
    }

    #[test]
    fn blocking_variant_works() {
        let lock = AslBlockingLock::new_blocking();
        lock.lock();
        assert!(lock.is_locked());
        lock.unlock(());
        assert!(!lock.is_locked());
    }

    #[test]
    fn asl_lock_supports_guards() {
        use asl_locks::api::Guard;
        let lock = AslSpinLock::default();
        {
            let _g = Guard::new(&lock);
            assert!(lock.is_locked());
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn plain_lock_facades() {
        // The blanket PlainLock impl covers AslLock because it is a
        // RawLock with a word-encodable token; DynLock adds the RAII
        // layer over the resulting trait object.
        use asl_locks::api::DynLock;
        let spin = DynLock::of(AslSpinLock::default());
        {
            let _held = spin.lock();
            assert!(spin.is_locked());
        }
        assert!(!spin.is_locked());
        assert_eq!(spin.name(), "libasl");

        let blocking = DynLock::of(AslBlockingLock::new_blocking());
        drop(blocking.lock());
        assert_eq!(blocking.name(), "libasl");
    }
}
