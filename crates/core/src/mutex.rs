//! The LibASL lock: bounded reordering (paper Algorithm 1, Figure 7)
//! and the asymmetry-aware dispatch over it (Algorithm 3), one type.
//!
//! [`AslLock`] wraps an underlying lock `L` and is the raw lock the
//! paper's `asl_mutex_lock` implements:
//!
//! * big core → the inner lock's own acquire, at once;
//! * little core inside an epoch → [`AslLock::lock_reorder`] with the
//!   epoch's current window;
//! * little core outside any epoch → `lock_reorder` with the lock's
//!   bound, `MAX_WINDOW` unless lowered, so the thread still eventually
//!   locks ("the default maximum window is used to ensure that the
//!   thread will eventually lock").
//!
//! `lock_reorder` makes its caller a *standby competitor*: if the lock
//! is free it enqueues immediately; otherwise it waits out the reorder
//! window (probing the lock with the configured [`WaitPolicy`]), then
//! enqueues. Competitors that enqueue during the window *reorder with*
//! (overtake) the standby competitor. The window is clamped to the
//! lock's bound, at most [`config::MAX_WINDOW_NS`], which makes the
//! lock starvation-free: every standby competitor joins the FIFO queue
//! after at most that many nanoseconds. As in the paper, the window
//! "is not a strict order constraint": a standby competitor whose
//! window expired still races normally inside the underlying lock, and
//! the underlying unlock path is untouched.
//!
//! LibASL-OPT, the paper's static-window comparator, is the same lock
//! with its bound lowered to the window ([`AslLock::set_max_window_ns`])
//! and no epoch around it.
//!
//! The lock is generic over its FIFO substrate: any [`FifoLock`] can
//! sit underneath ([`McsLock`] by default; the ablations build it over
//! CLH, ticket and the FIFO shuffle lock with
//! `AslLock::new(ClhLock::new())` and so on). [`AslLock`] implements
//! [`RawLock`], so the whole guard API of [`asl_locks::api`] applies
//! to it.
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
//! // An unregistered thread counts as a big core: both acquisitions
//! // were the inner lock's own, and no standby path was taken.
//! assert_eq!(counter.raw().stats().snapshot().standby_total(), 0);
//! ```

use asl_locks::api;
use asl_locks::telemetry::holder_add;
use asl_locks::{FifoLock, McsLock, PthreadMutex, RawLock};
use asl_runtime::clock::now_ns;
use asl_runtime::registry::is_big_core;

use crate::config;
use crate::epoch;
use crate::stats::LockStats;
use crate::wait::{SleepWait, SpinWait, WaitOutcome, WaitPolicy};

/// The LibASL lock: epoch-aware dispatch over bounded reordering.
pub struct AslLock<L: RawLock = McsLock, W: WaitPolicy = SpinWait> {
    inner: L,
    waiter: W,
    max_window_ns: u64,
    stats: LockStats,
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
    /// Blocking LibASL lock with sleep back-off standby.
    ///
    /// This is the one configuration whose substrate is *not* FIFO
    /// (glibc-style futex mutex), matching the paper's Bench-6 setup;
    /// it trades the bounded-reordering guarantee for blocking waits.
    pub fn new_blocking() -> Self {
        AslLock::with_waiter(PthreadMutex::new(), SleepWait)
    }
}

impl<L: RawLock + FifoLock> AslLock<L, SpinWait> {
    /// Build over the FIFO substrate `inner` with the default spinning
    /// standby policy. The FIFO marker is what carries the paper's
    /// bounded-reordering guarantee; non-FIFO substrates must go
    /// through [`AslLock::with_waiter`] explicitly.
    pub fn new(inner: L) -> Self {
        AslLock::with_waiter(inner, SpinWait)
    }
}

impl<L: RawLock, W: WaitPolicy> AslLock<L, W> {
    /// Build over `inner` with an explicit standby policy (escape
    /// hatch: also accepts non-FIFO substrates, e.g. the blocking
    /// configuration's futex mutex).
    pub fn with_waiter(inner: L, waiter: W) -> Self {
        AslLock {
            inner,
            waiter,
            max_window_ns: config::MAX_WINDOW_NS,
            stats: LockStats::new(),
        }
    }

    /// Lower this lock's starvation bound to `ns` (never above
    /// [`config::MAX_WINDOW_NS`]). Outside an epoch a little core
    /// stands by for exactly the bound, so this is also LibASL-OPT's
    /// static window; 0 makes every standby entry FIFO.
    pub fn set_max_window_ns(&mut self, ns: u64) {
        self.max_window_ns = ns.min(config::MAX_WINDOW_NS);
    }

    /// Acquire as a standby competitor with the given reorder window
    /// in nanoseconds (paper `lock_reorder`).
    ///
    /// Clock budget (the paper allots ~45 cycles per `clock_gettime`
    /// and spends them sparingly; a read here is one `clock_gettime`,
    /// see [`asl_runtime::clock`]): one read anchoring the
    /// reorder-window deadline, taken only when
    /// there is a window to honour, plus the reads of the
    /// [`asl_runtime::clock::Deadline`] the standby wait checks it
    /// through — the first two polls (so the first re-reads the clock
    /// right after the anchor), then one per 16 polls, and every poll
    /// of the last few that can reach the deadline. A window of `n`
    /// polls at a steady poll cost and free reads therefore takes
    /// `2 + ⌈(n − 1) / 16⌉` reads after the anchor (40 polls: 5), on
    /// the host and in virtual time alike — a charged read, as in the
    /// simulator, can add a few near the end — and where every host
    /// poll yields, `n + 1`. The free-entry fast path reads no clock
    /// at all and stores once after the inner lock's RMW: its path
    /// counter, holder-owned.
    #[inline]
    pub fn lock_reorder(&self, window_ns: u64) -> L::Token {
        use std::sync::atomic::Ordering::Relaxed;
        // Starvation-freedom: never honour more than the bound.
        let window = window_ns.min(self.max_window_ns);
        if !self.inner.is_locked() {
            let token = self.inner.lock();
            holder_add(&self.stats.standby_free_entry, 1);
            return token;
        }
        // Held on entry. These counters are bumped before the inner
        // lock is taken — by writers that do not hold it — so they
        // keep their RMWs.
        if window > 0 {
            // The anchor: the one clock read outside the deadline's.
            let deadline = now_ns().saturating_add(window);
            match self
                .waiter
                .standby_wait(deadline, &|| !self.inner.is_locked())
            {
                WaitOutcome::ObservedFree => {
                    self.stats.standby_observed_free.fetch_add(1, Relaxed);
                }
                WaitOutcome::WindowExpired => {
                    self.stats.standby_expired.fetch_add(1, Relaxed);
                }
            }
        } else {
            self.stats.standby_expired.fetch_add(1, Relaxed);
        }
        self.inner.lock()
    }

    /// Standby-path counters (little cores only; a big core's
    /// acquire counts nothing here).
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }
}

/// [`AslLock`] is itself a [`RawLock`], so every guard-API shape
/// ([`asl_locks::api::Guard`], [`asl_locks::api::Mutex`], the
/// object-safe facade) composes over it. Only `lock` differs from the
/// inner lock's: it is the paper's `asl_mutex_lock`, the epoch-aware
/// dispatch; release, try-lock and the held check are the inner
/// lock's own (the paper notes trylock keeps working because the
/// underlying lock is unmodified).
impl<L: RawLock, W: WaitPolicy> RawLock for AslLock<L, W> {
    type Token = L::Token;

    /// Acquire with SLO-guided ordering (paper `asl_mutex_lock`). A
    /// big core's acquire is the inner lock's own, nothing around it —
    /// the `libasl_max` rung of `host-acquire` is `dyn_mcs` plus the
    /// core-class check. Generic counts (acquisitions, contention, wait
    /// and hold times) are the `instrumented-` wrapper's, as for every
    /// other lock.
    #[inline]
    fn lock(&self) -> L::Token {
        if is_big_core() {
            self.inner.lock()
        } else {
            match epoch::current_window() {
                Some(w) => self.lock_reorder(w),
                None => self.lock_reorder(self.max_window_ns),
            }
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<L::Token> {
        self.inner.try_lock()
    }

    #[inline]
    fn unlock(&self, token: L::Token) {
        self.inner.unlock(token)
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.inner.is_locked()
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
    use std::sync::atomic::{AtomicBool, Ordering};
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
        // The immediate path is the inner lock's own acquire: no
        // standby path is counted.
        assert_eq!(m.raw().stats().snapshot(), Default::default());
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
        assert_eq!(s.standby_free_entry, 1);
        // The one acquisition took the standby path and nothing else.
        assert_eq!(s.standby_total(), 1);
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

    #[test]
    fn immediate_path_is_plain_lock() {
        let l = AslLock::new(McsLock::new());
        let t = l.inner.lock();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
        // The inner lock's own acquire: no standby path is counted.
        assert_eq!(l.stats().snapshot(), Default::default());
    }

    #[test]
    fn reorder_on_free_lock_enters_immediately() {
        let l = AslLock::new(McsLock::new());
        let t0 = now_ns();
        let t = l.lock_reorder(1_000_000_000); // 1s window, but lock is free
        let dt = now_ns() - t0;
        l.unlock(t);
        assert!(dt < 100_000_000, "free-entry took {dt}ns");
        assert_eq!(l.stats().snapshot().standby_free_entry, 1);
    }

    #[test]
    fn reorder_waits_out_window_when_held() {
        let l = Arc::new(AslLock::new(McsLock::new()));
        let t = l.inner.lock();
        let l2 = l.clone();
        let h = std::thread::spawn(move || {
            let t0 = now_ns();
            let tok = l2.lock_reorder(5_000_000); // 5ms window
            let waited = now_ns() - t0;
            l2.unlock(tok);
            waited
        });
        // Hold the lock well past the window.
        std::thread::sleep(std::time::Duration::from_millis(30));
        l.unlock(t);
        let waited = h.join().unwrap();
        assert!(waited >= 5_000_000, "standby only waited {waited}ns");
        assert_eq!(l.stats().snapshot().standby_expired, 1);
    }

    #[test]
    fn standby_enters_when_lock_frees_mid_window() {
        let l = Arc::new(AslLock::new(McsLock::new()));
        let t = l.inner.lock();
        let released = Arc::new(AtomicBool::new(false));
        let l2 = l.clone();
        let r2 = released.clone();
        let h = std::thread::spawn(move || {
            let t0 = now_ns();
            let tok = l2.lock_reorder(2_000_000_000); // 2s window
            let waited = now_ns() - t0;
            assert!(r2.load(Ordering::Relaxed), "acquired before release");
            l2.unlock(tok);
            waited
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        released.store(true, Ordering::Relaxed);
        l.unlock(t);
        let waited = h.join().unwrap();
        // Should acquire shortly after release, far within 2s.
        assert!(
            waited < 1_000_000_000,
            "standby waited the whole window: {waited}ns"
        );
    }

    #[test]
    fn window_clamped_to_max() {
        let mut l = AslLock::new(McsLock::new());
        l.set_max_window_ns(1_000_000); // 1ms bound
        let l = Arc::new(l);
        let t = l.inner.lock();
        let l2 = l.clone();
        let h = std::thread::spawn(move || {
            let t0 = now_ns();
            let tok = l2.lock_reorder(u64::MAX); // absurd request
            let waited = now_ns() - t0;
            l2.unlock(tok);
            waited
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        l.unlock(t);
        let waited = h.join().unwrap();
        assert!(
            waited < 25_000_000,
            "starvation bound not honoured: waited {waited}ns"
        );
    }

    #[test]
    fn zero_window_degenerates_to_fifo() {
        let l = Arc::new(AslLock::new(TicketLock::new()));
        l.inner.lock();
        let l2 = l.clone();
        let h = std::thread::spawn(move || {
            l2.lock_reorder(0);
            l2.unlock(());
        });
        // Hold the lock until the zero-window competitor has joined
        // the FIFO queue (it must not wait out any window first).
        while l.inner.queue_depth() < 2 {
            std::thread::yield_now();
        }
        l.unlock(());
        h.join().unwrap();
        assert_eq!(l.stats().snapshot().standby_expired, 1);
    }

    #[test]
    fn try_lock_passthrough() {
        let l = AslLock::new(McsLock::new());
        let t = l.try_lock().expect("free");
        assert!(l.try_lock().is_none());
        l.unlock(t);
    }

    #[test]
    fn mutual_exclusion_under_mixed_paths() {
        struct Shared {
            lock: AslLock<McsLock>,
            value: std::cell::UnsafeCell<u64>,
        }
        unsafe impl Sync for Shared {}
        let s = Arc::new(Shared {
            lock: AslLock::new(McsLock::new()),
            value: std::cell::UnsafeCell::new(0),
        });
        let mut handles = vec![];
        for i in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let tok = if i % 2 == 0 {
                        s.lock.inner.lock()
                    } else {
                        s.lock.lock_reorder(10_000)
                    };
                    unsafe { *s.value.get() += 1 };
                    s.lock.unlock(tok);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *s.value.get() }, 40_000);
        // Every `lock_reorder` call took exactly one standby path; the
        // inner lock's own acquisitions took none.
        assert_eq!(s.lock.stats().snapshot().standby_total(), 20_000);
    }
}
