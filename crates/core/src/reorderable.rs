//! The reorderable lock (paper Algorithm 1, Figure 7).
//!
//! Wraps an underlying lock `L` (MCS by default; any [`RawLock`]
//! works, including blocking mutexes for the over-subscription
//! configuration) and exposes two acquisition paths:
//!
//! * [`ReorderableLock::lock_immediately`] — enqueue in the underlying
//!   lock right away. Big cores take this path.
//! * [`ReorderableLock::lock_reorder`] — become a *standby
//!   competitor*: if the lock is free, enqueue immediately; otherwise
//!   wait out a caller-supplied reorder window (probing the lock with
//!   the configured [`WaitPolicy`]), then enqueue. Competitors that
//!   enqueue during the window effectively *reorder with* (overtake)
//!   the standby competitor — the reordering is bounded by the window.
//!
//! The window is clamped to the configured maximum, which makes the
//! lock starvation-free: every standby competitor joins the FIFO queue
//! after at most `max_window` nanoseconds.
//!
//! As in the paper, the window "is not a strict order constraint": a
//! standby competitor whose window expired still races normally inside
//! the underlying lock, and the underlying unlock path is untouched.

use asl_locks::telemetry::holder_add;
use asl_locks::RawLock;
use asl_runtime::clock::now_ns;

use crate::config;
use crate::stats::LockStats;
use crate::wait::{SpinWait, WaitOutcome, WaitPolicy};

/// Bounded-reordering layer over an underlying lock.
pub struct ReorderableLock<L: RawLock, W: WaitPolicy = SpinWait> {
    inner: L,
    waiter: W,
    max_window_ns: u64,
    stats: LockStats,
}

impl<L: RawLock + Default> Default for ReorderableLock<L, SpinWait> {
    fn default() -> Self {
        Self::new(L::default())
    }
}

impl<L: RawLock> ReorderableLock<L, SpinWait> {
    /// Wrap `inner` with the default spinning standby policy and the
    /// globally configured maximum window.
    pub fn new(inner: L) -> Self {
        Self::with_waiter(inner, SpinWait)
    }
}

impl<L: RawLock, W: WaitPolicy> ReorderableLock<L, W> {
    /// Wrap `inner` with an explicit standby waiting policy.
    pub fn with_waiter(inner: L, waiter: W) -> Self {
        ReorderableLock {
            inner,
            waiter,
            max_window_ns: config::max_window_ns(),
            stats: LockStats::new(),
        }
    }

    /// Override the starvation bound for this lock instance.
    pub fn set_max_window_ns(&mut self, ns: u64) {
        assert!(ns > 0);
        self.max_window_ns = ns;
    }

    /// The starvation bound (maximum honoured window).
    pub fn max_window_ns(&self) -> u64 {
        self.max_window_ns
    }

    /// Acquire without standing by (paper `lock_immediately`).
    ///
    /// Sampling off and the lock free, this is the inner lock's own
    /// acquire between three loads (is it held, is the cell sampling —
    /// twice) and **one store**, the holder-owned acquisition count:
    /// the `libasl_max` rung of `host-acquire`, ~1 ns over `dyn_mcs`.
    #[inline]
    pub fn lock_immediately(&self) -> L::Token {
        let contended = self.inner.is_locked();
        let t0 = if self.stats.telemetry.sampling() && contended {
            now_ns()
        } else {
            0
        };
        let token = self.inner.lock();
        // Holder from here on: the acquisition count is holder-owned
        // (see `TelemetryCell`), bumped without an RMW now that the
        // lock serialises its writers — and it is the only store of
        // this path: the immediate count is derived from it
        // (`LockStats`).
        if t0 != 0 {
            self.stats
                .telemetry
                .add_wait_ns(now_ns().saturating_sub(t0));
        }
        self.stats.telemetry.record_acquisition_exclusive(contended);
        self.stats.telemetry.sample_hold_start();
        token
    }

    /// Acquire as a standby competitor with the given reorder window
    /// in nanoseconds (paper `lock_reorder`).
    ///
    /// Clock budget (the paper allots ~45 cycles per `clock_gettime`
    /// and spends them sparingly; a precise read here is one
    /// cycle-counter read, ~30 cycles, where the host has a trusted
    /// counter and a `clock_gettime` where not — see
    /// [`asl_runtime::clock`]): with sampling off — the production
    /// configuration — this path reads the precise clock **at most
    /// once per acquisition**: the timestamp anchoring the
    /// reorder-window deadline, taken only when there is a window to
    /// honour. Deadline checks inside the standby wait ride
    /// [`asl_runtime::clock::coarse_now_ns`]'s amortized cache. The
    /// free-entry fast path reads no clock at all (and stores twice
    /// between the inner lock's RMWs: its path counter and the
    /// acquisition count, both holder-owned). When sampling is
    /// on — the gear that explicitly buys timing with clock reads —
    /// an acquisition that found the lock held brackets its wait with
    /// precise reads (the coarse cache is not refreshed while blocked
    /// inside `inner.lock()`, so a coarse end-read could miss the
    /// entire queue wait), and either path brackets one hold in
    /// [`asl_locks::telemetry::HOLD_SAMPLE_STRIDE`] with two more.
    #[inline]
    pub fn lock_reorder(&self, window_ns: u64) -> L::Token {
        use std::sync::atomic::Ordering::Relaxed;
        // Starvation-freedom: never honour more than the bound.
        let window = window_ns.min(self.max_window_ns);
        if !self.inner.is_locked() {
            // Found free: no wait to time (another thread can still
            // slip in before inner.lock(); that rare queue wait goes
            // untimed, as it does on the immediate path).
            let token = self.inner.lock();
            holder_add(&self.stats.standby_free_entry, 1);
            self.stats.telemetry.record_acquisition_exclusive(false);
            self.stats.telemetry.sample_hold_start();
            return token;
        }
        // Held on entry: a contended acquisition whichever way the
        // window plays out. Observations are visible before blocking
        // — so these writers do not hold the lock, and `contended` and
        // the two standby counters below keep their RMWs.
        self.stats.telemetry.record_contended();
        let sampling = self.stats.telemetry.sampling();
        // The single precise clock read of this acquisition.
        let t0 = if window > 0 || sampling { now_ns() } else { 0 };
        if window > 0 {
            let deadline = t0.saturating_add(window);
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
        let token = self.inner.lock();
        if sampling && t0 != 0 {
            // Precise end-read, sampling-gated: blocking in
            // inner.lock() never refreshes this thread's coarse
            // cache, so a coarse read here could predate t0 and
            // record a ~0 wait for an arbitrarily long queue wait.
            self.stats
                .telemetry
                .add_wait_ns(now_ns().saturating_sub(t0));
        }
        self.stats.telemetry.record_acquired_exclusive();
        self.stats.telemetry.sample_hold_start();
        token
    }

    /// Release (paper `unlock`: delegates to the underlying lock,
    /// whose handover logic is untouched).
    #[inline]
    pub fn unlock(&self, token: L::Token) {
        self.stats.telemetry.note_hold_end();
        self.inner.unlock(token)
    }

    /// Try-lock passthrough (the paper notes trylock keeps working
    /// because the underlying lock is unmodified).
    #[inline]
    pub fn try_lock(&self) -> Option<L::Token> {
        self.inner.try_lock()
    }

    /// Whether the underlying lock is currently held or queued.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.inner.is_locked()
    }

    /// Acquisition-path statistics for this lock.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The underlying lock (for inspection in tests).
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_locks::{McsLock, TicketLock};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn immediate_path_is_plain_lock() {
        let l = ReorderableLock::new(McsLock::new());
        let t = l.lock_immediately();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
        assert_eq!(l.stats().snapshot().immediate, 1);
    }

    #[test]
    fn reorder_on_free_lock_enters_immediately() {
        let l = ReorderableLock::new(McsLock::new());
        let t0 = now_ns();
        let t = l.lock_reorder(1_000_000_000); // 1s window, but lock is free
        let dt = now_ns() - t0;
        l.unlock(t);
        assert!(dt < 100_000_000, "free-entry took {dt}ns");
        assert_eq!(l.stats().snapshot().standby_free_entry, 1);
    }

    #[test]
    fn reorder_waits_out_window_when_held() {
        let l = Arc::new(ReorderableLock::new(McsLock::new()));
        let t = l.lock_immediately();
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
        let l = Arc::new(ReorderableLock::new(McsLock::new()));
        let t = l.lock_immediately();
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
        let mut l = ReorderableLock::new(McsLock::new());
        l.set_max_window_ns(1_000_000); // 1ms bound
        let l = Arc::new(l);
        let t = l.lock_immediately();
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
        let l = Arc::new(ReorderableLock::new(TicketLock::new()));
        l.lock_immediately();
        let l2 = l.clone();
        let h = std::thread::spawn(move || {
            l2.lock_reorder(0);
            l2.unlock(());
        });
        // Hold the lock until the zero-window competitor has joined
        // the FIFO queue (it must not wait out any window first).
        while l.inner().queue_depth() < 2 {
            std::thread::yield_now();
        }
        l.unlock(());
        h.join().unwrap();
        assert_eq!(l.stats().snapshot().standby_expired, 1);
    }

    #[test]
    fn try_lock_passthrough() {
        let l = ReorderableLock::new(McsLock::new());
        let t = l.try_lock().expect("free");
        assert!(l.try_lock().is_none());
        l.unlock(t);
    }

    #[test]
    fn mutual_exclusion_under_mixed_paths() {
        struct Shared {
            lock: ReorderableLock<McsLock>,
            value: std::cell::UnsafeCell<u64>,
        }
        unsafe impl Sync for Shared {}
        let s = Arc::new(Shared {
            lock: ReorderableLock::new(McsLock::new()),
            value: std::cell::UnsafeCell::new(0),
        });
        let mut handles = vec![];
        for i in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let tok = if i % 2 == 0 {
                        s.lock.lock_immediately()
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
        let snap = s.lock.stats().snapshot();
        assert_eq!(snap.total(), 40_000);
        // The shared telemetry layer counts every acquisition too.
        assert_eq!(snap.telemetry.acquisitions, 40_000);
        assert!(snap.telemetry.contended <= snap.telemetry.acquisitions);
    }
}
