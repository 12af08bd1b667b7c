//! Timed / abortable acquisition: [`RawTimedLock`].
//!
//! Locking with a deadline is the robustness counterpart of the
//! paper's reorder window: a waiter that can *give up* bounds the
//! damage of a stalled or preempted holder instead of inheriting it.
//! Each lock family needs its own back-out protocol, because
//! abandoning a wait means undoing whatever queue state the wait
//! published:
//!
//! | Lock | Back-out protocol |
//! |---|---|
//! | [`crate::TasLock`] | nothing published — just stop competing |
//! | [`crate::TicketLock`] | retract the tail ticket, or deed it to the abandon list the release path drains (the drain-target idiom from [`crate::rw_ticket`]) |
//! | [`crate::QueueLock`]`<P>` (`mcs`, `cna`, `malthusian`, shuffle) | mid-queue: CAS the queue node `WAITING → ABANDONED`; the head that reaches it adopts and reclaims it — in the queue, or when a head policy's stash (CNA's secondary queue, the Malthusian passive set) goes back into it, since every grant is the same CAS. As the queue's head (only the lock word left to wait for): pass headship on without the word |
//! | [`crate::Gcr`]`<L>` | the passive self-rescue path unlinks the waiter; admission rolls back on inner timeout |
//!
//! Deadlines are absolute virtual/monotonic nanoseconds (the
//! [`asl_runtime::clock`] timeline, so the simulator and the fault
//! injector both steer them). Wait loops check the deadline through
//! an [`asl_runtime::clock::Deadline`] — a timed spin reads the clock
//! at most once per 16 polls until the deadline is near, not once per
//! probe — so expirations are observed on the first poll at or after
//! the deadline while polls cost what they did, up to 15 polls late
//! when they get slower, never early. A
//! timed acquire of a *free* lock reads no clock at all
//! ([`RawTimedLock::try_lock_for`] tries first and anchors its
//! deadline only if that fails): on the uncontended path it costs what
//! `try_lock` costs — for MCS that *is* `lock`'s fast path, a load of
//! the tail and one CAS on the lock word (`timed_mcs` on the
//! `host-acquire` ladder reads what `static_mcs` reads).

use crate::RawLock;

/// A [`RawLock`] that can abandon an acquisition at a deadline.
///
/// The contract mirrors `lock`: `Some(token)` is a full acquisition
/// (release with [`RawLock::unlock`]); `None` means the wait was
/// abandoned with **no residue** — no queue slot, no admission, no
/// node the releaser could hand the lock to. A `None` a moment before
/// the grant would have landed is allowed (the grant goes to the next
/// waiter or frees the lock); a token returned a moment *after* the
/// deadline is allowed too (the caller observed the grant late — it
/// holds the lock and must release it).
pub trait RawTimedLock: RawLock {
    /// Try to acquire until the absolute deadline
    /// (`asl_runtime::clock` nanoseconds) passes.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<Self::Token>;

    /// Try to acquire for at most `timeout_ns` from now. A lock that
    /// [`RawLock::try_lock`] gets is taken with no clock read at all:
    /// a deadline bounds a *wait*, so it is anchored — one precise
    /// read, saturating at the end of time (`u64::MAX` means "wait
    /// like `lock`") — only once there is one. The timeout then counts
    /// from that anchor, a failed `try_lock` after the call.
    fn try_lock_for(&self, timeout_ns: u64) -> Option<Self::Token> {
        if let Some(token) = self.try_lock() {
            return Some(token);
        }
        let deadline = asl_runtime::clock::now_ns().saturating_add(timeout_ns);
        self.try_lock_until(deadline)
    }
}

#[cfg(test)]
// Several zoo tokens are unit types; the explicit bindings keep the
// acquire/unlock pairing readable and symmetric across families.
#[allow(clippy::let_unit_value)]
mod tests {
    use super::*;
    use crate::shuffle::{
        Candidate, ClassLocalPolicy, PreferBigPolicy, ProportionalPolicy, ShufflePolicy,
    };
    use crate::{
        CnaLock, Gcr, GcrConfig, MalthusianLock, McsLock, RawLock, ShuffleLock, TasLock, TicketLock,
    };
    use asl_runtime::clock::{ms, now_ns};
    use asl_runtime::CoreKind;
    use std::sync::Arc;

    /// Timeout while held must return None in bounded time; the lock
    /// must still work afterwards.
    fn timeout_then_reacquire<L: RawTimedLock>(lock: L) {
        let held = lock.lock();
        let t0 = now_ns();
        assert!(
            lock.try_lock_for(ms(5)).is_none(),
            "{}: acquired a held lock",
            L::NAME
        );
        let waited = now_ns() - t0;
        assert!(waited >= ms(4), "{}: gave up early ({waited}ns)", L::NAME);
        assert!(
            waited < ms(2_000),
            "{}: timeout unbounded ({waited}ns)",
            L::NAME
        );
        lock.unlock(held);
        let t = lock
            .try_lock_for(ms(100))
            .unwrap_or_else(|| panic!("{}: free lock not acquired", L::NAME));
        lock.unlock(t);
        // And the untimed path still works after an abandon.
        let t = lock.lock();
        lock.unlock(t);
        assert!(!lock.is_locked(), "{}: residue after abandon", L::NAME);
    }

    #[test]
    fn tas_timeout_then_reacquire() {
        timeout_then_reacquire(TasLock::new());
    }

    #[test]
    fn ticket_timeout_then_reacquire() {
        timeout_then_reacquire(TicketLock::new());
    }

    #[test]
    fn mcs_timeout_then_reacquire() {
        timeout_then_reacquire(McsLock::new());
    }

    #[test]
    fn head_policy_timeout_then_reacquire() {
        timeout_then_reacquire(CnaLock::new());
        timeout_then_reacquire(MalthusianLock::new());
        timeout_then_reacquire(ShuffleLock::new(ClassLocalPolicy::new(16)));
    }

    #[test]
    fn gcr_timeout_then_reacquire() {
        timeout_then_reacquire(Gcr::with_config(McsLock::new(), GcrConfig::fixed(1)));
    }

    #[test]
    fn free_lock_timed_acquire_is_immediate() {
        let l = TicketLock::new();
        let t = l.try_lock_for(0).expect("free lock, zero timeout");
        l.unlock(t);
        let m = McsLock::new();
        let t = m.try_lock_for(0).expect("free lock, zero timeout");
        m.unlock(t);
    }

    /// Ticket: an abandoned middle ticket must not wedge the grant
    /// chain — the release path drains it through to the live waiter.
    #[test]
    fn ticket_abandoned_middle_ticket_is_drained() {
        let l = Arc::new(TicketLock::new());
        let held = l.lock();
        // A waiter that will abandon (ticket 1)...
        let l1 = l.clone();
        let abandoner = std::thread::spawn(move || {
            assert!(l1.try_lock_for(ms(20)).is_none());
        });
        while l.queue_depth() < 2 {
            std::thread::yield_now();
        }
        // ...and a live waiter behind it (ticket 2), so the abandoner
        // cannot retract its tail ticket and must deed it instead.
        let l2 = l.clone();
        let live = std::thread::spawn(move || {
            let t = l2.lock();
            l2.unlock(t);
        });
        while l.queue_depth() < 3 {
            std::thread::yield_now();
        }
        abandoner.join().unwrap();
        l.unlock(held);
        // The release must skip the abandoned ticket and grant the
        // live waiter; if it doesn't, this join hangs.
        live.join().unwrap();
        assert!(!l.is_locked());
    }

    /// MCS: a chain of abandoned nodes between the queue's head and a
    /// live waiter is adopted and reclaimed by that head when it takes
    /// the word and passes headship.
    #[test]
    fn mcs_abandon_chain_is_adopted() {
        let l = Arc::new(McsLock::new());
        let held = l.lock();
        let pause = || std::thread::sleep(std::time::Duration::from_millis(5));
        let live = |l: Arc<McsLock>| {
            let waiter = std::thread::spawn(move || l.unlock(l.lock()));
            pause();
            waiter
        };
        // An untimed head in front, so the three behind it are queued
        // abandons (a timed *head* would pass headship on instead)...
        let head = live(l.clone());
        let abandoners: Vec<_> = (0..3)
            .map(|_| {
                let l = l.clone();
                let a = std::thread::spawn(move || assert!(l.try_lock_for(ms(20)).is_none()));
                // Order the enqueues.
                pause();
                a
            })
            .collect();
        for a in abandoners {
            a.join().unwrap();
        }
        // ...and a live waiter behind them, for headship to skip to.
        let tail = live(l.clone());
        l.unlock(held);
        head.join().unwrap();
        tail.join().unwrap();
        assert!(!l.is_locked());
        // And a timed head leaves no residue either: it closes the
        // queue it is alone in, without the word.
        let held = l.lock();
        assert!(l.try_lock_for(ms(1)).is_none());
        l.unlock(held);
        assert!(!l.is_locked());
    }

    /// Gcr: a timed-out admission leaves no slot behind — the gate's
    /// active count returns to the survivors only.
    #[test]
    fn gcr_timeout_rolls_back_admission() {
        let g = Arc::new(Gcr::with_config(TasLock::new(), GcrConfig::fixed(1)));
        let held = g.lock();
        assert_eq!(g.active(), 1);
        let g2 = g.clone();
        let t = std::thread::spawn(move || {
            assert!(g2.try_lock_for(ms(30)).is_none());
        });
        t.join().unwrap();
        assert_eq!(g.active(), 1, "timed-out waiter leaked an admission");
        g.unlock(held);
        assert_eq!(g.active(), 0);
        let t = g.try_lock_for(ms(100)).expect("free gcr");
        g.unlock(t);
    }

    /// Mixed timed/untimed stress: mutual exclusion holds and every
    /// timed failure really means "did not enter the critical
    /// section".
    #[test]
    fn timed_stress_mutual_exclusion() {
        fn stress<L: RawTimedLock + 'static>(lock: Arc<L>) {
            struct Shared<L> {
                lock: Arc<L>,
                value: std::cell::UnsafeCell<u64>,
            }
            unsafe impl<L: Send + Sync> Sync for Shared<L> {}
            let shared = Arc::new(Shared {
                lock,
                value: std::cell::UnsafeCell::new(0),
            });
            let mut handles = vec![];
            let mut expected = 0u64;
            for i in 0..6 {
                let s = shared.clone();
                // Half the threads use the timed path with a deadline
                // long enough to always win; half use plain lock.
                let timed = i % 2 == 0;
                expected += 3_000;
                handles.push(std::thread::spawn(move || {
                    for _ in 0..3_000 {
                        let tok = if timed {
                            s.lock.try_lock_for(ms(10_000)).expect("10s deadline lost")
                        } else {
                            s.lock.lock()
                        };
                        unsafe { *s.value.get() += 1 };
                        s.lock.unlock(tok);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(unsafe { *shared.value.get() }, expected);
        }
        stress(Arc::new(TasLock::new()));
        stress(Arc::new(TicketLock::new()));
        stress(Arc::new(McsLock::new()));
        stress(Arc::new(CnaLock::new()));
        stress(Arc::new(MalthusianLock::with_period(2)));
        stress(Arc::new(ShuffleLock::new(ClassLocalPolicy::new(16))));
        stress(Arc::new(ShuffleLock::new(PreferBigPolicy::new(32))));
        stress(Arc::new(ShuffleLock::new(ProportionalPolicy::new(10))));
        // Always the last candidate, often the tail an arrival is
        // linking behind: the head moves it all the same, and the
        // queue stays whole.
        struct Last;
        impl ShufflePolicy for Last {
            fn pick(&self, _releaser: CoreKind, c: &[Candidate]) -> usize {
                c.len() - 1
            }
            fn name(&self) -> &'static str {
                "last"
            }
        }
        stress(Arc::new(ShuffleLock::new(Last)));
        stress(Arc::new(Gcr::with_config(
            McsLock::new(),
            GcrConfig::fixed(2),
        )));
    }

    /// Short-deadline churn against a held lock: abandons from many
    /// threads at once leave the queue structures consistent.
    #[test]
    fn timed_abandon_churn() {
        fn churn<L: RawTimedLock + 'static>(lock: Arc<L>) {
            let held = lock.lock();
            let mut handles = vec![];
            for _ in 0..6 {
                let l = lock.clone();
                handles.push(std::thread::spawn(move || {
                    let mut gave_up = 0;
                    for _ in 0..50 {
                        if l.try_lock_for(ms(1)).is_none() {
                            gave_up += 1;
                        } else {
                            unreachable!("lock is held for the whole churn");
                        }
                    }
                    gave_up
                }));
            }
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total, 300);
            lock.unlock(held);
            let t = lock.lock();
            lock.unlock(t);
            assert!(!lock.is_locked());
        }
        churn(Arc::new(TasLock::new()));
        churn(Arc::new(TicketLock::new()));
        churn(Arc::new(McsLock::new()));
        churn(Arc::new(CnaLock::new()));
        churn(Arc::new(MalthusianLock::new()));
        churn(Arc::new(ShuffleLock::new(ClassLocalPolicy::new(16))));
        churn(Arc::new(Gcr::with_config(
            TicketLock::new(),
            GcrConfig::fixed(1),
        )));
    }
}
