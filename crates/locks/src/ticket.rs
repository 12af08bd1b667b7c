//! Ticket lock: the simplest FIFO spinlock.
//!
//! Take a ticket, spin until the now-serving counter reaches it.
//! Strict FIFO handover, so on AMP it exhibits the same throughput
//! collapse as MCS (Fig. 8a measures it explicitly).
//!
//! ## Timed back-out
//!
//! A timed waiter ([`crate::timed::RawTimedLock`]) that expires
//! first tries to *retract* its ticket (CAS `next` back down — only
//! possible for the tail ticket); failing that it deeds the ticket to
//! a small abandon list that the release path drains: whenever
//! `serving` lands on an abandoned ticket, the releaser advances it
//! again. This is the same drain-target idea as
//! [`crate::rw_ticket`]'s writer drain — the counter the grant chain
//! waits on is pushed *past* entries nobody will claim.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{FifoLock, RawLock};

/// FIFO ticket spinlock.
pub struct TicketLock {
    next: AtomicU64,
    serving: AtomicU64,
    /// Exact count of deeded (abandoned, not yet drained) tickets —
    /// the release fast path's one-load gate.
    abandoned_len: AtomicU64,
    /// Protects `abandoned`. A TAS lock, not a ticket lock: it is
    /// only ever held for a few loads/stores, and using the same
    /// family would recurse.
    abandon_lock: crate::tas::TasLock,
    /// Deeded tickets awaiting drain. Tiny (bounded by concurrent
    /// timed waiters), scanned linearly.
    abandoned: UnsafeCell<Vec<u64>>,
}

// SAFETY: `abandoned` is only touched while `abandon_lock` is held.
unsafe impl Send for TicketLock {}
unsafe impl Sync for TicketLock {}

impl TicketLock {
    /// New unlocked ticket lock.
    pub fn new() -> Self {
        TicketLock {
            next: AtomicU64::new(0),
            serving: AtomicU64::new(0),
            abandoned_len: AtomicU64::new(0),
            abandon_lock: crate::tas::TasLock::new(),
            abandoned: UnsafeCell::new(Vec::new()),
        }
    }

    /// Number of threads currently holding or waiting (abandoned
    /// tickets count until drained — transiently, since every release
    /// drains).
    pub fn queue_depth(&self) -> u64 {
        let next = self.next.load(Ordering::Relaxed);
        let serving = self.serving.load(Ordering::Relaxed);
        next.saturating_sub(serving)
    }

    /// Advance `serving` past consecutively abandoned tickets. Called
    /// by the release path whenever the abandon list is non-empty;
    /// granters pop under the same lock timed waiters deed under, so
    /// `serving == T` with `T` undrained means `T`'s owner abandoned
    /// and the chain must move on.
    #[cold]
    fn drain_abandoned(&self) {
        self.abandon_lock.lock();
        loop {
            let s = self.serving.load(Ordering::Relaxed);
            let list = unsafe { &mut *self.abandoned.get() };
            match list.iter().position(|&t| t == s) {
                Some(pos) => {
                    list.swap_remove(pos);
                    self.abandoned_len.fetch_sub(1, Ordering::Relaxed);
                    self.serving.fetch_add(1, Ordering::Release);
                }
                None => break,
            }
        }
        self.abandon_lock.unlock(());
    }
}

impl Default for TicketLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for TicketLock {
    type Token = ();

    #[inline]
    fn lock(&self) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        // Uncontended fast path: one RMW + one load, returning before
        // any spin-state setup (Spin::new reads the machine-shape
        // cache, which is pure overhead when the ticket is served
        // immediately).
        if self.serving.load(Ordering::Acquire) == ticket {
            return;
        }
        let mut spin = asl_runtime::relax::Spin::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            spin.relax();
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        let serving = self.serving.load(Ordering::Relaxed);
        // Only take a ticket if it would be served immediately.
        if self
            .next
            .compare_exchange(serving, serving + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(())
        } else {
            None
        }
    }

    #[inline]
    fn unlock(&self, _t: ()) {
        // SeqCst: Dekker pair with the timed back-out. The abandoner
        // publishes its ticket (list push + `abandoned_len` add),
        // then re-reads `serving`; we advance `serving`, then read
        // `abandoned_len`. At least one side must observe the other,
        // or a grant could land on a deeded ticket nobody drains.
        self.serving.fetch_add(1, Ordering::SeqCst);
        if self.abandoned_len.load(Ordering::SeqCst) != 0 {
            self.drain_abandoned();
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.queue_depth() > 0
    }

    const NAME: &'static str = "ticket";
}

impl FifoLock for TicketLock {}

impl crate::timed::RawTimedLock for TicketLock {
    /// Back out of a ticket wait (module docs): retract the tail
    /// ticket if nobody queued behind us, else deed it to the abandon
    /// list. Both paths leave the grant chain able to reach every
    /// live waiter.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<()> {
        // Fast path: a free lock is a plain immediate acquisition.
        if self.try_lock().is_some() {
            return Some(());
        }
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        if self.serving.load(Ordering::Acquire) == ticket {
            return Some(());
        }
        let mut deadline = asl_runtime::clock::Deadline::new(deadline_ns);
        let mut spin = asl_runtime::relax::Spin::new();
        loop {
            if self.serving.load(Ordering::Acquire) == ticket {
                return Some(());
            }
            if deadline.passed() {
                break;
            }
            spin.relax();
        }
        // Expired. Retract if we are still the tail: `next` back from
        // `ticket + 1` to `ticket` unissues our ticket entirely.
        if self
            .next
            .compare_exchange(
                ticket.wrapping_add(1),
                ticket,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            return None;
        }
        // Someone queued behind us: the ticket must be deeded so the
        // chain can drain past it. Grants pop under `abandon_lock`
        // (see `drain_abandoned`), so the `serving == ticket` checks
        // below cannot race a concurrent drain of our own ticket.
        self.abandon_lock.lock();
        if self.serving.load(Ordering::Acquire) == ticket {
            // The grant landed while we were expiring: we own the
            // lock (a late win, allowed by the timed contract).
            self.abandon_lock.unlock(());
            return Some(());
        }
        unsafe { (*self.abandoned.get()).push(ticket) };
        self.abandoned_len.fetch_add(1, Ordering::SeqCst);
        // Dekker pair with `unlock` (see there): re-read `serving`
        // after publishing. If the grant landed in between and the
        // releaser missed our publication, nobody would drain us —
        // so take the lock instead.
        if self.serving.load(Ordering::SeqCst) == ticket {
            let list = unsafe { &mut *self.abandoned.get() };
            let pos = list.iter().position(|&t| t == ticket).expect("own ticket");
            list.swap_remove(pos);
            self.abandoned_len.fetch_sub(1, Ordering::Relaxed);
            self.abandon_lock.unlock(());
            return Some(());
        }
        self.abandon_lock.unlock(());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let l = TicketLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        assert_eq!(l.queue_depth(), 1);
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_semantics() {
        let l = TicketLock::new();
        l.try_lock().expect("free lock");
        assert!(l.try_lock().is_none());
        l.unlock(());
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn fifo_order_observed() {
        // Thread 0 takes the lock, threads 1..4 queue in a known
        // order (serialized by a barrier chain); they must be granted
        // in that same order.
        let l = Arc::new(TicketLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let enqueued = Arc::new(AtomicUsize::new(0));

        l.lock();
        let mut handles = vec![];
        for i in 0..4 {
            let l = l.clone();
            let order = order.clone();
            let enq = enqueued.clone();
            handles.push(std::thread::spawn(move || {
                // Wait until it is my turn to enqueue (ensures a
                // deterministic arrival order).
                while enq.load(Ordering::Acquire) != i {
                    std::thread::yield_now();
                }
                let ticket = l.next.fetch_add(1, Ordering::Relaxed);
                enq.fetch_add(1, Ordering::Release);
                while l.serving.load(Ordering::Acquire) != ticket {
                    std::thread::yield_now();
                }
                order.lock().unwrap().push(i);
                l.unlock(());
            }));
        }
        // Wait for all four to be queued, then release.
        while enqueued.load(Ordering::Acquire) != 4 {
            std::thread::yield_now();
        }
        l.unlock(());
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn queue_depth_counts_waiters() {
        let l = Arc::new(TicketLock::new());
        l.lock();
        let l2 = l.clone();
        let h = std::thread::spawn(move || {
            l2.lock();
            l2.unlock(());
        });
        // Wait for the second thread to take a ticket.
        while l.queue_depth() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(l.queue_depth(), 2);
        l.unlock(());
        h.join().unwrap();
        assert_eq!(l.queue_depth(), 0);
    }
}
