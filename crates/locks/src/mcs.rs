//! MCS queue lock (Mellor-Crummey & Scott, 1991) behind a lock word.
//!
//! The paper's FIFO workhorse and the default lock under the
//! reorderable layer. Waiters spin on their *own* queue node, so the
//! lock scales on SMP; handover is strict FIFO, which is precisely
//! what collapses on AMP (Fig. 1).
//!
//! ## One RMW, not two
//!
//! Textbook MCS pays two RMWs uncontended — the tail `swap` in, the
//! tail `compare_exchange` out — and the second belongs to the
//! textbook, not to FIFO queueing. Here the lock is a *word* and the
//! queue is where threads wait for it (Linux's qspinlock; the Fissile
//! Locks argument): `lock` is `tail == null && locked.CAS(0 → 1)`,
//! `unlock` a `Release` store, the token a zero-sized proof. An arrival
//! that finds the word taken *or anyone queued* enqueues and spins on
//! its own node until it is the queue's **head**; the head alone spins
//! on the word, takes it, and passes headship on *at acquisition* —
//! textbook MCS's release: close the tail or grant the successor,
//! adopting abandoned nodes on the way. The fast path is open only
//! while the queue is empty, so queued threads are granted in arrival
//! order ([`FifoLock`]) and poll exactly as often as when the grant
//! was the lock.
//!
//! ## Node management
//!
//! A thread needs one node while it *waits*, whatever it holds; an
//! uncontended round touches no pool and stores nothing but its CAS
//! (on x86 an RMW pays for every store still pending: the rule on
//! [`crate::telemetry::TelemetryCell`]). Nodes come from the
//! per-thread pool (the `pool` module) and go back at the headship
//! pass, to the pool of the thread that passes or adopts them. A node
//! is initialised where it becomes reachable (`pool::link_behind`);
//! `next == null` is the invariant of a pooled one. The queue lives
//! out of line: what inlines into a caller's loop leaves its registers.

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use crate::pool::{close_tail, link_behind, node_pool, wait_for_link};
use crate::{FifoLock, RawLock};

const WAITING: u32 = 1;
/// The node is the queue's head: its thread alone waits on the word.
const GRANTED: u32 = 0;
/// A timed waiter gave up mid-queue; the node belongs to whichever
/// head reaches it, which *adopts* (skips and pools) it.
const ABANDONED: u32 = 2;

/// One queue node. Aligned to a cache line so waiters' spin targets
/// do not false-share.
#[repr(align(64))]
pub struct QNode {
    state: AtomicU32,
    next: AtomicPtr<QNode>,
}

impl QNode {
    fn fresh() -> Self {
        QNode {
            state: AtomicU32::new(GRANTED),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

node_pool!(QNode);

/// Proof of acquisition of an [`McsLock`]. Zero-sized — the lock word
/// is all a holder owns — and `(0, 0)` through the facade.
pub struct McsToken(());

impl crate::plain::TokenWords for McsToken {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (0, 0)
    }

    #[inline]
    unsafe fn from_words(_a: usize, _b: usize) -> Self {
        McsToken(())
    }
}

/// The MCS queue lock: a lock word and the queue of its waiters.
#[derive(Default)]
pub struct McsLock {
    tail: AtomicPtr<QNode>,
    locked: AtomicU32,
}

// SAFETY: the queue protocol ensures a node is only recycled after no
// other thread can reach it (see `pass_headship`).
unsafe impl Send for McsLock {}
unsafe impl Sync for McsLock {}

impl McsLock {
    /// New unlocked MCS lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The whole uncontended acquisition: nobody queued, one CAS.
    #[inline]
    fn take_free(&self) -> bool {
        self.tail.load(Ordering::Relaxed).is_null() && self.take_word()
    }

    /// `Acquire`, pairing with the `Release` store of `unlock`.
    #[inline]
    fn take_word(&self) -> bool {
        let (acquire, relaxed) = (Ordering::Acquire, Ordering::Relaxed);
        self.locked.compare_exchange(0, 1, acquire, relaxed).is_ok()
    }

    /// Enqueue, wait to be head, then for the word, and pass headship
    /// on; `false` if `deadline_ns` came first (`u64::MAX`: none, and
    /// no clock read). Mid-queue, a waiter gives up by CASing its own
    /// node `WAITING → ABANDONED`: success gives the node away, failure
    /// means headship already landed. A *head* at its deadline looks
    /// at the word once more and passes headship on, word or no word.
    #[cold]
    fn lock_queued(&self, deadline_ns: u64) -> bool {
        let node = take_node();
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        let mut head = pred.is_null();
        if !head {
            // SAFETY: our node, our swap, its non-null result.
            unsafe { link_behind(pred, node, WAITING) };
        }
        // SAFETY: ours until abandoned or pooled, and not read after.
        let state = unsafe { &(*node.as_ptr()).state };
        let (acq_rel, acquire) = (Ordering::AcqRel, Ordering::Acquire);
        let mut spin = asl_runtime::relax::Spin::new();
        let taken = loop {
            head = head || state.load(acquire) == GRANTED;
            if head && self.locked.load(Ordering::Relaxed) == 0 && self.take_word() {
                break true;
            }
            if deadline_ns != u64::MAX && asl_runtime::clock::coarse_now_ns() >= deadline_ns {
                let abandon = || state.compare_exchange(WAITING, ABANDONED, acq_rel, acquire);
                if !head && abandon().is_ok() {
                    return false;
                }
                break self.take_word();
            }
            spin.relax();
        };
        // SAFETY: head, so the node is ours to pool.
        unsafe { self.pass_headship(node) };
        taken
    }

    /// The head leaves the queue: close it behind `node`, or make the
    /// successor head — but one that abandoned its timed wait gave us
    /// its node: adopt it (pool it) and repeat on *its* successor.
    /// Without timed use the loop runs once, the grant CAS cannot fail.
    ///
    /// # Safety
    /// `node` is the head's node.
    unsafe fn pass_headship(&self, mut node: NonNull<QNode>) {
        loop {
            let mut next = node.as_ref().next.load(Ordering::Acquire);
            if next.is_null() {
                if close_tail(&self.tail, node) {
                    return put_node(node);
                }
                // A successor swapped the tail and is linking itself.
                next = wait_for_link(node);
            }
            // The CAS races the successor's own WAITING → ABANDONED
            // at its deadline: exactly one side wins, so the successor
            // is either head or its node is ours to adopt.
            let granted = (*next)
                .state
                .compare_exchange(WAITING, GRANTED, Ordering::Release, Ordering::Acquire)
                .is_ok();
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            put_node(node);
            if granted {
                return;
            }
            debug_assert_eq!((*next).state.load(Ordering::Relaxed), ABANDONED);
            node = NonNull::new_unchecked(next);
        }
    }
}

impl RawLock for McsLock {
    type Token = McsToken;

    #[inline]
    fn lock(&self) -> McsToken {
        if !self.take_free() {
            let taken = self.lock_queued(u64::MAX);
            debug_assert!(taken, "an untimed wait ends with the word");
        }
        McsToken(())
    }

    #[inline]
    fn try_lock(&self) -> Option<McsToken> {
        self.take_free().then_some(McsToken(()))
    }

    #[inline]
    fn unlock(&self, _token: McsToken) {
        self.locked.store(0, Ordering::Release);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed) != 0 || !self.tail.load(Ordering::Relaxed).is_null()
    }

    const NAME: &'static str = "mcs";
}

impl FifoLock for McsLock {}

impl crate::timed::RawTimedLock for McsLock {
    /// The queued wait with a deadline: see `lock_queued`.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<McsToken> {
        (self.take_free() || self.lock_queued(deadline_ns)).then_some(McsToken(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::RawTimedLock;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let l = McsLock::new();
        assert!(!l.is_locked());
        let t = l.lock();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_contended() {
        let l = McsLock::new();
        let t = l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(t);
        let t2 = l.try_lock().expect("now free");
        l.unlock(t2);
    }

    #[test]
    fn nested_distinct_locks() {
        // A holder owns the word and nothing else: uncontended rounds
        // touch no pool, however many locks the thread holds at once.
        let spare = POOL.with(|p| p.len());
        let a = McsLock::new();
        let b = McsLock::new();
        let c = McsLock::new();
        let ta = a.lock();
        let tb = b.lock();
        let tc = c.lock();
        assert!(a.is_locked() && b.is_locked() && c.is_locked());
        POOL.with(|p| assert_eq!(p.len(), spare, "a holder took a node"));
        a.unlock(ta);
        c.unlock(tc);
        b.unlock(tb);
        assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
        for _ in 0..10_000 {
            let t = b.lock();
            b.unlock(t);
        }
        POOL.with(|p| assert_eq!(p.len(), spare, "an uncontended round took a node"));
    }

    #[test]
    fn a_waiter_needs_one_node_whatever_its_thread_holds() {
        let (a, b, c) = (McsLock::new(), McsLock::new(), McsLock::new());
        for _ in 0..3 {
            let held = c.lock();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let (ta, tb) = (a.lock(), b.lock());
                    POOL.with(|p| assert_eq!(p.len(), 0, "fresh thread, two locks held"));
                    // Queues behind the word as head, passes headship
                    // (closing the queue) the moment it has the word.
                    let tc = c.lock();
                    POOL.with(|p| assert_eq!(p.len(), 1, "the node it waited on, pooled"));
                    assert!(c.tail.load(Ordering::Relaxed).is_null() && c.is_locked());
                    b.unlock(tb);
                    c.unlock(tc);
                    a.unlock(ta);
                    POOL.with(|p| assert_eq!(p.len(), 1));
                });
                while c.tail.load(Ordering::Relaxed).is_null() {
                    std::thread::yield_now();
                }
                c.unlock(held);
            });
            assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
        }
    }

    #[test]
    fn an_abandoned_node_is_pooled_by_the_head_that_adopts_it() {
        let lock = McsLock::new();
        let held = lock.lock();
        std::thread::scope(|s| {
            let head = s.spawn(|| {
                let t = lock.lock();
                // Its own node and the abandoner's, both idle: taking
                // them out again asserts it (debug builds).
                POOL.with(|p| assert_eq!(p.len(), 2, "own node + adopted"));
                let (a, b) = (take_node(), take_node());
                assert_ne!(a, b);
                put_node(b);
                put_node(a);
                assert!(lock.tail.load(Ordering::Relaxed).is_null(), "queue closed");
                lock.unlock(t);
            });
            while lock.tail.load(Ordering::Relaxed).is_null() {
                std::thread::yield_now();
            }
            let head_node = lock.tail.load(Ordering::Relaxed);
            let abandoner = s.spawn(|| {
                assert!(lock.try_lock_for(5_000_000).is_none());
                POOL.with(|p| assert_eq!(p.len(), 0, "gave its node away"));
            });
            abandoner.join().expect("abandoner");
            assert_ne!(
                lock.tail.load(Ordering::Relaxed),
                head_node,
                "queued behind"
            );
            lock.unlock(held);
            head.join().expect("head");
        });
        assert!(!lock.is_locked());
    }

    #[test]
    fn fifo_handover_order() {
        // Serialize arrivals, verify grant order matches.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let l = Arc::new(McsLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let arrivals = Arc::new(AtomicUsize::new(0));

        let t0 = l.lock();
        let mut handles = vec![];
        for i in 0..4 {
            let l = l.clone();
            let order = order.clone();
            let arr = arrivals.clone();
            handles.push(std::thread::spawn(move || {
                while arr.load(Ordering::Acquire) != i {
                    std::thread::yield_now();
                }
                // Begin enqueue, then signal the next arriver. We
                // cannot split McsLock::lock, so signal *before*
                // locking and rely on a short settle delay to order
                // the swaps.
                arr.fetch_add(1, Ordering::Release);
                let t = l.lock();
                order.lock().unwrap().push(i);
                l.unlock(t);
            }));
            // Give each spawned thread time to reach the tail swap
            // before the next one starts.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        while arrivals.load(Ordering::Acquire) != 4 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        l.unlock(t0);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }
}
