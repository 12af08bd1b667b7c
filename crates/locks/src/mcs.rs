//! MCS queue lock (Mellor-Crummey & Scott, 1991).
//!
//! The paper's FIFO workhorse and the default lock under the
//! reorderable layer. Waiters spin on their *own* queue node, so the
//! lock scales on SMP; handover is strict FIFO, which is precisely
//! what collapses on AMP (Fig. 1).
//!
//! ## Node management
//!
//! `lock()` returns a token owning the acquirer's queue node; nodes
//! come from the per-thread pool (the `pool` module) and go back on
//! `unlock`, to the pool of whichever thread releases or adopts them.
//! That bounds the footprint at (live threads × peak nesting depth)
//! nodes; a thread's spare nodes are freed when it exits.
//!
//! An uncontended `lock`/`unlock` is two RMWs — the tail `swap` in, the
//! tail `compare_exchange` out — and **no plain store precedes the
//! first** but the pool's slot hand-out: on x86 an RMW waits for the
//! store buffer to drain, so every store still pending when it issues
//! costs ≈ 1.5 ns there (the reference host; nothing on a machine whose
//! RMWs do not drain the buffer — see the rule on
//! [`crate::telemetry::TelemetryCell`]). A node no predecessor will
//! read is therefore not initialised at all: `state` is written only on
//! the path that found a predecessor, after the `swap` and before the
//! `Release` store that links the node behind it — the first moment
//! anyone else can see it — and `next == null` is the invariant of a
//! pooled node, restored by the releaser on the grant path. The
//! contended halves live out of line, so that what inlines into a
//! caller's loop is small enough to leave the caller its registers
//! (a spilled loop counter is a store between the two RMWs too).

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use crate::pool::{close_tail, link_behind, node_pool, open_tail, wait_behind, wait_for_link};
use crate::{FifoLock, RawLock};

const WAITING: u32 = 1;
const GRANTED: u32 = 0;
/// A timed waiter that gave up. The node's ownership transfers to
/// whichever releaser reaches it: the releaser *adopts* the node —
/// skips it in the grant chain and reclaims it (see `unlock`).
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
crate::pool::node_token! {
    /// Token proving acquisition of an [`McsLock`]; owns the queue node.
    McsToken(QNode)
}

/// The MCS queue lock.
pub struct McsLock {
    tail: AtomicPtr<QNode>,
}

impl McsLock {
    /// New unlocked MCS lock.
    pub fn new() -> Self {
        McsLock {
            tail: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: the queue protocol ensures a node is only recycled after no
// other thread can reach it (see unlock).
unsafe impl Send for McsLock {}
unsafe impl Sync for McsLock {}

impl McsLock {
    /// Release with a successor linked (`next`) or linking (null: the
    /// closing CAS just failed). Grant chain: hand to the successor,
    /// but a successor that abandoned its timed wait transferred its
    /// node to us — adopt it (reclaim) and repeat on *its* successor.
    /// Untimed waiters never abandon, so without timed use the loop
    /// runs once and the grant CAS cannot fail.
    ///
    /// # Safety
    /// `node` is the holder's node, `next` what its link last read.
    #[cold]
    unsafe fn hand_over(&self, mut node: NonNull<QNode>, mut next: *mut QNode) {
        loop {
            if next.is_null() {
                // A successor is enqueueing.
                next = wait_for_link(node);
            }
            // The CAS races the successor's own WAITING → ABANDONED
            // at its deadline: exactly one side wins, so the lock
            // is either granted or the node is ours to adopt.
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
            next = node.as_ref().next.load(Ordering::Acquire);
            if next.is_null() && self.close(node) {
                return;
            }
        }
    }

    /// Try to close the queue behind `node`; pools it on success.
    #[inline]
    fn close(&self, node: NonNull<QNode>) -> bool {
        let closed = close_tail(&self.tail, node);
        if closed {
            put_node(node);
        }
        closed
    }
}

impl RawLock for McsLock {
    type Token = McsToken;

    #[inline]
    fn lock(&self) -> McsToken {
        let node = take_node();
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: our node, our swap, its non-null result.
            unsafe { wait_behind(pred, node, WAITING) };
        }
        McsToken(node)
    }

    #[inline]
    fn try_lock(&self) -> Option<McsToken> {
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = take_node();
        if open_tail(&self.tail, node) {
            return Some(McsToken(node));
        }
        put_node(node);
        None
    }

    #[inline]
    fn unlock(&self, token: McsToken) {
        let node = token.0;
        // SAFETY: the token's node is ours until pooled.
        let next = unsafe { node.as_ref() }.next.load(Ordering::Acquire);
        if !(next.is_null() && self.close(node)) {
            // SAFETY: a successor swapped the tail after us.
            unsafe { self.hand_over(node, next) };
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    const NAME: &'static str = "mcs";
}

impl FifoLock for McsLock {}

impl crate::timed::RawTimedLock for McsLock {
    /// Timed abandon: at the deadline the waiter CASes its own node
    /// `WAITING → ABANDONED`. Success transfers node ownership to the
    /// eventual releaser (which adopts and reclaims it — see
    /// `hand_over`); failure means the grant already landed, so the
    /// acquisition succeeded at the wire.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<McsToken> {
        let node = take_node();
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if pred.is_null() {
            return Some(McsToken(node));
        }
        // SAFETY: our node, our swap, its non-null result.
        unsafe { link_behind(pred, node, WAITING) };
        let mut spin = asl_runtime::relax::Spin::new();
        loop {
            if unsafe { node.as_ref().state.load(Ordering::Acquire) } == GRANTED {
                return Some(McsToken(node));
            }
            if asl_runtime::clock::coarse_now_ns() >= deadline_ns {
                match unsafe {
                    node.as_ref().state.compare_exchange(
                        WAITING,
                        ABANDONED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                } {
                    // Abandoned: the node now belongs to the releaser
                    // that reaches it; we must not touch it again.
                    Ok(_) => return None,
                    // The grant won the race: we hold the lock.
                    Err(_) => return Some(McsToken(node)),
                }
            }
            spin.relax();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // A thread holding several MCS locks at once needs several
        // nodes: the pool's slot supplies the first, its overflow the
        // rest, and they come back in whatever order.
        let spare = POOL.with(|p| p.len());
        let a = McsLock::new();
        let b = McsLock::new();
        let c = McsLock::new();
        let ta = a.lock();
        let tb = b.lock();
        let tc = c.lock();
        assert!(a.is_locked() && b.is_locked() && c.is_locked());
        a.unlock(ta);
        c.unlock(tc);
        b.unlock(tb);
        assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
        // And repeated lock/unlock reuses one node: the pool is bounded.
        for _ in 0..10_000 {
            let t = b.lock();
            b.unlock(t);
        }
        POOL.with(|p| assert_eq!(p.len(), spare.max(3), "one node per nesting level"));
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
