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
//! come from a per-thread freelist and are returned on `unlock`.
//! Nodes are heap blocks that are recycled but never freed, bounding
//! the footprint at (live threads × peak nesting depth) nodes — the
//! standard engineering trade for MCS in a library setting.

use std::cell::RefCell;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

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
    fn new() -> Self {
        QNode {
            state: AtomicU32::new(GRANTED),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

thread_local! {
    static FREELIST: RefCell<Vec<NonNull<QNode>>> = const { RefCell::new(Vec::new()) };
}

fn take_node() -> NonNull<QNode> {
    FREELIST
        .with(|f| f.borrow_mut().pop())
        .unwrap_or_else(|| NonNull::from(Box::leak(Box::new(QNode::new()))))
}

fn put_node(node: NonNull<QNode>) {
    FREELIST.with(|f| f.borrow_mut().push(node));
}

/// Token proving acquisition of an [`McsLock`]; owns the queue node.
pub struct McsToken(NonNull<QNode>);

impl crate::plain::TokenWords for McsToken {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (self.0.as_ptr() as usize, 0)
    }

    /// # Safety
    /// `a` must come from `into_words` on a token of the same lock
    /// that has not been released yet.
    #[inline]
    unsafe fn from_words(a: usize, _b: usize) -> Self {
        McsToken(NonNull::new_unchecked(a as *mut QNode))
    }
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

impl RawLock for McsLock {
    type Token = McsToken;

    #[inline]
    fn lock(&self) -> McsToken {
        let node = take_node();
        unsafe {
            node.as_ref().state.store(WAITING, Ordering::Relaxed);
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` cannot be recycled until we link
            // ourselves — its owner's unlock spins on `pred.next`.
            let mut spin = asl_runtime::relax::Spin::new();
            unsafe {
                (*pred).next.store(node.as_ptr(), Ordering::Release);
                while node.as_ref().state.load(Ordering::Acquire) == WAITING {
                    spin.relax();
                }
            }
        }
        McsToken(node)
    }

    #[inline]
    fn try_lock(&self) -> Option<McsToken> {
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = take_node();
        unsafe {
            node.as_ref().state.store(WAITING, Ordering::Relaxed);
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        match self.tail.compare_exchange(
            ptr::null_mut(),
            node.as_ptr(),
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => Some(McsToken(node)),
            Err(_) => {
                put_node(node);
                None
            }
        }
    }

    #[inline]
    fn unlock(&self, token: McsToken) {
        let mut node = token.0;
        // Grant chain: hand to the successor, but a successor that
        // abandoned its timed wait transferred its node to us — adopt
        // it (reclaim) and repeat on *its* successor. Untimed waiters
        // never abandon, so without timed use the loop runs once and
        // the grant CAS cannot fail.
        loop {
            unsafe {
                let mut next = node.as_ref().next.load(Ordering::Acquire);
                if next.is_null() {
                    // No known successor: try to close the queue.
                    if self
                        .tail
                        .compare_exchange(
                            node.as_ptr(),
                            ptr::null_mut(),
                            Ordering::Release,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                    {
                        put_node(node);
                        return;
                    }
                    // A successor is enqueueing; wait for the link.
                    let mut spin = asl_runtime::relax::Spin::new();
                    loop {
                        next = node.as_ref().next.load(Ordering::Acquire);
                        if !next.is_null() {
                            break;
                        }
                        spin.relax();
                    }
                }
                // The CAS races the successor's own WAITING → ABANDONED
                // at its deadline: exactly one side wins, so the lock
                // is either granted or the node is ours to adopt.
                let granted = (*next)
                    .state
                    .compare_exchange(WAITING, GRANTED, Ordering::Release, Ordering::Acquire)
                    .is_ok();
                put_node(node);
                if granted {
                    return;
                }
                debug_assert_eq!((*next).state.load(Ordering::Relaxed), ABANDONED);
                node = NonNull::new_unchecked(next);
            }
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
    /// `unlock`); failure means the grant already landed, so the
    /// acquisition succeeded at the wire.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<McsToken> {
        let node = take_node();
        unsafe {
            node.as_ref().state.store(WAITING, Ordering::Relaxed);
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if pred.is_null() {
            return Some(McsToken(node));
        }
        // SAFETY: `pred` cannot be recycled until we link ourselves —
        // its owner (or adopter) spins on `pred.next`.
        unsafe {
            (*pred).next.store(node.as_ptr(), Ordering::Release);
        }
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
        // nodes; the freelist must supply them.
        let a = McsLock::new();
        let b = McsLock::new();
        let c = McsLock::new();
        let ta = a.lock();
        let tb = b.lock();
        let tc = c.lock();
        assert!(a.is_locked() && b.is_locked() && c.is_locked());
        c.unlock(tc);
        b.unlock(tb);
        a.unlock(ta);
        assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
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

    #[test]
    fn node_recycling_bounded() {
        // Repeated lock/unlock on one thread must reuse one node.
        let l = McsLock::new();
        for _ in 0..10_000 {
            let t = l.lock();
            l.unlock(t);
        }
        FREELIST.with(|f| {
            assert!(f.borrow().len() <= 4, "freelist grew unexpectedly");
        });
    }
}
