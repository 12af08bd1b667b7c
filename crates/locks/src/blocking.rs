//! Blocking locks for the over-subscription experiments (Bench-6).
//!
//! * [`PthreadMutex`] — the glibc-style 3-state spin-then-futex mutex
//!   (`0` unlocked, `1` locked, `2` locked+contended). Unfair,
//!   wake-one; the paper's `pthread_mutex_lock` stand-in.
//! * [`McsStpLock`] — MCS with spin-then-park waiters. The paper
//!   measures it (as "MCS-STP") to show why FIFO handover plus
//!   parking collapses under over-subscription: every handover eats a
//!   wake-up latency on the critical path.

use std::cell::UnsafeCell;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::thread::Thread;

use crate::futex::{futex_wait, futex_wake};
use crate::pool::{close_tail, link_behind, node_pool, open_tail, wait_for_link};
use crate::{FifoLock, RawLock};

/// glibc-style spin-then-futex mutex.
pub struct PthreadMutex {
    /// 0 = unlocked, 1 = locked, 2 = locked with (possible) waiters.
    state: AtomicU32,
    spin_tries: u32,
}

impl PthreadMutex {
    /// Default spin budget (100 attempts) before sleeping, the same
    /// order as glibc's adaptive mutex.
    pub fn new() -> Self {
        Self::with_spin(100)
    }

    /// Custom pre-sleep spin budget.
    pub fn with_spin(spin_tries: u32) -> Self {
        PthreadMutex {
            state: AtomicU32::new(0),
            spin_tries,
        }
    }
}

impl Default for PthreadMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for PthreadMutex {
    type Token = ();

    #[inline]
    fn lock(&self) {
        if self
            .state
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        // Brief optimistic spinning: the holder may release soon.
        for _ in 0..self.spin_tries {
            std::hint::spin_loop();
            if self.state.load(Ordering::Relaxed) == 0
                && self
                    .state
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
        }
        // Slow path: advertise contention, sleep until woken.
        while self.state.swap(2, Ordering::Acquire) != 0 {
            futex_wait(&self.state, 2);
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        self.state
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| ())
    }

    #[inline]
    fn unlock(&self, _t: ()) {
        if self.state.swap(0, Ordering::Release) == 2 {
            futex_wake(&self.state, 1);
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) != 0
    }

    const NAME: &'static str = "pthread";
}

// ---------------------------------------------------------------------------

const STP_WAITING: u32 = 1;
const STP_GRANTED: u32 = 0;
const STP_PARKED: u32 = 2;

/// MCS queue node with a parking slot.
#[repr(align(64))]
pub struct StpNode {
    state: AtomicU32,
    next: AtomicPtr<StpNode>,
    thread: UnsafeCell<Option<Thread>>,
}

unsafe impl Sync for StpNode {}

impl StpNode {
    fn fresh() -> Self {
        StpNode {
            state: AtomicU32::new(STP_GRANTED),
            next: AtomicPtr::new(ptr::null_mut()),
            thread: UnsafeCell::new(None),
        }
    }
}

node_pool!(StpNode);

/// Token proving acquisition of an [`McsStpLock`]: it owns the queue
/// node, and travels through the facade as its address.
pub struct StpToken(NonNull<StpNode>);

impl crate::plain::TokenWords for StpToken {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (self.0.as_ptr() as usize, 0)
    }

    /// # Safety
    /// `a` comes from `into_words` on an unreleased token of this lock.
    #[inline]
    unsafe fn from_words(a: usize, _b: usize) -> Self {
        StpToken(NonNull::new_unchecked(a as *mut StpNode))
    }
}

/// Spin-then-park MCS lock ("MCS-STP" in the paper's Fig. 8h).
pub struct McsStpLock {
    tail: AtomicPtr<StpNode>,
    spin_iters: u32,
}

impl McsStpLock {
    /// Default pre-park spin budget.
    pub fn new() -> Self {
        Self::with_spin(1_000)
    }

    /// Custom pre-park spin budget (iterations).
    pub fn with_spin(spin_iters: u32) -> Self {
        McsStpLock {
            tail: AtomicPtr::new(ptr::null_mut()),
            spin_iters,
        }
    }
}

impl Default for McsStpLock {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl Send for McsStpLock {}
unsafe impl Sync for McsStpLock {}

impl RawLock for McsStpLock {
    type Token = StpToken;

    fn lock(&self) -> StpToken {
        let node = take_node();
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: our node, our swap, its non-null result.
            unsafe {
                link_behind(pred, node, STP_WAITING);
                // Spin briefly...
                for _ in 0..self.spin_iters {
                    if node.as_ref().state.load(Ordering::Acquire) == STP_GRANTED {
                        return StpToken(node);
                    }
                    std::hint::spin_loop();
                }
                // ...then park. Publish the thread handle first, then
                // flip WAITING -> PARKED; the granter observes PARKED
                // only after the handle is visible (release CAS).
                *node.as_ref().thread.get() = Some(std::thread::current());
                if node
                    .as_ref()
                    .state
                    .compare_exchange(STP_WAITING, STP_PARKED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    while node.as_ref().state.load(Ordering::Acquire) != STP_GRANTED {
                        // OS path: std park (spurious returns fine).
                        // Simulation substrate: a charged virtual wait
                        // — the granter's unpark is then a no-op.
                        asl_runtime::substrate::park_or(std::thread::park);
                    }
                }
                // Granted (either via CAS failure = already granted,
                // or after parking). Clear the handle for reuse.
                *node.as_ref().thread.get() = None;
            }
        }
        StpToken(node)
    }

    fn try_lock(&self) -> Option<StpToken> {
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = take_node();
        if open_tail(&self.tail, node) {
            return Some(StpToken(node));
        }
        put_node(node);
        None
    }

    fn unlock(&self, token: StpToken) {
        let node = token.0;
        unsafe {
            let mut next = node.as_ref().next.load(Ordering::Acquire);
            if next.is_null() {
                if close_tail(&self.tail, node) {
                    put_node(node);
                    return;
                }
                next = wait_for_link(node);
            }
            // Grant. If the successor already parked, its thread
            // handle must be cloned *before* GRANTED becomes visible:
            // `park()` may return spuriously, so the instant the
            // waiter can observe GRANTED it may exit, recycle the
            // node, and repurpose the handle slot.
            let state = &(*next).state;
            if state
                .compare_exchange(
                    STP_WAITING,
                    STP_GRANTED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                // PARKED (the only other reachable state): the handle
                // is published and stays stable until we grant.
                let t = (*(*next).thread.get())
                    .clone()
                    .expect("parked waiter must have published its thread");
                state.store(STP_GRANTED, Ordering::Release);
                t.unpark();
            }
            // A pooled node's link is null.
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            put_node(node);
        }
    }

    fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    const NAME: &'static str = "mcs-stp";
}

impl FifoLock for McsStpLock {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pthread_basic() {
        let l = PthreadMutex::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        assert!(l.try_lock().is_none());
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    fn pthread_contended_wakeups() {
        let l = Arc::new(PthreadMutex::with_spin(0)); // force futex path
        let mut handles = vec![];
        for _ in 0..8 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    l.lock();
                    std::hint::black_box(());
                    l.unlock(());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn stp_basic() {
        let l = McsStpLock::new();
        let t = l.lock();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
    }

    #[test]
    fn stp_forced_parking() {
        // Zero spin budget forces every waiter through park/unpark.
        let l = Arc::new(McsStpLock::with_spin(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..3_000 {
                    let t = l.lock();
                    l.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn stp_try_lock() {
        let l = McsStpLock::new();
        let t = l.try_lock().expect("free");
        assert!(l.try_lock().is_none());
        l.unlock(t);
    }
}
