//! Malthusian MCS lock (Dice, EuroSys 2017 \[35\]) — the long-term-fair
//! concurrency-restricting comparator of §2.2.
//!
//! Malthusian locking reduces contention by *culling* the waiting
//! queue: excess waiters are moved to a passive list and only a small
//! active set (holder plus one waiter) circulates the lock. Long-term
//! fairness is preserved by periodically reintroducing a passive
//! waiter at the head of the queue.
//!
//! The paper's §2.2 argues this long-term fairness is exactly what
//! fails on AMP: passive little-core waiters are periodically handed
//! the lock, putting their slow critical sections back on the critical
//! path, so Malthusian throughput collapses like MCS once little cores
//! join (`repro sec2-numa`).
//!
//! Implementation notes: the passive list is a holder-managed LIFO
//! (Dice's choice — LIFO keeps recently-run threads' caches warm);
//! culling happens on unlock when the queue holds at least two
//! waiters; reintroduction happens every `reintroduce_period`
//! handovers, which bounds passive-waiter starvation.

use std::cell::UnsafeCell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use crate::pool::{close_tail, node_pool, open_tail, wait_behind, wait_for_link};
use crate::RawLock;

const WAITING: u32 = 1;
const GRANTED: u32 = 0;

/// Default handovers between passive-waiter reintroductions.
pub const DEFAULT_REINTRODUCE_PERIOD: u32 = 128;

/// Queue node; `next` doubles as the passive-list link while a node
/// is culled (it is relinked before any grant).
#[repr(align(64))]
struct MalNode {
    state: AtomicU32,
    next: AtomicPtr<MalNode>,
}

impl MalNode {
    fn fresh() -> Self {
        MalNode {
            state: AtomicU32::new(GRANTED),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

node_pool!(MalNode);
crate::pool::node_token! {
    /// Token proving acquisition of a [`MalthusianLock`].
    MalthusianToken(MalNode)
}

/// Holder-managed culling state (only the lock holder touches it).
struct HolderState {
    /// LIFO of culled (passive) waiters, linked through `next`.
    passive_top: *mut MalNode,
    passive_len: usize,
    handovers: u32,
}

/// MCS with Malthusian culling and periodic reintroduction.
pub struct MalthusianLock {
    tail: AtomicPtr<MalNode>,
    holder: UnsafeCell<HolderState>,
    reintroduce_period: u32,
}

// SAFETY: `holder` is only accessed by the unique lock holder; the
// grant release/acquire edge orders holder transitions.
unsafe impl Send for MalthusianLock {}
unsafe impl Sync for MalthusianLock {}

impl MalthusianLock {
    /// New unlocked lock with the default reintroduction period.
    pub fn new() -> Self {
        Self::with_period(DEFAULT_REINTRODUCE_PERIOD)
    }

    /// New lock reintroducing one passive waiter every `period`
    /// handovers (must be ≥ 1).
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn with_period(period: u32) -> Self {
        assert!(period >= 1, "reintroduction period must be >= 1");
        MalthusianLock {
            tail: AtomicPtr::new(ptr::null_mut()),
            holder: UnsafeCell::new(HolderState {
                passive_top: ptr::null_mut(),
                passive_len: 0,
                handovers: 0,
            }),
            reintroduce_period: period,
        }
    }

    /// The configured reintroduction period.
    pub fn reintroduce_period(&self) -> u32 {
        self.reintroduce_period
    }

    /// Number of culled waiters right now (holder's view; only
    /// meaningful while the caller holds the lock — used by tests).
    pub fn passive_len(&self) -> usize {
        unsafe { (*self.holder.get()).passive_len }
    }

    #[inline]
    fn grant(n: *mut MalNode) {
        unsafe { (*n).state.store(GRANTED, Ordering::Release) };
    }
}

impl Default for MalthusianLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for MalthusianLock {
    type Token = MalthusianToken;

    #[inline]
    fn lock(&self) -> MalthusianToken {
        let node = take_node();
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: our node, our swap, its non-null result.
            unsafe { wait_behind(pred, node, WAITING) };
        }
        MalthusianToken(node)
    }

    #[inline]
    fn try_lock(&self) -> Option<MalthusianToken> {
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = take_node();
        if open_tail(&self.tail, node) {
            return Some(MalthusianToken(node));
        }
        put_node(node);
        None
    }

    fn unlock(&self, token: MalthusianToken) {
        let node = token.0;
        // SAFETY (throughout): we are the holder; nodes are pinned by
        // their spinning owners until granted.
        unsafe {
            let h = &mut *self.holder.get();
            h.handovers += 1;
            let reintroduce_due =
                h.handovers >= self.reintroduce_period && !h.passive_top.is_null();

            let mut succ = node.as_ref().next.load(Ordering::Acquire);
            if succ.is_null() {
                if h.passive_top.is_null() {
                    // Nothing anywhere: close the queue and release.
                    if close_tail(&self.tail, node) {
                        put_node(node);
                        return;
                    }
                    succ = wait_for_link(node);
                } else {
                    // Queue drained but passive waiters exist: revive
                    // one so the lock is never parked while work waits.
                    // `top.next` must be cleared *before* the CAS
                    // publishes it as the tail — afterwards an arrival
                    // may already be linking behind it.
                    let top = h.passive_top;
                    let rest = (*top).next.load(Ordering::Relaxed);
                    (*top).next.store(ptr::null_mut(), Ordering::Relaxed);
                    if self
                        .tail
                        .compare_exchange(node.as_ptr(), top, Ordering::Release, Ordering::Relaxed)
                        .is_ok()
                    {
                        h.passive_top = rest;
                        h.passive_len -= 1;
                        h.handovers = 0;
                        Self::grant(top);
                        put_node(node);
                        return;
                    }
                    // CAS lost to a newcomer: restore the passive
                    // link (top stays culled) and take the normal
                    // path with the newcomer as successor.
                    (*top).next.store(rest, Ordering::Relaxed);
                    succ = wait_for_link(node);
                }
            }

            if reintroduce_due {
                // Long-term fairness: splice one passive waiter in
                // front of the current successor and grant it.
                let top = h.passive_top;
                h.passive_top = (*top).next.load(Ordering::Relaxed);
                h.passive_len -= 1;
                h.handovers = 0;
                (*top).next.store(succ, Ordering::Relaxed);
                Self::grant(top);
                node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
                put_node(node);
                return;
            }

            // Culling: if at least two waiters are linked, move the
            // immediate successor to the passive list and grant the
            // one behind it, shrinking the active set.
            let succ2 = (*succ).next.load(Ordering::Acquire);
            if !succ2.is_null() {
                (*succ).next.store(h.passive_top, Ordering::Relaxed);
                h.passive_top = succ;
                h.passive_len += 1;
                Self::grant(succ2);
            } else {
                Self::grant(succ);
            }
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            put_node(node);
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    const NAME: &'static str = "malthusian";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let l = MalthusianLock::new();
        assert!(!l.is_locked());
        let t = l.lock();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_contended() {
        let l = MalthusianLock::new();
        let t = l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(t);
        let t2 = l.try_lock().expect("free after unlock");
        l.unlock(t2);
    }

    #[test]
    #[should_panic]
    fn zero_period_rejected() {
        let _ = MalthusianLock::with_period(0);
    }

    #[test]
    fn period_accessor() {
        assert_eq!(MalthusianLock::with_period(3).reintroduce_period(), 3);
        assert_eq!(
            MalthusianLock::new().reintroduce_period(),
            DEFAULT_REINTRODUCE_PERIOD
        );
    }

    /// Counter whose correctness requires mutual exclusion.
    #[derive(Default)]
    struct Counter(std::cell::UnsafeCell<u64>);
    // SAFETY: test-only; accessed under the lock under test.
    unsafe impl Sync for Counter {}
    unsafe impl Send for Counter {}
    impl Counter {
        fn bump(&self) {
            unsafe { *self.0.get() += 1 }
        }
        fn get(&self) -> u64 {
            unsafe { *self.0.get() }
        }
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(MalthusianLock::new());
        let v = Arc::new(Counter::default());
        let mut handles = vec![];
        for _ in 0..8 {
            let l = l.clone();
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let t = l.lock();
                    v.bump();
                    l.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.get(), 160_000);
    }

    #[test]
    fn no_waiter_lost_under_churn() {
        // Every locker must eventually complete a fixed iteration
        // count even while culling and reintroduction shuffle the
        // queue aggressively (period 2 maximizes churn).
        let l = Arc::new(MalthusianLock::with_period(2));
        let done = Arc::new(AtomicU64::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let l = l.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let t = l.lock();
                    std::hint::black_box(());
                    l.unlock(t);
                }
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn passive_list_empty_after_quiescence() {
        // After all threads finish, the last unlock must have drained
        // or revived every culled waiter: none may be stranded.
        let l = Arc::new(MalthusianLock::with_period(1_000_000));
        let mut handles = vec![];
        for _ in 0..6 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let t = l.lock();
                    l.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!l.is_locked());
        assert_eq!(l.passive_len(), 0, "culled waiters were stranded");
    }
}
