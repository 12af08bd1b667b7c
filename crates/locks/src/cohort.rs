//! Lock cohorting (Dice, Marathe & Shavit, PPoPP 2012 \[38\]), adapted
//! to AMP core classes — the second NUMA comparator of §2.2.
//!
//! A cohort lock is a two-level construction: one *global* lock plus
//! one *local* lock per node. A thread acquires its node's local lock
//! and, if it is the first of its cohort, the global lock; on release
//! it passes both to a local successor ("cohort passing") up to a
//! batch limit, after which the global lock is released so another
//! node gets its turn — the periodic long-term fairness that batches
//! little cores onto the critical path on AMP.
//!
//! This is C-BO-MCS from the paper: a test-and-set back-off global
//! lock and an MCS-style local queue per class, with the class
//! (big/little) playing the role of the NUMA node.

use std::cell::Cell;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use asl_runtime::registry::current_core;
use asl_runtime::CoreKind;

use crate::backoff::BackoffLock;
use crate::pool::{close_tail, link_behind, node_pool, open_tail, wait_for_link};
use crate::RawLock;

const WAITING: u32 = 0;
/// Granted together with ownership of the global lock (cohort pass).
const GRANTED_GLOBAL: u32 = 1;
/// Granted the local lock only; the new holder must take the global.
const GRANTED_ALONE: u32 = 2;

/// Default maximum consecutive same-class handovers before the global
/// lock is surrendered (the cohort detection / fairness bound; the
/// original paper uses a similar per-cohort budget).
pub const DEFAULT_MAX_BATCH: u32 = 64;

/// Local-queue node.
#[repr(align(64))]
struct CohortNode {
    state: AtomicU32,
    next: AtomicPtr<CohortNode>,
}

impl CohortNode {
    fn fresh() -> Self {
        CohortNode {
            state: AtomicU32::new(WAITING),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

node_pool!(CohortNode);

/// Token proving acquisition of a [`CohortLock`].
pub struct CohortToken {
    node: NonNull<CohortNode>,
    class: usize,
}

impl crate::plain::TokenWords for CohortToken {
    #[inline]
    fn into_words(self) -> (usize, usize) {
        (self.node.as_ptr() as usize, self.class)
    }

    /// # Safety
    /// The words must come from `into_words` on an unreleased token of
    /// the same lock.
    #[inline]
    unsafe fn from_words(node: usize, class: usize) -> Self {
        CohortToken {
            node: NonNull::new_unchecked(node as *mut CohortNode),
            class,
        }
    }
}

/// One per-class local MCS queue.
struct LocalQueue {
    tail: AtomicPtr<CohortNode>,
}

/// Two-level class-cohort lock (C-BO-MCS on big/little classes).
pub struct CohortLock {
    global: BackoffLock,
    local: [LocalQueue; 2],
    /// Consecutive same-class handovers; only the global-lock holder
    /// touches this (plain cell is race-free under that discipline).
    batch: Cell<u32>,
    max_batch: u32,
}

// SAFETY: `batch` is only accessed while holding the global lock.
unsafe impl Send for CohortLock {}
unsafe impl Sync for CohortLock {}

fn class_index(kind: CoreKind) -> usize {
    match kind {
        CoreKind::Big => 0,
        CoreKind::Little => 1,
    }
}

impl CohortLock {
    /// New unlocked cohort lock with the default batch budget.
    pub fn new() -> Self {
        Self::with_batch(DEFAULT_MAX_BATCH)
    }

    /// New lock surrendering the global lock after `max_batch`
    /// consecutive same-class handovers (must be ≥ 1).
    ///
    /// # Panics
    /// Panics if `max_batch == 0`.
    pub fn with_batch(max_batch: u32) -> Self {
        assert!(max_batch >= 1, "batch budget must be >= 1");
        CohortLock {
            global: BackoffLock::new(),
            local: [
                LocalQueue {
                    tail: AtomicPtr::new(ptr::null_mut()),
                },
                LocalQueue {
                    tail: AtomicPtr::new(ptr::null_mut()),
                },
            ],
            batch: Cell::new(0),
            max_batch,
        }
    }

    /// The configured batch budget.
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }
}

impl Default for CohortLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for CohortLock {
    type Token = CohortToken;

    fn lock(&self) -> CohortToken {
        let class = class_index(current_core().kind);
        let node = take_node();
        let pred = self.local[class].tail.swap(node.as_ptr(), Ordering::AcqRel);
        if pred.is_null() {
            // First of the cohort: contend for the global lock.
            self.global.lock();
            self.batch.set(0);
        } else {
            let mut spin = asl_runtime::relax::Spin::new();
            // SAFETY: our node, our swap, its non-null result.
            unsafe {
                link_behind(pred, node, WAITING);
                loop {
                    match node.as_ref().state.load(Ordering::Acquire) {
                        WAITING => {
                            spin.relax();
                        }
                        GRANTED_GLOBAL => break, // cohort pass: global is ours
                        _ => {
                            // Local lock only: take the global myself.
                            self.global.lock();
                            self.batch.set(0);
                            break;
                        }
                    }
                }
            }
        }
        CohortToken { node, class }
    }

    fn try_lock(&self) -> Option<CohortToken> {
        let class = class_index(current_core().kind);
        // Global first: failing here costs nothing to undo.
        self.global.try_lock()?;
        let node = take_node();
        if open_tail(&self.local[class].tail, node) {
            self.batch.set(0);
            return Some(CohortToken { node, class });
        }
        // A cohort-mate is queued locally; back out entirely.
        self.global.unlock(());
        put_node(node);
        None
    }

    fn unlock(&self, token: CohortToken) {
        let node = token.node;
        let queue = &self.local[token.class];
        // SAFETY: standard MCS successor protocol on the local queue.
        unsafe {
            let mut next = node.as_ref().next.load(Ordering::Acquire);
            if next.is_null() {
                if close_tail(&queue.tail, node) {
                    // Cohort empty: surrender the global lock.
                    self.global.unlock(());
                    put_node(node);
                    return;
                }
                next = wait_for_link(node);
            }
            let batch = self.batch.get() + 1;
            if batch < self.max_batch {
                // Cohort pass: hand over local + global together.
                self.batch.set(batch);
                (*next).state.store(GRANTED_GLOBAL, Ordering::Release);
            } else {
                // Budget exhausted: release the global lock so the
                // other class can compete, then grant locally.
                self.global.unlock(());
                (*next).state.store(GRANTED_ALONE, Ordering::Release);
            }
            // A pooled node's link is null.
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            put_node(node);
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.global.is_locked()
    }

    const NAME: &'static str = "cohort";
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::registry::{register_on_core, unregister};
    use asl_runtime::topology::{CoreId, Topology};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let l = CohortLock::new();
        assert!(!l.is_locked());
        let t = l.lock();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_contended() {
        let l = CohortLock::new();
        let t = l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(t);
        let t2 = l.try_lock().expect("free after unlock");
        l.unlock(t2);
    }

    #[test]
    #[should_panic]
    fn zero_batch_rejected() {
        let _ = CohortLock::with_batch(0);
    }

    #[test]
    fn batch_accessor() {
        assert_eq!(CohortLock::with_batch(5).max_batch(), 5);
        assert_eq!(CohortLock::new().max_batch(), DEFAULT_MAX_BATCH);
    }

    #[test]
    fn mutual_exclusion_one_class() {
        let l = Arc::new(CohortLock::new());
        let cell = Arc::new(UnsafeCellCounter::default());
        let mut handles = vec![];
        for _ in 0..8 {
            let l = l.clone();
            let c = cell.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let t = l.lock();
                    c.bump();
                    l.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.get(), 160_000);
    }

    #[test]
    fn mutual_exclusion_mixed_classes() {
        // Big and little threads hammer the same lock; the global
        // lock must serialize across cohorts.
        let topo = Topology::apple_m1();
        let l = Arc::new(CohortLock::with_batch(8));
        let cell = Arc::new(UnsafeCellCounter::default());
        let mut handles = vec![];
        for i in 0..8 {
            let topo = topo.clone();
            let l = l.clone();
            let c = cell.clone();
            handles.push(std::thread::spawn(move || {
                register_on_core(&topo, CoreId(i));
                for _ in 0..10_000 {
                    let t = l.lock();
                    c.bump();
                    l.unlock(t);
                }
                unregister();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.get(), 80_000);
    }

    #[test]
    fn both_classes_progress_with_small_batch() {
        // With max_batch = 1 every handover surrenders the global
        // lock, so neither class can be starved; the fixed-iteration
        // threads must all terminate.
        let topo = Topology::apple_m1();
        let l = Arc::new(CohortLock::with_batch(1));
        let done = Arc::new(AtomicU64::new(0));
        let mut handles = vec![];
        for i in [0usize, 1, 4, 5] {
            let topo = topo.clone();
            let l = l.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                register_on_core(&topo, CoreId(i));
                for _ in 0..20_000 {
                    let t = l.lock();
                    l.unlock(t);
                }
                done.fetch_add(1, Ordering::Relaxed);
                unregister();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 4);
    }

    /// A non-atomic counter whose correctness depends entirely on the
    /// lock providing mutual exclusion.
    #[derive(Default)]
    struct UnsafeCellCounter(std::cell::UnsafeCell<u64>);
    // SAFETY: test-only; all access happens under the lock under test.
    unsafe impl Sync for UnsafeCellCounter {}
    unsafe impl Send for UnsafeCellCounter {}
    impl UnsafeCellCounter {
        fn bump(&self) {
            unsafe { *self.0.get() += 1 }
        }
        fn get(&self) -> u64 {
            unsafe { *self.0.get() }
        }
    }
}
