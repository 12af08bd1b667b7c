//! The per-thread queue-node pool under every queue lock, and the
//! enqueue steps the MCS-style ones share.
//!
//! Two protocols draw from it. [`crate::mcs`]'s `QueueLock` — `mcs`,
//! `cna`, `malthusian` and the shuffle locks — keeps its state in a
//! lock word and draws a node only to *wait*, pooling it again the
//! moment it has the word. The other three queue locks
//! ([`crate::clh`], [`crate::cohort`], `mcs-stp` in
//! [`crate::blocking`]) keep the textbook protocol: the node is taken
//! at `lock`, the token owns it, and it is the lock's state until
//! `unlock`. They stay as they are on purpose: `cohort` is a two-level
//! lock that passes both levels *at release*, `mcs-stp` is the blocking
//! baseline (a parked head would not fit the lock word's spin), and
//! CLH's node migrates to the next thread. Each takes its nodes from
//! one [`NodePool`] per thread and node type ([`node_pool!`]; CLH
//! declares its own).
//!
//! # No store before the RMW
//!
//! An uncontended textbook round is two `lock`-prefixed RMWs (one for
//! CLH), and every plain store still pending when one issues is
//! paid there (the rule on [`crate::telemetry::TelemetryCell`]). So
//! the fast path is one `Cell<*mut T>` — a load and a store out, a
//! load and a store back, no borrow flag, no length — in front of an
//! overflow `Vec` that only nesting or contention touches, and a
//! pooled node is handed out *as it is*: a lock writes the wait word
//! only on the path that found a predecessor ([`link_behind`]) and
//! relies on `next == null` instead, which the releaser restores on
//! the grant path and [`take_idle`] checks in debug builds.
//!
//! # A node lives in one place
//!
//! A token, a lock's queue or its head policy's stash, or exactly one
//! thread's pool owns a node:
//!
//! * an MCS-family releaser — for [`crate::mcs`], the queue's head as
//!   it takes the lock word — pools its node after the tail CAS closed
//!   the queue, or after its successor linked itself and was granted
//!   (the successor never looks back);
//! * a timed waiter that *abandons* ([`crate::timed`]) gives its node
//!   away: it stays queued (or stashed), in nobody's pool, until the
//!   head that reaches it adopts it into *its own*;
//! * CLH nodes *migrate*: `unlock` pools the predecessor's node (only
//!   this thread spun on it) and leaves its own queued.
//!
//! A pool dropped with its thread gives what it holds to its `retire`
//! hook. The MCS family frees it ([`free`]): nobody dereferences such a
//! node unless it owns it or waits behind it, so a pooled one is
//! unreachable, whichever thread allocated it. CLH must not —
//! `ClhLock::{try_lock, is_locked}` read through a tail they do not
//! own, pooled perhaps by the time they look — and recycles its nodes
//! across threads instead ([`crate::clh`]).

use std::cell::{Cell, RefCell};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use asl_runtime::relax::Spin;

/// An MCS-style node: a wait word its owner spins on and the link to
/// its successor. Pooled with the link null. [`node_pool!`] implements
/// it.
pub(crate) trait QueueNode: Sized {
    fn state(&self) -> &AtomicU32;
    fn next(&self) -> &AtomicPtr<Self>;
}

/// `node` on the heap, for a [`NodePool`]'s `alloc` hook.
pub(crate) fn boxed<T>(node: T) -> NonNull<T> {
    NonNull::from(Box::leak(Box::new(node)))
}

/// Free a node: the [`NodePool`] `retire` hook of the MCS family.
///
/// # Safety
/// `node` came from a leaked `Box<T>` and nothing else can reach it.
pub(crate) unsafe fn free<T>(node: NonNull<T>) {
    drop(Box::from_raw(node.as_ptr()));
}

/// [`NodePool::take`], the link checked null in debug builds.
#[inline]
pub(crate) fn take_idle<T: QueueNode>(pool: &NodePool<T>) -> NonNull<T> {
    let node = pool.take();
    // SAFETY: pooled or fresh, the node is this thread's alone.
    let next = || unsafe { node.as_ref() }.next().load(Ordering::Relaxed);
    debug_assert!(next().is_null(), "pooled node still linked");
    node
}

/// Link `node` behind `pred`, its wait word set to `waiting` first:
/// this, not the tail swap, is the first moment anyone else can reach
/// the node, so this is where it is initialised.
///
/// # Safety
/// `node` is the caller's and was just swapped into a queue's tail;
/// `pred` is the non-null tail that swap returned. (`pred` cannot be
/// recycled before this link lands: its releaser waits for it.)
#[inline]
pub(crate) unsafe fn link_behind<T: QueueNode>(pred: *mut T, node: NonNull<T>, waiting: u32) {
    node.as_ref().state().store(waiting, Ordering::Relaxed);
    (*pred).next().store(node.as_ptr(), Ordering::Release);
}

/// `try_lock` on an MCS-style `tail`: swing it from empty to `node`.
#[inline]
pub(crate) fn open_tail<T>(tail: &AtomicPtr<T>, node: NonNull<T>) -> bool {
    let (empty, new) = (ptr::null_mut(), node.as_ptr());
    tail.compare_exchange(empty, new, Ordering::AcqRel, Ordering::Relaxed)
        .is_ok()
}

/// The uncontended release: swing `tail` from `node` back to empty.
/// Fails when a successor has swapped itself in behind `node`.
#[inline]
pub(crate) fn close_tail<T>(tail: &AtomicPtr<T>, node: NonNull<T>) -> bool {
    let (old, empty) = (node.as_ptr(), ptr::null_mut());
    tail.compare_exchange(old, empty, Ordering::Release, Ordering::Relaxed)
        .is_ok()
}

/// Wait for `node`'s successor link to appear (an enqueuer has swapped
/// the tail but not yet stored the link).
pub(crate) fn wait_for_link<T: QueueNode>(node: NonNull<T>) -> *mut T {
    let mut spin = Spin::new();
    loop {
        // SAFETY: the holder's own node.
        let next = unsafe { node.as_ref() }.next().load(Ordering::Acquire);
        if !next.is_null() {
            return next;
        }
        spin.relax();
    }
}

/// One thread's spare nodes of type `T`.
pub(crate) struct NodePool<T> {
    /// The node an un-nested acquisition takes and returns.
    slot: Cell<*mut T>,
    overflow: RefCell<Vec<NonNull<T>>>,
    /// A node for a pool that ran dry.
    alloc: fn() -> NonNull<T>,
    /// What becomes of a node still pooled when its thread exits.
    retire: unsafe fn(NonNull<T>),
}

impl<T> NodePool<T> {
    /// An empty pool. `retire` is only ever given nodes `alloc` made
    /// (or a lock's constructor, the same way) that no token or queue
    /// holds.
    pub(crate) const fn new(alloc: fn() -> NonNull<T>, retire: unsafe fn(NonNull<T>)) -> Self {
        NodePool {
            slot: Cell::new(ptr::null_mut()),
            overflow: RefCell::new(Vec::new()),
            alloc,
            retire,
        }
    }

    /// A node no token, queue or other pool holds; the caller owns it.
    #[inline]
    pub(crate) fn take(&self) -> NonNull<T> {
        match NonNull::new(self.slot.get()) {
            Some(node) => {
                self.slot.set(ptr::null_mut());
                node
            }
            None => self.take_overflow(),
        }
    }

    #[cold]
    fn take_overflow(&self) -> NonNull<T> {
        let spare = self.overflow.borrow_mut().pop();
        spare.unwrap_or_else(self.alloc)
    }

    /// Give back a node no token or queue holds any more (see the
    /// module docs).
    #[inline]
    pub(crate) fn put(&self, node: NonNull<T>) {
        if self.slot.get().is_null() {
            self.slot.set(node.as_ptr());
        } else {
            self.put_overflow(node);
        }
    }

    #[cold]
    fn put_overflow(&self, node: NonNull<T>) {
        self.overflow.borrow_mut().push(node);
    }

    /// Nodes held right now.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        usize::from(!self.slot.get().is_null()) + self.overflow.borrow().len()
    }
}

impl<T> Drop for NodePool<T> {
    fn drop(&mut self) {
        let slot = NonNull::new(self.slot.get());
        for node in slot.into_iter().chain(self.overflow.get_mut().drain(..)) {
            // SAFETY: `new`'s contract: pooled, so held by nothing else.
            unsafe { (self.retire)(node) };
        }
    }
}

/// Declare this module's per-thread pool of `$node`s and the two
/// functions its lock uses, `take_node()` and `put_node(node)`. `$node`
/// is MCS-style: `$node::fresh()` makes one, and its `state` and `next`
/// fields are its [`QueueNode`] wait word and link.
macro_rules! node_pool {
    ($node:ty) => {
        impl $crate::pool::QueueNode for $node {
            fn state(&self) -> &::std::sync::atomic::AtomicU32 {
                &self.state
            }

            fn next(&self) -> &::std::sync::atomic::AtomicPtr<Self> {
                &self.next
            }
        }

        thread_local! {
            static POOL: $crate::pool::NodePool<$node> = const {
                $crate::pool::NodePool::new(
                    || $crate::pool::boxed(<$node>::fresh()),
                    $crate::pool::free,
                )
            };
        }

        #[inline]
        fn take_node() -> ::std::ptr::NonNull<$node> {
            POOL.with($crate::pool::take_idle)
        }

        #[inline]
        fn put_node(node: ::std::ptr::NonNull<$node>) {
            POOL.with(|pool| pool.put(node));
        }
    };
}
pub(crate) use node_pool;
