//! CC-Synch — the combining *queue* (Fatourou & Kallimanis, PPoPP
//! 2012): delegation without the publication-array scan.
//!
//! Flat combining's combiner walks every participant slot per pass,
//! touching `MAX_SLOTS` cache lines even when two threads are active.
//! CC-Synch instead threads requests into a queue at announce time:
//! an arriving thread swaps its fresh node into the shared tail,
//! announces its op in the *previous* tail node, and spins on that
//! node. The current combiner walks only announced nodes — each one a
//! waiter that actually exists — executing up to a bounded batch
//! ([`CcSynch::with_batch`]) of critical sections before handing
//! the combiner role to the next waiter *in its own node* (a
//! cache-local handoff, no shared flag).
//!
//! Nodes are preallocated at registration and circulate among
//! participants (each apply trades the thread's fresh node for the
//! previous tail), so the hot path never allocates. Participant
//! claiming, the panic protocol and the `<label>.combine` wait
//! attribution are the family's, from
//! [`delegation`](crate::delegation); only the queue is CC-Synch's
//! own.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use asl_runtime::relax::Spin;

use crate::delegation::{
    claim_slot, reraise_delegated_panic, run_caught, DelegationHandle, DelegationLock,
    SlotsExhausted, WaitCell, MAX_SLOTS,
};

/// Default bound on critical sections one combiner executes before
/// handing off (CC-Synch's `h`): big enough to amortize the handoff,
/// small enough that no thread combines forever.
pub const DEFAULT_BATCH: usize = 64;

/// One queue node, cache-line padded. `wait` is the spin flag of
/// whichever thread announced in this node; `completed` distinguishes
/// "your op is done" from "you are the combiner now".
#[repr(align(128))]
struct CcNode<Op, Out> {
    wait: AtomicBool,
    completed: AtomicBool,
    panicked: AtomicBool,
    next: AtomicPtr<CcNode<Op, Out>>,
    op: UnsafeCell<MaybeUninit<Op>>,
    out: UnsafeCell<MaybeUninit<Out>>,
}

impl<Op, Out> CcNode<Op, Out> {
    fn new() -> Self {
        CcNode {
            wait: AtomicBool::new(false),
            completed: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
            op: UnsafeCell::new(MaybeUninit::uninit()),
            out: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

struct CcShared<T, Op, Out, F: Fn(&mut T, Op) -> Out> {
    /// All nodes, owned here for their lifetime (they circulate among
    /// participants; index 0 is the initial dummy tail).
    nodes: Box<[CcNode<Op, Out>]>,
    next_node: AtomicUsize,
    tail: AtomicPtr<CcNode<Op, Out>>,
    data: UnsafeCell<T>,
    apply: F,
    batch: usize,
    /// Combiner-wait attribution (`<label>.combine`) when profiled.
    wait: WaitCell,
}

// SAFETY: `data` is only touched by the current combiner (the unique
// thread that observed `wait == false, completed == false`); node
// payloads are ordered by the wait/next protocols.
unsafe impl<T: Send, Op: Send, Out: Send, F: Fn(&mut T, Op) -> Out + Send + Sync> Send
    for CcShared<T, Op, Out, F>
{
}
unsafe impl<T: Send, Op: Send, Out: Send, F: Fn(&mut T, Op) -> Out + Send + Sync> Sync
    for CcShared<T, Op, Out, F>
{
}

/// CC-Synch combining queue over a value `T` with operation type
/// `Op`. See the [module docs](self) for the protocol.
pub struct CcSynch<T, Op, Out, F: Fn(&mut T, Op) -> Out> {
    shared: Arc<CcShared<T, Op, Out, F>>,
}

impl<T, Op, Out, F> CcSynch<T, Op, Out, F>
where
    T: Send,
    Op: Send,
    Out: Send,
    F: Fn(&mut T, Op) -> Out + Send + Sync,
{
    /// Wrap `value`; `apply` executes one operation against it.
    pub fn new(value: T, apply: F) -> Self {
        Self::labelled(value, apply, None)
    }

    /// [`CcSynch::new`] with an explicit combining-batch bound.
    pub fn with_batch(value: T, apply: F, batch: usize) -> Self {
        Self::build(value, apply, batch, None)
    }

    /// [`CcSynch::new`]; with a label, combiner-wait telemetry is
    /// registered as `<label>.combine` in the process-wide profiling
    /// registry.
    pub fn labelled(value: T, apply: F, label: Option<&str>) -> Self {
        Self::build(value, apply, DEFAULT_BATCH, label)
    }

    fn build(value: T, apply: F, batch: usize, label: Option<&str>) -> Self {
        // One node per possible participant plus the initial dummy.
        let nodes: Box<[CcNode<Op, Out>]> = (0..=MAX_SLOTS).map(|_| CcNode::new()).collect();
        let shared = Arc::new(CcShared {
            nodes,
            next_node: AtomicUsize::new(0),
            tail: AtomicPtr::new(ptr::null_mut()),
            data: UnsafeCell::new(value),
            apply,
            batch: batch.max(1),
            wait: WaitCell::labelled(label, "combine"),
        });
        // The dummy tail starts "released" (wait=false, completed=
        // false), so the first announcer becomes the first combiner.
        let dummy = &shared.nodes[0] as *const _ as *mut CcNode<Op, Out>;
        shared.tail.store(dummy, Ordering::Relaxed);
        CcSynch { shared }
    }

    /// Claim a participant node. Call once per thread; the handle
    /// submits operations.
    pub fn try_register(&self) -> Result<CcHandle<T, Op, Out, F>, SlotsExhausted> {
        let idx = claim_slot(&self.shared.next_node)?;
        Ok(CcHandle {
            node: Cell::new(&self.shared.nodes[idx + 1] as *const _ as *mut CcNode<Op, Out>),
            shared: self.shared.clone(),
        })
    }

    /// [`CcSynch::try_register`], panicking on exhaustion.
    ///
    /// # Panics
    /// Panics with [`SlotsExhausted`] when more than
    /// [`MAX_SLOTS`] handles are claimed.
    pub fn register(&self) -> CcHandle<T, Op, Out, F> {
        self.try_register().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Consume, returning the inner value.
    ///
    /// # Panics
    /// Panics if handles still exist.
    pub fn into_inner(self) -> T {
        let shared =
            Arc::try_unwrap(self.shared).unwrap_or_else(|_| panic!("handles still registered"));
        shared.data.into_inner()
    }
}

impl<T, Op, Out, F> DelegationLock for CcSynch<T, Op, Out, F>
where
    T: Send + 'static,
    Op: Send + 'static,
    Out: Send + 'static,
    F: Fn(&mut T, Op) -> Out + Send + Sync + 'static,
{
    type Op = Op;
    type Out = Out;
    type Handle = CcHandle<T, Op, Out, F>;

    fn try_register(&self) -> Result<Self::Handle, SlotsExhausted> {
        CcSynch::try_register(self)
    }
}

/// A registered participant of a [`CcSynch`]. Not `Sync`: one handle
/// belongs to one thread (its queue node is unsynchronized).
pub struct CcHandle<T, Op, Out, F: Fn(&mut T, Op) -> Out> {
    /// This thread's fresh node for the *next* announce (traded for
    /// the previous tail on every apply).
    node: Cell<*mut CcNode<Op, Out>>,
    shared: Arc<CcShared<T, Op, Out, F>>,
}

// SAFETY: the raw node pointer is owned by this handle between
// applies (the protocol hands a released node back on every swap);
// moving the handle to another thread moves that ownership whole.
unsafe impl<T, Op, Out, F> Send for CcHandle<T, Op, Out, F>
where
    T: Send,
    Op: Send,
    Out: Send,
    F: Fn(&mut T, Op) -> Out + Send + Sync,
{
}

impl<T, Op, Out, F> CcHandle<T, Op, Out, F>
where
    T: Send,
    Op: Send,
    Out: Send,
    F: Fn(&mut T, Op) -> Out + Send + Sync,
{
    /// Apply `op`, possibly becoming the combiner and executing up to
    /// a batch of other threads' operations too.
    pub fn apply(&self, op: Op) -> Out {
        let shared = &*self.shared;
        let fresh = self.node.get();
        // SAFETY: `fresh` is this thread's released node — nobody
        // else reads it until the tail swap publishes it.
        unsafe {
            (*fresh).wait.store(true, Ordering::Relaxed);
            (*fresh).completed.store(false, Ordering::Relaxed);
            (*fresh).panicked.store(false, Ordering::Relaxed);
            (*fresh).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        let cur = shared.tail.swap(fresh, Ordering::AcqRel);
        // SAFETY: the swap made `cur` ours to announce in; its
        // previous owner released it (or it is the dummy).
        unsafe {
            (*cur).op.get().write(MaybeUninit::new(op));
            // Publish: the op write must be visible before the link.
            (*cur).next.store(fresh, Ordering::Release);
        }
        self.node.set(cur);

        let mut t0 = None;
        let mut spin = Spin::new();
        // SAFETY: `cur` stays valid (owned by the shared node pool).
        while unsafe { (*cur).wait.load(Ordering::Acquire) } {
            // Queued behind a combiner: the wait starts here.
            t0 = t0.or_else(|| shared.wait.start());
            spin.relax();
        }
        shared.wait.finish(t0, t0.is_some());

        // SAFETY: wait==false with release/acquire ordering hands the
        // node state over (result, or the combiner role).
        unsafe {
            if (*cur).completed.load(Ordering::Relaxed) {
                if (*cur).panicked.load(Ordering::Relaxed) {
                    reraise_delegated_panic();
                }
                return (*cur).out.get().read().assume_init();
            }
        }

        // Combiner: walk announced nodes starting with our own,
        // execute up to `batch` ops, then hand off cache-locally.
        let data = shared.data.get();
        let mut node = cur;
        let mut executed = 0usize;
        loop {
            // SAFETY: nodes are pool-owned; `next` is only non-null
            // once the successor's announce published its op.
            let nextp = unsafe { (*node).next.load(Ordering::Acquire) };
            if nextp.is_null() || executed >= shared.batch {
                break;
            }
            executed += 1;
            // SAFETY: announced node — op initialized, owner spinning.
            unsafe {
                let op = (*node).op.get().read().assume_init();
                match run_caught(&shared.apply, &mut *data, op) {
                    Some(out) => (*node).out.get().write(MaybeUninit::new(out)),
                    None => (*node).panicked.store(true, Ordering::Relaxed),
                }
                (*node).completed.store(true, Ordering::Relaxed);
                (*node).wait.store(false, Ordering::Release);
            }
            node = nextp;
        }
        // Handoff: the next announcer (or a future one, if `node` is
        // the unannounced tail) sees wait==false, completed==false
        // and becomes the combiner.
        // SAFETY: pool-owned node.
        unsafe { (*node).wait.store(false, Ordering::Release) };

        // SAFETY: our own op was the first executed; `cur` is ours.
        unsafe {
            if (*cur).panicked.load(Ordering::Relaxed) {
                reraise_delegated_panic();
            }
            (*cur).out.get().read().assume_init()
        }
    }
}

impl<T, Op, Out, F> DelegationHandle for CcHandle<T, Op, Out, F>
where
    T: Send,
    Op: Send,
    Out: Send,
    F: Fn(&mut T, Op) -> Out + Send + Sync,
{
    type Op = Op;
    type Out = Out;

    fn apply(&self, op: Op) -> Out {
        CcHandle::apply(self, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_ops() {
        let cc = CcSynch::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let h = cc.register();
        assert_eq!(h.apply(5), 5);
        assert_eq!(h.apply(7), 12);
        drop(h);
        assert_eq!(cc.into_inner(), 12);
    }

    #[test]
    fn concurrent_counter() {
        let cc = CcSynch::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let mut handles = vec![];
        for _ in 0..8 {
            let h = cc.register();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    h.apply(1);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(cc.into_inner(), 160_000);
    }

    #[test]
    fn tiny_batch_still_completes_everyone() {
        // batch=1 forces a handoff after every op: the pure
        // pass-the-combiner regime.
        let cc = CcSynch::with_batch(0u64, |v, add: u64| *v += add, 1);
        let mut handles = vec![];
        for _ in 0..6 {
            let h = cc.register();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    h.apply(1);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(cc.into_inner(), 30_000);
    }
}
