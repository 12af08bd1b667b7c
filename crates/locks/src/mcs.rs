//! The MCS queue lock (Mellor-Crummey & Scott, 1991) behind a lock
//! word, and the ordering policies its waiting head applies:
//! [`QueueLock`]`<P>`.
//!
//! `mcs` is the paper's FIFO workhorse and the default lock under the
//! reorderable layer. Waiters spin on their *own* queue node, so the
//! lock scales on SMP; handover is strict FIFO, which is precisely
//! what collapses on AMP (Fig. 1). The §2.2/§5 comparators — CNA,
//! Malthusian, ShflLock — are the same queue with an ordering policy,
//! so they are the same type: [`McsLock`], [`CnaLock`],
//! [`MalthusianLock`] and [`ShuffleLock`] are `QueueLock` over
//! [`Fifo`], [`Numa`], [`Cull`] and [`Shuffle`]. So is the
//! contention-adaptive lock: [`FissileLock`] is `QueueLock` over
//! [`Impatient`], whose arrivals may barge past the queue.
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
//! while the queue is empty, so queued threads are granted in the
//! order the queue holds them, and poll exactly as often as when the
//! grant was the lock.
//!
//! ## Barging, bounded by an impatient head
//!
//! [`Impatient`] is Fissile Locks' (Dice & Kogan) answer to "TAS or
//! queue": the fast path stays open while threads are queued, so an
//! arrival that finds the word free takes it past the queue — a
//! test-and-set lock while that pays — until the head has failed
//! [`PATIENCE`] polls of the word. It then raises the policy's
//! flag, which closes the fast path to everyone while anyone is
//! queued, and lowers it as it leaves headship, before the grant, so
//! the next head starts patient. No mode word and no shared counters:
//! the bypass a head suffers is bounded by its patience, and a flag
//! seen late over an empty queue strands nobody (`!impatient || tail
//! == null`).
//!
//! ## The policy is the waiting head's
//!
//! A policy reorders the queue *behind the head, while the head waits
//! for the word* (ShflLock's shufflers, the CNA qspinlock): once per
//! headship, at the first poll that finds a waiter linked behind it,
//! off the critical path — the holder's release stays one store. It
//! only rewrites `next` links behind the head, and never a null one
//! while its node is the tail, since an arrival may be linking there
//! (a tail CAS moves the tail first). What it takes
//! out of the queue goes to a *stash* in a head-owned `UnsafeCell`,
//! passed on with headship (the grant's release/acquire orders it).
//! Every grant is still `pass_headship`'s `WAITING → GRANTED` CAS, so a
//! timed waiter that abandons in the queue or in a stash is adopted by
//! the same loop, and a head with nothing behind it and a stash to
//! spare publishes the stash as the queue with a tail CAS instead of
//! closing it: a stashed waiter is never stranded.
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

use std::cell::{Cell, UnsafeCell};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};

use asl_runtime::registry::current_core;
use asl_runtime::CoreKind;

use crate::pool::{close_tail, link_behind, node_pool, wait_for_link};
use crate::shuffle::{Candidate, FifoPolicy, ShufflePolicy, MAX_SCAN};
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
    /// The waiter's core class, for the policies that read it: written
    /// before the tail swap publishes the node, and only when it
    /// differs from what the node's last use left (a thread recycles
    /// its own nodes, so it almost never does: no store before the
    /// RMW); read by heads behind an acquire load of the link.
    kind: Cell<CoreKind>,
}

impl QNode {
    fn fresh() -> Self {
        QNode {
            state: AtomicU32::new(GRANTED),
            next: AtomicPtr::new(ptr::null_mut()),
            kind: Cell::new(CoreKind::Big),
        }
    }
}

node_pool!(QNode);

mod sealed {
    use super::*;

    /// What a [`super::HeadPolicy`] does; callable only in this module.
    pub trait Sealed {
        /// The lock's report name.
        const NAME: &'static str;
        /// Whether [`Sealed::order`] reads the waiters' core class.
        const READS_KIND: bool = false;

        /// The flag a head raises after [`super::PATIENCE`] failed
        /// polls, if arrivals may barge: while it is down, an arrival
        /// takes a free word past the queue. `None`: an arrival queues
        /// whenever anyone is queued.
        #[inline(always)]
        fn impatience(&self) -> Option<&AtomicBool> {
            None
        }

        /// Reorder the queue behind `head`, once per headship: while
        /// the head waits for the word, or, if nobody was linked behind
        /// it until it had the word, just before it passes headship on.
        /// `false`: nobody is linked yet, look again.
        ///
        /// # Safety
        /// Called by the queue's head, with its own node and the lock's
        /// `tail`.
        #[inline(always)]
        unsafe fn order(&self, _tail: &AtomicPtr<QNode>, _head: NonNull<QNode>) -> bool {
            true
        }

        /// `head` found the queue empty: no head chose it, so it is the
        /// policy's choice of one.
        ///
        /// # Safety
        /// As [`Sealed::order`].
        #[inline(always)]
        unsafe fn alone(&self, _head: NonNull<QNode>) {}

        /// Nobody is linked behind the head: detach a stashed chain
        /// `first..=last`, `last.next` null, to publish as the queue —
        /// or `None`, and the queue closes.
        ///
        /// # Safety
        /// Called by the queue's head.
        #[inline(always)]
        unsafe fn unstash(&self) -> Option<(NonNull<QNode>, NonNull<QNode>)> {
            None
        }
    }
}

/// The ordering policy of a [`QueueLock`]: [`Fifo`], [`Numa`],
/// [`Cull`], [`Shuffle`] or [`Impatient`]. Sealed — the policy
/// rewrites the queue in place, so every one is part of the queue
/// protocol.
pub trait HeadPolicy: sealed::Sealed + Send + Sync + 'static {}

/// Strict FIFO among queued waiters: `mcs`.
#[derive(Default)]
pub struct Fifo;

impl sealed::Sealed for Fifo {
    const NAME: &'static str = "mcs";
}

impl HeadPolicy for Fifo {}

/// Failed polls of the word after which a head of a [`FissileLock`]
/// closes the fast path: about 1.6 µs of a big core's spinning on the
/// modeled M1 (25 ns a poll), less than one `amp-lock` critical
/// section.
pub const PATIENCE: u32 = 64;

/// Fissile-style barging (Dice & Kogan, *Fissile Locks*): FIFO among
/// queued waiters, but an arrival that finds the word free takes it
/// unless the head is impatient — it has failed [`PATIENCE`] polls of
/// the word. `adaptive`.
#[derive(Default)]
pub struct Impatient(AtomicBool);

impl sealed::Sealed for Impatient {
    const NAME: &'static str = "adaptive";

    #[inline(always)]
    fn impatience(&self) -> Option<&AtomicBool> {
        Some(&self.0)
    }
}

impl HeadPolicy for Impatient {}

/// Head-owned policy state: what the head has taken out of the queue,
/// and the headships since the stash last went back.
struct Stash {
    first: *mut QNode,
    last: *mut QNode,
    passes: u32,
}

impl Stash {
    const EMPTY: Stash = Stash {
        first: ptr::null_mut(),
        last: ptr::null_mut(),
        passes: 0,
    };

    /// The whole stash, detached; the count starts over.
    fn take(&mut self) -> Option<(NonNull<QNode>, NonNull<QNode>)> {
        let ends = NonNull::new(self.first).zip(NonNull::new(self.last))?;
        *self = Stash::EMPTY;
        Some(ends)
    }
}

/// CNA's handovers between two splices of the secondary queue back in
/// front of the main one (the original flushes with probability 1/256;
/// a period keeps experiments reproducible).
const FLUSH_PERIOD: u32 = 256;

/// CNA (Dice & Kogan, EuroSys 2019 \[36\]) on core classes — §2.2's
/// "NUMA-aware locks collapse on AMP", with the big and little classes
/// as the two nodes. The head moves the other-class waiters in front of
/// the first one of its own class to a secondary queue, so consecutive
/// grants stay in one class; every 256 headships the secondary queue
/// goes back in front — the long-term fairness whose
/// equal-chance batching costs AMP its throughput.
pub struct Numa(UnsafeCell<Stash>);

impl Default for Numa {
    fn default() -> Self {
        Numa(UnsafeCell::new(Stash::EMPTY))
    }
}

// SAFETY: the stash is only touched by the queue's head (see the
// module docs); headship passes with a release/acquire edge.
unsafe impl Send for Numa {}
unsafe impl Sync for Numa {}

impl sealed::Sealed for Numa {
    const NAME: &'static str = "cna";
    const READS_KIND: bool = true;

    unsafe fn order(&self, _tail: &AtomicPtr<QNode>, head: NonNull<QNode>) -> bool {
        let head = head.as_ref();
        let first = head.next.load(Ordering::Acquire);
        if first.is_null() {
            return false;
        }
        let stash = &mut *self.0.get();
        stash.passes = stash.passes.saturating_add(1);
        if stash.passes >= FLUSH_PERIOD {
            if let Some((sh, st)) = stash.take() {
                st.as_ref().next.store(first, Ordering::Relaxed);
                head.next.store(sh.as_ptr(), Ordering::Relaxed);
                return true;
            }
        }
        // The first waiter of the head's class, or the last linked one
        // (its link is not ours to rewrite).
        let (mut prev, mut cur) = (ptr::null_mut::<QNode>(), first);
        while (*cur).kind.get() != head.kind.get() {
            let next = (*cur).next.load(Ordering::Acquire);
            if next.is_null() {
                break;
            }
            (prev, cur) = (cur, next);
        }
        if let Some(moved) = NonNull::new(prev) {
            moved
                .as_ref()
                .next
                .store(ptr::null_mut(), Ordering::Relaxed);
            match NonNull::new(stash.last) {
                Some(last) => last.as_ref().next.store(first, Ordering::Relaxed),
                None => stash.first = first,
            }
            stash.last = moved.as_ptr();
            head.next.store(cur, Ordering::Relaxed);
        }
        true
    }

    unsafe fn unstash(&self) -> Option<(NonNull<QNode>, NonNull<QNode>)> {
        (*self.0.get()).take()
    }
}

impl HeadPolicy for Numa {}

/// Malthusian culling (Dice, EuroSys 2017 \[35\]) — §2.2's long-term
/// fair concurrency restriction. With two waiters linked behind it,
/// the head moves the first to a passive LIFO (Dice's choice: it keeps
/// the recently run warm), so only the holder, the head and one more
/// circulate; every `period` headships the most recently culled waiter
/// goes back behind the head. On AMP that reintroduction puts little
/// cores back on the critical path (`repro sec2-numa`).
pub struct Cull {
    period: u32,
    /// `first` is the passive LIFO's top, linked through `next`.
    stash: UnsafeCell<Stash>,
}

/// Malthusian's default headships between reintroductions.
const REINTRODUCE_PERIOD: u32 = 128;

impl Default for Cull {
    fn default() -> Self {
        Cull {
            period: REINTRODUCE_PERIOD,
            stash: UnsafeCell::new(Stash::EMPTY),
        }
    }
}

// SAFETY: `period` is never written after construction; the stash is
// only touched by the queue's head, as `Numa`'s.
unsafe impl Send for Cull {}
unsafe impl Sync for Cull {}

impl Cull {
    /// Pop the passive top, detached.
    unsafe fn pop(stash: &mut Stash) -> Option<NonNull<QNode>> {
        let top = NonNull::new(stash.first)?;
        stash.first = top.as_ref().next.load(Ordering::Relaxed);
        top.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
        stash.passes = 0;
        Some(top)
    }
}

impl sealed::Sealed for Cull {
    const NAME: &'static str = "malthusian";

    unsafe fn order(&self, _tail: &AtomicPtr<QNode>, head: NonNull<QNode>) -> bool {
        let head = head.as_ref();
        let first = head.next.load(Ordering::Acquire);
        if first.is_null() {
            return false;
        }
        let stash = &mut *self.stash.get();
        stash.passes = stash.passes.saturating_add(1);
        if stash.passes >= self.period {
            if let Some(top) = Self::pop(stash) {
                top.as_ref().next.store(first, Ordering::Relaxed);
                head.next.store(top.as_ptr(), Ordering::Relaxed);
                return true;
            }
        }
        let second = (*first).next.load(Ordering::Acquire);
        if !second.is_null() {
            (*first).next.store(stash.first, Ordering::Relaxed);
            stash.first = first;
            head.next.store(second, Ordering::Relaxed);
        }
        true
    }

    /// One passive waiter at a time: the active set stays minimal.
    unsafe fn unstash(&self) -> Option<(NonNull<QNode>, NonNull<QNode>)> {
        Self::pop(&mut *self.stash.get()).map(|top| (top, top))
    }
}

impl HeadPolicy for Cull {}

/// A ShflLock-style shuffle (Kashyap et al., SOSP 2019 \[50\]): the head
/// shows the first [`MAX_SCAN`] waiters behind it to a
/// [`ShufflePolicy`] and moves the one it picks to the front — the
/// queue's tail too, with a tail CAS, so every pick is granted.
pub struct Shuffle<S>(S);

impl<S: ShufflePolicy> sealed::Sealed for Shuffle<S> {
    const NAME: &'static str = "shuffle";
    const READS_KIND: bool = true;

    unsafe fn order(&self, tail: &AtomicPtr<QNode>, head: NonNull<QNode>) -> bool {
        let head = head.as_ref();
        let mut nodes = [ptr::null_mut::<QNode>(); MAX_SCAN];
        let mut cands = [Candidate {
            kind: CoreKind::Big,
        }; MAX_SCAN];
        let mut len = 0;
        let mut cur = head.next.load(Ordering::Acquire);
        while len < MAX_SCAN && !cur.is_null() {
            let next = (*cur).next.load(Ordering::Acquire);
            nodes[len] = cur;
            cands[len].kind = (*cur).kind.get();
            (len, cur) = (len + 1, next);
        }
        if len == 0 {
            return false;
        }
        let pick = self.0.pick(head.kind.get(), &cands[..len]);
        debug_assert!(pick < len, "policy returned out-of-range index");
        if pick == 0 || pick >= len {
            return true;
        }
        let (chosen, prev) = (nodes[pick], &(*nodes[pick - 1]).next);
        let after = (*chosen).next.load(Ordering::Acquire);
        prev.store(after, Ordering::Relaxed);
        // The tail leaves with a tail CAS, as a stash comes back. Lost
        // to an arrival: it swapped in behind the pick and is linking
        // itself there; once it has, it takes the pick's place.
        let (release, relaxed) = (Ordering::Release, Ordering::Relaxed);
        if after.is_null()
            && tail
                .compare_exchange(chosen, nodes[pick - 1], release, relaxed)
                .is_err()
        {
            prev.store(wait_for_link(NonNull::new_unchecked(chosen)), relaxed);
        }
        (*chosen).next.store(nodes[0], Ordering::Relaxed);
        head.next.store(chosen, Ordering::Relaxed);
        true
    }

    unsafe fn alone(&self, head: NonNull<QNode>) {
        let kind = head.as_ref().kind.get();
        self.0.pick(kind, &[Candidate { kind }]);
    }
}

impl<S: ShufflePolicy> HeadPolicy for Shuffle<S> {}

/// Proof of acquisition of a [`QueueLock`]. Zero-sized — the lock word
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

/// A lock word, the MCS queue of its waiters, and the policy its
/// waiting head orders that queue with.
pub struct QueueLock<P: HeadPolicy> {
    tail: AtomicPtr<QNode>,
    locked: AtomicU32,
    policy: P,
}

/// The MCS queue lock: FIFO among queued waiters.
pub type McsLock = QueueLock<Fifo>;
/// CNA on core classes.
pub type CnaLock = QueueLock<Numa>;
/// Malthusian MCS: culling and periodic reintroduction.
pub type MalthusianLock = QueueLock<Cull>;
/// The ShflLock framework with a pluggable [`ShufflePolicy`].
pub type ShuffleLock<S> = QueueLock<Shuffle<S>>;
/// The contention-adaptive lock: arrivals barge until a head is
/// impatient.
pub type FissileLock = QueueLock<Impatient>;

impl<P: HeadPolicy + Default> Default for QueueLock<P> {
    fn default() -> Self {
        QueueLock::with_policy(P::default())
    }
}

impl<P: HeadPolicy + Default> QueueLock<P> {
    /// New unlocked lock: `mcs`, `cna`, `adaptive`, or `malthusian`
    /// with the default period.
    pub fn new() -> Self {
        Self::default()
    }
}

impl QueueLock<Cull> {
    /// New Malthusian lock reintroducing a culled waiter every
    /// `period` headships.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn with_period(period: u32) -> Self {
        assert!(period >= 1, "reintroduction period must be >= 1");
        QueueLock::with_policy(Cull {
            period,
            ..Cull::default()
        })
    }
}

impl<S: ShufflePolicy> QueueLock<Shuffle<S>> {
    /// New shuffle lock whose head reorders by `policy`.
    pub fn new(policy: S) -> Self {
        QueueLock::with_policy(Shuffle(policy))
    }
}

impl<P: HeadPolicy> QueueLock<P> {
    fn with_policy(policy: P) -> Self {
        QueueLock {
            tail: AtomicPtr::new(ptr::null_mut()),
            locked: AtomicU32::new(0),
            policy,
        }
    }

    /// The whole uncontended acquisition: nobody queued (or a patient
    /// head, if the policy barges), one CAS.
    #[inline]
    fn take_free(&self) -> bool {
        let barge = self
            .policy
            .impatience()
            .is_some_and(|f| !f.load(Ordering::Relaxed));
        (barge || self.tail.load(Ordering::Relaxed).is_null()) && self.take_word()
    }

    /// `Acquire`, pairing with the `Release` store of `unlock`.
    #[inline]
    fn take_word(&self) -> bool {
        let (acquire, relaxed) = (Ordering::Acquire, Ordering::Relaxed);
        self.locked.compare_exchange(0, 1, acquire, relaxed).is_ok()
    }

    /// Enqueue, wait to be head, then for the word — ordering the queue
    /// behind once as head — and pass headship on; `false` if
    /// `deadline_ns` came first (`u64::MAX`: none, and no clock read).
    /// Mid-queue, a waiter gives up by CASing its own node `WAITING →
    /// ABANDONED`: success gives the node away, failure means headship
    /// already landed. A *head* at its deadline looks at the word once
    /// more and passes headship on, word or no word. A head that failed
    /// [`PATIENCE`] polls raised the policy's flag, if it has one, and
    /// lowers it before the grant, so no successor's flag is lost.
    #[cold]
    fn lock_queued(&self, deadline_ns: u64) -> bool {
        let node = take_node();
        if P::READS_KIND {
            // SAFETY: a pooled node is this thread's alone.
            let slot = unsafe { &node.as_ref().kind };
            let kind = current_core().kind;
            if slot.get() != kind {
                slot.set(kind);
            }
        }
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
        if head {
            // SAFETY: head, with our node.
            unsafe { self.policy.alone(node) };
        }
        let (mut ordered, mut polls) = (false, 0u32);
        let taken = loop {
            head = head || state.load(acquire) == GRANTED;
            if head {
                if self.locked.load(Ordering::Relaxed) == 0 && self.take_word() {
                    break true;
                }
                polls = polls.saturating_add(1);
                if polls == PATIENCE {
                    self.set_impatient(true);
                }
                // SAFETY: head, with our node.
                ordered = ordered || unsafe { self.policy.order(&self.tail, node) };
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
        if polls >= PATIENCE {
            self.set_impatient(false);
        }
        // SAFETY: head, so the node is ours to order behind and pool.
        unsafe {
            if !ordered {
                self.policy.order(&self.tail, node);
            }
            self.pass_headship(node);
        }
        taken
    }

    /// Raise or lower the policy's impatience flag, if it has one.
    #[inline(always)]
    fn set_impatient(&self, impatient: bool) {
        if let Some(flag) = self.policy.impatience() {
            flag.store(impatient, Ordering::Relaxed);
        }
    }

    /// The head leaves the queue: close it behind `node` — or, with a
    /// stash to spare, publish the stash as the queue — or make the
    /// successor head. One that abandoned its timed wait gave us its
    /// node: adopt it (pool it) and repeat on *its* successor. Without
    /// timed use the grant CAS cannot fail.
    ///
    /// # Safety
    /// `node` is the head's node.
    unsafe fn pass_headship(&self, mut node: NonNull<QNode>) {
        loop {
            let mut next = node.as_ref().next.load(Ordering::Acquire);
            if next.is_null() {
                next = match self.policy.unstash() {
                    None if close_tail(&self.tail, node) => return put_node(node),
                    // A successor swapped the tail and is linking itself.
                    None => wait_for_link(node),
                    Some((first, last)) => {
                        let (release, relaxed) = (Ordering::Release, Ordering::Relaxed);
                        let swing = self.tail.compare_exchange(
                            node.as_ptr(),
                            last.as_ptr(),
                            release,
                            relaxed,
                        );
                        // Lost to an arrival: the stash goes in front of it.
                        if swing.is_err() {
                            last.as_ref().next.store(wait_for_link(node), relaxed);
                        }
                        first.as_ptr()
                    }
                };
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

impl<P: HeadPolicy> RawLock for QueueLock<P> {
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

    /// A stash is never left without a queue to publish it, so a free
    /// word and an empty tail mean nobody waits anywhere.
    #[inline]
    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed) != 0 || !self.tail.load(Ordering::Relaxed).is_null()
    }

    const NAME: &'static str = P::NAME;
}

impl FifoLock for McsLock {}

/// With the pass-through policy the shuffle queue grants in arrival
/// order, so it qualifies as a FIFO substrate for the reorderable lock.
impl FifoLock for ShuffleLock<FifoPolicy> {}

impl<P: HeadPolicy> crate::timed::RawTimedLock for QueueLock<P> {
    /// The queued wait with a deadline: see `lock_queued`.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<McsToken> {
        (self.take_free() || self.lock_queued(deadline_ns)).then_some(McsToken(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::RawTimedLock;
    use sealed::Sealed;
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
        use std::sync::atomic::AtomicUsize;
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

    /// The head picks the queue's tail just as an arrival swaps itself
    /// in behind it: the tail CAS fails, and the pick still moves to
    /// the front once the arrival has linked — `head → b → a → c`, not
    /// the pick dropped after the policy has counted it.
    #[test]
    fn a_picked_tail_moves_when_an_arrival_races_it() {
        let lock = ShuffleLock::new(crate::shuffle::PreferBigPolicy::new(16));
        let [head, a, b, c] = [(); 4].map(|()| crate::pool::boxed(QNode::fresh()));
        // SAFETY: the test's own nodes, freed at the end.
        let next = |n: NonNull<QNode>| unsafe { &n.as_ref().next };
        unsafe { a.as_ref().kind.set(CoreKind::Little) };
        next(head).store(a.as_ptr(), Ordering::Relaxed);
        next(a).store(b.as_ptr(), Ordering::Relaxed);
        // `c` has swapped the tail but not yet linked behind `b`.
        lock.tail.store(c.as_ptr(), Ordering::Relaxed);
        let (b_at, c_at) = (b.as_ptr() as usize, c.as_ptr() as usize);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                // SAFETY: the nodes outlive the scope.
                let b = unsafe { &*(b_at as *const QNode) };
                b.next.store(c_at as *mut QNode, Ordering::Release);
            });
            // SAFETY: we play the head; the nodes are ours.
            assert!(unsafe { lock.policy.order(&lock.tail, head) });
        });
        let after = |n| next(n).load(Ordering::Relaxed);
        assert_eq!(after(head), b.as_ptr(), "the pick is at the front");
        assert_eq!(after(b), a.as_ptr());
        assert_eq!(after(a), c.as_ptr(), "the arrival took the pick's place");
        assert_eq!(lock.tail.load(Ordering::Relaxed), c.as_ptr());
        for node in [head, a, b, c] {
            // SAFETY: boxed above, unreachable now.
            unsafe { crate::pool::free(node) };
        }
    }

    /// A head that fails [`PATIENCE`] polls closes the fast path past
    /// the queue, and reopens it as it leaves headship — here at its
    /// deadline, without the word: once the queue has drained, the
    /// next waiter is barged past as the first was. Fails if the flag
    /// is never raised, and if it is never lowered.
    #[test]
    fn an_impatient_head_reopens_the_fast_path_as_it_leaves() {
        let lock = FissileLock::new();
        let impatient = || lock.policy.0.load(Ordering::Relaxed);
        let held = lock.lock();
        std::thread::scope(|s| {
            let head = s.spawn(|| lock.try_lock_for(50_000_000).is_none());
            while !impatient() && !head.is_finished() {
                std::thread::yield_now();
            }
            assert!(impatient(), "the head never ran out of patience");
            assert!(head.join().expect("head"), "the deadline passed first");
        });
        assert!(!impatient(), "the head left the fast path closed");
        assert!(lock.tail.load(Ordering::Relaxed).is_null(), "queue drained");
        lock.unlock(held);
        // A fresh arrival's node, queued behind a free word: barged.
        let waiter = crate::pool::boxed(QNode::fresh());
        lock.tail.store(waiter.as_ptr(), Ordering::Relaxed);
        let barged = lock.try_lock().expect("a patient queue is barged");
        lock.unlock(barged);
        lock.tail.store(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: boxed above, unreachable now.
        unsafe { crate::pool::free(waiter) };
    }

    #[test]
    #[should_panic]
    fn zero_period_rejected() {
        let _ = MalthusianLock::with_period(0);
    }
}
