//! A ShflLock-style shuffling queue-lock framework (Kashyap et al.,
//! SOSP 2019 \[50\]), adapted to AMP core classes.
//!
//! ShflLock keeps waiters in one queue and lets a *policy* reorder
//! that queue while threads wait. The paper compares LibASL against
//! ShflLock carrying a static proportional policy (SHFL-PB10, built in
//! [`crate::proportional`]); this module provides the *framework*
//! itself — a queue lock parameterized by a [`ShufflePolicy`] that
//! inspects a bounded prefix of the waiting queue at each handover and
//! picks the next holder — so that policy ablations (the `policy`
//! group of `repro sim-ablate`) can compare FIFO, class-local,
//! prefer-big and proportional orderings under one mechanism.
//!
//! ## Simplification vs. the original
//!
//! In ShflLock, waiting threads near the head become "shufflers" and
//! reorder the queue while the holder runs. Here the *releaser* picks
//! the next holder from the first `MAX_SCAN` linked waiters and
//! unlinks it. The reachable orderings are the same (any bounded
//! reordering of a FIFO prefix); what changes is only who spends the
//! cycles, which matters for handover latency but not for the
//! ordering-policy questions the ablations ask.
//!
//! ## Queue structure
//!
//! Arrivals append MCS-style through `tail`. The first *waiting* node
//! is tracked in a holder-managed `head` slot; the holder's own node
//! is never part of that chain. Granting the head is free; granting a
//! mid-chain waiter unlinks it (its predecessor's `next` is rewritten)
//! — the last known node can only be granted, never unlinked, because
//! an arrival may be mid-append behind it.

use std::cell::{Cell, UnsafeCell};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use asl_runtime::registry::current_core;
use asl_runtime::CoreKind;

use crate::pool::{close_tail, node_pool, open_tail, wait_behind, wait_for_link};
use crate::RawLock;

const WAITING: u32 = 1;
const GRANTED: u32 = 0;

/// Longest queue prefix a policy may inspect per handover.
pub const MAX_SCAN: usize = 16;

/// One waiting-queue entry as shown to a [`ShufflePolicy`].
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Core class of the waiting thread.
    pub kind: CoreKind,
    /// Queue position (0 = front / longest-waiting).
    pub position: usize,
    /// Whether this entry can be granted out of order. The last
    /// scanned entry is not unlinkable; a policy picking an
    /// ineligible entry falls back to the front.
    pub eligible: bool,
}

/// A queue-reordering policy: picks which candidate locks next.
///
/// Implementations must be cheap (runs on every handover) and must
/// return an index `< candidates.len()`. State updates are safe with
/// relaxed atomics: calls are serialized by lock handovers.
pub trait ShufflePolicy: Send + Sync + 'static {
    /// Choose the next holder among `candidates` (never empty).
    /// `releaser` is the class of the thread releasing the lock.
    fn pick(&self, releaser: CoreKind, candidates: &[Candidate]) -> usize;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Strict FIFO (degenerates to MCS; the control policy).
#[derive(Debug, Default)]
pub struct FifoPolicy;

impl ShufflePolicy for FifoPolicy {
    fn pick(&self, _releaser: CoreKind, _candidates: &[Candidate]) -> usize {
        0
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// NUMA-local analog: prefer waiters of the releaser's class, with a
/// bounded number of consecutive skips of the front waiter so the
/// other class is not starved (ShflLock's long-term fairness).
pub struct ClassLocalPolicy {
    max_skips: u32,
    skips: AtomicU32,
}

impl ClassLocalPolicy {
    /// Prefer same-class waiters, forcing FIFO after `max_skips`
    /// consecutive out-of-order grants.
    pub fn new(max_skips: u32) -> Self {
        ClassLocalPolicy {
            max_skips,
            skips: AtomicU32::new(0),
        }
    }
}

impl ShufflePolicy for ClassLocalPolicy {
    fn pick(&self, releaser: CoreKind, candidates: &[Candidate]) -> usize {
        if self.skips.load(Ordering::Relaxed) >= self.max_skips {
            self.skips.store(0, Ordering::Relaxed);
            return 0;
        }
        let choice = candidates
            .iter()
            .position(|c| c.kind == releaser && c.eligible)
            .unwrap_or(0);
        if choice == 0 {
            self.skips.store(0, Ordering::Relaxed);
        } else {
            self.skips.fetch_add(1, Ordering::Relaxed);
        }
        choice
    }
    fn name(&self) -> &'static str {
        "class-local"
    }
}

/// Always prefer big-core waiters, with the same bounded-skip
/// fairness valve — the static "prioritize fast cores" strawman of
/// §2.3, as a shuffling policy.
pub struct PreferBigPolicy {
    max_skips: u32,
    skips: AtomicU32,
}

impl PreferBigPolicy {
    /// Prefer big waiters, forcing FIFO after `max_skips` skips.
    pub fn new(max_skips: u32) -> Self {
        PreferBigPolicy {
            max_skips,
            skips: AtomicU32::new(0),
        }
    }
}

impl ShufflePolicy for PreferBigPolicy {
    fn pick(&self, _releaser: CoreKind, candidates: &[Candidate]) -> usize {
        if self.skips.load(Ordering::Relaxed) >= self.max_skips {
            self.skips.store(0, Ordering::Relaxed);
            return 0;
        }
        let choice = candidates
            .iter()
            .position(|c| c.kind == CoreKind::Big && c.eligible)
            .unwrap_or(0);
        if choice == 0 {
            self.skips.store(0, Ordering::Relaxed);
        } else {
            self.skips.fetch_add(1, Ordering::Relaxed);
        }
        choice
    }
    fn name(&self) -> &'static str {
        "prefer-big"
    }
}

/// Proportional policy: grant a little-core waiter once every
/// `n + 1` handovers when one is waiting, otherwise prefer big — the
/// SHFL-PB discipline expressed in the shuffling framework.
pub struct ProportionalPolicy {
    n: u32,
    bigs: AtomicU32,
}

impl ProportionalPolicy {
    /// `n` big grants per little grant.
    pub fn new(n: u32) -> Self {
        ProportionalPolicy {
            n,
            bigs: AtomicU32::new(0),
        }
    }
}

impl ShufflePolicy for ProportionalPolicy {
    fn pick(&self, _releaser: CoreKind, candidates: &[Candidate]) -> usize {
        let little_due = self.bigs.load(Ordering::Relaxed) >= self.n;
        let want = if little_due {
            CoreKind::Little
        } else {
            CoreKind::Big
        };
        let choice = candidates
            .iter()
            .position(|c| c.kind == want && c.eligible)
            .unwrap_or(0);
        match candidates[choice].kind {
            CoreKind::Big => {
                self.bigs.fetch_add(1, Ordering::Relaxed);
            }
            CoreKind::Little => self.bigs.store(0, Ordering::Relaxed),
        }
        choice
    }
    fn name(&self) -> &'static str {
        "proportional"
    }
}

/// Queue node.
#[repr(align(64))]
struct ShflNode {
    state: AtomicU32,
    next: AtomicPtr<ShflNode>,
    /// Written pre-publication by the enqueuer (only when it differs
    /// from what the node's last use left: no store before the RMW),
    /// read by holders.
    kind: Cell<CoreKind>,
}

impl ShflNode {
    fn fresh() -> Self {
        ShflNode {
            state: AtomicU32::new(GRANTED),
            next: AtomicPtr::new(ptr::null_mut()),
            kind: Cell::new(CoreKind::Big),
        }
    }
}

// SAFETY: `kind` is written pre-publication only.
unsafe impl Send for ShflNode {}
unsafe impl Sync for ShflNode {}

node_pool!(ShflNode);
crate::pool::node_token! {
    /// Token proving acquisition of a [`ShuffleLock`].
    ShuffleToken(ShflNode)
}

/// A node for an acquisition by this thread: `kind` current, `state`
/// left for `wait_behind` (nobody reads it otherwise).
#[inline]
fn take_own_node() -> NonNull<ShflNode> {
    let node = take_node();
    let kind = current_core().kind;
    // SAFETY: a pooled node is this thread's alone.
    let slot = unsafe { &node.as_ref().kind };
    if slot.get() != kind {
        slot.set(kind);
    }
    node
}

/// The shuffling queue lock.
pub struct ShuffleLock<P: ShufflePolicy> {
    tail: AtomicPtr<ShflNode>,
    /// First waiting node, or null when the chain is empty/unknown;
    /// only the lock holder reads or writes this.
    head: UnsafeCell<*mut ShflNode>,
    policy: P,
}

// SAFETY: `head` is only accessed by the unique lock holder.
unsafe impl<P: ShufflePolicy> Send for ShuffleLock<P> {}
unsafe impl<P: ShufflePolicy> Sync for ShuffleLock<P> {}

impl<P: ShufflePolicy> ShuffleLock<P> {
    /// New unlocked shuffle lock driven by `policy`.
    pub fn new(policy: P) -> Self {
        ShuffleLock {
            tail: AtomicPtr::new(ptr::null_mut()),
            head: UnsafeCell::new(ptr::null_mut()),
            policy,
        }
    }

    /// The driving policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    #[inline]
    fn grant(n: *mut ShflNode) {
        unsafe { (*n).state.store(GRANTED, Ordering::Release) };
    }
}

impl<P: ShufflePolicy> RawLock for ShuffleLock<P> {
    type Token = ShuffleToken;

    #[inline]
    fn lock(&self) -> ShuffleToken {
        let node = take_own_node();
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: our node, our swap, its non-null result.
            unsafe { wait_behind(pred, node, WAITING) };
        }
        ShuffleToken(node)
    }

    #[inline]
    fn try_lock(&self) -> Option<ShuffleToken> {
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = take_own_node();
        if open_tail(&self.tail, node) {
            return Some(ShuffleToken(node));
        }
        put_node(node);
        None
    }

    fn unlock(&self, token: ShuffleToken) {
        let node = token.0;
        // SAFETY (throughout): we are the holder; `head` is ours and
        // chain nodes are pinned by their spinning owners.
        unsafe {
            let head = &mut *self.head.get();
            let chain_first = if head.is_null() {
                // Chain unknown: derive from our own node.
                let succ = node.as_ref().next.load(Ordering::Acquire);
                if succ.is_null() {
                    if close_tail(&self.tail, node) {
                        put_node(node);
                        return; // queue empty: released
                    }
                    wait_for_link(node)
                } else {
                    succ
                }
            } else {
                *head
            };

            // Scan the linked prefix.
            let mut ptrs: [*mut ShflNode; MAX_SCAN] = [ptr::null_mut(); MAX_SCAN];
            let mut nexts: [*mut ShflNode; MAX_SCAN] = [ptr::null_mut(); MAX_SCAN];
            let mut cands: [Candidate; MAX_SCAN] = [Candidate {
                kind: CoreKind::Big,
                position: 0,
                eligible: false,
            }; MAX_SCAN];
            let mut len = 0;
            let mut cur = chain_first;
            while len < MAX_SCAN && !cur.is_null() {
                let nxt = (*cur).next.load(Ordering::Acquire);
                ptrs[len] = cur;
                nexts[len] = nxt;
                cands[len] = Candidate {
                    kind: (*cur).kind.get(),
                    position: len,
                    eligible: len == 0 || !nxt.is_null(),
                };
                len += 1;
                cur = nxt;
            }

            let releaser = node.as_ref().kind.get();
            let mut pick = self.policy.pick(releaser, &cands[..len]);
            debug_assert!(pick < len, "policy returned out-of-range index");
            if pick >= len || !cands[pick].eligible {
                pick = 0;
            }

            let chosen = ptrs[pick];
            if pick == 0 {
                // Granting the front: the chain simply advances. When
                // the rest is unknown (null), the new holder's own
                // node is the entry point for later arrivals.
                *head = nexts[0];
            } else {
                // Unlink mid-chain (eligibility guarantees a linked
                // successor) and keep the front of the chain.
                (*ptrs[pick - 1]).next.store(nexts[pick], Ordering::Relaxed);
                *head = chain_first;
            }
            Self::grant(chosen);
            // A pooled node's link is null (ours may be stale anyway:
            // the chain is tracked in `head`).
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            put_node(node);
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    const NAME: &'static str = "shuffle";
}

/// With the pass-through policy the shuffle queue grants strictly in
/// arrival order, so it qualifies as a FIFO substrate for the
/// reorderable lock.
impl crate::FifoLock for ShuffleLock<FifoPolicy> {}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::registry::{register_on_core, unregister};
    use asl_runtime::topology::{CoreId, Topology};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn hammer<P: ShufflePolicy>(policy: P, threads: usize, iters: u64) {
        let l = Arc::new(ShuffleLock::new(policy));
        let v = Arc::new(Counter::default());
        let mut handles = vec![];
        for _ in 0..threads {
            let l = l.clone();
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    let t = l.lock();
                    v.bump();
                    l.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.get(), threads as u64 * iters);
        assert!(!l.is_locked());
    }

    #[test]
    fn basic() {
        let l = ShuffleLock::new(FifoPolicy);
        assert!(!l.is_locked());
        let t = l.lock();
        assert!(l.is_locked());
        l.unlock(t);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_contended() {
        let l = ShuffleLock::new(FifoPolicy);
        let t = l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(t);
        let t2 = l.try_lock().expect("free after unlock");
        l.unlock(t2);
    }

    #[test]
    fn mutual_exclusion_fifo() {
        hammer(FifoPolicy, 8, 20_000);
    }

    #[test]
    fn mutual_exclusion_class_local() {
        hammer(ClassLocalPolicy::new(32), 8, 20_000);
    }

    #[test]
    fn mutual_exclusion_prefer_big() {
        hammer(PreferBigPolicy::new(32), 8, 20_000);
    }

    #[test]
    fn mutual_exclusion_proportional() {
        hammer(ProportionalPolicy::new(10), 8, 20_000);
    }

    #[test]
    fn mixed_classes_terminate() {
        // 4 big + 4 little threads under prefer-big with a small skip
        // bound: little threads must not starve (fixed iterations
        // terminate).
        let topo = Topology::apple_m1();
        let l = Arc::new(ShuffleLock::new(PreferBigPolicy::new(16)));
        let done = Arc::new(AtomicU64::new(0));
        let mut handles = vec![];
        for i in 0..8 {
            let topo = topo.clone();
            let l = l.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                register_on_core(&topo, CoreId(i));
                for _ in 0..10_000 {
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
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn policy_names() {
        assert_eq!(FifoPolicy.name(), "fifo");
        assert_eq!(ClassLocalPolicy::new(1).name(), "class-local");
        assert_eq!(PreferBigPolicy::new(1).name(), "prefer-big");
        assert_eq!(ProportionalPolicy::new(1).name(), "proportional");
    }

    #[test]
    fn fifo_policy_always_front() {
        let c = [
            Candidate {
                kind: CoreKind::Little,
                position: 0,
                eligible: true,
            },
            Candidate {
                kind: CoreKind::Big,
                position: 1,
                eligible: true,
            },
        ];
        assert_eq!(FifoPolicy.pick(CoreKind::Big, &c), 0);
    }

    #[test]
    fn prefer_big_picks_first_big() {
        let p = PreferBigPolicy::new(100);
        let c = [
            Candidate {
                kind: CoreKind::Little,
                position: 0,
                eligible: true,
            },
            Candidate {
                kind: CoreKind::Little,
                position: 1,
                eligible: true,
            },
            Candidate {
                kind: CoreKind::Big,
                position: 2,
                eligible: true,
            },
        ];
        assert_eq!(p.pick(CoreKind::Big, &c), 2);
    }

    #[test]
    fn prefer_big_respects_skip_bound() {
        let p = PreferBigPolicy::new(2);
        let c = [
            Candidate {
                kind: CoreKind::Little,
                position: 0,
                eligible: true,
            },
            Candidate {
                kind: CoreKind::Big,
                position: 1,
                eligible: true,
            },
        ];
        assert_eq!(p.pick(CoreKind::Big, &c), 1); // skip 1
        assert_eq!(p.pick(CoreKind::Big, &c), 1); // skip 2
        assert_eq!(p.pick(CoreKind::Big, &c), 0); // forced front
        assert_eq!(p.pick(CoreKind::Big, &c), 1); // counter reset
    }

    #[test]
    fn proportional_policy_alternates() {
        let p = ProportionalPolicy::new(2);
        let both = [
            Candidate {
                kind: CoreKind::Big,
                position: 0,
                eligible: true,
            },
            Candidate {
                kind: CoreKind::Little,
                position: 1,
                eligible: true,
            },
        ];
        // 2 big grants, then a little is due.
        assert_eq!(p.pick(CoreKind::Big, &both), 0);
        assert_eq!(p.pick(CoreKind::Big, &both), 0);
        assert_eq!(p.pick(CoreKind::Big, &both), 1);
        assert_eq!(p.pick(CoreKind::Big, &both), 0);
    }

    #[test]
    fn ineligible_pick_falls_back_to_front() {
        // A policy that always picks the last (possibly ineligible)
        // candidate: the lock must fall back to FIFO rather than
        // corrupt the queue.
        struct LastPolicy;
        impl ShufflePolicy for LastPolicy {
            fn pick(&self, _r: CoreKind, c: &[Candidate]) -> usize {
                c.len() - 1
            }
            fn name(&self) -> &'static str {
                "last"
            }
        }
        hammer(LastPolicy, 6, 20_000);
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
}
