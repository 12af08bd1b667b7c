//! The decision functions of a ShflLock-style shuffling queue lock
//! (Kashyap et al., SOSP 2019 \[50\]), adapted to AMP core classes.
//!
//! ShflLock keeps waiters in one queue and lets a *policy* reorder
//! that queue while threads wait. The paper compares LibASL against
//! ShflLock carrying a static proportional policy (SHFL-PB10, built in
//! [`crate::proportional`]); the framework itself is
//! [`crate::ShuffleLock`]`<S>`, the queue lock whose waiting head shows
//! the first [`MAX_SCAN`] waiters behind it to a [`ShufflePolicy`] and
//! moves the one it picks to the front — so that policy ablations (the
//! `policy` group of `repro sim-ablate`) compare FIFO, class-local,
//! prefer-big and proportional orderings under one mechanism.
//!
//! That is the original's shape: the head shuffles while the holder
//! runs, and the release stays one store ([`crate::mcs`], "The policy
//! is the waiting head's"). A policy sees waiters in queue order and
//! picks once per headship; the waiter it picks is granted next.

use std::sync::atomic::{AtomicU32, Ordering};

use asl_runtime::CoreKind;

/// Longest queue prefix a policy may inspect per handover.
pub const MAX_SCAN: usize = 16;

/// One waiting-queue entry as shown to a [`ShufflePolicy`], in queue
/// order (index 0 = front / longest-waiting). The lock can move every
/// waiter it shows.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Core class of the waiting thread.
    pub kind: CoreKind,
}

/// A queue-reordering policy: picks which candidate locks next.
///
/// Implementations must be cheap (runs once per headship) and must
/// return an index `< candidates.len()`. State updates are safe with
/// relaxed atomics: calls are serialized by the headship handover.
pub trait ShufflePolicy: Send + Sync + 'static {
    /// Choose the next holder among `candidates` (never empty).
    /// `releaser` is the class of the thread that will hand the lock
    /// to it: the queue's head, which picks.
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
            .position(|c| c.kind == releaser)
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
            .position(|c| c.kind == CoreKind::Big)
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
        let choice = candidates.iter().position(|c| c.kind == want).unwrap_or(0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use CoreKind::{Big, Little};

    /// Candidates of these classes, in queue order.
    fn queue(kinds: &[CoreKind]) -> Vec<Candidate> {
        kinds.iter().map(|&kind| Candidate { kind }).collect()
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
        assert_eq!(FifoPolicy.pick(Big, &queue(&[Little, Big])), 0);
    }

    #[test]
    fn prefer_big_picks_first_big() {
        let p = PreferBigPolicy::new(100);
        assert_eq!(p.pick(Big, &queue(&[Little, Little, Big])), 2);
    }

    #[test]
    fn prefer_big_respects_skip_bound() {
        let p = PreferBigPolicy::new(2);
        let c = queue(&[Little, Big]);
        assert_eq!(p.pick(Big, &c), 1); // skip 1
        assert_eq!(p.pick(Big, &c), 1); // skip 2
        assert_eq!(p.pick(Big, &c), 0); // forced front
        assert_eq!(p.pick(Big, &c), 1); // counter reset
    }

    #[test]
    fn proportional_policy_alternates() {
        let p = ProportionalPolicy::new(2);
        let both = queue(&[Big, Little]);
        // 2 big grants, then a little is due.
        assert_eq!(p.pick(Big, &both), 0);
        assert_eq!(p.pick(Big, &both), 0);
        assert_eq!(p.pick(Big, &both), 1);
        assert_eq!(p.pick(Big, &both), 0);
    }
}
