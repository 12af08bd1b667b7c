//! Test-and-set spinlock with an asymmetric-affinity model.
//!
//! The paper's unfair baseline: the holder is whoever wins the atomic
//! swap. On real AMPs the win rate is asymmetric (§2.2); here the
//! bias is injected via [`AtomicAffinity`] — after observing the lock
//! free, the disadvantaged core class spins a fixed penalty before
//! attempting the swap, so the favoured class almost always reaches
//! the swap first under contention. With `Neutral` affinity this is a
//! plain TTAS lock.

use std::sync::atomic::{AtomicBool, Ordering};

use asl_runtime::registry::current_core;
use asl_runtime::work::execute_raw_units;
use asl_runtime::AtomicAffinity;

use crate::RawLock;

/// Unfair test-and-set (TTAS) spinlock.
pub struct TasLock {
    locked: AtomicBool,
    affinity: AtomicAffinity,
}

impl TasLock {
    /// Neutral-affinity TAS lock.
    pub fn new() -> Self {
        Self::with_affinity(AtomicAffinity::Neutral)
    }

    /// TAS lock with an explicit atomic-affinity model.
    pub fn with_affinity(affinity: AtomicAffinity) -> Self {
        TasLock {
            locked: AtomicBool::new(false),
            affinity,
        }
    }

    /// The configured affinity model.
    pub fn affinity(&self) -> AtomicAffinity {
        self.affinity
    }
}

impl Default for TasLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLock for TasLock {
    type Token = ();

    #[inline]
    fn lock(&self) {
        // Uncontended fast path: a single atomic (the swap) and
        // nothing else — no affinity lookup, no spin-state setup.
        // Those costs are deferred to the contended path below.
        if !self.locked.swap(true, Ordering::Acquire) {
            return;
        }
        let penalty = self.affinity.post_fail_penalty(current_core().kind);
        let mut spin = asl_runtime::relax::Spin::new();
        loop {
            // Local spin until the lock looks free (TTAS).
            while self.locked.load(Ordering::Relaxed) {
                spin.relax();
            }
            // Observed free: back to pure spinning so a lost swap race
            // below doesn't leave the affinity penalty competing with
            // yield-per-poll scheduler noise.
            spin.reset();
            // The affinity model: the disadvantaged class is slower to
            // reach the swap after the release becomes visible.
            if penalty > 0 {
                execute_raw_units(penalty);
            }
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        if !self.locked.swap(true, Ordering::Acquire) {
            Some(())
        } else {
            None
        }
    }

    #[inline]
    fn unlock(&self, _t: ()) {
        self.locked.store(false, Ordering::Release);
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    const NAME: &'static str = "tas";
}

impl crate::timed::RawTimedLock for TasLock {
    /// TAS publishes nothing while waiting, so the back-out is free:
    /// stop competing once the deadline has passed. The timed path
    /// skips the affinity penalty — it models a waiter with somewhere
    /// else to be, not a class-biased competitor.
    fn try_lock_until(&self, deadline_ns: u64) -> Option<()> {
        if !self.locked.swap(true, Ordering::Acquire) {
            return Some(());
        }
        let mut deadline = asl_runtime::clock::Deadline::new(deadline_ns);
        let mut spin = asl_runtime::relax::Spin::new();
        loop {
            // Local spin until free or expired (TTAS with a deadline).
            while self.locked.load(Ordering::Relaxed) {
                if deadline.passed() {
                    return None;
                }
                spin.relax();
            }
            spin.reset();
            if !self.locked.swap(true, Ordering::Acquire) {
                return Some(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_runtime::topology::{CoreId, Topology};
    use asl_runtime::{run_on_topology, CoreKind};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn basic_lock_unlock() {
        let l = TasLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let l = TasLock::new();
        l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(());
        assert!(l.try_lock().is_some());
        l.unlock(());
    }

    #[test]
    fn affinity_biases_acquisition_share() {
        // 2 big + 2 little hammer the lock; with BigWins affinity the
        // big class should take a clear majority of acquisitions.
        let topo = Topology::custom(2, 2, 1.0); // equal speed: isolate the affinity effect
        let lock = Arc::new(TasLock::with_affinity(AtomicAffinity::BigWins {
            penalty_units: 2_000,
        }));
        let big_ops = Arc::new(AtomicU64::new(0));
        let little_ops = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = stop.clone();
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(150));
            s2.store(true, Ordering::Relaxed);
        });
        {
            let lock = lock.clone();
            let big_ops = big_ops.clone();
            let little_ops = little_ops.clone();
            asl_runtime::spawn::run_on_topology_with_stop(&topo, 4, false, stop, move |ctx| {
                let ctr = if ctx.assignment.kind == CoreKind::Big {
                    &big_ops
                } else {
                    &little_ops
                };
                while !ctx.stopped() {
                    lock.lock();
                    // Short critical section.
                    execute_raw_units(200);
                    lock.unlock(());
                    ctr.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        stopper.join().unwrap();
        let b = big_ops.load(Ordering::Relaxed) as f64;
        let l = little_ops.load(Ordering::Relaxed) as f64;
        assert!(b + l > 0.0, "no acquisitions at all");
        // The share itself is a wall-clock scheduling observation: on
        // an oversubscribed host the penalized class can *keep the
        // CPU* through its penalty spin and grab the just-freed lock,
        // inverting the bias. The exact, ungated version of this
        // assertion runs on the simulated machine
        // (`tests/integration_shapes.rs`'s little-affinity TAS cell in
        // `fig1_shape_fifo_and_tas_collapse`).
        if !asl_runtime::affinity::oversubscribed(4) {
            assert!(b > l * 1.5, "big={b} little={l}: affinity had no effect");
        }
    }

    #[test]
    fn neutral_affinity_roughly_fair_classes() {
        let topo = Topology::custom(2, 2, 1.0);
        let lock = Arc::new(TasLock::new());
        let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = stop.clone();
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            s2.store(true, Ordering::Relaxed);
        });
        {
            let lock = lock.clone();
            let counts = counts.clone();
            asl_runtime::spawn::run_on_topology_with_stop(&topo, 4, false, stop, move |ctx| {
                let idx = (ctx.assignment.kind == CoreKind::Little) as usize;
                while !ctx.stopped() {
                    lock.lock();
                    execute_raw_units(200);
                    lock.unlock(());
                    counts[idx].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        stopper.join().unwrap();
        let b = counts[0].load(Ordering::Relaxed) as f64;
        let l = counts[1].load(Ordering::Relaxed) as f64;
        // Equal-speed neutral TAS should not be wildly skewed — but
        // only when the 4 threads actually run in parallel; a
        // preemption-driven schedule makes any unfair lock arbitrarily
        // skewed, so the ratio check needs real cores.
        assert!(b > 0.0 && l > 0.0);
        if !asl_runtime::affinity::oversubscribed(4) {
            let ratio = b.max(l) / b.min(l);
            assert!(
                ratio < 20.0,
                "unexpectedly extreme skew: big={b} little={l}"
            );
        }
    }

    #[test]
    fn registered_little_thread_pays_penalty_only_with_bias() {
        let topo = Topology::custom(1, 1, 1.0);
        let _ = run_on_topology(&topo, 2, false, |ctx| {
            let l = TasLock::with_affinity(AtomicAffinity::little_wins());
            let pen = l.affinity().post_fail_penalty(ctx.assignment.kind);
            match ctx.assignment.kind {
                CoreKind::Big => assert!(pen > 0),
                CoreKind::Little => assert_eq!(pen, 0),
            }
        });
        let _ = Topology::custom(1, 1, 1.0).core(CoreId(0));
    }
}
