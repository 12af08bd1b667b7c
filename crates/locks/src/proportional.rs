//! Proportional-execution lock — the paper's "SHFL-PB10" baseline.
//!
//! The paper adapts ShflLock's NUMA-local policy to AMP by splitting
//! big and little competitors into two queues and using "a simple
//! counter to allow exactly 1 little core to lock after every N big
//! cores" (§4, Evaluation Setup). This module implements exactly that
//! admission discipline: two FIFO waiter queues (one per core class)
//! plus a grant counter, under a tiny internal spinlock that is held
//! only for queue pushes/pops.
//!
//! Any static proportion is one point on the latency/throughput
//! trade-off curve of Figure 5; the harness sweeps `N` to regenerate
//! that figure.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use asl_runtime::registry::is_big_core;

use crate::RawLock;

/// Internal scheduler state, guarded by `guard`.
struct State {
    /// Mutual-exclusion bit for the *outer* lock.
    locked: bool,
    /// Big grants since the last little grant.
    bigs_since_little: u32,
    /// FIFO of spinning big-core waiters (grant flags).
    big: VecDeque<*const AtomicU32>,
    /// FIFO of spinning little-core waiters.
    little: VecDeque<*const AtomicU32>,
}

// SAFETY: the raw pointers reference stack slots of threads that are
// guaranteed to be blocked (spinning on that very flag) until granted.
unsafe impl Send for State {}

/// Proportional two-queue lock (1 little grant per `n` big grants).
pub struct ProportionalLock {
    guard: AtomicBool,
    locked_mirror: AtomicBool,
    state: std::cell::UnsafeCell<State>,
    n: u32,
}

unsafe impl Send for ProportionalLock {}
unsafe impl Sync for ProportionalLock {}

impl ProportionalLock {
    /// Create with proportion `n`: big cores get `n` grants for every
    /// little-core grant while both classes are queued. `n = 0` means
    /// little cores always have priority when waiting.
    pub fn new(n: u32) -> Self {
        ProportionalLock {
            guard: AtomicBool::new(false),
            locked_mirror: AtomicBool::new(false),
            state: std::cell::UnsafeCell::new(State {
                locked: false,
                bigs_since_little: 0,
                big: VecDeque::new(),
                little: VecDeque::new(),
            }),
            n,
        }
    }

    /// The configured proportion.
    pub fn proportion(&self) -> u32 {
        self.n
    }

    #[inline]
    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        let mut spin = asl_runtime::relax::Spin::new();
        while self.guard.swap(true, Ordering::Acquire) {
            while self.guard.load(Ordering::Relaxed) {
                spin.relax();
            }
        }
        // SAFETY: `guard` provides mutual exclusion over `state`.
        let r = f(unsafe { &mut *self.state.get() });
        self.guard.store(false, Ordering::Release);
        r
    }
}

impl RawLock for ProportionalLock {
    type Token = ();

    fn lock(&self) {
        let flag = AtomicU32::new(0);
        let big = is_big_core();
        let acquired = self.with_state(|st| {
            if !st.locked {
                st.locked = true;
                true
            } else {
                if big {
                    st.big.push_back(&flag as *const AtomicU32);
                } else {
                    st.little.push_back(&flag as *const AtomicU32);
                }
                false
            }
        });
        if acquired {
            self.locked_mirror.store(true, Ordering::Relaxed);
            return;
        }
        let mut spin = asl_runtime::relax::Spin::new();
        while flag.load(Ordering::Acquire) == 0 {
            spin.relax();
        }
        // Handover kept `locked == true`; mirror already true.
    }

    fn try_lock(&self) -> Option<()> {
        let got = self.with_state(|st| {
            if !st.locked {
                st.locked = true;
                true
            } else {
                false
            }
        });
        if got {
            self.locked_mirror.store(true, Ordering::Relaxed);
            Some(())
        } else {
            None
        }
    }

    fn unlock(&self, _t: ()) {
        let grant = self.with_state(|st| {
            // Pick the next class: little is due after n big grants
            // (or when no big waits); otherwise big first.
            let little_due = st.bigs_since_little >= self.n;

            if little_due && !st.little.is_empty() {
                st.bigs_since_little = 0;
                st.little.pop_front()
            } else if !st.big.is_empty() {
                st.bigs_since_little += 1;
                st.big.pop_front()
            } else if !st.little.is_empty() {
                st.bigs_since_little = 0;
                st.little.pop_front()
            } else {
                st.locked = false;
                None
            }
        });
        match grant {
            Some(p) => {
                // SAFETY: the waiter spins on this flag until we set it.
                unsafe { (*p).store(1, Ordering::Release) };
            }
            None => self.locked_mirror.store(false, Ordering::Relaxed),
        }
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.locked_mirror.load(Ordering::Relaxed)
    }

    const NAME: &'static str = "shfl-pb";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let l = ProportionalLock::new(10);
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        assert!(l.try_lock().is_none());
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    fn proportion_accessor() {
        assert_eq!(ProportionalLock::new(7).proportion(), 7);
    }

    #[test]
    fn no_starvation_with_zero_proportion() {
        // n = 0: littles always due; bigs must still progress when
        // the little queue empties between grants.
        let l = Arc::new(ProportionalLock::new(0));
        let mut handles = vec![];
        for _ in 0..4 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    l.lock();
                    l.unlock(());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
