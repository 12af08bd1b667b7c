//! Bounded spin-then-yield waiting.
//!
//! Every busy-wait loop in the workspace (queue-lock hand-off spins,
//! flat-combining waits, standby polling) goes through [`Spin`]. On
//! machines with enough cores the waiter spins almost purely —
//! `SPIN_LIMIT` hints up front, then one `yield_now` every
//! `YIELD_CADENCE` polls, which costs ~nothing when the run queue is
//! empty but lets a preempted holder run when it is not — matching
//! the paper's spinning setup while staying livelock-free. On a
//! single-CPU machine (notably CI containers) every poll yields:
//! pure spinning there makes each lock hand-off cost a full scheduler
//! quantum.

use std::sync::OnceLock;

/// Pure `spin_loop` hints issued before the first yield on a
/// multi-core machine.
const SPIN_LIMIT: u32 = 128;

/// After the spin budget, yield on every this-many-th poll
/// (multi-core machines; single-CPU machines yield on every poll).
const YIELD_CADENCE: u32 = 64;

/// Whether every [`Spin::relax`] poll on this machine is a scheduler
/// yield (single-CPU hosts, notably CI containers). Wait-loop tuning
/// keys off this: when a poll already costs a yield, per-poll
/// bookkeeping like a clock read is noise, so amortizations that
/// trade *accuracy* for per-poll cycles (e.g. the coarse clock's
/// cached deadline checks) should collapse to their precise form.
///
/// Resolved once per process, from the affinity mask of whichever
/// thread asks first: a first caller that is pinned to one CPU answers
/// `true` for every thread, on any host ([`crate::affinity::pinned`]
/// asks from its caller's mask before it pins, for that reason). It is
/// therefore no basis for a per-thread decision, and
/// `exec::block_on`'s spin budget does not consult it. Left as it is
/// on purpose: the benchmark's `host-kv` open loop runs generator and
/// worker on one CPU, and its pacer (`clock::busy_wait_ns`) yields on
/// every poll there because a pinned thread asked first; answering
/// from the unpinned mask inside `affinity::pin_to_cpu` moved that
/// loop's p99 from 34–664 µs to 3.6 ms (ISSUE 15).
pub fn yields_every_poll() -> bool {
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() <= 1)
            .unwrap_or(true)
    })
}

fn single_cpu() -> bool {
    yields_every_poll()
}

/// Per-wait-site spin state. Create one per waiting episode; call
/// [`Spin::relax`] once per failed poll.
#[derive(Debug)]
pub struct Spin {
    spins: u32,
    /// Pure-spin budget: `SPIN_LIMIT`, or 0 on a single-CPU machine
    /// (resolved once at construction so `relax()` is plain
    /// compares + a hint on the hot path).
    limit: u32,
    /// Post-budget yield period: every `cadence`-th poll yields, the
    /// rest keep spinning. 1 on a single-CPU machine.
    cadence: u32,
}

impl Spin {
    /// Fresh waiter (starts in the pure-spin phase).
    ///
    /// The budget and cadence chosen here from the process-global
    /// [`yields_every_poll`] shape host-thread waits only: under an
    /// installed substrate [`Spin::relax`] hands every poll to the
    /// substrate before it looks at them, so they never reach virtual
    /// time.
    #[inline]
    pub fn new() -> Self {
        if single_cpu() {
            Spin {
                spins: 0,
                limit: 0,
                cadence: 1,
            }
        } else {
            Spin {
                spins: 0,
                limit: SPIN_LIMIT,
                cadence: YIELD_CADENCE,
            }
        }
    }

    /// One unit of waiting: a `spin_loop` hint while in the spin
    /// phase, then mostly-spinning with a periodic scheduler yield
    /// (every poll on a single-CPU machine).
    ///
    /// Returns whether this poll yielded to the scheduler. A yield
    /// can cost a whole scheduling quantum, so time-aware wait loops
    /// should treat a `true` return as "an unknown amount of wall
    /// time just passed" — e.g. drop any cached clock reading
    /// ([`crate::clock::coarse_resync`]) before the next deadline
    /// check. Callers that don't track time can ignore the return.
    #[inline]
    pub fn relax(&mut self) -> bool {
        if crate::substrate::any_installed()
            && crate::substrate::with_current(|s| s.relax()).is_some()
        {
            // Simulated poll: virtual time advanced and the scheduler
            // may have run another virtual thread — report it like a
            // yield so deadline loops drop cached clock readings.
            return true;
        }
        self.spins += 1;
        if self.spins <= self.limit {
            std::hint::spin_loop();
            false
        } else if self.spins - self.limit >= self.cadence {
            self.spins = self.limit;
            std::thread::yield_now();
            true
        } else {
            std::hint::spin_loop();
            false
        }
    }

    /// Back to the pure-spin phase (e.g. after observing progress).
    #[inline]
    pub fn reset(&mut self) {
        self.spins = 0;
    }
}

impl Default for Spin {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_terminates_quickly() {
        let mut s = Spin::new();
        for _ in 0..10_000 {
            s.relax();
        }
        s.reset();
        assert_eq!(s.spins, 0);
    }

    #[test]
    fn waiting_makes_progress_when_oversubscribed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        // More threads than any machine has cores: a ping-pong counter
        // only finishes promptly if relax() actually yields.
        let n = 4 * crate::affinity::online_cpus().max(1);
        let ctr = Arc::new(AtomicU64::new(0));
        let rounds = 200u64;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let ctr = ctr.clone();
                std::thread::spawn(move || {
                    for r in 0..rounds {
                        let target = r * n as u64 + i as u64;
                        let mut spin = Spin::new();
                        while ctr.load(Ordering::Acquire) != target {
                            spin.relax();
                        }
                        ctr.fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ctr.load(Ordering::Relaxed), rounds * n as u64);
    }
}
