//! `FcBan` — a usage-*fair* banning combiner (after the
//! "Usage-Fairness in Delegation-Styled Locks" design in
//! SNIPPETS.md).
//!
//! Classic combining locks are throughput-fair at best: a thread with
//! long critical sections consumes a disproportionate share of the
//! *lock's time* while still getting one op served per pass, starving
//! nobody but slowing everybody. Banning is a *policy applied to* a
//! delegation structure, not a structure of its own, and that is how
//! it is built here: the ban meter is the usage-policy axis of the
//! publication-slot engine in [`delegation`](crate::delegation). The
//! executor meters each participant's cumulative critical-section
//! time (via `asl_runtime::clock`) around every op it executes and
//! compares it with the participant's proportional share of the
//! total. A thread that overdraws is **banned**: its next submission
//! is delayed by exactly the overage (served submitter-side with
//! [`busy_wait_ns`]), after which its meter is reset to its share —
//! the debt is repaid by the ban, so ban durations stay bounded
//! instead of compounding.
//!
//! [`FcBan`] is that policy on the *combiner* executor (publication
//! array + opportunistic combiner; [`SlotLock`]`<.., false, true>`,
//! which is where its methods are documented), so the fairness deltas
//! measured against [`FlatCombiner`](crate::flatcomb::FlatCombiner) —
//! the same engine without the policy — and
//! [`CcSynch`](crate::ccsynch::CcSynch) isolate the banning policy.

use std::sync::atomic::{AtomicU64, Ordering};

use asl_runtime::clock::{busy_wait_ns, now_ns};

use crate::delegation::{SlotLock, WaitCell};

/// Default tolerance before a thread is banned: overages below this
/// are forgiven, so clock jitter on symmetric workloads never bans.
pub const DEFAULT_SLACK_NS: u64 = 20_000;

/// One participant's usage meter (it lives in the participant's
/// publication slot).
#[derive(Default)]
pub(crate) struct Meter {
    /// Cumulative critical-section time charged to this thread.
    cs_ns: AtomicU64,
    /// Absolute deadline before which this thread may not submit
    /// (0 = not banned). Written by the executor, consumed by the
    /// owner.
    banned_until: AtomicU64,
}

/// The ban usage policy of the delegation engine: the participants'
/// [`Meter`]s are charged by the executor ([`Ban::charge`]) and
/// honoured by the submitter ([`Ban::wait_out`]).
pub(crate) struct Ban {
    total_cs_ns: AtomicU64,
    slack_ns: u64,
    /// Ban-wait attribution (`<label>.ban`) when profiled.
    wait: WaitCell,
}

impl Ban {
    pub(crate) fn new(slack_ns: u64, label: Option<&str>) -> Self {
        Ban {
            total_cs_ns: AtomicU64::new(0),
            slack_ns,
            wait: WaitCell::labelled(label, "ban"),
        }
    }

    /// Executor side: charge `dt` ns of critical-section time to one
    /// of `participants` participants, banning it if that overdraws
    /// its share. Only the (single) executor calls this, so the
    /// meter needs no RMW.
    #[inline]
    pub(crate) fn charge(&self, meter: &Meter, participants: usize, dt: u64) {
        let mine = meter.cs_ns.load(Ordering::Relaxed).saturating_add(dt);
        let total = self
            .total_cs_ns
            .fetch_add(dt, Ordering::Relaxed)
            .saturating_add(dt);
        let share = total / participants.max(1) as u64;
        if mine > share.saturating_add(self.slack_ns) {
            // Ban for the overage; metering restarts at the fair
            // share — the ban repays the debt, so bans stay
            // proportional to the *latest* overdraw, not the
            // thread's whole history.
            meter
                .banned_until
                .store(now_ns().saturating_add(mine - share), Ordering::Relaxed);
            meter.cs_ns.store(share, Ordering::Relaxed);
        } else {
            meter.cs_ns.store(mine, Ordering::Relaxed);
        }
    }

    /// Submitter side: serve the outstanding ban on the caller's
    /// meter, if any. The executor set an absolute re-entry deadline;
    /// it is waited out here so a banned thread's delay never blocks
    /// the executor.
    #[inline]
    pub(crate) fn wait_out(&self, meter: &Meter) {
        let until = meter.banned_until.swap(0, Ordering::Relaxed);
        if until == 0 {
            return;
        }
        let now = now_ns();
        if until <= now {
            return;
        }
        let wait = until - now;
        busy_wait_ns(wait);
        self.wait.record(wait, true);
    }
}

/// Usage-fair banning combiner over a value `T`: the [`SlotLock`]
/// whose submitters execute, under the ban policy. See the [module
/// docs](self) for the policy.
pub type FcBan<T, Op, Out, F> = SlotLock<T, Op, Out, F, false, true>;

impl<T, Op, Out, F: Fn(&mut T, Op) -> Out, const SERVER: bool>
    SlotLock<T, Op, Out, F, SERVER, true>
{
    /// [`SlotLock::new`] with an explicit ban tolerance (overages up
    /// to `slack_ns` are forgiven).
    pub fn with_slack(value: T, apply: F, slack_ns: u64) -> Self {
        Self::over(value, apply, slack_ns, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn single_thread_ops() {
        let fc = FcBan::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let h = fc.register();
        assert_eq!(h.apply(5), 5);
        assert_eq!(h.apply(7), 12);
        drop(h);
        assert_eq!(fc.into_inner(), 12);
    }

    #[test]
    fn concurrent_counter() {
        let fc = FcBan::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let mut handles = vec![];
        for _ in 0..8 {
            let h = fc.register();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    h.apply(1);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(fc.into_inner(), 80_000);
    }

    /// Zero slack + a second registered participant (n=2) makes the
    /// single active thread's share total/2, so a 2 ms op overdraws
    /// by ~1 ms deterministically — whoever executes it.
    fn overdrawn_thread_is_banned_for_the_overage<F, const SERVER: bool>(
        lock: &SlotLock<(), u64, (), F, SERVER, true>,
    ) where
        F: Fn(&mut (), u64),
    {
        let hog = lock.register();
        let _other = lock.register();
        hog.apply(2_000_000);
        // The ban is served at the head of the next apply: it must
        // take at least ~half the heavy CS (busy_wait_ns guarantees a
        // lower bound).
        let t0 = Instant::now();
        hog.apply(0);
        assert!(
            t0.elapsed().as_nanos() >= 500_000,
            "ban not served: next apply returned in {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn combiner_bans_the_overdrawn_thread() {
        let fc = FcBan::with_slack((), |_, heavy_ns| busy_wait_ns(heavy_ns), 0);
        overdrawn_thread_is_banned_for_the_overage(&fc);
    }

    #[test]
    fn server_bans_the_overdrawn_thread() {
        // The two axes are independent parameters of one type, so the
        // combination no alias names yet — a banned RCL — is a type
        // argument, not a new structure: the server meters what it
        // executes and the overdrawn client waits out its ban.
        let heavy = |_: &mut (), heavy_ns| busy_wait_ns(heavy_ns);
        let lock = SlotLock::<_, _, _, _, true, true>::with_slack((), heavy, 0);
        let _server = lock.start();
        overdrawn_thread_is_banned_for_the_overage(&lock);
    }

    #[test]
    fn symmetric_threads_with_slack_never_banned() {
        let fc = FcBan::new(0u64, |v, add: u64| {
            *v += add;
            *v
        });
        let mut handles = vec![];
        for _ in 0..4 {
            let h = fc.register();
            handles.push(std::thread::spawn(move || {
                let t0 = Instant::now();
                for _ in 0..5_000 {
                    h.apply(1);
                }
                t0.elapsed()
            }));
        }
        for t in handles {
            // No assertion on time — just that everyone completes
            // (a compounding-ban bug would stall a thread forever).
            t.join().unwrap();
        }
        assert_eq!(fc.into_inner(), 20_000);
    }
}
