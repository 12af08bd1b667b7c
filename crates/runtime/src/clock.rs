//! Nanosecond clock utilities.
//!
//! The paper uses `clock_gettime` (~45 cycles) for epoch timestamps
//! and reorder-window deadlines. We expose the same thing: a
//! monotonic nanosecond counter anchored at process start, plus
//! busy-wait and nanosleep helpers used by the lock implementations.
//!
//! ## The host clock
//!
//! One source on every platform, with no way to set it from outside:
//! the time elapsed since one process-origin [`Instant`], which the
//! process's first read takes. A read is one vDSO `clock_gettime` plus
//! `Instant::elapsed`'s nanosecond arithmetic: 34–45 ns on the
//! reference host (2-CPU x86-64 container), and ≈ 0.6 µs for a
//! process's first read, which also takes the origin.
//!
//! Contract: nanoseconds since the first read of the process,
//! monotonic on every thread. A timestamp handed to another thread
//! through a Release/Acquire pair reads at most a microsecond later
//! than the receiver's next reading (`Instant` is the OS's monotonic
//! clock, which keeps its CPUs in step), and the cross-thread
//! consumers subtract with `saturating_sub`, so a lead costs a latency
//! sample, never a wrapped one.
//!
//! ## Deadlines in wait loops
//!
//! [`now_ns`] is the one clock — one `clock_gettime` per call. That is
//! cheap enough for once-per-acquisition timestamps but not for a
//! deadline check on every poll: a standby competitor polling a
//! reorder window would spend as many cycles reading the clock as
//! probing the lock. Every wait loop with a deadline therefore checks
//! it through a [`Deadline`], which reads [`now_ns`] on its first two
//! checks and then paces itself: it skips the checks its last two
//! readings say cannot reach the deadline, at most 15 in a row, so it
//! reads once per 16 polls far from the deadline and on every poll
//! close to it (and on every check where every poll yields). Anything
//! that anchors a measurement or a deadline reads [`now_ns`] itself,
//! once.

use std::sync::OnceLock;
use std::time::Instant;

/// The host clock behind [`now_ns`] and [`os_now_ns`]: nanoseconds
/// since the process origin, which the first call takes.
#[inline]
fn host_now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Monotonic nanoseconds since process start. Cheap enough to call in
/// lock hot paths (see the module docs for what one read costs); wait
/// loops check their deadlines through a [`Deadline`] instead.
///
/// On a thread with an installed [`crate::substrate`] backend this is
/// the *virtual* clock instead — see the substrate module's clock
/// contract.
#[inline]
pub fn now_ns() -> u64 {
    match crate::substrate::with_current(|s| s.now_ns()) {
        Some(t) => t,
        None => host_now_ns(),
    }
}

/// Monotonic OS nanoseconds since process start, bypassing any
/// installed substrate.
///
/// [`now_ns`] dispatches to the thread's substrate when one is
/// installed, which makes it unusable *from inside* a substrate
/// implementation that needs a real-time reading for its own OS
/// fallback (calling back into `now_ns` would recurse through the
/// substrate dispatch). Substrate decorators such as
/// [`crate::fault::FaultInjector`] use this instead; everything else
/// should call [`now_ns`].
#[inline]
pub fn os_now_ns() -> u64 {
    host_now_ns()
}

/// Most checks a [`Deadline`] skips between two clock reads. A read
/// is 34–45 ns on the reference host; one read per 16 polls keeps a
/// spin loop's clock cost to two or three nanoseconds a poll, and the
/// overrun, should polls suddenly get slower, to at most 15 polls —
/// noise against reorder windows of tens of microseconds.
const DEADLINE_MAX_SKIP: u32 = 15;

/// An absolute [`now_ns`] deadline as a wait loop checks it: call
/// [`Deadline::passed`] once per poll.
///
/// When a check reads the clock — one rule for simulated and host
/// threads alike:
///
/// * **The first two checks always do,** so a deadline already past
///   is seen before the loop probes anything, and the second reading
///   gives the first estimate of what one check costs.
/// * **After each later reading** the deadline divides the time since
///   the reading before by the checks in between, and skips the
///   checks which at that cost cannot reach it — at most 15. Far from
///   the deadline that is one read per 16 checks; close to it, one per
///   check.
/// * **Host threads where every poll is a scheduler yield**
///   ([`crate::relax::yields_every_poll`]: a poll costs a quantum
///   there, and skipped reads would stretch a deadline by whole quanta
///   to save nothing worth having) read on every check. Under an
///   installed substrate that process-global answer, which comes from
///   the first asker's affinity mask, is never consulted: a clock read
///   is charged there, so the cadence is part of what virtual time
///   means.
///
/// A check compares a fresh reading, so a deadline never passes
/// early. Under a steady poll cost it passes on the first check at or
/// after it (a clock read that is itself charged only makes the
/// estimate larger, so the reads come sooner); when polls get slower,
/// at most 15 checks late. `u64::MAX` never passes and reads nothing.
#[derive(Debug)]
pub struct Deadline {
    at_ns: u64,
    /// Checks left before the next clock read.
    skip: u32,
    /// Checks from the last reading to the next one; 0 before the
    /// first.
    span: u32,
    /// The last reading.
    last_ns: u64,
}

impl Deadline {
    /// A deadline at `at_ns` on the [`now_ns`] timeline.
    #[inline]
    pub const fn new(at_ns: u64) -> Self {
        Deadline {
            at_ns,
            skip: 0,
            span: 0,
            last_ns: 0,
        }
    }

    /// Whether this check reads the clock and finds the deadline
    /// passed; a check that does not read returns `false` (see the
    /// type docs for which checks read).
    #[inline]
    pub fn passed(&mut self) -> bool {
        if self.at_ns == u64::MAX {
            return false;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        let now = now_ns();
        if now >= self.at_ns {
            return true;
        }
        if self.span > 0
            && (crate::substrate::installed_here() || !crate::relax::yields_every_poll())
        {
            // `j` more checks at `gap / span` each stay short of the
            // deadline while `j * gap < remaining * span`; a clock that
            // did not move between the readings bounds nothing.
            let gap = now.saturating_sub(self.last_ns);
            let short = (self.at_ns - now).saturating_mul(u64::from(self.span)) - 1;
            self.skip = short.checked_div(gap).map_or(DEADLINE_MAX_SKIP, |j| {
                j.min(u64::from(DEADLINE_MAX_SKIP)) as u32
            });
        }
        self.last_ns = now;
        self.span = self.skip + 1;
        false
    }
}

/// Busy-wait for approximately `ns` nanoseconds (spinning, with
/// scheduler yields once oversubscribed — see [`crate::relax`]).
#[inline]
pub fn busy_wait_ns(ns: u64) {
    if crate::substrate::with_current(|s| s.busy_wait_ns(ns)).is_some() {
        return;
    }
    // Saturating: a huge `ns` must clamp the deadline at the end of
    // time, not wrap it into the past and return immediately.
    let end = now_ns().saturating_add(ns);
    let mut spin = crate::relax::Spin::new();
    while now_ns() < end {
        spin.relax();
    }
}

/// Sleep for `ns` nanoseconds using `nanosleep(2)`, the same primitive
/// the paper's blocking standby competitors use. Platforms without
/// `nanosleep` fall back to `std::thread::sleep`.
pub fn nanosleep_ns(ns: u64) {
    if crate::substrate::with_current(|s| s.sleep_ns(ns)).is_some() {
        return;
    }
    #[cfg(unix)]
    {
        let ts = libc::timespec {
            tv_sec: (ns / 1_000_000_000) as libc::time_t,
            tv_nsec: (ns % 1_000_000_000) as libc::c_long,
        };
        // Ignore EINTR: for back-off sleeps an early wake-up is
        // harmless.
        unsafe {
            libc::nanosleep(&ts, std::ptr::null_mut());
        }
    }
    #[cfg(not(unix))]
    std::thread::sleep(std::time::Duration::from_nanos(ns));
}

/// Convenience: microseconds to nanoseconds.
#[inline]
pub const fn us(n: u64) -> u64 {
    n * 1_000
}

/// Convenience: milliseconds to nanoseconds.
#[inline]
pub const fn ms(n: u64) -> u64 {
    n * 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn busy_wait_waits() {
        let t0 = now_ns();
        busy_wait_ns(200_000); // 200us
        let dt = now_ns() - t0;
        assert!(dt >= 200_000, "waited only {dt}ns");
    }

    #[test]
    fn nanosleep_sleeps() {
        let t0 = now_ns();
        nanosleep_ns(1_000_000); // 1ms
        assert!(now_ns() - t0 >= 900_000);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(3), 3_000);
        assert_eq!(ms(2), 2_000_000);
    }

    /// Checks of `d` until one passes, up to `limit`.
    fn checks_until_passed(d: &mut Deadline, limit: u32) -> Option<u32> {
        (1..=limit).find(|_| d.passed())
    }

    /// A clock the test moves; a read is free and counted.
    #[derive(Default)]
    struct Scripted {
        now: AtomicU64,
        reads: AtomicU64,
    }

    impl crate::substrate::Substrate for Scripted {
        fn now_ns(&self) -> u64 {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.now.load(Ordering::Relaxed)
        }
        fn relax(&self) {}
        fn busy_wait_ns(&self, _: u64) {}
        fn sleep_ns(&self, _: u64) {}
        fn park(&self) {}
        fn charge_work_units(&self, _: u64) {}
    }

    /// How a wait loop under the scripted clock spent a deadline.
    #[derive(Debug, PartialEq)]
    struct Spent {
        /// Polls made, one after each check that did not pass, so the
        /// check that passed is `polls + 1`.
        polls: u64,
        /// Clock reads among the checks.
        reads: u64,
        /// The first check at or after the deadline (1-based).
        due: u64,
    }

    /// Check a deadline at `at_ns` with the clock at 0, each poll moving
    /// it by `cost(clock reads so far)` ns, until the deadline passes.
    /// The check that passes is asserted not to be early.
    fn spend(at_ns: u64, cost: impl Fn(u64) -> u64) -> Spent {
        let sub = std::sync::Arc::new(Scripted::default());
        let _installed = crate::substrate::install(sub.clone());
        let mut d = Deadline::new(at_ns);
        let (mut check, mut due) = (0, None);
        loop {
            check += 1;
            let now = sub.now.load(Ordering::Relaxed);
            if now >= at_ns {
                due.get_or_insert(check);
            }
            if d.passed() {
                assert!(now >= at_ns, "passed at {now}, deadline {at_ns}");
                break;
            }
            assert!(check < 1_000_000, "deadline {at_ns} never passed");
            let reads = sub.reads.load(Ordering::Relaxed);
            sub.now.fetch_add(cost(reads), Ordering::Relaxed);
        }
        Spent {
            polls: check - 1,
            reads: sub.reads.load(Ordering::Relaxed),
            due: due.expect("the check that passed was due"),
        }
    }

    #[test]
    fn a_deadline_n_steady_polls_away_passes_after_poll_n_with_pinned_reads() {
        // Two reads to estimate the cost of a poll, then one per 16
        // checks until the deadline is less than 16 polls away, then
        // the one that lands on it: 2 + ⌈(n − 1) / 16⌉.
        const POLL_NS: u64 = 25;
        for (n, reads) in [(1, 2), (2, 3), (17, 3), (40, 5), (1_000, 65)] {
            let spent = spend(n * POLL_NS, |_| POLL_NS);
            assert_eq!(
                spent,
                Spent {
                    polls: n,
                    reads,
                    due: n + 1
                },
                "a deadline {n} polls away"
            );
        }
    }

    #[test]
    fn a_deadline_is_at_most_15_checks_late_when_polls_get_10x_slower() {
        // The estimate from the first two readings says 25 ns a poll;
        // every poll after the second reading costs 250.
        for at in (0..=5_000).step_by(7) {
            let spent = spend(at, |reads| if reads < 2 { 25 } else { 250 });
            let (passed, due) = (spent.polls + 1, spent.due);
            assert!(
                passed - due <= 15,
                "deadline {at}: due at check {due}, passed at {passed}"
            );
        }
    }

    #[test]
    fn a_past_deadline_passes_on_the_first_check() {
        let now = now_ns();
        assert!(Deadline::new(now).passed());
        assert!(Deadline::new(0).passed());
        // The first check reads the clock.
        assert_eq!(
            spend(0, |_| 1),
            Spent {
                polls: 0,
                reads: 1,
                due: 1
            }
        );
    }

    #[test]
    fn a_deadline_at_the_end_of_time_never_passes() {
        let mut d = Deadline::new(u64::MAX);
        assert_eq!(checks_until_passed(&mut d, 1_000), None);
        // Nor does it read the clock.
        let sub = std::sync::Arc::new(Scripted::default());
        let _installed = crate::substrate::install(sub.clone());
        let mut d = Deadline::new(u64::MAX);
        assert_eq!(checks_until_passed(&mut d, 1_000), None);
        assert_eq!(sub.reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_deadline_crossed_between_checks_is_seen_within_the_cadence() {
        // Two quick checks far from the deadline leave a spinning host
        // thread 15 checks to skip; where every poll yields it reads on
        // the next check all the same.
        let late = if crate::relax::yields_every_poll() {
            1
        } else {
            DEADLINE_MAX_SKIP + 1
        };
        for _ in 0..5 {
            let at = now_ns().saturating_add(1_000_000);
            let mut d = Deadline::new(at);
            if d.passed() || d.passed() {
                // Preempted past it before the second check.
                assert!(now_ns() >= at);
                continue;
            }
            busy_wait_ns(2_000_000);
            let seen = checks_until_passed(&mut d, 1_000);
            assert!(
                seen.is_some_and(|n| n <= late),
                "crossed deadline seen after {seen:?} checks, at most {late} allowed"
            );
        }
    }

    #[test]
    fn a_deadline_never_passes_early() {
        for window in [0u64, 1_000, 20_000, 200_000] {
            let at = now_ns().saturating_add(window);
            let mut d = Deadline::new(at);
            while !d.passed() {}
            let now = now_ns();
            assert!(now >= at, "passed at {now}, deadline {at}");
        }
    }
}
