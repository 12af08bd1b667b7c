//! Acquire-path hygiene: the two mechanisms that make an annotated
//! uncontended acquisition cheap, held to their contracts.
//!
//! * The host clock reads the cycle counter where the kernel trusts it
//!   and `Instant` everywhere else, switching from the one to the other
//!   once per process. Whatever it reads, `now_ns()` stays per-thread
//!   monotonic, tracks `Instant`, and hands timestamps across threads
//!   within the documented slack.
//! * Counters that only the exclusive holder of a lock writes are
//!   bumped with a load and a store instead of an RMW
//!   (`TelemetryCell`'s holder-owned rule). A counter that was wrongly
//!   classed — a writer outside the lock — loses updates under
//!   contention, so every exclusive recorder is hammered here and its
//!   counts compared with the exact totals.
//! * A layer charges a caller only for machinery that is doing
//!   something for it: an uncontended `Gcr`, an epoch on a big core and
//!   a timed acquire of a free lock read no clock at all. Counted
//!   exactly, under a substrate whose clock ticks once per read.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use libasl::clock::{self, now_ns};
use libasl::locks::{McsLock, RawLock, RawTimedLock};
use libasl::runtime::affinity::pin_to_cpu;
use libasl::runtime::registry::{register_on_core, unregister};
use libasl::runtime::substrate;
use libasl::runtime::topology::CoreId;
use libasl::{epoch, AslSpinLock, DynLock, Gcr, Instrumented, TelemetryCell, Topology};

#[path = "common/ticking.rs"]
mod ticking;
use ticking::Ticking;

/// Run `body` on a thread of its own and fail if it has not returned
/// within `secs` seconds (the stuck thread is left behind).
fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(body()));
    finished
        .recv_timeout(Duration::from_secs(secs))
        .expect("acquire-path test hung or panicked")
}

// ---------------------------------------------------------------------
// (a) The clock contract.
// ---------------------------------------------------------------------

#[test]
fn ten_million_reads_never_go_backwards() {
    // Started cold, this run straddles the one-time switch from the
    // fallback to the counter.
    let mut last = now_ns();
    for i in 0..10_000_000u64 {
        let t = now_ns();
        assert!(t >= last, "read {i} went backwards: {last} -> {t}");
        last = t;
    }
}

#[test]
fn tracks_instant_within_a_tenth_of_a_percent() {
    clock::settle();
    // A preemption between the two reads of a pair would show up as
    // disagreement, so a failed attempt is retried; a wrong rate fails
    // every attempt alike.
    let mut worst = 0.0f64;
    for _ in 0..5 {
        let (i0, c0) = (Instant::now(), now_ns());
        std::thread::sleep(Duration::from_millis(50));
        let (i1, c1) = (Instant::now(), now_ns());
        let by_instant = (i1 - i0).as_nanos() as f64;
        let by_clock = (c1 - c0) as f64;
        let off = (by_clock - by_instant).abs() / by_instant;
        if off <= 0.001 {
            return;
        }
        worst = worst.max(off);
    }
    panic!(
        "now_ns() ({}, {:?} ticks/ns) is {:.4} % off Instant over 50 ms",
        clock::source(),
        clock::ticks_per_ns(),
        worst * 100.0
    );
}

#[test]
fn the_fallback_obeys_the_same_contract() {
    clock::settle();
    let mut last = clock::fallback_now_ns();
    for _ in 0..1_000_000 {
        let t = clock::fallback_now_ns();
        assert!(t >= last, "fallback went backwards: {last} -> {t}");
        last = t;
    }
    // Same origin, same timeline: the two sources agree on what time
    // it is now to within the rate tolerance (a process is at most
    // minutes old here) plus the cross-thread slack.
    for _ in 0..5 {
        let (c, f) = (now_ns(), clock::fallback_now_ns());
        let off = c.abs_diff(f);
        if off <= f / 1000 + clock::CROSS_THREAD_SLACK_NS {
            return;
        }
    }
    panic!("now_ns() and the fallback disagree on the time since process start");
}

#[test]
fn a_timestamp_handed_to_another_thread_is_not_from_its_future() {
    const ROUNDS: u64 = 200_000;
    clock::settle();
    let sent = Arc::new(AtomicU64::new(0));
    let round = Arc::new(AtomicU64::new(0));
    let acked = Arc::new(AtomicU64::new(0));
    let receiver = {
        let (sent, round, acked) = (sent.clone(), round.clone(), acked.clone());
        std::thread::spawn(move || {
            pin_to_cpu(1);
            let mut worst_lead = 0u64;
            for r in 1..=ROUNDS {
                while round.load(Ordering::Acquire) != r {
                    std::thread::yield_now();
                }
                let theirs = sent.load(Ordering::Relaxed);
                let mine = now_ns();
                worst_lead = worst_lead.max(theirs.saturating_sub(mine));
                acked.store(r, Ordering::Release);
            }
            worst_lead
        })
    };
    pin_to_cpu(0);
    for r in 1..=ROUNDS {
        sent.store(now_ns(), Ordering::Relaxed);
        round.store(r, Ordering::Release);
        while acked.load(Ordering::Acquire) != r {
            std::thread::yield_now();
        }
    }
    let worst_lead = receiver.join().expect("receiver panicked");
    assert!(
        worst_lead <= clock::CROSS_THREAD_SLACK_NS,
        "a handed-over timestamp led the receiver's clock by {worst_lead} ns"
    );
}

#[test]
fn a_substrate_still_owns_the_clock() {
    clock::settle();
    let host_before = clock::os_now_ns();
    {
        let _installed = substrate::install(Arc::new(Ticking(AtomicU64::new(7))));
        assert_eq!(now_ns(), 7);
        assert_eq!(now_ns(), 17);
        assert_eq!(clock::coarse_now_ns(), 27);
        // The bypass keeps reading the host.
        assert!(clock::os_now_ns() >= host_before);
    }
    assert!(now_ns() >= host_before, "back on the host clock");
}

// ---------------------------------------------------------------------
// (b) Idle machinery reads no clock.
// ---------------------------------------------------------------------

#[test]
fn an_uncontended_gcr_reads_no_clock_and_counts_nobody() {
    let ticking = Arc::new(Ticking(AtomicU64::new(0)));
    let _installed = substrate::install(ticking.clone());
    let gcr = Gcr::new(McsLock::new());
    for _ in 0..200 {
        let reads = ticking.reads_in(|| {
            let token = gcr.lock();
            assert_eq!(gcr.active(), 0);
            gcr.unlock(token);
        });
        assert_eq!(reads, 0);
    }
    let reads = ticking.reads_in(|| {
        let token = gcr.try_lock().expect("free");
        gcr.unlock(token);
    });
    assert_eq!(reads, 0, "try_lock");
    assert_eq!((gcr.active(), gcr.peak_active()), (0, 0));
    assert_eq!(gcr.telemetry().snapshot().acquisitions, 201);
}

#[test]
fn an_epoch_reads_the_clock_only_where_its_window_is_used() {
    let ticking = Arc::new(Ticking(AtomicU64::new(0)));
    let _installed = substrate::install(ticking.clone());
    let m1 = Topology::apple_m1();
    for (core, big) in [(CoreId(0), true), (CoreId(5), false)] {
        register_on_core(&m1, core);
        epoch::reset_thread_epochs();
        let plain = ticking.reads_in(|| epoch::with_epoch(3, 60_000, || ()));
        assert_eq!(plain, if big { 0 } else { 2 }, "with_epoch, big = {big}");
        // Five reads of work inside: 50 virtual ns.
        let mut latency = 0;
        let timed = ticking.reads_in(|| {
            let work = || {
                for _ in 0..5 {
                    now_ns();
                }
            };
            latency = epoch::with_epoch_timed(3, 60_000, work).1;
        });
        assert_eq!(timed - 5, 2, "with_epoch_timed, big = {big}");
        assert!(latency >= 50, "latency {latency} < the work inside");
        // The raw pair, for completeness: what with_epoch is made of.
        let raw = ticking.reads_in(|| {
            epoch::epoch_start(3);
            let measured = epoch::epoch_end(3, 60_000);
            assert_eq!(measured == 0, big, "0 = not measured, big cores only");
        });
        assert_eq!(raw, if big { 0 } else { 2 });
    }
    unregister();
}

#[test]
fn a_timed_acquire_anchors_its_deadline_only_to_wait() {
    /// A lock somebody else holds for good: `try_lock` fails, and
    /// `try_lock_until` notes when it was entered and with what.
    struct Held<'a> {
        clock: &'a Ticking,
        entered: AtomicU64,
        deadline: AtomicU64,
    }
    impl RawLock for Held<'_> {
        type Token = ();
        fn lock(&self) {
            unreachable!("held for good")
        }
        fn try_lock(&self) -> Option<()> {
            None
        }
        fn unlock(&self, (): ()) {}
        fn is_locked(&self) -> bool {
            true
        }
        const NAME: &'static str = "held";
    }
    impl RawTimedLock for Held<'_> {
        fn try_lock_until(&self, deadline_ns: u64) -> Option<()> {
            let now = self.clock.0.load(Ordering::Relaxed);
            self.entered.store(now, Ordering::Relaxed);
            self.deadline.store(deadline_ns, Ordering::Relaxed);
            None
        }
    }

    let ticking = Arc::new(Ticking(AtomicU64::new(1_000)));
    let _installed = substrate::install(ticking.clone());
    let free = McsLock::new();
    let reads = ticking.reads_in(|| {
        let token = free.try_lock_for(1_000_000).expect("free lock");
        free.unlock(token);
    });
    assert_eq!(reads, 0, "a free lock is taken with no deadline");

    let held = Held {
        clock: &ticking,
        entered: AtomicU64::new(0),
        deadline: AtomicU64::new(0),
    };
    assert!(held.try_lock_for(777).is_none());
    // One read — the anchor, 1 000 on this clock — before the wait.
    assert_eq!(held.entered.load(Ordering::Relaxed), 1_010);
    assert_eq!(held.deadline.load(Ordering::Relaxed), 1_000 + 777);
    // And the real thing: a held MCS lock times out, anchor included.
    let token = free.lock();
    let reads = ticking.reads_in(|| assert!(free.try_lock_for(50).is_none()));
    assert!(reads >= 2, "anchor + at least one deadline check: {reads}");
    free.unlock(token);
}

// ---------------------------------------------------------------------
// (c) Counter exactness under contention.
// ---------------------------------------------------------------------

const THREADS: u64 = 4;
const PER_THREAD: u64 = 100_000;
const TOTAL: u64 = THREADS * PER_THREAD;

/// `THREADS` threads, each after running `enter`, take `lock`
/// `PER_THREAD` times through `around` (which must call what it is
/// handed exactly once); returns after all have joined, having checked
/// mutual exclusion on the way.
fn hammer(lock: &DynLock, enter: impl Fn() + Sync, around: impl Fn(&dyn Fn()) + Sync) {
    let inside = AtomicBool::new(false);
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                enter();
                start.wait();
                for _ in 0..PER_THREAD {
                    around(&|| {
                        let _held = lock.lock();
                        assert!(!inside.swap(true, Ordering::Relaxed), "two holders");
                        inside.store(false, Ordering::Relaxed);
                    });
                }
            });
        }
    });
}

#[test]
fn holder_owned_counters_lose_no_update() {
    within(300, || {
        // `libasl-max`, as the registry builds it; unregistered threads
        // count as big cores and take the immediate path.
        let asl = Arc::new(AslSpinLock::default());
        hammer(&DynLock::new(asl.clone()), || (), |acquire| acquire());
        let s = asl.stats().snapshot();
        assert_eq!(s.telemetry.acquisitions, TOTAL, "libasl-max: {s:?}");
        assert_eq!(s.immediate, TOTAL, "libasl-max: {s:?}");
        assert_eq!(s.total(), s.telemetry.acquisitions);
        assert!(s.telemetry.contended <= s.telemetry.acquisitions);
        assert_eq!(asl.stats().telemetry().hold_started_ns(), 0);

        // `libasl-60us`: little cores inside epochs take the standby
        // paths; sampling on, so the hold slot is exercised too.
        let asl = Arc::new(AslSpinLock::default());
        asl.stats().telemetry().set_sampling(true);
        let m1 = Topology::apple_m1();
        hammer(
            &DynLock::new(asl.clone()),
            || {
                register_on_core(&m1, CoreId(5));
            },
            |acquire| epoch::with_epoch(3, 60_000, acquire),
        );
        let s = asl.stats().snapshot();
        assert_eq!(s.telemetry.acquisitions, TOTAL, "libasl-60us: {s:?}");
        assert_eq!(s.immediate, 0, "libasl-60us: {s:?}");
        assert_eq!(s.standby_total(), s.telemetry.acquisitions, "{s:?}");
        assert!(s.telemetry.contended <= s.telemetry.acquisitions);
        assert!(s.telemetry.hold_ns > 0, "sampled holds accumulate");
        assert_eq!(asl.stats().telemetry().hold_started_ns(), 0);

        // `instrumented-mcs` as built under profiling: a sampling cell.
        let cell = Arc::new(TelemetryCell::sampled());
        let lock = Instrumented::with_cell(DynLock::of(McsLock::new()), cell.clone());
        hammer(&DynLock::of(lock), || (), |acquire| acquire());
        let s = cell.snapshot();
        assert_eq!(s.acquisitions, TOTAL, "instrumented-mcs: {s:?}");
        assert!(s.contended <= s.acquisitions);
        assert!(s.hold_ns > 0);
        assert_eq!(cell.hold_started_ns(), 0);

        // `gcr-mcs`.
        let gcr = Arc::new(Gcr::new(DynLock::of(McsLock::new())));
        hammer(&DynLock::new(gcr.clone()), || (), |acquire| acquire());
        let s = gcr.telemetry().snapshot();
        assert_eq!(s.acquisitions, TOTAL, "gcr-mcs: {s:?}");
        assert!(s.contended <= s.acquisitions);
        // Holds are sampled while the gate is engaged only, and on one
        // CPU the hammer does not always contend enough to engage it.
        assert!(s.hold_ns > 0 || gcr.peak_active() == 0, "{s:?}");
        assert_eq!(gcr.telemetry().hold_started_ns(), 0);
        assert_eq!(gcr.active(), 0);
    });
}
