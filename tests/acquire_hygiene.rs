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
//! * The floor under all of them: an uncontended `McsLock` round is one
//!   CAS and one store — no node, no pool, no clock, no allocation —
//!   and a big-core epoch around it adds two thread-local stores.
//! * Profiling times a sample of the holds, not each: with sampling on,
//!   an uncontended acquisition reads the clock twice if its hold is
//!   one of the timed — about one in sixteen — and not at all if not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use libasl::clock::{self, now_ns};
use libasl::locks::telemetry::InstrumentedRw;
use libasl::locks::{McsLock, RawLock, RawTimedLock, RwTicketLock};
use libasl::runtime::affinity::pin_to_cpu;
use libasl::runtime::registry::{register_on_core, unregister};
use libasl::runtime::substrate;
use libasl::runtime::topology::CoreId;
use libasl::{epoch, AslSpinLock, DynLock, DynRwLock, Gcr, Instrumented, TelemetryCell, Topology};

#[path = "common/ticking.rs"]
mod ticking;
use ticking::Ticking;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[global_allocator]
static ALLOCATOR: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

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
fn an_uncontended_mcs_round_in_a_big_core_epoch_touches_nothing() {
    // A thread of its own: its node pool is empty, so a pool hand-out
    // would be the allocation of a node (and of the thread's list of
    // thread-local destructors) — counted below.
    within(30, || {
        let ticking = Arc::new(Ticking(AtomicU64::new(0)));
        let _installed = substrate::install(ticking.clone());
        register_on_core(&Topology::apple_m1(), CoreId(0));
        epoch::reset_thread_epochs();
        let lock = McsLock::new();
        // The thread's first epoch on an id fills the one-entry cache.
        epoch::with_epoch(3, 60_000, || ());
        let before = allocations();
        let reads = ticking.reads_in(|| {
            for _ in 0..10_000 {
                lock.unlock(lock.lock());
                epoch::with_epoch(3, 60_000, || lock.unlock(lock.lock()));
                let token = lock.try_lock_for(1_000).expect("free lock");
                assert!(lock.is_locked() && lock.try_lock().is_none());
                lock.unlock(token);
            }
        });
        assert_eq!(reads, 0, "clock reads");
        assert_eq!(allocations() - before, 0, "a node left an empty pool");
        assert_eq!(epoch::current_epoch_id(), None);
        unregister();
    });
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

#[test]
fn a_delegated_op_that_does_not_wait_reads_no_clock() {
    use libasl::locks::{telemetry, CcSynch, FlatCombiner};
    let ticking = Arc::new(Ticking(AtomicU64::new(0)));
    let _installed = substrate::install(ticking.clone());
    // Labelled: the `<label>.combine` cells exist and sample, as under
    // `--profile`. One thread, so every op is combined by its submitter.
    let bump = |n: &mut u64, by: u64| {
        *n += by;
        *n
    };
    let flat = FlatCombiner::labelled(0u64, bump, Some("hygiene-flat"));
    let queue = CcSynch::labelled(0u64, bump, Some("hygiene-cc"));
    let (flat, queue) = (flat.register(), queue.register());
    let reads = ticking.reads_in(|| {
        for _ in 0..100 {
            flat.apply(1);
            queue.apply(1);
        }
    });
    assert_eq!(reads, 0);
    assert_eq!((flat.apply(0), queue.apply(0)), (100, 100));
    let cells = telemetry::snapshots();
    for label in ["hygiene-flat.combine", "hygiene-cc.combine"] {
        let (_, s) = cells.iter().find(|(l, _)| l == label).expect(label);
        assert_eq!(
            (s.acquisitions, s.contended, s.wait_ns),
            (101, 0, 0),
            "{label}"
        );
    }
}

#[test]
fn a_sampled_cell_reads_the_clock_twice_per_timed_hold_and_never_otherwise() {
    const HOLDS: u64 = 16_000;
    let ticking = Arc::new(Ticking(AtomicU64::new(0)));
    let _installed = substrate::install(ticking.clone());
    // `HOLDS` uncontended rounds of `round`, which runs `acquire` —
    // the lock and unlock alone — through the closure it is handed;
    // then: clock reads inside `acquire`, and what `cell` recorded.
    let check = |what: &str,
                 sampling: bool,
                 cell: &TelemetryCell,
                 round: &dyn Fn(&dyn Fn()),
                 acquire: &dyn Fn()| {
        cell.set_sampling(sampling);
        let reads = AtomicU64::new(0);
        for _ in 0..HOLDS {
            round(&|| {
                reads.fetch_add(ticking.reads_in(acquire), Ordering::Relaxed);
            });
        }
        let (reads, s) = (reads.into_inner(), cell.snapshot());
        assert_eq!(reads, 2 * s.timed_holds, "{what}: {s:?}");
        if sampling {
            assert_eq!(s.acquisitions, HOLDS, "{what}: {s:?}");
            assert!((900..=1_100).contains(&s.timed_holds), "{what}: {s:?}");
            assert!(s.hold_ns > 0 && s.wait_ns == 0, "{what}: {s:?}");
        } else {
            assert_eq!((s.timed_holds, s.hold_ns), (0, 0), "{what}: {s:?}");
        }
    };
    let m1 = Topology::apple_m1();
    let bare: &dyn Fn(&dyn Fn()) = &|acquire| acquire();
    let in_epoch: &dyn Fn(&dyn Fn()) = &|acquire| epoch::with_epoch(3, 60_000, acquire);
    for sampling in [true, false] {
        // `instrumented-mcs`, through `lock` and through `try_lock`.
        let lock = Instrumented::new(DynLock::of(McsLock::new()));
        let acquire = || lock.unlock(lock.lock());
        check(
            "instrumented-mcs",
            sampling,
            lock.telemetry(),
            bare,
            &acquire,
        );
        let lock = Instrumented::new(DynLock::of(McsLock::new()));
        let acquire = || lock.unlock(lock.try_lock().expect("free"));
        check("try_lock", sampling, lock.telemetry(), bare, &acquire);

        // The write side of an instrumented rwlock.
        let rw = InstrumentedRw::new(DynRwLock::new(Arc::new(RwTicketLock::new())));
        let acquire = || rw.unlock(rw.lock());
        check("rw write", sampling, rw.write_telemetry(), bare, &acquire);

        // `instrumented-libasl-60us` and `libasl-60us`'s own cell, from
        // a big core (the immediate path) and from a little core inside
        // an epoch (the standby path, free entry).
        for (core, round) in [(CoreId(0), bare), (CoreId(5), in_epoch)] {
            register_on_core(&m1, core);
            epoch::reset_thread_epochs();
            let lock = Instrumented::new(DynLock::of(AslSpinLock::default()));
            let what = format!("instrumented-libasl-60us on {core:?}");
            let acquire = || lock.unlock(lock.lock());
            check(&what, sampling, lock.telemetry(), round, &acquire);
            let asl = AslSpinLock::default();
            let what = format!("libasl-60us on {core:?}");
            let acquire = || asl.unlock(asl.lock());
            check(&what, sampling, asl.stats().telemetry(), round, &acquire);
            let paths = asl.stats().snapshot();
            let taken = if core == CoreId(0) {
                paths.immediate
            } else {
                paths.standby_free_entry
            };
            assert_eq!(taken, HOLDS, "{what}: {paths:?}");
        }
        unregister();
    }
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

/// `timed_holds` after `holds` exclusive holds of one sampling cell: the
/// timed set is a function of the grant count alone, so this is also
/// what any number of threads taking turns must leave. A lost update
/// of the countdown, of the jitter word or of the count itself shifts
/// every later draw.
fn timed_holds_of(holds: u64) -> u64 {
    let cell = TelemetryCell::sampled();
    for _ in 0..holds {
        cell.sample_hold_start();
        cell.note_hold_end();
    }
    cell.snapshot().timed_holds
}

#[test]
fn holder_owned_counters_lose_no_update() {
    within(300, || {
        let timed = timed_holds_of(TOTAL);
        assert!((TOTAL / 17..=TOTAL / 15).contains(&timed), "{timed}");

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
        assert_eq!(s.telemetry.timed_holds, timed, "libasl-60us: {s:?}");
        assert_eq!(asl.stats().telemetry().hold_started_ns(), 0);

        // `instrumented-mcs` as built under profiling: a sampling cell.
        let cell = Arc::new(TelemetryCell::sampled());
        let lock = Instrumented::with_cell(DynLock::of(McsLock::new()), cell.clone());
        hammer(&DynLock::of(lock), || (), |acquire| acquire());
        let s = cell.snapshot();
        assert_eq!(s.acquisitions, TOTAL, "instrumented-mcs: {s:?}");
        assert!(s.contended <= s.acquisitions);
        assert!(s.hold_ns > 0);
        assert_eq!(s.timed_holds, timed, "instrumented-mcs: {s:?}");
        assert_eq!(cell.hold_started_ns(), 0);

        // `gcr-mcs`.
        let gcr = Arc::new(Gcr::new(DynLock::of(McsLock::new())));
        hammer(&DynLock::new(gcr.clone()), || (), |acquire| acquire());
        let s = gcr.telemetry().snapshot();
        assert_eq!(s.acquisitions, TOTAL, "gcr-mcs: {s:?}");
        assert!(s.contended <= s.acquisitions);
        // Holds are timed while the gate is engaged only — each counted
        // one — and on one CPU the hammer does not always contend
        // enough to engage it.
        assert!(s.hold_ns > 0 || gcr.peak_active() == 0, "{s:?}");
        assert_eq!(s.timed_holds == 0, s.hold_ns == 0, "{s:?}");
        assert_eq!(gcr.telemetry().hold_started_ns(), 0);
        assert_eq!(gcr.active(), 0);
    });
}
