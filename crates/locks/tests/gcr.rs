//! GCR under real threads: nothing wedges admission.
//!
//! **Panic hygiene.** A waiter panicking while admitted — or after
//! having waited passively — must never wedge admission. Mirrors the
//! delegation-family panic tests: the panic surfaces at the panicking
//! thread's call site, and afterwards both the surviving waiters and
//! a fresh thread keep completing critical sections. The load-bearing
//! property is slot accounting: the unwind path runs the guard's
//! `unlock`, which ticks the controller, releases the inner lock, and
//! exits the gate — so a poisoned critical section hands its admission
//! slot (and any due wakeup) to the passive set exactly like a clean
//! one.
//!
//! **The engage/disengage protocol and the releaser's wake-up**, at
//! the end of the file: a waiter never parks behind a gate that
//! stopped counting, and a slot a thread left behind reaches a parked
//! waiter through the threads still releasing, not through the 50 ms
//! `PASSIVE_RESCUE_BOUND` timer. Both bounds are wall-clock, far under
//! that timer and far over anything but a lost wake-up. (How many
//! releases the hand-over takes is counted exactly on the simulator,
//! in `asl-sim`'s `tests/gcr.rs`.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use asl_locks::api::{DynLock, Guard};
use asl_locks::gcr::{Gcr, GcrConfig, PASSIVE_RESCUE_BOUND};
use asl_locks::plain::PlainLock;
use asl_locks::{McsLock, RawLock, RawTimedLock, TasLock, TicketLock};

const WAITERS: usize = 3;

/// The two tests that bound a wait in wall-clock time need the CPUs to
/// themselves (a dozen spinning threads of the panic tests on two CPUs
/// stretch a hand-over past any bound): they hold this for writing,
/// every other test for reading.
static HOST: RwLock<()> = RwLock::new(());

fn sharing_the_host() -> RwLockReadGuard<'static, ()> {
    HOST.read().unwrap_or_else(PoisonError::into_inner)
}

fn alone_on_the_host() -> RwLockWriteGuard<'static, ()> {
    HOST.write().unwrap_or_else(PoisonError::into_inner)
}

/// Scenario A: the sole admitted holder (K = 1) panics while every
/// other thread is parked passive. The unwind must release the inner
/// lock AND the admission slot, waking the passive set; otherwise the
/// waiters park forever and the join below wedges.
fn holder_panic_frees_admission<L>(lock: Arc<Gcr<L>>, name: &str)
where
    L: RawLock + Send + Sync + 'static,
{
    let _host = sharing_the_host();
    assert_eq!(lock.limit(), 1, "{name}: scenario needs K=1");
    drop(Guard::new(&*lock)); // pre-panic sanity op

    let counter = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(Barrier::new(WAITERS + 1));
    let joins: Vec<_> = (0..WAITERS)
        .map(|_| {
            let (lock, counter, ready) = (lock.clone(), counter.clone(), ready.clone());
            std::thread::spawn(move || {
                ready.wait();
                let _g = Guard::new(&*lock);
                counter.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();

    let boom = catch_unwind(AssertUnwindSafe(|| {
        let _g = Guard::new(&*lock);
        ready.wait();
        // Panic only once every waiter is parked passive, so the
        // unwind release is the only thing that can wake them.
        let deadline = Instant::now() + Duration::from_secs(20);
        while lock.passive_len() < WAITERS as u32 {
            assert!(
                Instant::now() < deadline,
                "{name}: waiters never went passive"
            );
            std::thread::yield_now();
        }
        panic!("poisoned critical section");
    }));
    assert!(boom.is_err(), "{name}: poisoned CS must panic");

    for j in joins {
        j.join().expect("waiter");
    }
    assert_eq!(
        counter.load(Ordering::Relaxed),
        WAITERS as u64,
        "{name}: a passive waiter was lost after the panic"
    );
    assert_eq!(lock.active(), 0, "{name}: admission slot leaked");
    assert_eq!(lock.passive_len(), 0, "{name}: passive node leaked");

    // A thread that never saw the panic still gets in.
    let fresh = {
        let lock = lock.clone();
        std::thread::spawn(move || drop(Guard::new(&*lock)))
    };
    fresh.join().expect("fresh thread");
}

/// Scenario B: threads that waited passively panic inside their
/// critical section and then keep going. With K = 1 and a short
/// reintroduction period almost every acquisition follows a passive
/// park, so the poisoned ops exercise the park → grant → panic path.
fn passive_survivor_panics_and_recovers<L>(lock: Arc<Gcr<L>>, name: &str)
where
    L: RawLock + Send + Sync + 'static,
{
    const THREADS: usize = 4;
    const OPS: u64 = 40;
    const POISON: u64 = 20;

    let _host = sharing_the_host();
    let counter = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..THREADS)
        .map(|_| {
            let (lock, counter) = (lock.clone(), counter.clone());
            std::thread::spawn(move || {
                for op in 0..OPS {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let _g = Guard::new(&*lock);
                        if op == POISON {
                            panic!("poisoned op");
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                    }));
                    assert_eq!(r.is_err(), op == POISON, "panic at the wrong op");
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("worker");
    }
    assert_eq!(
        counter.load(Ordering::Relaxed),
        THREADS as u64 * (OPS - 1),
        "{name}: ops lost around the panics"
    );
    assert_eq!(lock.active(), 0, "{name}: admission slot leaked");
    assert_eq!(lock.passive_len(), 0, "{name}: passive node leaked");
    // K = 1: forced reintroduction may overlap one extra admission,
    // never more — panics must not have widened the gate.
    assert!(
        lock.peak_active() <= 2,
        "{name}: K+1 bound broken: peak={}",
        lock.peak_active()
    );
}

fn k1<L: RawLock>(inner: L) -> Arc<Gcr<L>> {
    Arc::new(Gcr::with_config(
        inner,
        GcrConfig {
            reintroduce_period: 4,
            ..GcrConfig::fixed(1)
        },
    ))
}

#[test]
fn holder_panic_does_not_wedge_gcr_tas() {
    holder_panic_frees_admission(k1(TasLock::new()), "gcr-tas");
}

#[test]
fn holder_panic_does_not_wedge_gcr_ticket() {
    holder_panic_frees_admission(k1(TicketLock::new()), "gcr-ticket");
}

#[test]
fn holder_panic_does_not_wedge_gcr_mcs() {
    holder_panic_frees_admission(k1(McsLock::new()), "gcr-mcs");
}

#[test]
fn passive_panic_recovers_gcr_tas() {
    passive_survivor_panics_and_recovers(k1(TasLock::new()), "gcr-tas");
}

#[test]
fn passive_panic_recovers_gcr_ticket() {
    passive_survivor_panics_and_recovers(k1(TicketLock::new()), "gcr-ticket");
}

#[test]
fn passive_panic_recovers_gcr_mcs() {
    passive_survivor_panics_and_recovers(k1(McsLock::new()), "gcr-mcs");
}

/// The erased form used by the registry (`gcr-<name>` specs) is the
/// same wrapper over a [`DynLock`], driven here through `PlainLock`
/// the way the harness drives it.
fn plain_k1() -> Arc<Gcr<DynLock>> {
    Arc::new(Gcr::with_config(
        DynLock::of(McsLock::new()),
        GcrConfig {
            reintroduce_period: 4,
            ..GcrConfig::fixed(1)
        },
    ))
}

#[test]
fn holder_panic_does_not_wedge_gcr_plain() {
    let _host = sharing_the_host();
    let gcr = plain_k1();
    let dl = DynLock::new(gcr.clone() as Arc<dyn PlainLock>);
    drop(dl.lock()); // pre-panic sanity op

    let counter = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(Barrier::new(WAITERS + 1));
    let joins: Vec<_> = (0..WAITERS)
        .map(|_| {
            let (gcr, counter, ready) = (gcr.clone(), counter.clone(), ready.clone());
            std::thread::spawn(move || {
                ready.wait();
                let dl = DynLock::new(gcr as Arc<dyn PlainLock>);
                let _g = dl.lock();
                counter.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();

    let boom = catch_unwind(AssertUnwindSafe(|| {
        let _g = dl.lock();
        ready.wait();
        let deadline = Instant::now() + Duration::from_secs(20);
        while gcr.passive_len() < WAITERS as u32 {
            assert!(
                Instant::now() < deadline,
                "gcr-plain: waiters never went passive"
            );
            std::thread::yield_now();
        }
        panic!("poisoned critical section");
    }));
    assert!(boom.is_err(), "gcr-plain: poisoned CS must panic");

    for j in joins {
        j.join().expect("waiter");
    }
    assert_eq!(counter.load(Ordering::Relaxed), WAITERS as u64);
    assert_eq!(gcr.active(), 0, "gcr-plain: admission slot leaked");
    assert_eq!(gcr.passive_len(), 0, "gcr-plain: passive node leaked");
    drop(dl.lock()); // still usable after the panic
}

#[test]
fn passive_panic_recovers_gcr_plain() {
    let _host = sharing_the_host();
    const THREADS: usize = 4;
    const OPS: u64 = 40;
    const POISON: u64 = 20;

    let gcr = plain_k1();
    let counter = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..THREADS)
        .map(|_| {
            let (gcr, counter) = (gcr.clone(), counter.clone());
            std::thread::spawn(move || {
                let dl = DynLock::new(gcr as Arc<dyn PlainLock>);
                for op in 0..OPS {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let _g = dl.lock();
                        if op == POISON {
                            panic!("poisoned op");
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                    }));
                    assert_eq!(r.is_err(), op == POISON, "panic at the wrong op");
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("worker");
    }
    assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * (OPS - 1));
    assert_eq!(gcr.active(), 0, "gcr-plain: admission slot leaked");
    assert_eq!(gcr.passive_len(), 0, "gcr-plain: passive node leaked");
    assert!(gcr.peak_active() <= 2, "gcr-plain: K+1 bound broken");
}

/// What a wait may take before it can only have been ended by the
/// passive waiter's own timer.
const PROMPT: Duration = Duration::from_millis(40);
const _: () = assert!(PROMPT.as_millis() < PASSIVE_RESCUE_BOUND.as_millis());

/// Passive publishers race a holder that keeps disengaging. K = 1 and
/// a two-acquisition controller window: every window the holder closes
/// alone disengages the gate, every streak of arrivals re-engages it,
/// and an arrival that finds the one slot taken publishes itself —
/// possibly just as the holder lets go. A waiter that parked on the
/// wrong side of that switch would sit there until its 50 ms timer
/// (the holder of a disengaged gate never calls `exit`), so every wait
/// has to end well inside that. The window is a few instructions wide,
/// so this only shows the switch is survivable under load; each half
/// of the pair is proved, in either order, by the unit test
/// `gcr::tests::disengaging_and_publishing_see_each_other`.
#[test]
fn publishers_racing_a_disengaging_holder_are_never_stranded() {
    const PUBLISHERS: usize = 2;
    const ARRIVALS: usize = 1_500;
    let _host = alone_on_the_host();
    let lock = Arc::new(Gcr::with_config(
        McsLock::new(),
        GcrConfig {
            initial_limit: 1,
            min_limit: 1,
            max_limit: 1,
            ctl_period: 2,
            // Every exit past a parked waiter admits it: a wait that
            // is not stranded lasts one holder cycle.
            reintroduce_period: 1,
        },
    ));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let holder = {
        let (lock, stop) = (lock.clone(), stop.clone());
        std::thread::spawn(move || {
            // Switches of the gate and parked waiters, as sampled
            // once per cycle: that the race is on at all.
            let (mut switches, mut parked, mut was) = (0u64, 0u64, lock.engaged());
            while !stop.load(Ordering::Relaxed) {
                drop(Guard::new(&*lock));
                let now = lock.engaged();
                switches += u64::from(now != was);
                parked += u64::from(lock.passive_len() > 0);
                was = now;
            }
            (switches, parked)
        })
    };
    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|_| {
            let lock = lock.clone();
            std::thread::spawn(move || {
                let mut worst = Duration::ZERO;
                for i in 0..ARRIVALS {
                    let arrived = Instant::now();
                    let held = Guard::new(&*lock);
                    worst = worst.max(arrived.elapsed());
                    drop(held);
                    // Arrive in bursts: a streak engages, a gap lets
                    // the holder disengage.
                    if i % 8 == 7 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                worst
            })
        })
        .collect();
    let worst = publishers
        .into_iter()
        .map(|p| p.join().expect("publisher"))
        .max()
        .expect("publishers ran");
    stop.store(true, Ordering::Relaxed);
    let (switches, parked) = holder.join().expect("holder");
    assert!(
        worst < PROMPT,
        "a waiter sat {worst:?}: stranded behind a disengaged gate?"
    );
    assert!(
        switches >= 4 && parked >= 1,
        "no race to speak of: {switches} switches, {parked} parked waiters seen"
    );
    assert_eq!(lock.active(), 0, "admission count out of balance");
    assert_eq!(lock.passive_len(), 0, "passive node leaked");
}

/// A slot abandoned by a departing thread reaches a parked waiter
/// through a releaser's wake-up. K = 2: B holds, A is admitted behind
/// it, C finds the gate full and parks. B leaves for good. From then
/// on every release of A sees a slot besides its own free with C
/// parked, and the `SPARE_STREAK`-th unparks C: 2.4 ms of A's cycles
/// on the reference host. A lost wake-up leaves C to its own 50 ms
/// timer, so C must hold the lock within `WOKEN`. Only the time is
/// checked; the count of releases is exact on the simulator.
#[test]
fn a_releaser_wakes_the_waiter_an_abandoned_slot_is_for() {
    const WOKEN: Duration = Duration::from_millis(10);
    let _host = alone_on_the_host();
    let lock = Arc::new(Gcr::with_config(
        McsLock::new(),
        GcrConfig {
            // No fairness pulse: only the hand-over can admit C.
            reintroduce_period: u32::MAX,
            ..GcrConfig::fixed(2)
        },
    ));
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "never saw: {what}");
            std::thread::yield_now();
        }
    };
    let c_done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let b_hold = lock.lock();
    let a = {
        let (lock, c_done) = (lock.clone(), c_done.clone());
        std::thread::spawn(move || {
            while !c_done.load(Ordering::Relaxed) {
                drop(Guard::new(&*lock));
                // "Cycles slowly": the lock is free most of the time.
                std::thread::sleep(Duration::from_micros(100));
            }
        })
    };
    wait_for("A admitted behind B", &|| lock.active() == 2);
    let c = {
        let (lock, c_done) = (lock.clone(), c_done.clone());
        std::thread::spawn(move || {
            drop(Guard::new(&*lock));
            let c_in = Instant::now();
            c_done.store(true, Ordering::Relaxed);
            c_in
        })
    };
    wait_for("C parked", &|| lock.passive_len() == 1);
    lock.unlock(b_hold);
    let b_left = Instant::now();

    let waited = c.join().expect("C").duration_since(b_left);
    a.join().expect("A");
    assert!(waited < WOKEN, "C waited {waited:?}: no releaser woke it");
    assert_eq!((lock.active(), lock.passive_len()), (0, 0));
    assert!(lock.peak_active() <= 2, "hand-over admitted over K");
}

/// The timed acquire lives on the static type: `Gcr<McsLock>` backs
/// out of a wait at its deadline, which the erased `Gcr<DynLock>` the
/// registry builds for `gcr-mcs` cannot (`DynLock` is no
/// `RawTimedLock`; the registry row says "static type only").
#[test]
fn a_static_gcr_mcs_times_out_on_a_held_lock() {
    let lock = Gcr::new(McsLock::new());
    let held = lock.lock();
    assert!(
        lock.try_lock_for(1_000_000).is_none(),
        "held: must time out"
    );
    lock.unlock(held);
    assert!(lock.try_lock_for(1_000_000).is_some(), "free: must acquire");
}
