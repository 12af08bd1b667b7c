//! GCR panic hygiene: a waiter panicking while admitted — or after
//! having waited passively — must never wedge admission. Mirrors the
//! delegation-family panic tests: the panic surfaces at the panicking
//! thread's call site, and afterwards both the surviving waiters and
//! a fresh thread keep completing critical sections.
//!
//! The load-bearing property is slot accounting: the unwind path runs
//! the guard's `unlock`, which ticks the controller, releases the
//! inner lock, and exits the gate — so a poisoned critical section
//! hands its admission slot (and any due wakeup) to the passive set
//! exactly like a clean one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use asl_locks::api::{DynLock, GuardedLock};
use asl_locks::gcr::{Gcr, GcrConfig};
use asl_locks::plain::PlainLock;
use asl_locks::{McsLock, RawLock, TasLock, TicketLock};

const WAITERS: usize = 3;

/// Scenario A: the sole admitted holder (K = 1) panics while every
/// other thread is parked passive. The unwind must release the inner
/// lock AND the admission slot, waking the passive set; otherwise the
/// waiters park forever and the join below wedges.
fn holder_panic_frees_admission<L>(lock: Arc<Gcr<L>>, name: &str)
where
    L: RawLock + Send + Sync + 'static,
{
    assert_eq!(lock.limit(), 1, "{name}: scenario needs K=1");
    drop(lock.guard()); // pre-panic sanity op

    let counter = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(Barrier::new(WAITERS + 1));
    let joins: Vec<_> = (0..WAITERS)
        .map(|_| {
            let (lock, counter, ready) = (lock.clone(), counter.clone(), ready.clone());
            std::thread::spawn(move || {
                ready.wait();
                let _g = lock.guard();
                counter.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();

    let boom = catch_unwind(AssertUnwindSafe(|| {
        let _g = lock.guard();
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
        std::thread::spawn(move || drop(lock.guard()))
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

    let counter = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..THREADS)
        .map(|_| {
            let (lock, counter) = (lock.clone(), counter.clone());
            std::thread::spawn(move || {
                for op in 0..OPS {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let _g = lock.guard();
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
