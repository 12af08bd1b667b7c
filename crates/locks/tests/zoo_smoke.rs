//! Smoke test: every lock in the zoo, driven through the guard-based
//! dynamic wrapper ([`asl_locks::api::DynLock`]), must provide mutual
//! exclusion — 4 threads × 10 000 increments of a non-atomic counter,
//! so any exclusion failure shows up as a lost update.

use std::cell::UnsafeCell;
use std::sync::Arc;

use asl_locks::api::DynLock;
use asl_locks::shuffle::{ClassLocalPolicy, FifoPolicy, PreferBigPolicy, ProportionalPolicy};
use asl_locks::{
    BackoffLock, ClhLock, CnaLock, CohortLock, FissileLock, FlatCombiner, MalthusianLock, McsLock,
    McsStpLock, ProportionalLock, PthreadMutex, ShuffleLock, TasLock, TicketLock,
};
use asl_runtime::registry::{register_on_core, unregister};
use asl_runtime::topology::{CoreId, Topology};

const THREADS: usize = 4;
const ITERS: u64 = 10_000;

/// Non-atomic counter: only mutual exclusion keeps it race-free.
struct RacyCounter(UnsafeCell<u64>);
// SAFETY: accessed only under the lock under test.
unsafe impl Sync for RacyCounter {}
unsafe impl Send for RacyCounter {}

fn hammer(name: &str, lock: DynLock) {
    let counter = Arc::new(RacyCounter(UnsafeCell::new(0)));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let lock = lock.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let _held = lock.lock();
                    // SAFETY: we hold the lock under test.
                    unsafe { *counter.0.get() += 1 };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = unsafe { *counter.0.get() };
    assert_eq!(total, THREADS as u64 * ITERS, "{name}: lost updates");
    assert!(!lock.is_locked(), "{name}: left held");
}

#[test]
fn zoo_mutual_exclusion_through_dyn_guards() {
    let zoo: Vec<(&str, DynLock)> = vec![
        ("tas", DynLock::of(TasLock::new())),
        ("ticket", DynLock::of(TicketLock::new())),
        ("backoff", DynLock::of(BackoffLock::new())),
        ("mcs", DynLock::of(McsLock::new())),
        ("clh", DynLock::of(ClhLock::new())),
        ("cna", DynLock::of(CnaLock::new())),
        ("cohort", DynLock::of(CohortLock::new())),
        ("shuffle-fifo", DynLock::of(ShuffleLock::new(FifoPolicy))),
        (
            "shuffle-classlocal",
            DynLock::of(ShuffleLock::new(ClassLocalPolicy::new(16))),
        ),
        ("proportional", DynLock::of(ProportionalLock::new(10))),
        ("malthusian", DynLock::of(MalthusianLock::new())),
        ("adaptive", DynLock::of(FissileLock::new())),
        // Blocking pair: the glibc-style mutex (futex-backed on
        // Linux, spin-then-yield elsewhere) and spin-then-park MCS.
        ("pthread", DynLock::of(PthreadMutex::new())),
        ("mcs-stp", DynLock::of(McsStpLock::new())),
    ];
    for (name, lock) in zoo {
        hammer(name, lock);
    }
}

/// Four big and four little threads, registered on the modeled M1,
/// under the shuffle policies that read the class: every thread
/// finishes its rounds (a bounded skip, a due little grant), and none
/// is lost.
#[test]
fn shuffle_policies_with_mixed_classes_terminate() {
    let topo = Topology::apple_m1();
    let shuffles = [
        DynLock::of(ShuffleLock::new(PreferBigPolicy::new(16))),
        DynLock::of(ShuffleLock::new(ProportionalPolicy::new(10))),
    ];
    for lock in shuffles {
        let counter = RacyCounter(UnsafeCell::new(0));
        std::thread::scope(|s| {
            for core in 0..8 {
                let (lock, topo, counter) = (lock.clone(), &topo, &counter);
                s.spawn(move || {
                    register_on_core(topo, CoreId(core));
                    for _ in 0..ITERS {
                        let _held = lock.lock();
                        // SAFETY: we hold the lock under test.
                        unsafe { *counter.0.get() += 1 };
                    }
                    unregister();
                });
            }
        });
        assert_eq!(unsafe { *counter.0.get() }, 8 * ITERS, "lost updates");
        assert!(!lock.is_locked(), "left held");
    }
}

#[test]
#[cfg(target_os = "linux")]
fn zoo_futex_path_mutual_exclusion() {
    // Zero optimistic spins forces every contended acquisition down
    // the futex wait/wake path.
    hammer(
        "pthread-futex-only",
        DynLock::of(PthreadMutex::with_spin(0)),
    );
}

#[test]
fn zoo_flat_combining_counts_correctly() {
    // Flat combining is the zoo's delegation member; its "critical
    // section" is an applied operation rather than a held lock, so it
    // is exercised through its own API: same 4×10k increments, same
    // lost-update check.
    let fc = Arc::new(FlatCombiner::new(0u64, |acc: &mut u64, _op: ()| {
        *acc += 1;
        *acc
    }));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let handle = fc.register();
            std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..ITERS {
                    last = handle.apply(());
                }
                last
            })
        })
        .collect();
    let mut max_seen = 0;
    for h in handles {
        max_seen = max_seen.max(h.join().unwrap());
    }
    assert_eq!(max_seen, THREADS as u64 * ITERS, "flatcomb: lost updates");
}
