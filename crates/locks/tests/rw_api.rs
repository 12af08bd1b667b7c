//! Reader-writer API invariants, proptest-driven across every rw
//! substrate:
//!
//! * readers never overlap a writer; writers are mutually exclusive;
//! * `try_read`/`try_lock` guards release on drop;
//! * a panic inside a read section releases without poisoning;
//! * (debug builds) cross-lock release is caught by the token
//!   ownership tags (cross-*mode* release does not compile: the
//!   `compile_fail` doctest on `PlainRwLock`).
//!
//! Concurrency assertions are scheduling-independent (pure mutual
//! exclusion); the reader-overlap observation, which needs real
//! parallelism, is gated on `affinity::oversubscribed`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use asl_locks::api::{DynRwLock, DynRwMutex, Guard, Mutex, ReadGuard};
use asl_locks::plain::PlainRwLock;
use asl_locks::{Bravo, McsLock, RwTicketLock, TasLock, TicketLock};
use proptest::prelude::*;

/// Hammer `lock` from several threads with a read-mostly mix and
/// assert the rwlock invariant inside every critical section:
/// a held writer implies no other holder at all.
fn check_invariants(
    lock: Arc<dyn PlainRwLock>,
    threads: u64,
    iters: u64,
    write_pct: u64,
    seed: u64,
) {
    let readers = Arc::new(AtomicU32::new(0));
    let writers = Arc::new(AtomicU32::new(0));
    let max_readers = Arc::new(AtomicU32::new(0));
    let mut handles = vec![];
    for t in 0..threads {
        let lock = lock.clone();
        let readers = readers.clone();
        let writers = writers.clone();
        let max_readers = max_readers.clone();
        handles.push(std::thread::spawn(move || {
            // Cheap xorshift so the schedule depends on the proptest
            // inputs but needs no RNG plumbing.
            let mut x = seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..iters {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 100 < write_pct {
                    let tok = lock.acquire();
                    let w = writers.fetch_add(1, Ordering::SeqCst);
                    let r = readers.load(Ordering::SeqCst);
                    assert_eq!(w, 0, "two writers in the critical section");
                    assert_eq!(r, 0, "reader overlaps a writer");
                    writers.fetch_sub(1, Ordering::SeqCst);
                    lock.release(tok);
                } else {
                    let tok = lock.acquire_read();
                    let r = readers.fetch_add(1, Ordering::SeqCst) + 1;
                    let w = writers.load(Ordering::SeqCst);
                    assert_eq!(w, 0, "writer overlaps a reader");
                    max_readers.fetch_max(r, Ordering::SeqCst);
                    readers.fetch_sub(1, Ordering::SeqCst);
                    lock.release_read(tok);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(!lock.held(), "all tokens released");
    // Reader *overlap* is a scheduling property, not a correctness
    // one, and on a small host the OS may serialize readers. The
    // exact, ungated version of that assertion lives in the simulator
    // (`crates/sim/tests/ungated.rs`,
    // `read_only_run_overlaps_readers_exactly`), where parallelism is
    // a modeling fact.
}

fn substrates() -> Vec<(&'static str, Arc<dyn PlainRwLock>)> {
    vec![
        ("rw-ticket", Arc::new(RwTicketLock::new())),
        ("bravo-mcs", Arc::new(Bravo::new(McsLock::new()))),
        ("bravo-tas", Arc::new(Bravo::new(TasLock::new()))),
        ("bravo-ticket", Arc::new(Bravo::new(TicketLock::new()))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Readers never overlap a writer and writers are exclusive, for
    /// every substrate, across randomized schedules and mixes.
    #[test]
    fn rw_mutual_exclusion_invariants(
        seed in 0u64..1_000_000,
        write_pct in 0u64..60,
        iters in 200u64..600,
    ) {
        for (name, lock) in substrates() {
            let _ = name;
            check_invariants(lock, 3, iters, write_pct, seed);
        }
    }
}

#[test]
fn try_guards_release_on_drop() {
    for (name, lock) in substrates() {
        let lock = DynRwLock::new(lock);
        {
            let r = lock
                .try_read()
                .unwrap_or_else(|| panic!("{name}: free try_read"));
            assert!(lock.try_lock().is_none(), "{name}: reader blocks try_lock");
            drop(r);
        }
        {
            let w = lock
                .try_lock()
                .unwrap_or_else(|| panic!("{name}: free try_lock"));
            assert!(lock.try_read().is_none(), "{name}: writer blocks try_read");
            assert!(lock.try_lock().is_none(), "{name}: writer blocks try_lock");
            drop(w);
        }
        assert!(!lock.is_locked(), "{name}: try guards released on drop");
    }
}

#[test]
fn panic_in_read_section_releases_without_poisoning() {
    let m = Arc::new(DynRwMutex::with_lock(
        vec![1u64],
        DynRwLock::new(Arc::new(RwTicketLock::new())),
    ));
    let m2 = m.clone();
    let joined = std::thread::spawn(move || {
        let g = m2.read();
        assert_eq!(g[0], 1);
        panic!("unwind with a read guard held");
    })
    .join();
    assert!(joined.is_err());
    // No poisoning: both modes acquire normally afterwards.
    assert!(!m.is_locked());
    m.lock().push(2);
    assert_eq!(&*m.read(), &[1, 2]);
}

#[test]
fn panic_in_write_section_releases_static_rwlock() {
    let m = Arc::new(Mutex::<u64, RwTicketLock>::new(0));
    let m2 = m.clone();
    let joined = std::thread::spawn(move || {
        *m2.lock() += 1;
        panic!("unwind with a write guard held");
    })
    .join();
    assert!(joined.is_err());
    assert!(!m.is_locked());
    assert_eq!(*m.read(), 1);
}

#[test]
fn raw_rw_guards_compose_over_every_substrate() {
    fn roundtrip<L: asl_locks::RawRwLock>(lock: L) {
        {
            let _r = ReadGuard::new(&lock);
            let _r2 =
                ReadGuard::try_new(&lock).expect("reads overlap or serialize, never fail free");
            assert!(Guard::try_new(&lock).is_none());
        }
        {
            let _w = Guard::new(&lock);
            assert!(ReadGuard::try_new(&lock).is_none());
        }
        assert!(!lock.is_locked());
    }
    roundtrip(RwTicketLock::new());
    roundtrip(Bravo::new(McsLock::new()));
    roundtrip(Bravo::new(TicketLock::new()));
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "did not issue")]
fn cross_lock_release_is_caught_in_debug_builds() {
    let a = RwTicketLock::new();
    let b = RwTicketLock::new();
    let t = a.acquire_read();
    b.release_read(t); // ownership check fires before any state damage
}
