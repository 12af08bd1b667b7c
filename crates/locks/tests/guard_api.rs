//! Guard-semantics tests for the RAII lock API:
//!
//! * a panic inside a critical section releases the lock on unwind
//!   (no poisoning — the next acquisition succeeds normally);
//! * dropping a `try_lock` guard releases;
//! * guards compose with every interface level (raw, generic mutex,
//!   dynamic wrapper);
//! * (debug builds) a token released against the wrong lock panics on
//!   the ownership check instead of corrupting queue nodes — also when
//!   the lock is a wrapper over an erased lock, erased again.

use std::sync::Arc;

use asl_locks::api::{DynLock, DynMutex, Guard, Mutex};
use asl_locks::{ClhLock, McsLock, RawLock, TicketLock};

#[test]
fn panic_in_critical_section_releases_static_mutex() {
    let m = Arc::new(Mutex::<u64, McsLock>::new(0));
    let m2 = m.clone();
    let joined = std::thread::spawn(move || {
        let mut g = m2.lock();
        *g += 1;
        panic!("unwind with the lock held");
    })
    .join();
    assert!(joined.is_err());
    // No poisoning: the unwinding thread's guard released the lock.
    assert!(!m.is_locked());
    let g = m.try_lock().expect("lock must be free after the panic");
    assert_eq!(*g, 1);
}

#[test]
fn panic_in_critical_section_releases_dyn_mutex() {
    let m = Arc::new(DynMutex::with_lock(
        vec![1u64],
        DynLock::of(TicketLock::new()),
    ));
    let m2 = m.clone();
    let joined = std::thread::spawn(move || {
        m2.lock().push(2);
        panic!("unwind with the dyn lock held");
    })
    .join();
    assert!(joined.is_err());
    assert!(!m.is_locked());
    assert_eq!(&*m.lock(), &[1, 2]);
}

#[test]
fn try_lock_guard_drop_releases() {
    let m = Mutex::<(), ClhLock>::new(());
    let g = m.try_lock().expect("uncontended try_lock succeeds");
    assert!(m.is_locked());
    assert!(
        m.try_lock().is_none(),
        "second try_lock must fail while held"
    );
    drop(g);
    assert!(!m.is_locked());
    assert!(m.try_lock().is_some(), "released by guard drop");

    let d = DynLock::of(McsLock::new());
    let g = d.try_lock().expect("uncontended dyn try_lock succeeds");
    assert!(d.try_lock().is_none());
    drop(g);
    assert!(!d.is_locked());
}

#[test]
fn raw_guard_over_any_raw_lock() {
    fn roundtrip<L: RawLock + Default>() {
        let lock = L::default();
        {
            let _g = Guard::new(&lock);
            assert!(lock.is_locked());
            assert!(Guard::try_new(&lock).is_none());
        }
        assert!(!lock.is_locked());
    }
    roundtrip::<McsLock>();
    roundtrip::<ClhLock>();
    roundtrip::<TicketLock>();
}

#[test]
fn guard_explicit_unlock() {
    let lock = McsLock::new();
    Guard::new(&lock).unlock(); // immediate explicit release
    assert!(!lock.is_locked());
}

#[test]
fn contended_guards_provide_mutual_exclusion() {
    let m = Arc::new(Mutex::<u64, McsLock>::new(0));
    let mut handles = vec![];
    for _ in 0..4 {
        let m = m.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..10_000 {
                *m.lock() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*m.lock(), 40_000);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "did not issue")]
fn cross_lock_release_panics_in_debug_builds() {
    use asl_locks::plain::PlainLock;
    let a = McsLock::new();
    let b = McsLock::new();
    let token = a.acquire();
    // Releasing a's token against b is the bug class the old API
    // allowed; the debug ownership tag catches it before any queue
    // damage.
    b.release(token);
}

/// `wrap` builds a pass-through-token wrapper over the erased handle
/// and the result is erased again (what `gcr-<name>` and
/// `instrumented-<name>` registry specs are). The token a caller
/// holds is still the innermost lock's, so handing it to a *second*
/// such stack must trip that stack's innermost ownership check —
/// after passing through both wrappers' release paths.
#[cfg(debug_assertions)]
fn cross_release_through<W>(wrap: impl Fn(DynLock) -> W)
where
    W: asl_locks::plain::PlainLock + 'static,
{
    use asl_locks::plain::PlainLock;
    let a: Arc<dyn PlainLock> = Arc::new(wrap(DynLock::of(McsLock::new())));
    let b: Arc<dyn PlainLock> = Arc::new(wrap(DynLock::of(McsLock::new())));
    // The right way round works, repeatedly.
    for lock in [&a, &b] {
        let token = lock.acquire();
        lock.release(token);
        assert!(!lock.held());
    }
    let token = a.acquire();
    b.release(token);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "did not issue")]
fn cross_lock_release_panics_through_erased_gcr() {
    cross_release_through(asl_locks::Gcr::new);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "did not issue")]
fn cross_lock_release_panics_through_erased_instrumented() {
    cross_release_through(asl_locks::Instrumented::new);
}
