//! The per-thread node pool, through the queue locks that draw on it.
//!
//! A thread that holds several locks of one kind at once takes the
//! pool's slot node first and overflow nodes after; the nodes come back
//! in whatever order the locks are released, and every one handed out
//! again must be idle (debug builds assert it in the pool). `QueueLock`
//! (`McsLock` and its head policies) is the exception that proves the
//! pool: its holder owns a word, not a node, so nesting it takes
//! nothing and only a *wait* draws a node —
//! one, whatever the thread holds — which is pooled again at the
//! headship pass, by the waiter or by the head that adopts it (the
//! exact counts are `mcs`'s unit tests', which can see the pool). The
//! contended paths — hand-off, timed abandon and adoption — are driven
//! in debug by the unit suites (`timed`, the crate's `hammer`s) and by
//! `zoo_smoke`.

use asl_locks::shuffle::FifoPolicy;
use asl_locks::{
    ClhLock, CnaLock, CohortLock, MalthusianLock, McsLock, McsStpLock, RawLock, RawTimedLock,
    ShuffleLock,
};

/// Three locks of one kind held at once, released out of order, then
/// 10 000 uncontended rounds on each of them in turn.
fn nested_out_of_order<L: RawLock>(make: impl Fn() -> L) {
    let (a, b, c) = (make(), make(), make());
    let (ta, tb, tc) = (a.lock(), b.lock(), c.lock());
    assert!(a.is_locked() && b.is_locked() && c.is_locked());
    a.unlock(ta);
    c.unlock(tc);
    b.unlock(tb);
    assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
    for round in 0..10_000 {
        let lock = [&a, &b, &c][round % 3];
        let t = lock.lock();
        assert!(lock.is_locked());
        lock.unlock(t);
    }
    // Nested again: slot and overflow both hand out recycled nodes.
    let (tc, ta) = (c.lock(), a.try_lock().expect("free"));
    c.unlock(tc);
    a.unlock(ta);
    assert!(!a.is_locked() && !c.is_locked());
}

#[test]
fn every_queue_lock_nests_and_recycles() {
    nested_out_of_order(McsLock::new);
    nested_out_of_order(ClhLock::new);
    nested_out_of_order(McsStpLock::new);
    nested_out_of_order(CnaLock::new);
    nested_out_of_order(CohortLock::new);
    nested_out_of_order(MalthusianLock::new);
    nested_out_of_order(|| ShuffleLock::new(FifoPolicy));
}

/// A timed waiter that gives up mid-queue leaves its node queued; the
/// head in front of it adopts the node — into its own pool — when it
/// takes the word and passes headship, closing the queue behind it.
/// (Were the abandoner scheduled ahead of the waiter it would time out
/// as head and pool its node itself: the other half of the invariant.
/// `mcs`'s unit tests take the adopted node out again and count.)
#[test]
fn an_adopted_node_comes_back_idle() {
    let lock = McsLock::new();
    let queued = std::time::Duration::from_millis(20);
    std::thread::scope(|s| {
        let held = lock.lock();
        let head = s.spawn(|| {
            let t = lock.lock();
            lock.unlock(t);
            nested_out_of_order(McsLock::new);
        });
        std::thread::sleep(queued);
        let abandoner = s.spawn(|| assert!(lock.try_lock_for(2_000_000).is_none()));
        abandoner.join().expect("abandoner");
        lock.unlock(held);
        head.join().expect("head");
    });
    assert!(!lock.is_locked());
    nested_out_of_order(McsLock::new);
}

/// Readers in `try_lock` / `is_locked` against threads that lock,
/// unlock and exit: the node a reader's tail load named can be pooled,
/// retired with its thread and handed to the next one before the reader
/// looks at it. CLH keeps that memory a node (stale answers only, which
/// `try_lock` re-checks once queued); the MCS family never looks behind
/// a tail. A `try_lock` that succeeds holds the lock alone.
fn readers_race_exiting_threads<L: RawLock + Sync>(lock: L) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let (inside, done, held) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicUsize::new(0),
    );
    let critical = || {
        assert!(!inside.swap(true, Ordering::Acquire), "two holders");
        held.fetch_add(1, Ordering::Relaxed);
        inside.store(false, Ordering::Release);
    };
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::hint::black_box(lock.is_locked());
                    if let Some(token) = lock.try_lock() {
                        critical();
                        lock.unlock(token);
                    }
                }
            });
        }
        for _ in 0..300 {
            let exiting = s.spawn(|| {
                for _ in 0..2 {
                    let token = lock.lock();
                    critical();
                    lock.unlock(token);
                }
            });
            exiting.join().expect("locker");
        }
        done.store(true, Ordering::Relaxed);
    });
    assert!(held.load(Ordering::Relaxed) >= 600);
    assert!(!lock.is_locked());
}

#[test]
fn try_lock_and_is_locked_survive_thread_churn() {
    readers_race_exiting_threads(ClhLock::new());
    readers_race_exiting_threads(McsLock::new());
}
