//! Node-pool hygiene: what the queue locks allocate, and what they give
//! back.
//!
//! Queue nodes come from one per-thread pool (`asl_locks`' `pool`
//! module). Two promises ride on it: a warmed-up thread allocates
//! nothing on any rung of the uncontended acquire ladder (the
//! `host-acquire` benchmark's nine), and a thread that exits returns
//! the nodes it pooled — a program that spawns short-lived threads does
//! not grow by a node per thread per kind of lock. Three kinds free
//! theirs — the one node of every `QueueLock` (`mcs`, `cna`,
//! `malthusian`, shuffle), cohort's and `mcs-stp`'s; a CLH node is
//! never freed (`try_lock` and `is_locked` may still be looking at it)
//! and goes to the next thread instead.

use std::sync::Mutex;

use libasl::harness::locks::LockSpec;
use libasl::locks::api::Guard;
use libasl::locks::plain::TokenWords;
use libasl::locks::shuffle::FifoPolicy;
use libasl::locks::{
    telemetry, ClhLock, CnaLock, CohortLock, MalthusianLock, McsLock, McsStpLock, RawLock,
    RawTimedLock, ShuffleLock,
};
use libasl::{epoch, DynLock};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{
    allocations, track_this_thread, tracked_net_bytes, watch, watched_block_was_freed,
};

#[global_allocator]
static ALLOCATOR: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// The byte tally and the profiling switch are process-wide: one test
/// at a time.
static ALONE: Mutex<()> = Mutex::new(());

fn dyn_lock(name: &str) -> DynLock {
    let spec: LockSpec = name.parse().expect("a registry name");
    spec.make_dyn()
}

/// One warm-up round (the thread's first node of each kind), then
/// 10 000 rounds that must not allocate.
fn allocates_nothing_once_warm(name: &str, rung: impl Fn()) {
    const ROUNDS: usize = 10_000;
    rung();
    let before = allocations();
    for _ in 0..ROUNDS {
        rung();
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "{name}: allocations in {ROUNDS} rounds");
}

#[test]
fn a_warm_thread_allocates_nothing_on_any_rung_of_the_ladder() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let static_mcs = McsLock::new();
    allocates_nothing_once_warm("static_mcs", || drop(Guard::new(&static_mcs)));
    for name in [
        "mcs",
        "instrumented-mcs",
        "gcr-mcs",
        "pthread",
        "libasl-max",
    ] {
        let lock = dyn_lock(name);
        allocates_nothing_once_warm(name, || drop(lock.lock()));
    }
    // Built, like it is used, under profiling: a sampling cell.
    telemetry::set_profiling(true);
    let instr_on = dyn_lock("instrumented-mcs");
    allocates_nothing_once_warm("instr_on_mcs", || drop(instr_on.lock()));
    telemetry::set_profiling(false);
    let in_epoch = dyn_lock("libasl-60us");
    allocates_nothing_once_warm("libasl_epoch", || {
        epoch::with_epoch(3, 60_000, || drop(in_epoch.lock()))
    });
    let timed_mcs = McsLock::new();
    allocates_nothing_once_warm("timed_mcs", || {
        let token = timed_mcs.try_lock_for(1_000_000).expect("free lock");
        timed_mcs.unlock(token);
    });
}

#[test]
fn a_thread_that_exits_returns_every_node_it_pooled() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mcs = McsLock::new();
    let clh = ClhLock::new();
    let cna = CnaLock::new();
    let cohort = CohortLock::new();
    let malthusian = MalthusianLock::new();
    let shuffle = ShuffleLock::new(FifoPolicy);
    let stp = McsStpLock::new();
    let mcs_held = McsLock::new();
    let held = mcs_held.lock();
    fn once<L: RawLock>(lock: &L) {
        let token = lock.lock();
        lock.unlock(token);
    }
    // What a thread still owes after it is gone, thread-locals
    // destroyed: tracked from its first statement, so the spawn's own
    // bookkeeping (allocated here, freed there) nets the same in both
    // runs and the difference is the nodes alone.
    let owed_after = |touch_locks: bool| {
        let before = tracked_net_bytes();
        let allocated = std::thread::scope(|s| {
            let run = s.spawn(|| {
                track_this_thread();
                let before = allocations();
                if touch_locks {
                    // A free queue lock is its word, whatever its head
                    // policy: no node, no pool.
                    once(&mcs);
                    once(&cna);
                    once(&malthusian);
                    once(&shuffle);
                    assert_eq!(allocations() - before, 0, "uncontended queue locks");
                    // The node comes with the first *wait*, and is
                    // pooled again when the waiter leaves the queue —
                    // here as a head that timed out without the word.
                    assert!(mcs_held.try_lock_for(1_000).is_none());
                    once(&clh);
                    once(&cohort);
                    once(&stp);
                }
                allocations() - before
            });
            run.join().expect("thread ran")
        });
        (tracked_net_bytes() - before, allocated)
    };
    let (idle_owed, idle_allocated) = owed_after(false);
    // The first thread's CLH node stays behind in the lock's queue; the
    // one it pooled instead (the lock's first, allocated on this
    // thread) is what the second thread finds and leaves in turn.
    owed_after(true);
    let (owed, allocated) = owed_after(true);
    assert_eq!(idle_allocated, 0);
    // A node for each of the three kinds that free theirs (the CLH one
    // came from the thread before), and the list of thread-local
    // destructors they made the thread register.
    assert!(allocated >= 3, "{allocated} allocations for three nodes");
    assert_eq!(
        owed, idle_owed,
        "bytes a thread kept of {allocated} allocations"
    );
    mcs_held.unlock(held);
}

/// `ClhLock::try_lock` and `is_locked` read the wait word of whatever
/// node the tail named when they loaded it; by the time they look, its
/// last waiter may have pooled it and exited. So that memory stays a
/// CLH node for good: the exiting thread passes it on.
#[test]
fn a_clh_node_is_never_freed_and_never_leaked() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let lock = ClhLock::new();
    // Lock once, release, exit; (own node, the predecessor's node that
    // `unlock` pooled).
    let one_round_on_a_thread = |watch_pooled: bool| {
        let round = std::thread::scope(|s| {
            let run = s.spawn(|| {
                let (node, pred) = lock.lock().into_words();
                if watch_pooled {
                    watch(pred);
                }
                // SAFETY: the words of the token just taken, unreleased.
                lock.unlock(unsafe { TokenWords::from_words(node, pred) });
                (node, pred)
            });
            run.join().expect("thread ran")
        });
        assert!(!lock.is_locked());
        round
    };
    let (first_own, first_pooled) = one_round_on_a_thread(true);
    assert!(!watched_block_was_freed(), "a pooled CLH node was freed");
    let (second_own, second_pooled) = one_round_on_a_thread(false);
    assert_eq!(second_own, first_pooled, "the retired node was not reused");
    assert_eq!(second_pooled, first_own);
    assert!(!watched_block_was_freed());
}
