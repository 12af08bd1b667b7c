//! GCR admission control on the simulated machine: exact,
//! deterministic proofs of the wrapper's invariants in virtual time.
//!
//! The unit tests in `asl-locks` stress the same properties under
//! real threads, where the scheduler decides what interleavings
//! happen. Here the cooperative virtual-time engine decides, so the
//! claims are exact and reproducible bit-for-bit:
//!
//! * **admitted-set bound** — `peak_active() <= K` when no forced
//!   reintroduction fires (and `K + 1` ever, by construction);
//! * **no lost wakeups** — even at `K = 1` with every passive wait
//!   going through the park/grant protocol, every thread keeps
//!   completing ops (a lost wakeup would show up as a thread stuck
//!   passive for the whole run);
//! * **bounded passive starvation** — with a small reintroduction
//!   period every thread completes work; with reintroduction
//!   effectively disabled the passive LIFO is allowed to starve the
//!   oldest waiters, which the contrast run documents;
//! * **engagement** — an adaptive wrapper counts nobody until the lock
//!   is contended; from then on counted admissions obey the bound, and
//!   the threads the switch caught in flight, uncounted, drain within
//!   one pass of the inner queue;
//! * **host independence** — a default `K` is sized by the thread that
//!   engages, from the *modeled* machine, so a simulated cell reads
//!   the same on any host.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use asl_locks::api::DynLock;
use asl_locks::gcr::{Gcr, GcrConfig};
use asl_locks::{McsLock, RawLock};
use asl_runtime::work::execute_units;
use asl_runtime::Topology;
use asl_sim::exec::{run_lock, run_threads, ZooConfig};

/// 12 virtual threads on the 8-core model: oversubscribed, the
/// regime GCR exists for.
const THREADS: usize = 12;

fn cfg(threads: usize) -> ZooConfig {
    ZooConfig::quick(Topology::apple_m1(), threads, 42)
}

fn gcr(limit: u32, reintroduce_period: u32) -> Arc<Gcr<DynLock>> {
    Arc::new(Gcr::with_config(
        DynLock::of(McsLock::new()),
        GcrConfig {
            reintroduce_period,
            ..GcrConfig::fixed(limit)
        },
    ))
}

/// The admitted set never exceeds `K` when reintroduction is
/// disabled (period longer than any run): every admission goes
/// through a bounded CAS, so the peak is exact, and the whole result
/// is deterministic.
#[test]
fn admitted_set_bound_holds_exactly_in_virtual_time() {
    let lock = gcr(3, u32::MAX);
    let a = run_lock(&cfg(THREADS), lock.clone());
    assert!(a.total_ops > 0, "no progress under restriction");
    assert_eq!(
        a.total_ops,
        a.per_thread_ops.iter().sum::<u64>(),
        "per-thread counts out of sync"
    );
    assert!(
        lock.peak_active() <= 3,
        "admitted set exceeded K=3: peak={}",
        lock.peak_active()
    );
    assert_eq!(lock.reintroduced(), 0, "period was disabled");
    assert_eq!(lock.active(), 0, "admissions leaked past the run");
    assert_eq!(lock.passive_len(), 0, "passive waiters leaked");

    // Bit-for-bit determinism: same seed, same grant trace.
    let again = gcr(3, u32::MAX);
    let b = run_lock(&cfg(THREADS), again.clone());
    assert_eq!(a, b, "same seed must reproduce the full result");
    assert_eq!(lock.peak_active(), again.peak_active());
}

/// With a small reintroduction period the passive set cannot starve:
/// every one of the 12 threads (on 8 cores, K = 3) completes ops
/// inside the bounded virtual window. With reintroduction disabled
/// the LIFO keeps recent threads circulating — the fairness pulse is
/// load-bearing, not decorative.
#[test]
fn reintroduction_bounds_passive_starvation() {
    let fair = gcr(3, 8);
    let r = run_lock(&cfg(THREADS), fair.clone());
    assert!(
        fair.reintroduced() > 0,
        "the small period must actually pulse"
    );
    for (tid, &ops) in r.per_thread_ops.iter().enumerate() {
        assert!(
            ops > 0,
            "thread {tid} starved despite reintroduction: {:?}",
            r.per_thread_ops
        );
    }
    // K+1 is the hard ceiling once forced admissions run.
    assert!(
        fair.peak_active() <= 4,
        "K+1 bound violated: peak={}",
        fair.peak_active()
    );

    // Determinism of the fair run too.
    let again = gcr(3, 8);
    let r2 = run_lock(&cfg(THREADS), again);
    assert_eq!(r, r2, "same seed must reproduce the fair run");
}

/// The K = 1 torture case: every admission but one goes through the
/// full publish/park/grant protocol, so a single lost wakeup stalls
/// a thread for the whole run. All threads completing ops proves the
/// Dekker publish/check and the slot-transfer wake protocol leave no
/// window.
#[test]
fn no_lost_wakeups_at_k1() {
    let lock = gcr(1, 4);
    let r = run_lock(&cfg(8), lock.clone());
    assert!(r.total_ops > 0);
    assert_eq!(r.total_ops, r.per_thread_ops.iter().sum::<u64>());
    for (tid, &ops) in r.per_thread_ops.iter().enumerate() {
        assert!(
            ops > 0,
            "thread {tid} never ran at K=1: {:?} (lost wakeup?)",
            r.per_thread_ops
        );
    }
    assert_eq!(lock.peak_active().max(1), lock.peak_active());
    assert!(lock.peak_active() <= 2, "K+1 bound at K=1");
    assert_eq!(lock.active(), 0);
    assert_eq!(lock.passive_len(), 0);

    let again = gcr(1, 4);
    let r2 = run_lock(&cfg(8), again);
    assert_eq!(r, r2, "same seed must reproduce");
}

/// An adaptive wrapper (explicit K = 3, so the bound is known) under
/// 12 threads. Sampled by every holder right after its acquisition —
/// exact, the engine runs one thread at a time: whether the gate is
/// engaged, the counted admissions, and the threads in flight that are
/// neither counted nor parked.
#[test]
fn engagement_bounds_the_counted_and_drains_the_uncounted() {
    const K: u32 = 3;
    const OPS: usize = 40;
    let lock = Gcr::with_config(
        DynLock::of(McsLock::new()),
        GcrConfig {
            initial_limit: K,
            min_limit: K,
            max_limit: K,
            reintroduce_period: 8,
            ..GcrConfig::default()
        },
    );
    assert!(!lock.engaged(), "adaptive: starts disengaged");
    let in_flight = AtomicU32::new(0);
    // (engaged, counted, uncounted in flight) per grant, in order.
    let grants = Mutex::new(Vec::new());
    run_threads(&cfg(THREADS), |_tid| {
        for _ in 0..OPS {
            in_flight.fetch_add(1, Ordering::Relaxed);
            let token = lock.lock();
            let uncounted = in_flight.load(Ordering::Relaxed) - lock.active() - lock.passive_len();
            grants
                .lock()
                .unwrap()
                .push((lock.engaged(), lock.active(), uncounted));
            execute_units(1_000);
            lock.unlock(token);
            in_flight.fetch_sub(1, Ordering::Relaxed);
            execute_units(1_000);
        }
    });
    let grants = grants.into_inner().unwrap();
    assert_eq!(grants.len(), THREADS * OPS);

    let engaged_at = grants
        .iter()
        .position(|&(engaged, ..)| engaged)
        .expect("12 threads on one lock never engaged it");
    assert!(engaged_at >= 1, "nobody was waiting at the first grant");
    for &(_, counted, uncounted) in &grants[..engaged_at] {
        assert_eq!(counted, 0, "counted while disengaged");
        assert!(uncounted >= 1, "the holder itself is uncounted");
    }
    // Nobody comes in uncounted any more: the set only shrinks, and a
    // FIFO inner queue has served all of it a pass later.
    let after = &grants[engaged_at..];
    for pair in after.windows(2) {
        assert!(pair[1].2 <= pair[0].2, "uncounted set grew: {pair:?}");
    }
    for (i, &(engaged, counted, uncounted)) in after.iter().enumerate() {
        assert!(counted <= K + 1, "counted {counted} over K + 1");
        if i >= THREADS {
            assert!(engaged, "12 contending threads disengaged the gate");
            assert_eq!(uncounted, 0, "grant {i} after engagement");
            assert!(counted >= 1, "the holder itself is counted");
        }
    }
    assert!(after[0].2 >= 1, "the engaging holder came in uncounted");
    assert!(lock.peak_active() <= K + 1);
    assert!(lock.reintroduced() > 0, "the small period must pulse");
    assert_eq!((lock.active(), lock.passive_len()), (0, 0));
}

/// `Gcr::new` over an erased MCS lock is what the registry's `gcr-mcs`
/// row builds. Its K is sized when it first engages, by the engaging
/// thread — a simulated one here, so from the modeled machine: 4 cores
/// on the `amp-oversub` topology, 8 on the M1's, whatever
/// `available_parallelism()` says about the host running the test.
#[test]
fn a_default_k_is_sized_from_the_modeled_machine() {
    for (topology, cores) in [(Topology::custom(2, 2, 3.0), 4), (Topology::apple_m1(), 8)] {
        assert_eq!(topology.len(), cores as usize);
        let lock = Arc::new(Gcr::new(DynLock::of(McsLock::new())));
        assert_eq!(
            (lock.limit(), lock.max_limit()),
            (0, 0),
            "built on the host"
        );
        let r = run_lock(&ZooConfig::quick(topology, 16, 1), lock.clone());
        assert!(r.total_ops > 0);
        assert!(lock.engaged(), "16 threads on one lock");
        assert_eq!(lock.max_limit(), 2 * cores);
        // The controller moves K one step per decision.
        let initial = i64::from(lock.limit()) - lock.grows() as i64 + lock.shrinks() as i64;
        assert_eq!(initial, i64::from(cores));
    }
}
