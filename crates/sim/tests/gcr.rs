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
//!   oldest waiters, which the contrast run documents.

use std::sync::Arc;

use asl_locks::api::DynLock;
use asl_locks::gcr::{Gcr, GcrConfig};
use asl_locks::McsLock;
use asl_runtime::Topology;
use asl_sim::exec::{run_lock, ZooConfig};

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
